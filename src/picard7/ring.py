"""Exact arithmetic in K = Q(i*sqrt(7)) and in the two cyclotomic fields K(zeta_3), K(zeta_7).

Elements of K are stored in the tau-basis, tau = (1+i*sqrt(7))/2, so that
the ring of integers O_7 = Z[tau] is exactly the set of elements with
integer coordinates.  tau satisfies tau^2 = tau - 2, conj(tau) = 1 - tau,
and i*sqrt(7) = 2*tau - 1.

The eigenvalues of elliptic group elements and the coordinates of their
fixed points lie in K, K(zeta_3) or K(zeta_7), zeta_n = exp(2*pi*i/n).
An element of one of the two extension fields is an AlgNum: a polynomial
in zeta_n over K, reduced modulo the hard-coded minimal polynomial of
zeta_n over K.  Its complex enclosures come from interval trigonometry
at zeta_n, so every enclosure is certified.
"""

from __future__ import annotations

import re as _re
from fractions import Fraction

from mpmath import iv as _iv


class PrecisionError(Exception):
    """Raised when a certified comparison cannot be resolved within the precision cap."""

    def __init__(self, message, enclosure=None):
        super().__init__(message)
        self.enclosure = enclosure


#: default starting precision (bits) for interval refinement
DEFAULT_PREC = 128
#: hard cap on interval precision (bits)
MAX_PREC = 4096


class KNum:
    """An element a + b*tau of K = Q(i*sqrt(7)), with a, b rational."""

    __slots__ = ("a", "b")

    def __init__(self, a=0, b=0):
        object.__setattr__(self, "a", Fraction(a))
        object.__setattr__(self, "b", Fraction(b))

    def __setattr__(self, *args):
        raise AttributeError("KNum is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def coerce(x) -> "KNum":
        if isinstance(x, KNum):
            return x
        if isinstance(x, (int, Fraction)):
            return KNum(x, 0)
        raise TypeError(f"cannot coerce {x!r} to KNum")

    # -- structure ----------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = KNum(other)
        if not isinstance(other, KNum):
            return NotImplemented
        return self.a == other.a and self.b == other.b

    def __hash__(self):
        return hash((self.a, self.b))

    def __repr__(self):
        return f"KNum({self.a!r}, {self.b!r})"

    def __str__(self):
        return format_knum(self)

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def is_one(self) -> bool:
        return self.a == 1 and self.b == 0

    def is_rational(self) -> bool:
        return self.b == 0

    def is_real(self) -> bool:
        # Im(a + b*tau) = b*sqrt(7)/2
        return self.b == 0

    def is_integral(self) -> bool:
        return self.a.denominator == 1 and self.b.denominator == 1

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            return KNum(self.a + other, self.b)
        if isinstance(other, KNum):
            return KNum(self.a + other.a, self.b + other.b)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return KNum(-self.a, -self.b)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, KNum)):
            return self + (-KNum.coerce(other))
        return NotImplemented

    def __rsub__(self, other):
        return KNum.coerce(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return KNum(self.a * other, self.b * other)
        if isinstance(other, KNum):
            # (a+b t)(c+d t) with t^2 = t - 2
            a, b, c, d = self.a, self.b, other.a, other.b
            return KNum(a * c - 2 * b * d, a * d + b * c + b * d)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return KNum(self.a / other, self.b / other)
        if isinstance(other, KNum):
            n = other.norm()
            if n == 0:
                raise ZeroDivisionError("division by zero in K")
            return self * other.conj() * Fraction(1, 1) / n
        return NotImplemented

    def __rtruediv__(self, other):
        return KNum.coerce(other) / self

    def __pow__(self, n: int):
        if n < 0:
            return (KNum(1) / self) ** (-n)
        out = KNum(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def conj(self) -> "KNum":
        """Complex conjugate: conj(a + b*tau) = (a+b) - b*tau."""
        return KNum(self.a + self.b, -self.b)

    def norm(self) -> Fraction:
        """Field norm x * conj(x) = a^2 + a*b + 2*b^2 (a nonnegative rational)."""
        return self.a * self.a + self.a * self.b + 2 * self.b * self.b

    def trace(self) -> Fraction:
        return 2 * self.a + self.b

    def abs2(self) -> "KNum":
        """|x|^2 as a KNum (real, rational)."""
        return KNum(self.norm(), 0)

    # -- real-element helpers (generic scalar protocol) ---------------

    def rat(self) -> Fraction:
        if self.b != 0:
            raise ValueError(f"{self} is not rational")
        return self.a

    def real_sign(self) -> int:
        if self.b != 0:
            raise ValueError(f"{self} is not real")
        return (self.a > 0) - (self.a < 0)

    def floor_real(self) -> int:
        if self.b != 0:
            raise ValueError(f"{self} is not real")
        return self.a.__floor__()

    # -- real/imaginary decomposition ---------------------------------

    @property
    def re(self) -> Fraction:
        """Real part, a rational."""
        return self.a + self.b / 2

    @property
    def im_sqrt7(self) -> Fraction:
        """Imaginary part as a multiple of sqrt(7): Im(x) = im_sqrt7 * sqrt(7)."""
        return self.b / 2

    # -- canonical sign -----------------------------------------------

    def sign_key(self):
        """Lexicographic key on (a, b); total order used for sign canonicalization."""
        return (self.a, self.b)

    def is_sign_positive(self) -> bool:
        """True if self > 0 in the lexicographic (a, b) order (self must be nonzero)."""
        return self.sign_key() > (0, 0)


ZERO = KNum(0)
ONE = KNum(1)
TAU = KNum(0, 1)
TAU_BAR = TAU.conj()
ISQRT7 = KNum(-1, 2)  # i*sqrt(7) = 2*tau - 1


def sign_normalize(x: KNum) -> int:
    """Return +1 or -1 so that sign * x is canonical (positive in ring order)."""
    if x.is_zero():
        raise ValueError("cannot sign-normalize zero")
    return 1 if x.is_sign_positive() else -1


# ---------------------------------------------------------------------------
# serialization: "a+b*tau" with exact rationals
# ---------------------------------------------------------------------------

_TERM_RE = _re.compile(
    r"""\s*(?P<sign>[+-]?)\s*
        (?:
          (?P<coef>\d+(?:/\d+)?)\s*(?P<star>\*?)\s*(?P<tau1>tau)?
          | (?P<tau2>tau)
        )\s*""",
    _re.VERBOSE,
)


def parse_knum(s: str) -> KNum:
    """Parse "a+b*tau" (exact rationals; 'tau' may carry no coefficient)."""
    pos = 0
    a = Fraction(0)
    b = Fraction(0)
    s = s.strip()
    if not s:
        raise ValueError("empty K-number literal")
    seen = False
    while pos < len(s):
        m = _TERM_RE.match(s, pos)
        if not m or m.end() == pos:
            raise ValueError(f"bad K-number literal {s!r} at position {pos}")
        sign = -1 if m.group("sign") == "-" else 1
        if m.group("tau2") is not None:
            b += sign
        else:
            try:
                coef = Fraction(m.group("coef"))
            except ZeroDivisionError:
                raise ValueError(f"zero denominator in K-number literal {s!r}") from None
            if m.group("tau1"):
                b += sign * coef
            else:
                a += sign * coef
        pos = m.end()
        seen = True
    if not seen:
        raise ValueError(f"bad K-number literal {s!r}")
    return KNum(a, b)


def format_knum(x: KNum) -> str:
    if x.b == 0:
        return str(x.a)
    if x.a == 0:
        return f"{x.b}*tau"
    bs = f"+{x.b}*tau" if x.b > 0 else f"{x.b}*tau"
    return f"{x.a}{bs}"


# ---------------------------------------------------------------------------
# gcd in O_7 (norm-Euclidean)
# ---------------------------------------------------------------------------


def o_divmod(x: KNum, y: KNum):
    """Euclidean division in O_7: x = q*y + r with N(r) < N(y)."""
    if y.is_zero():
        raise ZeroDivisionError("division by zero in O_7")
    q0 = x / y
    best = None
    fa, fb = q0.a.__floor__(), q0.b.__floor__()
    for da in (0, 1):
        for db in (0, 1):
            q = KNum(fa + da, fb + db)
            r = x - q * y
            key = r.norm()
            if best is None or key < best[0]:
                best = (key, q, r)
    _, q, r = best
    assert r.norm() < y.norm(), "O_7 Euclidean step failed"
    return q, r


def o_gcd(x: KNum, y: KNum) -> KNum:
    """Generator of the ideal <x, y> in O_7, sign-normalized."""
    if not (x.is_integral() and y.is_integral()):
        raise ValueError("o_gcd requires integral arguments")
    if x.is_zero() and y.is_zero():
        raise ValueError("gcd undefined for (0, 0)")
    while not y.is_zero():
        _, r = o_divmod(x, y)
        x, y = y, r
    return x * sign_normalize(x)


def o_gcd_many(xs) -> KNum:
    """gcd of an iterable of O_7 elements (not all zero)."""
    acc = None
    for x in xs:
        x = KNum.coerce(x)
        if x.is_zero():
            continue
        acc = x if acc is None else o_gcd(acc, x)
        if acc.norm() == 1:
            break
    if acc is None:
        raise ValueError("gcd undefined for all-zero input")
    return acc * sign_normalize(acc)


# ---------------------------------------------------------------------------
# polynomials over K (coefficient lists, low degree first)
# ---------------------------------------------------------------------------


def poly_trim(p):
    p = list(p)
    while p and p[-1].is_zero():
        p.pop()
    return p


def poly_add(p, q):
    n = max(len(p), len(q))
    out = []
    for i in range(n):
        c = ZERO
        if i < len(p):
            c = c + p[i]
        if i < len(q):
            c = c + q[i]
        out.append(c)
    return poly_trim(out)


def poly_neg(p):
    return [-c for c in p]


def poly_mul(p, q):
    if not p or not q:
        return []
    out = [ZERO] * (len(p) + len(q) - 1)
    for i, ci in enumerate(p):
        if ci.is_zero():
            continue
        for j, cj in enumerate(q):
            out[i + j] = out[i + j] + ci * cj
    return poly_trim(out)


def poly_divmod(p, q):
    p = poly_trim(p)
    q = poly_trim(q)
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    quot = [ZERO] * max(0, len(p) - len(q) + 1)
    rem = list(p)
    lead = q[-1]
    while len(rem) >= len(q):
        c = rem[-1] / lead
        k = len(rem) - len(q)
        quot[k] = c
        for i, qc in enumerate(q):
            rem[k + i] = rem[k + i] - c * qc
        rem = poly_trim(rem)
        if not rem:
            break
    return poly_trim(quot), rem


def poly_gcd(p, q):
    """Monic gcd in K[x]."""
    p, q = poly_trim(p), poly_trim(q)
    while q:
        _, r = poly_divmod(p, q)
        p, q = q, r
    if p:
        lead = p[-1]
        p = [c / lead for c in p]
    return p


def poly_deriv(p):
    return poly_trim([c * i for i, c in enumerate(p)][1:])


def poly_eval(p, x):
    out = None
    for c in reversed(p):
        out = c if out is None else out * x + c
    if out is None:
        return ZERO
    return out


# ---------------------------------------------------------------------------
# complex interval helpers (rectangles of mpmath.iv intervals)
# ---------------------------------------------------------------------------


def _iv_fraction(x: Fraction):
    return _iv.mpf(x.numerator) / _iv.mpf(x.denominator)


def knum_interval(x: KNum):
    """Rectangular complex enclosure (re, im) of x at the current iv precision."""
    re = _iv_fraction(x.re)
    im = _iv_fraction(x.im_sqrt7) * _iv.sqrt(7)
    return (re, im)


def c_add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def c_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


# ---------------------------------------------------------------------------
# the cyclotomic fields K(zeta_3) and K(zeta_7)
# ---------------------------------------------------------------------------


class Tower:
    """The field K(zeta) for zeta = exp(2*pi*i/n), n = 3 or 7.

    These are the only extensions of K the package works in, and each is
    built once, as the module constants behind `zeta3_tower()` and
    `zeta7_tower()`.  `minpoly` is the monic minimal polynomial of zeta
    over K (coefficients low degree first).  The enclosure of zeta comes
    from interval trigonometry, so it is certified at every precision.
    """

    def __init__(self, n: int, minpoly):
        self.n = n
        self.minpoly = tuple(minpoly)
        self.degree = len(self.minpoly) - 1
        self.key = ("zeta", 1, n)
        # |zeta| = 1, so conj(zeta) = zeta^-1 = zeta^(n-1)
        self.conj_gen = (AlgNum.gen(self) ** (n - 1)).coeffs

    def __repr__(self):
        return f"Tower({self.key})"

    def gen_enclosure(self):
        """Complex interval enclosure of zeta at the current iv precision."""
        angle = 2 * _iv.pi / self.n
        return (_iv.cos(angle), _iv.sin(angle))


class AlgNum:
    """An element of K(zeta), stored as a polynomial in zeta over K.

    Equality with zero is exact (the representation is zero); inequalities
    on real elements use interval refinement with precision doubling.
    """

    __slots__ = ("tower", "coeffs")

    def __init__(self, tower: Tower, coeffs):
        coeffs = list(coeffs)
        assert len(coeffs) <= tower.degree
        coeffs += [ZERO] * (tower.degree - len(coeffs))
        object.__setattr__(self, "tower", tower)
        object.__setattr__(self, "coeffs", tuple(coeffs))

    def __setattr__(self, *args):
        raise AttributeError("AlgNum is immutable")

    @staticmethod
    def gen(tower: Tower) -> "AlgNum":
        return AlgNum(tower, [ZERO, ONE])

    @staticmethod
    def lift(tower: Tower, x) -> "AlgNum":
        return AlgNum(tower, [KNum.coerce(x)])

    def _match(self, other):
        if isinstance(other, (int, Fraction, KNum)):
            return AlgNum.lift(self.tower, KNum.coerce(other))
        if isinstance(other, AlgNum):
            if other.tower is not self.tower:
                raise ValueError("AlgNum tower mismatch")
            return other
        return None

    # -- structure ----------------------------------------------------

    def __eq__(self, other):
        o = self._match(other)
        if o is None:
            return NotImplemented
        return self.coeffs == o.coeffs

    def __hash__(self):
        return hash((self.tower.key, self.coeffs))

    def __repr__(self):
        terms = ", ".join(str(c) for c in self.coeffs)
        return f"AlgNum[{self.tower.key}]({terms})"

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def is_one(self) -> bool:
        return self.coeffs[0].is_one() and all(c.is_zero() for c in self.coeffs[1:])

    def k_part(self) -> KNum:
        """The element as a KNum; raises if it is not in K."""
        if any(not c.is_zero() for c in self.coeffs[1:]):
            raise ValueError(f"{self!r} is not in K")
        return self.coeffs[0]

    def in_k(self) -> bool:
        return all(c.is_zero() for c in self.coeffs[1:])

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        o = self._match(other)
        if o is None:
            return NotImplemented
        return AlgNum(self.tower, [x + y for x, y in zip(self.coeffs, o.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return AlgNum(self.tower, [-x for x in self.coeffs])

    def __sub__(self, other):
        o = self._match(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._match(other)
        if o is None:
            return NotImplemented
        prod = poly_mul(list(self.coeffs), list(o.coeffs))
        _, rem = poly_divmod(prod, list(self.tower.minpoly))
        return AlgNum(self.tower, rem)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._match(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        out = AlgNum.lift(self.tower, ONE)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def inverse(self) -> "AlgNum":
        if self.is_zero():
            raise ZeroDivisionError("division by zero in K(zeta)")
        # extended Euclid in K[x] against the (irreducible) minimal polynomial
        a = list(self.tower.minpoly)
        b = poly_trim(list(self.coeffs))
        s0, s1 = [], [ONE]
        while b:
            q, r = poly_divmod(a, b)
            a, b = b, r
            s0, s1 = s1, poly_add(s0, poly_neg(poly_mul(q, s1)))
        assert len(a) == 1, "minimal polynomial not irreducible over K"
        inv_lead = ONE / a[0]
        _, rem = poly_divmod([c * inv_lead for c in s0], list(self.tower.minpoly))
        return AlgNum(self.tower, rem)

    def conj(self) -> "AlgNum":
        cg = AlgNum(self.tower, self.tower.conj_gen)
        out = AlgNum.lift(self.tower, ZERO)
        for c in reversed(self.coeffs):
            out = out * cg + AlgNum.lift(self.tower, c.conj())
        return out

    def abs2(self) -> "AlgNum":
        return self * self.conj()

    # -- certified numerics -------------------------------------------

    def enclosure(self, prec: int = DEFAULT_PREC):
        """Complex interval (re, im) containing the value, at `prec` bits."""
        old = _iv.prec
        _iv.prec = prec
        try:
            lam = self.tower.gen_enclosure()
            out = None
            for c in reversed(self.coeffs):
                cv = knum_interval(c)
                out = cv if out is None else c_add(c_mul(out, lam), cv)
            return out
        finally:
            _iv.prec = old

    def is_real(self) -> bool:
        return (self - self.conj()).is_zero()

    def real_sign(self) -> int:
        """Exact sign of a real element (-1, 0, +1)."""
        if self.is_zero():
            return 0
        if not self.is_real():
            raise ValueError(f"{self!r} is not real")
        prec = DEFAULT_PREC
        while prec <= MAX_PREC:
            re, _ = self.enclosure(prec)
            if re > 0:
                return 1
            if re < 0:
                return -1
            prec *= 2
        raise PrecisionError("sign of nonzero real did not resolve", self.enclosure(MAX_PREC))

    def floor_real(self) -> int:
        """Floor of a real element."""
        if not self.is_real():
            raise ValueError(f"{self!r} is not real")
        if self.in_k():
            return self.k_part().floor_real()
        import math

        prec = DEFAULT_PREC
        while prec <= MAX_PREC:
            re, _ = self.enclosure(prec)
            lo = math.floor(float(re.a))
            hi = math.floor(float(re.b))
            if lo == hi:
                return lo
            if hi == lo + 1:
                # boundary candidate hi: decide x - hi exactly (it is in K iff
                # the element is rational, which was excluded; so refine)
                diff = self - hi
                if diff.is_zero():
                    return hi
            prec *= 2
        raise PrecisionError("floor did not resolve", self.enclosure(MAX_PREC))


def scalar(x):
    """Coerce ints/Fractions to KNum; pass KNum/AlgNum through."""
    if isinstance(x, (KNum, AlgNum)):
        return x
    return KNum.coerce(x)


def real_cmp(x, y) -> int:
    """Exact comparison of two real scalars (KNum or AlgNum, mixed allowed)."""
    return (x - y).real_sign()


def alg_floor(x) -> int:
    """Floor of a real scalar (KNum or AlgNum)."""
    return scalar(x).floor_real()


# Phi_3 = x^2 + x + 1 is irreducible over K.  Phi_7 splits over K into two
# conjugate cubics; the one kept has the roots zeta, zeta^2, zeta^4 of
# zeta = exp(2*pi*i/7).  Their elementary symmetric functions are the
# quadratic Gauss sum zeta + zeta^2 + zeta^4 = tau - 1, its conjugate
# zeta^3 + zeta^5 + zeta^6 = -tau, and zeta^7 = 1, which gives
# x^3 + (1 - tau) x^2 - tau x - 1.
_ZETA3 = Tower(3, (ONE, ONE, ONE))
_ZETA7 = Tower(7, (-ONE, -TAU, ONE - TAU, ONE))


def zeta3_tower() -> Tower:
    return _ZETA3


def zeta7_tower() -> Tower:
    return _ZETA7
