"""Exact arithmetic in K = Q(i*sqrt(7)) and in the two cyclotomic fields K(zeta_3), K(zeta_7).

Elements of K are stored in the tau-basis, tau = (1+i*sqrt(7))/2, so that
the ring of integers O_7 = Z[tau] is exactly the set of elements with
integer coordinates.  tau satisfies tau^2 = tau - 2, conj(tau) = 1 - tau,
and i*sqrt(7) = 2*tau - 1.

A KNum is three Python ints (a, b, d) for (a + b*tau)/d in normal form
(d > 0, gcd(a, b, d) = 1), so O_7 is the set of elements with d = 1 and its
arithmetic, the norm and Euclid's algorithm (o_gcd) run on ints alone.
Fractions appear only at the edges: KNum(a, b) accepts them, `.a`, `.b`,
`rat()` and the norm of a non-integral element return them, formatting
goes through them, and no operator takes one; parsing reads ints.

The eigenvalues of elliptic group elements and the coordinates of their
fixed points lie in K, K(zeta_3) or K(zeta_7), zeta_n = exp(2*pi*i/n).
An element of one of these two fields is an AlgNum: ints over one
denominator D > 0, in a normal form where equality is tuple equality.
The two fields are two concrete classes that say what the ints are and
give their products, automorphisms, signs and floors on ints; everything
else is one int-vector code path for both:

- K(zeta_3) = Q(sqrt(-7), sqrt(-3)) is biquadratic (Zeta3Tower): x =
  ((a0 + b0 tau) + (a1 + b1 tau) zeta_3)/D.  Its real elements lie in
  Q(sqrt(21)), so their signs and floors are decided exactly on the ints.
- K(zeta_7) = Q(zeta_7) (Zeta7Tower): x = sum f_k zeta_7^k / D, k = 1 .. 6.
  A product is a cyclic convolution, and the automorphisms permute the
  f_k.  A real element is an int combination of eta_k = zeta_7^k +
  zeta_7^-k over D, so its sign and floor are decided on ints against a
  dyadic bracket of eta_1.

A real element of either field is also its real ints over D: its ints in
a basis of the real subfield whose first element is 1, two for K(zeta_3)
and three for K(zeta_7) (`real_part`, `real_field`).  Each field splits
x = a + b tau into real a and b on ints (`real_split`), and decides the
sign and floor of a real element on its real ints.

A vector over either field is three tuples of its ints (`field_of` tells
the field by their number).  Its K-coefficient vectors, one for each power
zeta^j of the power basis, are the six ints of the int pairs of its three
coordinates' K-coefficients at zeta^j, which a matrix over K or a column of
O_7^3 acts on; each field gives them and takes them back (`k_vectors`,
`from_k_vectors`), and takes the K-coefficient int pairs of one element to
its ints (`from_k_ints`).  K(zeta_3)'s ints are those pairs, so its
K-coefficient vectors regroup them as they are; K(zeta_7)'s convert to
them and back (`k_ints`).
The root of unity an eigenvalue needs is named by its order alone
(`root_of_unity`): no other module names a field.

No field uses floating point or interval libraries: every sign is exact.
"""

import re as _re
from fractions import Fraction
from functools import cache, reduce
from math import gcd, isqrt, lcm


class KNum:
    """An element (a + b*tau)/d of K = Q(i*sqrt(7)), stored as three Python ints.

    The stored triple is in normal form: d > 0 and gcd(a, b, d) = 1, so two
    elements are equal exactly when their triples are, and an element of
    O_7 has d = 1.  Arithmetic works on the ints, with a KNum or an int
    operand; a result with d = 1 skips the gcd.  The constructor KNum(a, b)
    takes ints or Fractions for the two tau-coordinates, and `.a`, `.b`
    return them as Fractions: those serve the edges (parsing, formatting,
    sort keys, JSON, residue maps).  Equality and repr agree with the pair
    (a/d, b/d) of Fractions, and so does the hash, except that a rational
    hashes like its Fraction value.  An integral rational equals its int.
    """

    __slots__ = ("na", "nb", "d")

    def __init__(self, a=0, b=0):
        if type(a) is int and type(b) is int:
            _set_na(self, a)
            _set_nb(self, b)
            _set_d(self, 1)
            return
        fa, fb = Fraction(a), Fraction(b)
        # the two fractions are reduced, so scaling both to the lcm of their
        # denominators gives a triple in normal form
        d = lcm(fa.denominator, fb.denominator)
        _set_na(self, fa.numerator * (d // fa.denominator))
        _set_nb(self, fb.numerator * (d // fb.denominator))
        _set_d(self, d)

    def __setattr__(self, *args):
        raise AttributeError("KNum is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def coerce(x) -> "KNum":
        if isinstance(x, KNum):
            return x
        if isinstance(x, int):
            return KNum(x, 0)
        raise TypeError(f"cannot coerce {x!r} to KNum")

    # -- structure ----------------------------------------------------

    @property
    def a(self) -> Fraction:
        """The rational coordinate of 1."""
        return Fraction(self.na, self.d)

    @property
    def b(self) -> Fraction:
        """The rational coordinate of tau."""
        return Fraction(self.nb, self.d)

    def __eq__(self, other):
        if isinstance(other, KNum):
            return self.na == other.na and self.nb == other.nb and self.d == other.d
        if isinstance(other, int):
            return self.nb == 0 and self.d == 1 and self.na == other
        return NotImplemented

    def __hash__(self):
        # a rational hashes like its Fraction value, and so an integral one
        # like its int, which it equals: {KNum(1), 1} has one element.  A
        # Fraction does not compare equal to a KNum.  Otherwise hash((a, b))
        # of the two Fraction coordinates
        if self.nb == 0:
            return hash(self.na) if self.d == 1 else hash(Fraction(self.na, self.d))
        if self.d == 1:
            return hash((self.na, self.nb))
        return hash((self.a, self.b))

    def __repr__(self):
        return f"KNum({self.a!r}, {self.b!r})"

    def __str__(self):
        return format_knum(self)

    def is_zero(self) -> bool:
        return self.na == 0 and self.nb == 0

    def is_one(self) -> bool:
        return self.na == 1 and self.nb == 0 and self.d == 1

    def is_integral(self) -> bool:
        return self.d == 1

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, KNum):
            d, e = self.d, other.d
            if d == e:
                return knum_from_ints(self.na + other.na, self.nb + other.nb, d)
            return knum_from_ints(self.na * e + other.na * d, self.nb * e + other.nb * d, d * e)
        if isinstance(other, int):
            # gcd(a + c*d, b, d) = gcd(a, b, d) = 1
            return _knum(self.na + other * self.d, self.nb, self.d)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return _knum(-self.na, -self.nb, self.d)

    def __sub__(self, other):
        if isinstance(other, KNum):
            d, e = self.d, other.d
            if d == e:
                return knum_from_ints(self.na - other.na, self.nb - other.nb, d)
            return knum_from_ints(self.na * e - other.na * d, self.nb * e - other.nb * d, d * e)
        if isinstance(other, int):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, int):
            return -self + other
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, KNum):
            # (a + b t)(c + e t) with t^2 = t - 2
            a, b, c, e = self.na, self.nb, other.na, other.nb
            be = b * e
            return knum_from_ints(a * c - 2 * be, a * e + b * c + be, self.d * other.d)
        if isinstance(other, int):
            return knum_from_ints(self.na * other, self.nb * other, self.d)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, KNum):
            # x / y = x * conj(y) / N(y), and N(y) = n / f^2 for y = (c + e t)/f
            c, e, f = other.na, other.nb, other.d
            n = c * c + c * e + 2 * e * e
            if n == 0:
                raise ZeroDivisionError("division by zero in K")
            a, b = self.na, self.nb
            p, q = c + e, -e  # conj(c + e t) = (c + e) - e t
            bq = b * q
            return knum_from_ints((a * p - 2 * bq) * f, (a * q + b * p + bq) * f, self.d * n)
        if isinstance(other, int):
            if other == 0:
                raise ZeroDivisionError("division by zero in K")
            if other < 0:
                return knum_from_ints(-self.na, -self.nb, -self.d * other)
            return knum_from_ints(self.na, self.nb, self.d * other)
        return NotImplemented

    def conj(self) -> "KNum":
        """Complex conjugate: conj(a + b*tau) = (a+b) - b*tau."""
        return _knum(self.na + self.nb, -self.nb, self.d)

    def norm(self):
        """Field norm x * conj(x) = a^2 + a*b + 2*b^2, a nonnegative rational
        (an int when x is integral)."""
        a, b, d = self.na, self.nb, self.d
        n = a * a + a * b + 2 * b * b
        return n if d == 1 else Fraction(n, d * d)

    # -- real-element helpers (generic scalar protocol) ---------------

    def real_sign(self) -> int:
        if self.nb != 0:
            raise ValueError(f"{self} is not real")
        a = self.na
        return (a > 0) - (a < 0)


# KNum.__setattr__ refuses every write, so new triples go in through the
# slot descriptors, bound once here
_new_knum = object.__new__
_set_na = KNum.na.__set__
_set_nb = KNum.nb.__set__
_set_d = KNum.d.__set__


def _knum(a: int, b: int, d: int) -> KNum:
    """The KNum (a + b*tau)/d for a triple already in normal form."""
    x = _new_knum(KNum)
    _set_na(x, a)
    _set_nb(x, b)
    _set_d(x, d)
    return x


def knum_from_ints(a: int, b: int, d: int = 1) -> KNum:
    """The KNum (a + b*tau)/d for ints with d > 0, brought to normal form."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            a, b, d = a // g, b // g, d // g
    return _knum(a, b, d)


ZERO = KNum(0)
ONE = KNum(1)
TAU = KNum(0, 1)
TAU_BAR = TAU.conj()
ISQRT7 = KNum(-1, 2)  # i*sqrt(7) = 2*tau - 1


# ---------------------------------------------------------------------------
# serialization: "a+b*tau" with exact rationals
# ---------------------------------------------------------------------------

_TERM_RE = _re.compile(
    r"""\s*(?P<sign>[+-]?)\s*
        (?:
          (?P<coef>\d+(?:/\d+)?)(?:\s*\*?\s*(?P<tau1>tau))?
          | (?P<tau2>tau)
        )\s*""",
    _re.VERBOSE | _re.ASCII,
)


def parse_knum(s: str) -> KNum:
    """Parse "a+b*tau" (exact rationals; 'tau' may carry no coefficient).

    Every term after the first needs its sign, and '*' may only join a
    coefficient to tau, so "1 2", "tau tau" and "1*" are refused, and so
    is a digit or a space outside ASCII.  The two coordinates are summed
    as int numerator/denominator pairs.
    """
    pos = 0
    an, ad, bn, bd = 0, 1, 0, 1
    s = s.strip()
    if not s:
        raise ValueError("empty K-number literal")
    while pos < len(s):
        m = _TERM_RE.match(s, pos)
        if not m or (pos and not m.group("sign")):
            raise ValueError(f"bad K-number literal {s!r} at position {pos}")
        sign = -1 if m.group("sign") == "-" else 1
        if m.group("tau2") is not None:
            bn += sign * bd
        else:
            p, _, q = m.group("coef").partition("/")
            p, q = sign * int(p), int(q or 1)
            if q == 0:
                raise ValueError(f"zero denominator in K-number literal {s!r}")
            if m.group("tau1"):
                bn, bd = bn * q + p * bd, bd * q
            else:
                an, ad = an * q + p * ad, ad * q
        pos = m.end()
    return knum_from_ints(an * bd, bn * ad, ad * bd)


def format_knum(x: KNum) -> str:
    # an int prints like the Fraction of the same value
    a, b = (x.na, x.nb) if x.d == 1 else (x.a, x.b)
    if b == 0:
        return str(a)
    if a == 0:
        return f"{b}*tau"
    bs = f"+{b}*tau" if b > 0 else f"{b}*tau"
    return f"{a}{bs}"


# ---------------------------------------------------------------------------
# gcd in O_7 (norm-Euclidean)
# ---------------------------------------------------------------------------


def _divmod_ints(a: int, b: int, c: int, e: int):
    """Euclidean division of a + b*tau by c + e*tau != 0 in O_7, on ints.

    The quotient is the corner of the unit square below x/y that leaves the
    remainder of least norm; the first such corner in the order (0, 0),
    (0, 1), (1, 0), (1, 1) wins.  Returns (q, r) as int pairs.
    """
    n = c * c + c * e + 2 * e * e
    # x * conj(y) = s + t*tau, and x / y = (s + t*tau) / n
    f, g = c + e, -e
    bg = b * g
    s, t = a * f - 2 * bg, a * g + b * f + bg
    fa, fb = s // n, t // n
    best = None
    for qa in (fa, fa + 1):
        for qb in (fb, fb + 1):
            qe = qb * e
            ra = a - (qa * c - 2 * qe)
            rb = b - (qa * e + qb * c + qe)
            key = ra * ra + ra * rb + 2 * rb * rb
            if best is None or key < best[0]:
                best = (key, qa, qb, ra, rb)
    key, qa, qb, ra, rb = best
    if not key < n:
        raise ArithmeticError("O_7 Euclidean step failed")
    return (qa, qb), (ra, rb)


def _gcd_ints(a: int, b: int, c: int, e: int):
    """A generator of the ideal <a + b*tau, c + e*tau> of O_7, not sign-normalized."""
    while c or e:
        _, (ra, rb) = _divmod_ints(a, b, c, e)
        a, b, c, e = c, e, ra, rb
    return a, b


def _sign_normalized(a: int, b: int) -> KNum:
    """The one of +/-(a + b*tau) that is positive in the lexicographic (a, b) order."""
    if a < 0 or (a == 0 and b < 0):
        a, b = -a, -b
    return _knum(a, b, 1)


def o_gcd(x: KNum, y: KNum) -> KNum:
    """Generator of the ideal <x, y> in O_7, sign-normalized."""
    if not (x.is_integral() and y.is_integral()):
        raise ValueError("o_gcd requires integral arguments")
    if x.is_zero() and y.is_zero():
        raise ValueError("gcd undefined for (0, 0)")
    return _sign_normalized(*_gcd_ints(x.na, x.nb, y.na, y.nb))


def o_gcd_many(xs) -> KNum:
    """gcd of an iterable of O_7 elements (not all zero), sign-normalized."""
    acc = ZERO
    for x in xs:
        if not x.is_zero():
            acc = o_gcd(acc, x)
            if acc.is_one():
                break  # the unit ideal
    if acc.is_zero():
        raise ValueError("gcd undefined for all-zero input")
    return acc


# ---------------------------------------------------------------------------
# the cyclotomic fields K(zeta_3) and K(zeta_7)
# ---------------------------------------------------------------------------


def sqrt21_sign(m: int, n: int) -> int:
    """Exact sign of m + n sqrt(21) for ints m, n."""
    sm, sn = (m > 0) - (m < 0), (n > 0) - (n < 0)
    if sm == sn or sn == 0:
        return sm
    if sm == 0:
        return sn
    # opposite signs: compare m^2 with 21 n^2; they are never equal, as
    # sqrt(21) is irrational
    return sm if m * m > 21 * n * n else sn


class Zeta3Tower:
    """K(zeta_3) = Q(sqrt(-7), sqrt(-3)), with its arithmetic, signs and floors on four ints.

    x = C0 + C1 zeta, zeta = zeta_3, with K-coefficients C_j = (a_j + b_j
    tau)/D over one denominator, is the four ints f = (a0, b0, a1, b1)
    over D.  zeta has the minimal polynomial x^2 + x + 1 over K,
    zeta^2 = -1 - zeta and conj(zeta) = zeta^2, so for integral X = C0 +
    C1 zeta and Y = E0 + E1 zeta:

    - X*Y = (C0 E0 - C1 E1) + (C0 E1 + C1 E0 - C1 E1) zeta;
    - conj(X) = (conj(C0) - conj(C1)) - conj(C1) zeta;
    - the Galois conjugate of X over K (zeta -> zeta^2) is (C0 - C1) - C1 zeta.

    The field is biquadratic, and its real elements form Q(sqrt(21)): x is
    real iff 2 a1 + b1 = 0 and 2 b0 = b1, and then x = (a0 + b0 w)/D with
    w = tau - zeta + 2 tau zeta = (1 - sqrt(21))/2.  Its real ints are
    (p, q) = (a0, b0), and 2 D x = (2 p + q) - q sqrt(21), so its sign and
    floor are decided on ints, with no precision loop.
    """

    n = 3
    degree = 2
    key = ("zeta", 1, 3)
    zeta = (0, 0, 1, 0)

    def lift(self, a: int, b: int):
        return a, b, 0, 0

    def from_k_ints(self, c):
        """The ints of the element with the K-coefficient int pairs c: those pairs."""
        return c

    def k_vectors(self, fs):
        """The K-coefficient vectors of the vector with the field ints fs, at
        1 and at zeta: coordinate k is (a_k, b_k, c_k, e_k), with the
        K-coefficients a_k + b_k tau and c_k + e_k tau."""
        (a1, b1, c1, e1), (a2, b2, c2, e2), (a3, b3, c3, e3) = fs
        return (a1, b1, a2, b2, a3, b3), (c1, e1, c2, e2, c3, e3)

    def from_k_vectors(self, ps):
        """The field ints of the vector with the K-coefficient vectors ps."""
        (a1, b1, a2, b2, a3, b3), (c1, e1, c2, e2, c3, e3) = ps
        return (a1, b1, c1, e1), (a2, b2, c2, e2), (a3, b3, c3, e3)

    def as_int(self, f):
        """The int c with f = lift(c, 0), or None when there is none."""
        return None if f[1] or f[2] or f[3] else f[0]

    def mul(self, f, g):
        a0, b0, a1, b1 = f
        g0, h0, g1, h1 = g
        # the four products C_i E_j as int pairs, with tau^2 = tau - 2
        t = b0 * h0
        p00a, p00b = a0 * g0 - 2 * t, a0 * h0 + b0 * g0 + t
        t = b0 * h1
        p01a, p01b = a0 * g1 - 2 * t, a0 * h1 + b0 * g1 + t
        t = b1 * h0
        p10a, p10b = a1 * g0 - 2 * t, a1 * h0 + b1 * g0 + t
        t = b1 * h1
        p11a, p11b = a1 * g1 - 2 * t, a1 * h1 + b1 * g1 + t
        return (p00a - p11a, p00b - p11b, p01a + p10a - p11a, p01b + p10b - p11b)

    def conj(self, f):
        # conj(a + b tau) = (a + b) - b tau
        a0, b0, a1, b1 = f
        return a0 + b0 - a1 - b1, b1 - b0, -a1 - b1, b1

    def images(self, f):
        """The three images of f under the automorphisms of the field other than 1."""
        a0, b0, a1, b1 = f
        g = a0 - a1, b0 - b1, -a1, -b1
        return self.conj(f), g, self.conj(g)

    def real_part(self, f):
        """The real ints (p, q) of a real element with the ints f."""
        return f[:2]

    def real_split(self, f):
        """The real ints of 7 a and 7 b for x = a + b tau with the ints f,
        a and b real: b = (x - conj(x))/sqrt(-7), and a = x - b tau."""
        a0, b0, a1, b1 = f
        return (7 * a0 - 4 * a1 - 2 * b1, a1 + 4 * b1), (7 * b0 + a1 - 3 * b1, -2 * a1 - b1)

    def real_sign(self, r) -> int:
        """Exact sign of the real element with the real ints r."""
        p, q = r
        return sqrt21_sign(2 * p + q, -q)

    def floor_real(self, r, den: int) -> int:
        """Floor of the real element with the real ints r over den > 0."""
        # 2 den x = P + y with y = -q sqrt(21), and for an int P and M > 0,
        # floor((P + y)/M) = floor((P + floor(y))/M).  y is irrational unless
        # q = 0, so floor(-sqrt(S)) = -isqrt(S) - 1 for q > 0
        p, q = r
        y = isqrt(21 * q * q)
        return (2 * p + q + (y if q <= 0 else -y - 1)) // (2 * den)


#: bits of the first dyadic bracket of eta_1 that eta_sign and Zeta7Tower.floor_real try
_ETA_START_BITS = 64


@cache
def _eta_brackets(p: int):
    """Ints (lo_k, hi_k) with lo_k < 2^p eta_k < hi_k, for k = 1, 2, 3.

    eta_1 = 2 cos(2 pi/7) is the one root of x^3 + x^2 - 2x - 1 in (1, 2),
    bisected on the grid 2^-p (it is irrational, so never on the grid);
    eta_2 = eta_1^2 - 2 and eta_3 = -1 - eta_1 - eta_2, rounded outward.
    """
    s = 1 << p
    lo, hi = s, 2 * s
    while hi - lo > 1:
        mid = (lo + hi) >> 1
        if mid * mid * mid + mid * mid * s - 2 * mid * s * s - s * s * s < 0:
            lo = mid
        else:
            hi = mid
    lo2 = (lo * lo >> p) - 2 * s
    hi2 = -(-hi * hi >> p) - 2 * s
    return (lo, hi), (lo2, hi2), (-s - hi - hi2, -s - lo - lo2)


def eta_sign(e1: int, e2: int, e3: int) -> int:
    """Exact sign of e1 eta_1 + e2 eta_2 + e3 eta_3 for ints e_k.

    As the eta_k sum to -1, the value is -e1 when e1 = e2 = e3, and
    irrational otherwise: then the brackets of _eta_brackets at 64, 128,
    256, ... bits decide its sign, with no cap.
    """
    if e1 == e2 == e3:
        return (e1 < 0) - (e1 > 0)
    p = _ETA_START_BITS
    while True:
        (l1, h1), (l2, h2), (l3, h3) = _eta_brackets(p)
        if e1 < 0:
            l1, h1 = h1, l1
        if e2 < 0:
            l2, h2 = h2, l2
        if e3 < 0:
            l3, h3 = h3, l3
        if e1 * l1 + e2 * l2 + e3 * l3 > 0:
            return 1
        if e1 * h1 + e2 * h2 + e3 * h3 < 0:
            return -1
        p *= 2


class Zeta7Tower:
    """K(zeta_7) = Q(zeta_7), with its arithmetic, signs and floors on six ints.

    zeta, ..., zeta^6 is a basis of Q(zeta) over Q, zeta = zeta_7
    (Washington, GTM 83, ch. 2), so x is six ints f = (f_1, .., f_6) over
    one denominator D, x = sum f_k zeta^k / D.  Seven terms f_k zeta^k,
    k mod 7, come back to this form less f_0 (1 + zeta + ... + zeta^6),
    which is zero.  Then

    - a product is the cyclic convolution of the f_k mod 7;
    - conj maps f_k to f_(7-k), and x is real iff f_k = f_(7-k);
    - the other automorphisms of Q(zeta) map f_k to f_(gk), g = 2 .. 6;
    - x lies in K iff f_1 = f_2 = f_4 and f_3 = f_5 = f_6, as tau = 1 +
      zeta + zeta^2 + zeta^4, and then x = (-f_1 + (f_1 - f_3) tau)/D.

    A real x is (f_1 eta_1 + f_2 eta_2 + f_3 eta_3)/D with eta_k = zeta^k
    + zeta^-k.  As the eta_k sum to -1, its real ints in the basis 1,
    eta_1, eta_2 are (-f_3, f_1 - f_3, f_2 - f_3), x is the rational -f_1/D
    if f_1 = f_2 = f_3, and irrational otherwise: then a fine enough
    bracket decides its sign and floor, and needs no cap.
    """

    n = 7
    degree = 3
    key = ("zeta", 1, 7)
    zeta = (1, 0, 0, 0, 0, 0)

    def k_ints(self, f):
        """The int pairs (a0, b0, a1, b1, a2, b2) of the K-coefficients c_j =
        a_j + b_j tau of f = c_0 + c_1 zeta + c_2 zeta^2 (`from_k_ints`):
        the equations for f_3, f_5 and f_6 give c = -(a0 + b0) first."""
        f1, f2, f3, f4, f5, f6 = f
        c = f5 + f6 - f3
        b1, b2 = f5 - c, f6 - c
        b0 = f4 - c - b2
        return -c - b0, b0, f1 - c - b0 - b1, b1, f2 - c - b0 - b1 - b2, b2

    def from_k_ints(self, c):
        """The ints of the element with the K-coefficient int pairs c: with
        c_j = a_j + b_j tau, x = (a0 + b0) + (b0 + a1 + b1) zeta + (b0 + b1
        + a2 + b2) zeta^2 + (b1 + b2) zeta^3 + (b0 + b2) zeta^4 + b1 zeta^5
        + b2 zeta^6, and f_k is that coefficient less a0 + b0."""
        a0, b0, a1, b1, a2, b2 = c
        e = a0 + b0
        return b0 + a1 + b1 - e, b0 + b1 + a2 + b2 - e, b1 + b2 - e, b0 + b2 - e, b1 - e, b2 - e

    def k_vectors(self, fs):
        """The K-coefficient vectors of the vector with the field ints fs, at
        1, zeta and zeta^2: coordinate k's `k_ints` are (a_k, b_k, c_k, e_k,
        g_k, h_k), with the K-coefficients a_k + b_k tau, c_k + e_k tau and
        g_k + h_k tau."""
        (a1, b1, c1, e1, g1, h1), (a2, b2, c2, e2, g2, h2), (a3, b3, c3, e3, g3, h3) = map(self.k_ints, fs)
        return (a1, b1, a2, b2, a3, b3), (c1, e1, c2, e2, c3, e3), (g1, h1, g2, h2, g3, h3)

    def from_k_vectors(self, ps):
        """The field ints of the vector with the K-coefficient vectors ps,
        each coordinate's by `from_k_ints`."""
        (a1, b1, a2, b2, a3, b3), (c1, e1, c2, e2, c3, e3), (g1, h1, g2, h2, g3, h3) = ps
        from_k = self.from_k_ints
        return from_k((a1, b1, c1, e1, g1, h1)), from_k((a2, b2, c2, e2, g2, h2)), from_k((a3, b3, c3, e3, g3, h3))

    def lift(self, a: int, b: int):
        # a + b tau = (a + b) + b (zeta + zeta^2 + zeta^4)
        return -a, -a, -a - b, -a, -a - b, -a - b

    def as_int(self, f):
        """The int c with f = lift(c, 0), or None when there is none."""
        return -f[0] if f[0] == f[1] == f[2] == f[3] == f[4] == f[5] else None

    def mul(self, f, g):
        f1, f2, f3, f4, f5, f6 = f
        g1, g2, g3, g4, g5, g6 = g
        h0 = f1 * g6 + f2 * g5 + f3 * g4 + f4 * g3 + f5 * g2 + f6 * g1
        return (
            f2 * g6 + f3 * g5 + f4 * g4 + f5 * g3 + f6 * g2 - h0,
            f1 * g1 + f3 * g6 + f4 * g5 + f5 * g4 + f6 * g3 - h0,
            f1 * g2 + f2 * g1 + f4 * g6 + f5 * g5 + f6 * g4 - h0,
            f1 * g3 + f2 * g2 + f3 * g1 + f5 * g6 + f6 * g5 - h0,
            f1 * g4 + f2 * g3 + f3 * g2 + f4 * g1 + f6 * g6 - h0,
            f1 * g5 + f2 * g4 + f3 * g3 + f4 * g2 + f5 * g1 - h0,
        )

    def conj(self, f):
        return f[::-1]

    def images(self, f):
        """The five images of f under the automorphisms of the field other than 1."""
        pad = (0,) + f
        return [tuple(pad[g * k % 7] for k in range(1, 7)) for g in range(2, 7)]

    def real_part(self, f):
        """The real ints (c0, c1, c2) of a real element with the ints f:
        c0 + c1 eta_1 + c2 eta_2."""
        return -f[2], f[0] - f[2], f[1] - f[2]

    def real_split(self, f):
        """The real ints of 7 a and 7 b for x = a + b tau with the ints f,
        a and b real.  With d_k = f_k - f_(7-k), -7 b = (x - conj(x))
        sqrt(-7), for the Gauss sum sqrt(-7) = zeta + zeta^2 + zeta^4 -
        zeta^3 - zeta^5 - zeta^6, and 2 a = x + conj(x) - b."""
        f1, f2, f3, f4, f5, f6 = f
        d1, d2, d3 = f1 - f6, f2 - f5, f3 - f4
        s3 = f3 + f4
        b = (2 * d1 + 4 * d2 - d3, d1 + 2 * d2 + 3 * d3, 3 * d2 + d3 - 2 * d1)
        return ((-7 * s3 - b[0]) // 2, (7 * (f1 + f6 - s3) - b[1]) // 2, (7 * (f2 + f5 - s3) - b[2]) // 2), b

    def real_sign(self, r) -> int:
        """Exact sign of the real element with the real ints r."""
        c0, c1, c2 = r
        return eta_sign(c1 - c0, c2 - c0, -c0)

    def dyadic_bracket(self, r, p: int):
        """Ints lo <= 2^p x <= hi for the real element x with the real ints
        r, a few units apart; lo = hi = 2^p x for a rational x."""
        c0, c1, c2 = r
        if not (c1 or c2):
            return c0 << p, c0 << p
        lo = hi = 0
        for k, (l, h) in zip((c1 - c0, c2 - c0, -c0), _eta_brackets(p)):
            lo, hi = (lo + k * l, hi + k * h) if k >= 0 else (lo + k * h, hi + k * l)
        return lo, hi

    def floor_real(self, r, den: int) -> int:
        """Floor of the real element with the real ints r over den > 0:
        the floor of both ends of its bracket at p = 64, 128, 256, ...
        once they agree."""
        p = _ETA_START_BITS
        while True:
            lo, hi = self.dyadic_bracket(r, p)
            k = lo // (den << p)
            if k == hi // (den << p):
                return k
            p *= 2


class AlgNum:
    """An element of K(zeta_3) or K(zeta_7): ints over one denominator.

    `ints` and `den` are in normal form, den > 0 and gcd(ints, den) = 1; the
    field (Zeta3Tower, Zeta7Tower) says what the ints are.  Sums, products,
    conj and |x|^2 are the same int operations in both fields, on the
    field's products and automorphisms; an operand is an AlgNum of the
    field, a KNum or an int.  The sign of a real element is exact: an int
    test in Q(sqrt(21)) for K(zeta_3), and in K(zeta_7) one against a dyadic
    bracket refined until it decides.

    No command builds one: the package's paths take a tower vector's ints
    themselves, and a tower ProjPoint builds AlgNums only when its `coords`
    are read.  The class is that view, with the operations the benchmark
    times on it.
    """

    __slots__ = ("tower", "ints", "den")

    # == raises TypeError rather than compare by identity, and the class is
    # unhashable: compare (ints, den) instead
    __eq__ = None

    def __setattr__(self, *args):
        raise AttributeError("AlgNum is immutable")

    def _operand(self, other):
        """(ints, den) of other in this field, or None for a type it does not take."""
        if isinstance(other, AlgNum):
            if other.tower is not self.tower:
                raise ValueError("AlgNum tower mismatch")
            return other.ints, other.den
        if isinstance(other, int):
            return self.tower.lift(other, 0), 1
        if isinstance(other, KNum):
            return self.tower.lift(other.na, other.nb), other.d
        return None

    def __repr__(self):
        return f"AlgNum[{self.tower.key}]({self.ints}/{self.den})"

    def is_zero(self) -> bool:
        return not any(self.ints)

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        (f, d), (g, e) = (self.ints, self.den), o
        if d == e:
            return _alg(self.tower, tuple(a + b for a, b in zip(f, g)), d)
        return _alg(self.tower, tuple(a * e + b * d for a, b in zip(f, g)), d * e)

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, int):
            return _alg(self.tower, tuple(other * a for a in self.ints), self.den)
        o = self._operand(other)
        if o is None:
            return NotImplemented
        return _alg(self.tower, self.tower.mul(self.ints, o[0]), self.den * o[1])

    __rmul__ = __mul__

    def conj(self) -> "AlgNum":
        return _alg(self.tower, self.tower.conj(self.ints), self.den)

    def abs2(self) -> "AlgNum":
        tw, f = self.tower, self.ints
        return _alg(tw, tw.mul(f, tw.conj(f)), self.den * self.den)

    # -- signs ----------------------------------------------------------

    def _real_ints(self):
        if not self.is_real():
            raise ValueError(f"{self!r} is not real")
        return self.tower.real_part(self.ints)

    def enclosure(self, prec: int):
        """Rational bracket (lo, hi) of a real element of K(zeta_7), about
        2^-prec wide; lo = hi for a rational element."""
        lo, hi = self.tower.dyadic_bracket(self._real_ints(), prec)
        return Fraction(lo, self.den << prec), Fraction(hi, self.den << prec)

    def is_real(self) -> bool:
        return self.tower.conj(self.ints) == self.ints

    def real_sign(self) -> int:
        """Exact sign of a real element (-1, 0, +1); raises ValueError if it is not real."""
        return self.tower.real_sign(self._real_ints())


# AlgNum.__setattr__ refuses every write, as KNum's does
_set_tower = AlgNum.tower.__set__
_set_ints = AlgNum.ints.__set__
_set_den = AlgNum.den.__set__


def _alg(tower: Zeta3Tower | Zeta7Tower, f: tuple, den: int) -> AlgNum:
    """The AlgNum f/den of tower for a tuple of ints f and an int den > 0, brought to normal form."""
    if den != 1:
        g = gcd(den, *f)
        if g != 1:
            f = tuple(a // g for a in f)
            den //= g
    x = object.__new__(AlgNum)
    _set_tower(x, tower)
    _set_ints(x, f)
    _set_den(x, den)
    return x


#: the two fields; only the tests name them, and the package reaches them
#: through an element's ints (`field_of`, `real_field`) or the order of a
#: root of unity (`root_of_unity`)
ZETA3 = Zeta3Tower()
ZETA7 = Zeta7Tower()


def adjugate(tw: Zeta3Tower | Zeta7Tower, f):
    """(adj, n) for nonzero ints f of the field tw: adj the product of the
    other images of f, and n = f adj its norm over Q, a positive int (the
    field is totally imaginary), so that 1/f = adj/n."""
    adj = reduce(tw.mul, tw.images(f))
    return adj, tw.as_int(tw.mul(f, adj))


def field_of(f) -> Zeta3Tower | Zeta7Tower:
    """The field of the ints f of an element: four for K(zeta_3), six for K(zeta_7)."""
    return ZETA3 if len(f) == 4 else ZETA7


def real_field(r) -> Zeta3Tower | Zeta7Tower:
    """The field of the real ints r: two for K(zeta_3), three for K(zeta_7)."""
    return ZETA3 if len(r) == 2 else ZETA7


def root_of_unity(n: int):
    """(tw, z): the field tw and the ints z of a primitive n-th root of
    unity, for n = 3, 6 or 7.  1 + zeta_3 = -zeta_3^2 is a primitive sixth
    root; K(zeta_3) holds it.  Any other n raises ValueError."""
    if n == 7:
        return ZETA7, ZETA7.zeta
    if n == 3:
        return ZETA3, ZETA3.zeta
    if n == 6:
        return ZETA3, (1, 0, 1, 0)
    raise ValueError(f"unsupported eigenvalue field for projective order {n}")
