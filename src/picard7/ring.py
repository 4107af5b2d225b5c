"""Exact arithmetic in K = Q(i*sqrt(7)) and in the two cyclotomic fields K(zeta_3), K(zeta_7).

Elements of K are stored in the tau-basis, tau = (1+i*sqrt(7))/2, so that
the ring of integers O_7 = Z[tau] is exactly the set of elements with
integer coordinates.  tau satisfies tau^2 = tau - 2, conj(tau) = 1 - tau,
and i*sqrt(7) = 2*tau - 1.

A KNum is three Python ints (a, b, d) for (a + b*tau)/d in normal form
(d > 0, gcd(a, b, d) = 1), so O_7 is the set of elements with d = 1 and its
arithmetic, the norm and Euclid's algorithm (o_gcd) run on ints alone.
Fractions appear only at the edges: the constructor accepts them, `.a`,
`.b` and `rat()` return them, and parsing and formatting go through them.

The eigenvalues of elliptic group elements and the coordinates of their
fixed points lie in K, K(zeta_3) or K(zeta_7), zeta_n = exp(2*pi*i/n).
An element of one of the two extension fields is an AlgNum: its K-coefficients
in the power basis 1, zeta_n, ..., zeta_n^(d-1), d the degree of the
minimal polynomial of zeta_n over K.  The two fields are two concrete
classes, each with its own arithmetic on ints, and AlgNum hands every
product, conjugate, |x|^2, inverse, sign and floor to its field:

- K(zeta_3) = Q(sqrt(-7), sqrt(-3)) is biquadratic (Zeta3Tower).  Its
  products, conjugates and inverses are closed formulas in the two
  K-coefficients, and its real elements lie in Q(sqrt(21)), so their signs
  and floors are decided exactly on the KNum ints.
- K(zeta_7) = Q(zeta_7) (Zeta7Tower) computes on the seven int
  coordinates of an element over Q in zeta_7^k, k mod 7: a product is a
  cyclic convolution, conj and the other automorphisms permute the
  coordinates.  Its real subfield is the cubic field Q(eta_1), eta_k =
  zeta_7^k + zeta_7^-k, and a real element is an int combination of
  eta_1, eta_2, eta_3 over one denominator, so its sign and floor are
  decided on ints against a dyadic bracket of eta_1.

No field uses floating point or interval libraries: every sign is exact.
"""

from __future__ import annotations

import math
import re as _re
from fractions import Fraction
from functools import cache
from math import gcd, isqrt, lcm
from operator import mul


class KNum:
    """An element (a + b*tau)/d of K = Q(i*sqrt(7)), stored as three Python ints.

    The stored triple is in normal form: d > 0 and gcd(a, b, d) = 1, so two
    elements are equal exactly when their triples are, and an element of
    O_7 has d = 1.  Arithmetic works on the ints; a result with d = 1 skips
    the gcd.  The constructor KNum(a, b) still takes ints or Fractions for
    the two tau-coordinates, and `.a`, `.b` return them as Fractions: those
    serve the edges (parsing, formatting, sort keys, JSON, residue maps).
    Equality and repr agree with the pair (a/d, b/d) of Fractions, and so
    does the hash, except that a rational hashes like its int or Fraction
    value, which it equals.
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
        if isinstance(x, (int, Fraction)):
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
        if type(other) is Fraction:
            return self.nb == 0 and self.na == other.numerator and self.d == other.denominator
        return NotImplemented

    def __hash__(self):
        # a rational equals its int or Fraction, so it hashes like it (an
        # int hashes like the Fraction of the same value); otherwise
        # hash((a, b)) of the two Fraction coordinates
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

    def is_real(self) -> bool:
        # Im(a + b*tau) = b*sqrt(7)/2
        return self.nb == 0

    def is_integral(self) -> bool:
        return self.d == 1

    # -- arithmetic ---------------------------------------------------

    # A Fraction operand is tested by its exact type: Fraction is an abstract
    # base class, so an isinstance test against it is an ABCMeta call, paid
    # by every AlgNum operand on its way to NotImplemented.

    def __add__(self, other):
        if isinstance(other, KNum):
            d, e = self.d, other.d
            if d == e:
                return knum_from_ints(self.na + other.na, self.nb + other.nb, d)
            return knum_from_ints(self.na * e + other.na * d, self.nb * e + other.nb * d, d * e)
        if isinstance(other, int):
            # gcd(a + c*d, b, d) = gcd(a, b, d) = 1
            return _knum(self.na + other * self.d, self.nb, self.d)
        if type(other) is Fraction:
            p, q = other.numerator, other.denominator
            return knum_from_ints(self.na * q + p * self.d, self.nb * q, self.d * q)
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
        if isinstance(other, int) or type(other) is Fraction:
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, (int, Fraction)):
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
        if type(other) is Fraction:
            p = other.numerator
            return knum_from_ints(self.na * p, self.nb * p, self.d * other.denominator)
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
        if isinstance(other, int) or type(other) is Fraction:
            if other == 0:
                raise ZeroDivisionError("division by zero in K")
            p, q = other.numerator, other.denominator
            if p < 0:
                p, q = -p, -q
            return knum_from_ints(self.na * q, self.nb * q, self.d * p)
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return KNum.coerce(other) / self
        return NotImplemented

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
        return _knum(self.na + self.nb, -self.nb, self.d)

    def norm(self):
        """Field norm x * conj(x) = a^2 + a*b + 2*b^2, a nonnegative rational
        (an int when x is integral)."""
        a, b, d = self.na, self.nb, self.d
        n = a * a + a * b + 2 * b * b
        return n if d == 1 else Fraction(n, d * d)

    def trace(self):
        """x + conj(x) = 2a + b, a rational (an int when x is integral)."""
        t = 2 * self.na + self.nb
        return t if self.d == 1 else Fraction(t, self.d)

    def abs2(self) -> "KNum":
        """|x|^2 as a KNum (real, rational)."""
        a, b, d = self.na, self.nb, self.d
        n = a * a + a * b + 2 * b * b
        return knum_from_ints(n, 0, d * d)

    # -- real-element helpers (generic scalar protocol) ---------------

    def rat(self) -> Fraction:
        if self.nb != 0:
            raise ValueError(f"{self} is not rational")
        return self.a

    def real_sign(self) -> int:
        if self.nb != 0:
            raise ValueError(f"{self} is not real")
        a = self.na
        return (a > 0) - (a < 0)

    def floor_real(self) -> int:
        if self.nb != 0:
            raise ValueError(f"{self} is not real")
        return self.na // self.d

    # -- canonical sign -----------------------------------------------

    def is_sign_positive(self) -> bool:
        """True if self > 0 in the lexicographic (a, b) order (self must be nonzero)."""
        # d > 0, so (a/d, b/d) and (a, b) have the same signs
        return self.na > 0 or (self.na == 0 and self.nb > 0)


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
    _re.VERBOSE,
)


def parse_knum(s: str) -> KNum:
    """Parse "a+b*tau" (exact rationals; 'tau' may carry no coefficient).

    Every term after the first needs its sign, and '*' may only join a
    coefficient to tau, so "1 2", "tau tau" and "1*" are refused.
    """
    pos = 0
    a = Fraction(0)
    b = Fraction(0)
    s = s.strip()
    if not s:
        raise ValueError("empty K-number literal")
    while pos < len(s):
        m = _TERM_RE.match(s, pos)
        if not m or (pos and not m.group("sign")):
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
    return KNum(a, b)


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
    acc = None
    for x in xs:
        if x.is_zero():
            continue
        if acc is None:
            if not x.is_integral():
                raise ValueError("o_gcd requires integral arguments")
            acc = _sign_normalized(x.na, x.nb)
        else:
            acc = o_gcd(acc, x)
        if acc.is_one():
            break  # the unit ideal
    if acc is None:
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
    """K(zeta_3) = Q(sqrt(-7), sqrt(-3)), with closed-form arithmetic on the KNum ints.

    An element is c0 + c1*zeta, zeta = zeta_3, with K-coefficients c0, c1:
    zeta has the minimal polynomial x^2 + x + 1 over K (`minpoly`, low
    degree first).  zeta^2 = -1 - zeta and conj(zeta) = zeta^2, so for
    x = c0 + c1*zeta and y = e0 + e1*zeta:

    - x*y = (c0 e0 - c1 e1) + (c0 e1 + c1 e0 - c1 e1) zeta;
    - conj(x) = (conj(c0) - conj(c1)) - conj(c1) zeta;
    - the Galois conjugate of x (zeta -> zeta^2) is (c0 - c1) - c1 zeta, and
      x times it is the norm c0^2 - c0 c1 + c1^2, in K;
    - |x|^2 = N(c0) + N(c1) - conj(w) + (w - conj(w)) zeta, w = conj(c0) c1.

    The field is biquadratic, and its real elements form Q(sqrt(21)).  With
    c_k = (a_k + b_k tau)/d_k, Re(x) = Re(c0) - Re(c1)/2 - sqrt(3)/2 Im(c1)
    and Im(x) = Im(c0) - Im(c1)/2 + sqrt(3)/2 Re(c1), a rational multiple of
    sqrt(7) plus one of sqrt(3).  So x is real iff Re(c1) = 0 and
    Im(c0) = Im(c1)/2, that is 2 a1 + b1 = 0 and 2 b0 d1 = b1 d0.  A real x
    is then P/(2 d0) + Q sqrt(21)/(4 d1) with P = 2 a0 + b0 and Q = -b1, so
    its sign and floor are decided on ints, with no precision loop.
    """

    n = 3
    degree = 2
    key = ("zeta", 1, 3)
    # Phi_3 = x^2 + x + 1 is irreducible over K
    minpoly = (ONE, ONE, ONE)

    def mul(self, x: "AlgNum", y: "AlgNum") -> "AlgNum":
        (c0, c1), (e0, e1) = x.coeffs, y.coeffs
        a0, b0, d0 = c0.na, c0.nb, c0.d
        a1, b1, d1 = c1.na, c1.nb, c1.d
        g0, h0, f0 = e0.na, e0.nb, e0.d
        g1, h1, f1 = e1.na, e1.nb, e1.d
        # the four products c_i e_j as int pairs over d_i f_j, with tau^2 = tau - 2
        t = b0 * h0
        p00a, p00b = a0 * g0 - 2 * t, a0 * h0 + b0 * g0 + t
        t = b0 * h1
        p01a, p01b = a0 * g1 - 2 * t, a0 * h1 + b0 * g1 + t
        t = b1 * h0
        p10a, p10b = a1 * g0 - 2 * t, a1 * h0 + b1 * g0 + t
        t = b1 * h1
        p11a, p11b = a1 * g1 - 2 * t, a1 * h1 + b1 * g1 + t
        # everything over den = d0 d1 f0 f1
        s00, s01, s10, s11 = d1 * f1, d1 * f0, d0 * f1, d0 * f0
        den = s00 * s11
        return _alg(self, (
            knum_from_ints(p00a * s00 - p11a * s11, p00b * s00 - p11b * s11, den),
            knum_from_ints(p01a * s01 + p10a * s10 - p11a * s11,
                           p01b * s01 + p10b * s10 - p11b * s11, den),
        ))

    def conj(self, x: "AlgNum") -> "AlgNum":
        c0, c1 = x.coeffs
        c1bar = c1.conj()
        return _alg(self, (c0.conj() - c1bar, -c1bar))

    def abs2(self, x: "AlgNum") -> "AlgNum":
        # |c0 + c1 zeta|^2 = N(c0) + N(c1) + w zeta + conj(w) conj(zeta) with
        # w = conj(c0) c1 = (p + q tau)/(d0 d1), and conj(zeta) = -1 - zeta,
        # so it is N(c0) + N(c1) - conj(w) + (w - conj(w)) zeta, where
        # w - conj(w) = q (2 tau - 1)/(d0 d1)
        c0, c1 = x.coeffs
        a0, b0, d0 = c0.na, c0.nb, c0.d
        a1, b1, d1 = c1.na, c1.nb, c1.d
        p, q = a0 * a1 + b0 * (a1 + 2 * b1), a0 * b1 - b0 * a1
        n0, n1 = a0 * a0 + a0 * b0 + 2 * b0 * b0, a1 * a1 + a1 * b1 + 2 * b1 * b1
        dd = d0 * d1
        return _alg(self, (
            knum_from_ints(n0 * d1 * d1 + n1 * d0 * d0 - (p + q) * dd, q * dd, dd * dd),
            knum_from_ints(-q, 2 * q, dd),
        ))

    def inverse(self, x: "AlgNum") -> "AlgNum":
        c0, c1 = x.coeffs
        g = c0 - c1
        norm = c0 * g + c1 * c1
        return _alg(self, (g / norm, -c1 / norm))

    def is_real(self, x: "AlgNum") -> bool:
        c0, c1 = x.coeffs
        return 2 * c1.na + c1.nb == 0 and 2 * c0.nb * c1.d == c1.nb * c0.d

    def _sqrt21_parts(self, x: "AlgNum"):
        """(P, Q, d0, d1) with x = P/(2 d0) + Q sqrt(21)/(4 d1); raises if x is not real."""
        if not self.is_real(x):
            raise ValueError(f"{x!r} is not real")
        c0, c1 = x.coeffs
        return 2 * c0.na + c0.nb, -c1.nb, c0.d, c1.d

    def real_sign(self, x: "AlgNum") -> int:
        p, q, d0, d1 = self._sqrt21_parts(x)
        # 4 d0 d1 x = 2 d1 P + d0 Q sqrt(21)
        return sqrt21_sign(2 * d1 * p, d0 * q)

    def floor_real(self, x: "AlgNum") -> int:
        p, q, d0, d1 = self._sqrt21_parts(x)
        # 8 d0 d1 x = 4 d1 P + y with y = 2 d0 Q sqrt(21), and for an int N and
        # M > 0, floor((N + y)/M) = floor((N + floor(y))/M).  y is irrational
        # unless Q = 0, so floor(-sqrt(S)) = -isqrt(S) - 1 for Q < 0.
        r = isqrt(21 * (2 * d0 * q) ** 2)
        return (4 * d1 * p + (r if q >= 0 else -r - 1)) // (8 * d0 * d1)


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


def zeta7_ints(x: "AlgNum"):
    """(f, D): seven ints f_k and an int D > 0 with D x = sum f_k zeta_7^k, k = 0 .. 6.

    With the K-coefficients of x over their common denominator D, c_j =
    (a_j + b_j tau)/D, and tau = 1 + zeta + zeta^2 + zeta^4, the term
    c_j zeta^j spreads over zeta^j, zeta^(j+1), zeta^(j+2), zeta^(j+4).
    """
    c0, c1, c2 = x.coeffs
    den = c0.d
    if c1.d == den and c2.d == den:
        a0, b0, a1, b1, a2, b2 = c0.na, c0.nb, c1.na, c1.nb, c2.na, c2.nb
    else:
        den = lcm(den, c1.d, c2.d)
        s0, s1, s2 = den // c0.d, den // c1.d, den // c2.d
        a0, b0, a1, b1 = c0.na * s0, c0.nb * s0, c1.na * s1, c1.nb * s1
        a2, b2 = c2.na * s2, c2.nb * s2
    return (a0 + b0, b0 + a1 + b1, b0 + b1 + a2 + b2, b1 + b2, b0 + b2, b1, b2), den


def _zeta7_from_ints(tower: "Zeta7Tower", f, den: int) -> "AlgNum":
    """The AlgNum (sum f_k zeta_7^k)/den for seven ints f_k and an int den > 0.

    The f_k are zeta7_ints of some element plus c (1 + zeta + ... + zeta^6),
    which is zero, and the three equations for f_3, f_5, f_6 give c first.
    """
    f0, f1, f2, f3, f4, f5, f6 = f
    c = f5 + f6 - f3
    b1, b2 = f5 - c, f6 - c
    b0 = f4 - c - b2
    a0 = f0 - c - b0
    a1 = f1 - c - b0 - b1
    a2 = f2 - c - b0 - b1 - b2
    return _alg(tower, (knum_from_ints(a0, b0, den), knum_from_ints(a1, b1, den),
                        knum_from_ints(a2, b2, den)))


def zeta7_autocorr(f):
    """(h_0, h_1, h_2, h_3), h_m = sum_i f_i f_(i-m) (indices mod 7).

    |sum f_k zeta^k|^2 = sum h_m zeta^m for ints f_k, and h_(7-m) = h_m.
    """
    f0, f1, f2, f3, f4, f5, f6 = f
    return (
        f0 * f0 + f1 * f1 + f2 * f2 + f3 * f3 + f4 * f4 + f5 * f5 + f6 * f6,
        f0 * f6 + f1 * f0 + f2 * f1 + f3 * f2 + f4 * f3 + f5 * f4 + f6 * f5,
        f0 * f5 + f1 * f6 + f2 * f0 + f3 * f1 + f4 * f2 + f5 * f3 + f6 * f4,
        f0 * f4 + f1 * f5 + f2 * f6 + f3 * f0 + f4 * f1 + f5 * f2 + f6 * f3,
    )


def _cyclic_mul(f, g):
    """The ints h_k of (sum f_k zeta^k)(sum g_k zeta^k) = sum h_k zeta^k, as zeta^7 = 1."""
    r = tuple(reversed(g)) * 2
    return [sum(map(mul, f, r[6 - k:13 - k])) for k in range(7)]


class Zeta7Tower:
    """K(zeta_7) = Q(zeta_7), with its arithmetic and its signs and floors on ints.

    An element is c0 + c1 zeta + c2 zeta^2, zeta = zeta_7, with
    K-coefficients c_j; zeta has degree 3 over K (`minpoly`).  Every
    operation rewrites x over Q first (`zeta7_ints`): D x = sum f_k zeta^k,
    k mod 7, for ints f_k and D.  These f_k are unique up to adding one int
    to all seven, as 1 + zeta + ... + zeta^6 = 0, and zeta, ..., zeta^6 is a
    basis of Q(zeta) over Q (Washington, GTM 83, ch. 2).  Then

    - a product is the cyclic convolution of the f_k mod 7;
    - conj maps f_k to f_(-k), and x is real iff f_k = f_(7-k);
    - |D x|^2 = sum h_m zeta^m with the autocorrelation h_m = sum_i f_i
      f_(i-m) (zeta7_autocorr);
    - the other automorphisms of Q(zeta) map f_k to f_(gk), g = 2 .. 6, and
      the product adj of these five images of D x gives h = D x adj, the
      norm of D x: a positive int n = h_0 - h_1 (h_k = h_1 for k > 0).
      So 1/x = D adj/n.

    A real x has D x = e1 eta_1 + e2 eta_2 + e3 eta_3 with e_k = f_k - f_0
    and eta_k = zeta^k + zeta^-k.  As the eta_k sum to -1, x is the
    rational -e1/D if e1 = e2 = e3, and irrational otherwise: then a fine
    enough bracket decides its sign and floor, and needs no cap.
    """

    n = 7
    degree = 3
    key = ("zeta", 1, 7)
    # Phi_7 splits over K into two conjugate cubics; the one kept has the
    # roots zeta, zeta^2, zeta^4 of zeta = exp(2*pi*i/7).  Their
    # elementary symmetric functions are the quadratic Gauss sum
    # zeta + zeta^2 + zeta^4 = tau - 1, its conjugate
    # zeta^3 + zeta^5 + zeta^6 = -tau, and zeta^7 = 1, which gives
    # x^3 + (1 - tau) x^2 - tau x - 1.
    minpoly = (-ONE, -TAU, ONE - TAU, ONE)

    def mul(self, x: "AlgNum", y: "AlgNum") -> "AlgNum":
        f, d = zeta7_ints(x)
        g, e = zeta7_ints(y)
        return _zeta7_from_ints(self, _cyclic_mul(f, g), d * e)

    def conj(self, x: "AlgNum") -> "AlgNum":
        (f0, f1, f2, f3, f4, f5, f6), d = zeta7_ints(x)
        return _zeta7_from_ints(self, (f0, f6, f5, f4, f3, f2, f1), d)

    def abs2(self, x: "AlgNum") -> "AlgNum":
        f, d = zeta7_ints(x)
        h0, h1, h2, h3 = zeta7_autocorr(f)
        return _zeta7_from_ints(self, (h0, h1, h2, h3, h3, h2, h1), d * d)

    def inverse(self, x: "AlgNum") -> "AlgNum":
        f, d = zeta7_ints(x)
        adj = [f[2 * k % 7] for k in range(7)]
        for g in range(3, 7):
            adj = _cyclic_mul(adj, [f[g * k % 7] for k in range(7)])
        h = _cyclic_mul(f, adj)
        return _zeta7_from_ints(self, [d * a for a in adj], h[0] - h[1])

    def is_real(self, x: "AlgNum") -> bool:
        f, _ = zeta7_ints(x)
        return f[1] == f[6] and f[2] == f[5] and f[3] == f[4]

    def _eta_coords(self, x: "AlgNum"):
        """(e1, e2, e3, D) with x = (e1 eta_1 + e2 eta_2 + e3 eta_3)/D; raises if x is not real."""
        f, den = zeta7_ints(x)
        if f[1] != f[6] or f[2] != f[5] or f[3] != f[4]:
            raise ValueError(f"{x!r} is not real")
        return f[1] - f[0], f[2] - f[0], f[3] - f[0], den

    def enclosure(self, x: "AlgNum", p: int):
        """Fractions lo <= x <= hi for a real x, about 2^-p apart; lo = hi = x for a rational x."""
        e1, e2, e3, den = self._eta_coords(x)
        if e1 == e2 == e3:
            v = Fraction(-e1, den)
            return v, v
        lo = hi = 0
        for e, (l, h) in zip((e1, e2, e3), _eta_brackets(p)):
            lo, hi = (lo + e * l, hi + e * h) if e >= 0 else (lo + e * h, hi + e * l)
        return Fraction(lo, den << p), Fraction(hi, den << p)

    def real_sign(self, x: "AlgNum") -> int:
        e1, e2, e3, _ = self._eta_coords(x)
        return eta_sign(e1, e2, e3)

    def floor_real(self, x: "AlgNum") -> int:
        """The floor from x.enclosure(p) at p = 64, 128, 256, ... once both ends agree."""
        p = _ETA_START_BITS
        lo, hi = x.enclosure(p)
        while math.floor(lo) != math.floor(hi):
            p *= 2
            lo, hi = x.enclosure(p)
        return math.floor(lo)


class AlgNum:
    """An element of K(zeta), stored by its coefficients in the power basis of zeta.

    Products, conjugates, |x|^2, inverses, realness, signs and floors are
    the field's (see Zeta3Tower and Zeta7Tower).  Equality with zero is
    exact (the representation is zero), and so is the sign of a real
    element: an int test in Q(sqrt(21)) for K(zeta_3), and in K(zeta_7) an
    int test against a dyadic bracket refined until it decides.
    """

    __slots__ = ("tower", "coeffs")

    def __init__(self, tower: Zeta3Tower | Zeta7Tower, coeffs):
        coeffs = list(coeffs)
        if len(coeffs) > tower.degree:
            raise ValueError(f"{len(coeffs)} coefficients for a field of degree {tower.degree}")
        coeffs += [ZERO] * (tower.degree - len(coeffs))
        _set_tower(self, tower)
        _set_coeffs(self, tuple(coeffs))

    def __setattr__(self, *args):
        raise AttributeError("AlgNum is immutable")

    @staticmethod
    def gen(tower: Zeta3Tower | Zeta7Tower) -> "AlgNum":
        return AlgNum(tower, [ZERO, ONE])

    @staticmethod
    def lift(tower: Zeta3Tower | Zeta7Tower, x) -> "AlgNum":
        return AlgNum(tower, [KNum.coerce(x)])

    # Each operation tests for AlgNum first and Fraction last: Fraction is an
    # abstract base class, so an isinstance test against it is an ABCMeta call.

    def _match(self, other):
        if isinstance(other, AlgNum):
            if other.tower is not self.tower:
                raise ValueError("AlgNum tower mismatch")
            return other
        if isinstance(other, (int, KNum, Fraction)):
            return AlgNum.lift(self.tower, other)
        return None

    # -- structure ----------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, AlgNum) and other.tower is not self.tower:
            # the two fields meet in K
            return self.in_k() and other.in_k() and self.coeffs[0] == other.coeffs[0]
        o = self._match(other)
        if o is None:
            return NotImplemented
        return self.coeffs == o.coeffs

    def __hash__(self):
        # an element of K equals its KNum, so it must hash like it
        if self.in_k():
            return hash(self.coeffs[0])
        return hash((self.tower.key, self.coeffs))

    def __repr__(self):
        terms = ", ".join(str(c) for c in self.coeffs)
        return f"AlgNum[{self.tower.key}]({terms})"

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def k_part(self) -> KNum:
        """The element as a KNum; raises if it is not in K."""
        if any(not c.is_zero() for c in self.coeffs[1:]):
            raise ValueError(f"{self!r} is not in K")
        return self.coeffs[0]

    def in_k(self) -> bool:
        return all(c.is_zero() for c in self.coeffs[1:])

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, AlgNum):
            o = self._match(other).coeffs
            return AlgNum(self.tower, [x + y for x, y in zip(self.coeffs, o)])
        if isinstance(other, (int, KNum, Fraction)):
            return AlgNum(self.tower, (self.coeffs[0] + other,) + self.coeffs[1:])
        return NotImplemented

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
        if isinstance(other, AlgNum):
            return self.tower.mul(self, self._match(other))
        if isinstance(other, (int, KNum, Fraction)):
            return AlgNum(self.tower, [c * other for c in self.coeffs])
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, AlgNum):
            return self * self._match(other).inverse()
        if isinstance(other, (int, KNum, Fraction)):
            return AlgNum(self.tower, [c / other for c in self.coeffs])
        return NotImplemented

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
        return self.tower.inverse(self)

    def conj(self) -> "AlgNum":
        return self.tower.conj(self)

    def abs2(self) -> "AlgNum":
        return self.tower.abs2(self)

    # -- signs and floors ---------------------------------------------

    def enclosure(self, prec: int):
        """Rational bracket (lo, hi) of a real element of K(zeta_7), about 2^-prec wide."""
        return self.tower.enclosure(self, prec)

    def is_real(self) -> bool:
        return self.tower.is_real(self)

    def real_sign(self) -> int:
        """Exact sign of a real element (-1, 0, +1); raises ValueError if it is not real."""
        return self.tower.real_sign(self)

    def floor_real(self) -> int:
        """Floor of a real element; raises ValueError if it is not real."""
        return self.tower.floor_real(self)


# AlgNum.__setattr__ refuses every write, as KNum's does
_set_tower = AlgNum.tower.__set__
_set_coeffs = AlgNum.coeffs.__set__


def _alg(tower: Zeta3Tower | Zeta7Tower, coeffs: tuple) -> AlgNum:
    """The AlgNum with a full tuple of KNum coefficients, unchecked."""
    x = object.__new__(AlgNum)
    _set_tower(x, tower)
    _set_coeffs(x, coeffs)
    return x


_ZETA3 = Zeta3Tower()
_ZETA7 = Zeta7Tower()


def zeta3_tower() -> Zeta3Tower:
    return _ZETA3


def zeta7_tower() -> Zeta7Tower:
    return _ZETA7
