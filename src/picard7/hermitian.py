"""The Hermitian form J, elements of Gamma and projective points.

Conventions: <v,w> = w* J v with J the antidiagonal form
[[0,0,1],[0,1,0],[1,0,0]].  The point at infinity is q_inf = (1,0,0);
boundary points (z,t) lift to ((-|z|^2+it)/2, z, 1), interior points
(z,t,u) to ((-|z|^2+it-u)/2, z, 1).  The cusp group reads (z, t) off a
vector in `heisenberg.prism_coordinates`.

An element of Gamma is a GroupElt, which does Gamma's algebra on the 18
ints of its matrix; a Mat, a matrix over K, serves literals and JSON.
"""

import json
from collections import namedtuple
from functools import cache
from math import gcd, isqrt, lcm

from .ring import (
    KNum,
    adjugate,
    field_of,
    format_knum,
    knum_from_ints,
    parse_knum,
    _alg,
    _gcd_ints,
)


def herm_inner(v, w):
    """<v,w> = w* J v = conj(w1) v3 + conj(w2) v2 + conj(w3) v1."""
    v1, v2, v3 = v
    w1, w2, w3 = w
    if type(v1) is type(v2) is type(v3) is type(w1) is type(w2) is type(w3) is KNum:
        return _herm_inner_k(v1, v2, v3, w1, w2, w3)
    return w1.conj() * v3 + w2.conj() * v2 + w3.conj() * v1


def _herm_inner_k(v1, v2, v3, w1, w2, w3) -> KNum:
    """herm_inner on K^3, on the ints of the KNum triples.

    conj(a + b t) (c + e t) = ((a + b) c + 2 b e) + (a e - b c) t, over the
    product of the two denominators.
    """
    a, b, c, e = w1.na, w1.nb, v3.na, v3.nb
    x1, y1, d1 = (a + b) * c + 2 * b * e, a * e - b * c, w1.d * v3.d
    a, b, c, e = w2.na, w2.nb, v2.na, v2.nb
    x2, y2, d2 = (a + b) * c + 2 * b * e, a * e - b * c, w2.d * v2.d
    a, b, c, e = w3.na, w3.nb, v1.na, v1.nb
    x3, y3, d3 = (a + b) * c + 2 * b * e, a * e - b * c, w3.d * v1.d
    if d1 == d2 == d3:
        return knum_from_ints(x1 + x2 + x3, y1 + y2 + y3, d1)
    d = lcm(d1, d2, d3)
    s1, s2, s3 = d // d1, d // d2, d // d3
    return knum_from_ints(x1 * s1 + x2 * s2 + x3 * s3, y1 * s1 + y2 * s2 + y3 * s3, d)


def sq_norm(v):
    """<v,v>, a real scalar."""
    return herm_inner(v, v)


class Mat(namedtuple("Mat", "rows")):
    """A 3x3 matrix over K, a named tuple of its rows: immutability,
    equality and hashing are the tuple's.

    Every entry is a KNum: the constructor coerces ints and refuses anything
    else, a Fraction too.  A Mat serves matrix literals, JSON and `g.mat`;
    Gamma's algebra runs on GroupElts.  Its product is `ints_product`, each
    factor scaled by the lcm of its denominators.
    """

    __slots__ = ()

    def __new__(cls, rows):
        rows = tuple(tuple(KNum.coerce(x) for x in r) for r in rows)
        if len(rows) != 3 or any(len(r) != 3 for r in rows):
            raise ValueError("a matrix needs 3 rows of 3 entries")
        return tuple.__new__(cls, (rows,))

    @staticmethod
    def _of_k(rows) -> "Mat":
        """The matrix of a 3-tuple of 3-tuples of KNums, taken as they are."""
        return tuple.__new__(Mat, (rows,))

    def __repr__(self):
        return "Mat(" + ", ".join(str(list(map(str, r))) for r in self.rows) + ")"

    def __mul__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        (r0, r1, r2), (s0, s1, s2) = self.rows, other.rows
        x, dx = _scaled_ints(r0 + r1 + r2)
        y, dy = _scaled_ints(s0 + s1 + s2)
        return Mat._of_k(_ints_rows(ints_product(x, y), dx * dy))


# ---------------------------------------------------------------------------
# matrices and vectors over K as ints
# ---------------------------------------------------------------------------
#
# An integral matrix is the tuple of the 18 ints (a_ij, b_ij) of its entries
# a_ij + b_ij tau, row by row: entry n = 3i + j sits at 2n and 2n + 1.  A
# matrix or vector over K is d times its entries, as ints, over the lcm d
# of their denominators.

#: the 18 ints of the identity matrix
ID_INTS = (1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0)


def _scaled_ints(xs):
    """(t, d) for a tuple of KNums xs: d the lcm of their denominators and t
    the list of the ints (a, b) of each d x, in order."""
    d = lcm(*[x.d for x in xs])
    if d == 1:
        return [n for x in xs for n in (x.na, x.nb)], 1
    return [n * (d // x.d) for x in xs for n in (x.na, x.nb)], d


def _ints_rows(t, d=1):
    """The rows of KNums of the matrix with 18 ints t over the denominator d."""
    e = tuple(map(knum_from_ints, t[0::2], t[1::2], (d,) * 9))
    return e[0:3], e[3:6], e[6:9]


def mat_ints(m: Mat):
    """The 18 ints of an integral matrix; a non-integral entry raises ArithmeticError."""
    r0, r1, r2 = m.rows
    t, d = _scaled_ints(r0 + r1 + r2)
    if d != 1:
        raise ArithmeticError(f"matrix {m!r} has an entry that is not integral")
    return tuple(t)


def canonical_ints(t):
    """t or -t, the one whose first nonzero int is positive: the sign rule,
    for the 18 ints of a matrix (the ints a GroupElt keeps) and the six of
    a primitive vector (the rep of its ProjPoint) alike."""
    # a tuple of at most 18 ints is below the zero tuple exactly when its
    # first nonzero int is negative (a zero tuple is its own negative)
    return tuple(-x for x in t) if t < (0,) * 18 else t


def _mul_ints(a: int, b: int, c: int, e: int):
    """(a + b tau)(c + e tau) as an int pair, with tau^2 = tau - 2."""
    return a * c - 2 * b * e, a * e + b * c + b * e


def _norm_ints(a: int, b: int) -> int:
    """N(a + b tau)."""
    return a * a + a * b + 2 * b * b


def sq_norm_ints(t) -> int:
    """<v, v> = 2 Re(v1 conj(v3)) + N(v2) for v with the six ints t."""
    p1, q1, p2, q2, p3, q3 = t
    # conj(p3 + q3 tau) = (p3 + q3) - q3 tau, and 2 Re(r + s tau) = 2r + s
    r, s = _mul_ints(p1, q1, p3 + q3, -q3)
    return 2 * r + s + _norm_ints(p2, q2)


def _apply_ints(t, v):
    """The six ints of M v, for M with 18 ints t and v with six ints (p_k, r_k)."""
    a0, b0, a1, b1, a2, b2, a3, b3, a4, b4, a5, b5, a6, b6, a7, b7, a8, b8 = t
    p0, r0, p1, r1, p2, r2 = v
    q0 = b0 * r0 + b1 * r1 + b2 * r2
    q1 = b3 * r0 + b4 * r1 + b5 * r2
    q2 = b6 * r0 + b7 * r1 + b8 * r2
    return (
        a0 * p0 + a1 * p1 + a2 * p2 - 2 * q0,
        a0 * r0 + a1 * r1 + a2 * r2 + b0 * p0 + b1 * p1 + b2 * p2 + q0,
        a3 * p0 + a4 * p1 + a5 * p2 - 2 * q1,
        a3 * r0 + a4 * r1 + a5 * r2 + b3 * p0 + b4 * p1 + b5 * p2 + q1,
        a6 * p0 + a7 * p1 + a8 * p2 - 2 * q2,
        a6 * r0 + a7 * r1 + a8 * r2 + b6 * p0 + b7 * p1 + b8 * p2 + q2,
    )


def ints_product(x, y):
    """The 18 ints of the product of two matrices given by their 18 ints.

    Entry n = 3i + j is sum_k x_ik y_kj with (a + b tau)(c + e tau)
    = (a c - 2 b e) + (a e + b c + b e) tau; q_n is the sum of its b e terms.
    """
    a0, b0, a1, b1, a2, b2, a3, b3, a4, b4, a5, b5, a6, b6, a7, b7, a8, b8 = x
    c0, e0, c1, e1, c2, e2, c3, e3, c4, e4, c5, e5, c6, e6, c7, e7, c8, e8 = y
    q0 = b0 * e0 + b1 * e3 + b2 * e6
    q1 = b0 * e1 + b1 * e4 + b2 * e7
    q2 = b0 * e2 + b1 * e5 + b2 * e8
    q3 = b3 * e0 + b4 * e3 + b5 * e6
    q4 = b3 * e1 + b4 * e4 + b5 * e7
    q5 = b3 * e2 + b4 * e5 + b5 * e8
    q6 = b6 * e0 + b7 * e3 + b8 * e6
    q7 = b6 * e1 + b7 * e4 + b8 * e7
    q8 = b6 * e2 + b7 * e5 + b8 * e8
    return (
        a0 * c0 + a1 * c3 + a2 * c6 - 2 * q0,
        a0 * e0 + a1 * e3 + a2 * e6 + b0 * c0 + b1 * c3 + b2 * c6 + q0,
        a0 * c1 + a1 * c4 + a2 * c7 - 2 * q1,
        a0 * e1 + a1 * e4 + a2 * e7 + b0 * c1 + b1 * c4 + b2 * c7 + q1,
        a0 * c2 + a1 * c5 + a2 * c8 - 2 * q2,
        a0 * e2 + a1 * e5 + a2 * e8 + b0 * c2 + b1 * c5 + b2 * c8 + q2,
        a3 * c0 + a4 * c3 + a5 * c6 - 2 * q3,
        a3 * e0 + a4 * e3 + a5 * e6 + b3 * c0 + b4 * c3 + b5 * c6 + q3,
        a3 * c1 + a4 * c4 + a5 * c7 - 2 * q4,
        a3 * e1 + a4 * e4 + a5 * e7 + b3 * c1 + b4 * c4 + b5 * c7 + q4,
        a3 * c2 + a4 * c5 + a5 * c8 - 2 * q5,
        a3 * e2 + a4 * e5 + a5 * e8 + b3 * c2 + b4 * c5 + b5 * c8 + q5,
        a6 * c0 + a7 * c3 + a8 * c6 - 2 * q6,
        a6 * e0 + a7 * e3 + a8 * e6 + b6 * c0 + b7 * c3 + b8 * c6 + q6,
        a6 * c1 + a7 * c4 + a8 * c7 - 2 * q7,
        a6 * e1 + a7 * e4 + a8 * e7 + b6 * c1 + b7 * c4 + b8 * c7 + q7,
        a6 * c2 + a7 * c5 + a8 * c8 - 2 * q8,
        a6 * e2 + a7 * e5 + a8 * e8 + b6 * c2 + b7 * c5 + b8 * c8 + q8,
    )


def ints_inverse(t):
    """The 18 ints of M^-1 = J M* J, for M in U(J) with 18 ints t.

    M lies in U(J), so M* J M = J and J^-1 = J.  Entry (i, j) of the
    inverse is conj(M[2-j][2-i]), entry 8 - n for n = 3i + j, with
    conj(a + b tau) = (a + b) - b tau: no determinant, no division.
    """
    a0, b0, a1, b1, a2, b2, a3, b3, a4, b4, a5, b5, a6, b6, a7, b7, a8, b8 = t
    return (a8 + b8, -b8, a5 + b5, -b5, a2 + b2, -b2,
            a7 + b7, -b7, a4 + b4, -b4, a1 + b1, -b1,
            a6 + b6, -b6, a3 + b3, -b3, a0 + b0, -b0)


def ints_are_scalar(t) -> bool:
    """Whether the matrix with 18 ints t is scalar."""
    return t[2:8] == t[10:16] == (0,) * 6 and t[0:2] == t[8:10] == t[16:18]


def _is_unitary_ints(t) -> bool:
    """Whether M* J M = J for the matrix with 18 ints t.

    Entry (i, j) of M* J M is <col_j, col_i> = sum_k conj(col_i[k]) col_j[2-k],
    and conj(a + b tau)(c + e tau) = ((a + b) c + 2 b e) + (a e - b c) tau.
    The product is Hermitian, so the entries with i <= j decide it.
    """
    cols = [[(t[6 * k + 2 * j], t[6 * k + 2 * j + 1]) for k in range(3)] for j in range(3)]
    for i in range(3):
        for j in range(i, 3):
            x = y = 0
            for (a, b), (c, e) in zip(cols[i], reversed(cols[j])):
                x += (a + b) * c + 2 * b * e
                y += a * e - b * c
            if x != int(i + j == 2) or y:
                return False
    return True


def is_in_gamma(m: Mat) -> bool:
    """Membership in U(J, O_7): all entries integral, then M* J M = J on their ints."""
    if not all(x.d == 1 for r in m.rows for x in r):
        return False
    return _is_unitary_ints(mat_ints(m))


# ---------------------------------------------------------------------------
# projective points
# ---------------------------------------------------------------------------


def primitive_rep(v):
    """Canonical primitive O_7^3 representative of a K-rational projective
    point (KNum entries): the coordinates of `ProjPoint.of_ints` on v
    scaled to O_7^3 by the lcm of its denominators."""
    return ProjPoint.of_ints(_scaled_ints(v)[0]).coords


class ProjPoint(namedtuple("ProjPoint", "rep rational")):
    """A point of P^2(C), a named tuple: equality, hashing and order are the tuple's.

    A K-rational point keeps the six ints (a1, b1, a2, b2, a3, b3) of its
    canonical primitive representative (a_i + b_i tau), under the sign rule
    (`canonical_ints`): its first nonzero int is positive.  A point over
    K(zeta_3) or K(zeta_7) has v3 != 0 (every such point here is negative)
    and keeps (f1, f2, den): the field ints of den v1/v3 and den v2/v3 for
    one int den > 0, with no factor common to all of them (`of_tower`).
    Both reps are ints only.  At v3 = 1 its prism coordinates need no
    inverse, and a cusp element, whose bottom row is (0, 0, 1), keeps that
    form; both, its moves and its sweeps read the rep's ints.  `coords` is
    the coordinate vector, built on each read: KNums for a rational point,
    and AlgNums (v1, v2, 1) for a tower point.
    """

    __slots__ = ()

    def __new__(cls, v):
        if not all(isinstance(x, KNum) for x in v):
            raise TypeError("a point's coordinates are three KNums; a tower point is built by of_tower")
        return ProjPoint.of_ints(_scaled_ints(v)[0])

    @property
    def coords(self):
        t = self.rep
        if self.rational:
            return tuple(map(knum_from_ints, t[0::2], t[1::2]))
        f1, f2, d = t
        tw = field_of(f1)
        return _alg(tw, f1, d), _alg(tw, f2, d), _alg(tw, tw.lift(1, 0), 1)

    def __repr__(self):
        return f"ProjPoint({', '.join(str(c) for c in self.coords)})"

    def sq_norm_sign(self) -> int:
        if self.rational:
            n = sq_norm_ints(self.rep)
            return (n > 0) - (n < 0)
        f1, f2, d = self.rep
        tw = field_of(f1)
        return tw.real_sign(tower_sq_norm(tw, f1, f2, d))

    def moved(self, t) -> "ProjPoint":
        """M(self), for a matrix M of U(J, O_7) with the 18 ints t.  M and
        M^-1 are integral, so M maps a primitive vector of O_7^3 to a
        primitive vector: a rational point's image is the int product with
        its sign normalized, and needs no gcd.  M and M^-1 map K^3 to
        itself, so a tower point's image is a tower point: M moves the
        vector (f1, f2, den) with den at v3, and `of_tower` takes it to its
        normal form (a cusp element keeps v3 = den, and takes no inverse)."""
        if self.rational:
            return ProjPoint.of_primitive(_apply_ints(t, self.rep))
        f1, f2, d = self.rep
        return ProjPoint.of_tower(_tower_apply(t, (f1, f2, field_of(f1).lift(d, 0))))

    @staticmethod
    def of_primitive(w) -> "ProjPoint":
        """The point of a primitive vector of O_7^3 with the six ints w: its
        canonical representative is w or -w, by the sign rule alone
        (`canonical_ints`)."""
        return tuple.__new__(ProjPoint, (canonical_ints(w), True))

    @staticmethod
    def of_ints(t) -> "ProjPoint":
        """The point of the nonzero vector of O_7^3 with the six ints t: t
        over the O_7 gcd of its three entries, taken and divided on int
        pairs, under the sign rule.  A zero vector raises ValueError, and
        an inexact division ArithmeticError."""
        entries = [(x, y) for x, y in zip(t[0::2], t[1::2]) if x or y]
        if not entries:
            raise ValueError("zero vector has no projective class")
        g = entries[0]
        for x in entries[1:]:
            if g in ((1, 0), (-1, 0)):
                break  # the unit ideal
            g = _gcd_ints(*g, *x)
        if g in ((1, 0), (-1, 0)):
            return ProjPoint.of_primitive(tuple(t))
        # x / g = x conj(g) / N(g), with conj(c + e tau) = (c + e) - e tau
        n, c, e = _norm_ints(*g), g[0] + g[1], -g[1]
        w = []
        for x, y in zip(t[0::2], t[1::2]):
            p, q = _mul_ints(x, y, c, e)
            if p % n or q % n:
                raise ArithmeticError("dividing by the O_7 gcd left a non-integral entry")
            w += (p // n, q // n)
        return ProjPoint.of_primitive(tuple(w))

    @staticmethod
    def of_tower(fs) -> "ProjPoint":
        """The point of the vector over K(zeta_3) or K(zeta_7) with the
        field ints fs = (f1, f2, f3), f3 != 0 (a zero f3 raises
        ValueError): (f1, f2) over f3, as the rep (e1, e2, den) with den > 0
        and no factor common to all of them.  When f3 is an int c, den is
        |c|; otherwise v_k/v3 = f_k adj/n for the adjugate adj of f3 and its
        int norm n (`ring.adjugate`), and den is n."""
        f1, f2, f3 = fs
        if not any(f3):
            raise ValueError("a tower point needs v3 != 0")
        tw = field_of(f1)
        d = tw.as_int(f3)
        if d is None:
            adj, d = adjugate(tw, f3)
            f1, f2 = tw.mul(f1, adj), tw.mul(f2, adj)
        elif d < 0:
            f1, f2, d = tuple(-x for x in f1), tuple(-x for x in f2), -d
        g = gcd(d, *f1, *f2)
        if g != 1:
            f1, f2, d = tuple(x // g for x in f1), tuple(x // g for x in f2), d // g
        return tuple.__new__(ProjPoint, ((f1, f2, d), False))


def elements_of_norm(n: int):
    """All integral field elements of norm n, in lexicographic order."""
    out = []
    # a^2 + ab + 2b^2 = n  <=>  (2a+b)^2 + 7b^2 = 4n
    bmax = isqrt(4 * n // 7)
    for b in range(-bmax, bmax + 1):
        rest = 4 * n - 7 * b * b
        s = isqrt(rest)
        if s * s != rest:
            continue
        for t in sorted({s, -s}):
            if (t - b) % 2 == 0:
                out.append(KNum((t - b) // 2, b))
    return sorted(out, key=lambda x: (x.na, x.nb))


def _ext_gcd(a: int, b: int):
    """(g, x, y) with a x + b y = g = gcd(a, b), g >= 0."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


def _divisors(a: int, b: int, elements):
    """(c, e, a', b') over the divisors c + e tau of a + b tau != 0, one of each
    +/- pair, with quotient a' + b' tau; elements(m) lists norm m as int pairs."""
    n = _norm_ints(a, b)
    # a divisor's norm divides n: trial division up to sqrt(n)
    for m in {d for i in range(1, isqrt(n) + 1) if not n % i for d in (i, n // i)}:
        for c, e in elements(m):
            # (a + b tau) conj(c + e tau) = s + t tau
            s, t = a * c + a * e + 2 * b * e, b * c - a * e
            if (c, e) > (0, 0) and not s % m and not t % m:
                yield c, e, s // m, t // m


def _box_range(p0, p1, height: int):
    """The ints k with p0 + k p1 in the box |coefficient| <= height (p1 != 0)."""
    lows, highs = [], []
    for c0, c1 in zip(p0, p1):
        if c1:
            c0, c1 = (c0, c1) if c1 > 0 else (-c0, -c1)
            lows.append(-((height + c0) // c1))
            highs.append((height - c0) // c1)
        elif abs(c0) > height:
            return range(0)
    return range(max(lows), min(highs) + 1)


def norm_form_solutions(gram, norm: int, height: int):
    """The coprime O_7 pairs (al, be), one of each +/- pair, with q(al, be) =
    N(al) g11 + N(be) g22 + Tr(be conj(al) g12) = norm, (g11, g12, g22) = gram,
    and a multiple G (al, be) in the box |tau-coefficient| <= height: each
    al != 0 of the box is G al' over its divisors G, and the be' solve one of
    two shapes of q(al', be') = norm.  Another Gram form raises ArithmeticError.
    Each pair is the four ints (a, b, u, v) of al = a + b tau, be = u + v tau.
    """
    g11, g12, g22 = gram
    if g11 != 0 or g22 not in (0, 1):
        raise ArithmeticError("no norm-equation solver for the Gram form (%s, %s, %s)" % gram)
    quadratic, p, r = g22 == 1, g12.na, g12.nb
    elements = cache(lambda m: [(x.na, x.nb) for x in elements_of_norm(m)])
    found = {(0, 0, 1, 0)} if g22 == norm else set()
    for a in range(height + 1):
        for b in range(-height if a else 1, height + 1):
            for c, e, a1, b1 in _divisors(a, b, elements):
                n1 = _norm_ints(a1, b1)
                if quadratic:  # (g11, g22) = (0, 1)
                    # be' = x - al' conj(g12) = x - (s + t tau) with N(x) = norm + N(g12) N(al')
                    s, t = a1 * p + a1 * r + 2 * b1 * r, b1 * p - a1 * r
                    betas = [(u - s, v - t) for u, v in elements(norm + _norm_ints(p, r) * n1)]
                else:  # g11 = g22 = 0: be' = u + v tau on a line, cut by the box to an interval
                    # u A + v B = norm, with A and B the traces of conj(al') g12 and tau conj(al') g12
                    A, B = a1 * (2 * p + r) + b1 * (p + 4 * r), a1 * (p - 3 * r) + b1 * (4 * p + 2 * r)
                    g, x, y = _ext_gcd(A, B)
                    u0, v0, du, dv = x * norm // g, y * norm // g, B // g, -A // g
                    ks = () if norm % g else _box_range(_mul_ints(c, e, u0, v0), _mul_ints(c, e, du, dv), height)
                    betas = [(u0 + k * du, v0 + k * dv) for k in ks]
                # keep G be' in the box and be' prime to al': a prime above p divides both
                # exactly when p divides N(al'), N(be') and al' conj(be') (p split, inert or ramified)
                found.update(max((a1, b1, u, v), (-a1, -b1, -u, -v)) for u, v in betas
                             if max(map(abs, _mul_ints(c, e, u, v))) <= height
                             and gcd(n1, _norm_ints(u, v), a1 * u + a1 * v + 2 * b1 * v, b1 * u - a1 * v) == 1)
    return list(found)


# ---------------------------------------------------------------------------
# group elements
# ---------------------------------------------------------------------------


class GroupElt:
    """An element of PU(J, O_7): an integral matrix in U(J), sign-canonicalized.

    The matrix is kept as its 18 ints (see mat_ints).  Of the pair {M, -M}
    we keep the one whose first nonzero entry (row-major) is positive in the
    lexicographic (a, b) ring order, which is the one whose first nonzero
    int is positive.  Equality and hashing act on the canonical ints,
    implementing projectivization; products, inverses, powers and the
    action on vectors run on the ints, and so do the trace that
    torsion.projective_order reads and the eigenvectors of
    torsion.classify_elliptic.  The Mat view `mat`, for JSON and the
    printed form, is built on each read.
    """

    __slots__ = ("ints", "word")

    def __init__(self, mat: Mat, word=None):
        t = mat_ints(mat)
        if not _is_unitary_ints(t):
            raise ValueError("matrix is not in U(J, O_7)")
        _init_elt(self, t, word)

    @staticmethod
    def from_ints(t, word=None) -> "GroupElt":
        """The element with the 18 ints t (or -t), for t known to lie in U(J, O_7)."""
        g = _new_elt(GroupElt)
        _init_elt(g, t, word)
        return g

    def __setattr__(self, *args):
        raise AttributeError("GroupElt is immutable")

    @staticmethod
    def identity() -> "GroupElt":
        return GroupElt.from_ints(ID_INTS, ())

    @property
    def mat(self) -> Mat:
        return Mat._of_k(_ints_rows(self.ints))

    def __eq__(self, other):
        if not isinstance(other, GroupElt):
            return NotImplemented
        return self.ints == other.ints

    def __hash__(self):
        return hash(self.ints)

    def __repr__(self):
        w = f", word={self.word!r}" if self.word else ""
        return f"GroupElt({self.mat!r}{w})"

    def __mul__(self, other):
        if not isinstance(other, GroupElt):
            return NotImplemented
        word = None
        if self.word is not None and other.word is not None:
            word = tuple(self.word) + tuple(other.word)
        return GroupElt.from_ints(ints_product(self.ints, other.ints), word)

    def inverse(self) -> "GroupElt":
        """The inverse, on the ints (`ints_inverse`)."""
        word = None
        if self.word is not None:
            word = tuple(_invert_letter(x) for x in reversed(self.word))
        return GroupElt.from_ints(ints_inverse(self.ints), word)

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        out = GroupElt.identity()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def is_identity(self) -> bool:
        return self.ints == ID_INTS


# GroupElt.__setattr__ refuses every write, so new elements get their two
# fields through the slot descriptors, bound once here
_new_elt = object.__new__
_set_ints = GroupElt.ints.__set__
_set_word = GroupElt.word.__set__


def _init_elt(g: GroupElt, t, word):
    _set_ints(g, canonical_ints(t))
    _set_word(g, word)


# A tower vector is three tuples of the field ints of its coordinates, over
# K(zeta_3) or K(zeta_7) (`ring.field_of`).  A matrix of Gamma moves it, and
# its point's normal form is read off it (`ProjPoint.of_tower`), on those
# ints.


def _tower_apply(t, fs):
    """The field ints of M v, for M with 18 ints t and the tower vector v
    with the field ints fs.  M is a matrix over K, so it acts on the
    K-coefficient vector of each power zeta^j alone, by `_apply_ints`, and
    the field takes the images back (`k_vectors`, `from_k_vectors`)."""
    tw = field_of(fs[0])
    return tw.from_k_vectors([_apply_ints(t, p) for p in tw.k_vectors(fs)])


def tower_sq_norm(tw, f1, f2, d):
    """The real ints of d^2 <v, v> = d (f1 + conj f1) + f2 conj(f2) for the
    tower vector v = (f1/d, f2/d, 1)."""
    n = tw.mul(f2, tw.conj(f2))
    return tw.real_part([x + d * (y + z) for x, y, z in zip(n, f1, tw.conj(f1))])


def tower_inner(tw, f1, f2, d, w):
    """The field ints of d <v, w> = conj(w1) d + conj(w2) f2 + conj(w3) f1
    for the tower vector v = (f1/d, f2/d, 1) and w in O_7^3 with the six
    ints w."""
    # conj(a + b tau) = (a + b) - b tau
    c1, c2, c3 = ((w[k] + w[k + 1], -w[k + 1]) for k in (0, 2, 4))
    terms = tw.lift(c1[0] * d, c1[1] * d), tw.mul(tw.lift(*c2), f2), tw.mul(tw.lift(*c3), f1)
    return tuple(map(sum, zip(*terms)))


def _invert_letter(x):
    name, e = x
    return (name, -e)


def word_str(word) -> str:
    """Freely reduced form of a word, a tuple of (name, exponent) pairs.

    Adjacent letters of one name merge by adding exponents, and zero
    exponents drop; relations such as R^2 = 1 are not applied.
    """
    if word is None:
        return "?"
    reduced = []
    for name, e in word:
        if reduced and reduced[-1][0] == name:
            e += reduced.pop()[1]
        if e:
            reduced.append((name, e))
    if not reduced:
        return "1"
    return "*".join(name if e == 1 else f"{name}^{e}" for name, e in reduced)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def mat_to_json(m: Mat):
    return [[format_knum(x) for x in r] for r in m.rows]


def mat_from_json(data) -> Mat:
    if isinstance(data, str):
        data = json.loads(data)
    return Mat([[parse_knum(x) if isinstance(x, str) else KNum.coerce(x) for x in r] for r in data])


def vec_to_json(v):
    return [format_knum(x) for x in v]


def vec_from_json(data):
    """A K^3 vector from a JSON list of 3 entries, each a K-number literal or an int."""
    if isinstance(data, str):
        try:
            data = json.loads(data)
        except RecursionError:
            raise ValueError("a point is a JSON list of 3 entries, not a deeply nested one") from None
    if not isinstance(data, list) or len(data) != 3:
        raise ValueError("a point is a JSON list of 3 entries")
    out = []
    for x in data:
        if isinstance(x, str):
            out.append(parse_knum(x))
        elif isinstance(x, int) and not isinstance(x, bool):
            out.append(KNum(x))
        else:
            raise ValueError(f"bad point entry {x!r}: expected a string literal or an int")
    return tuple(out)
