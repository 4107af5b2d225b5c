"""Generic references that the tests compare the package against.

The package decides each of these questions on a faster or narrower path;
the versions here are the textbook ones, kept next to the tests that use
them.  This module holds no tests.
"""

from fractions import Fraction
from math import lcm

from picard7.ford import cygan_dist4
from picard7.heisenberg import Prism, _cross_coeffs, _overlap_constraints, polygon_vertices
from picard7.hermitian import HoroPoint, ProjPoint, herm_inner
from picard7.ring import ISQRT7, KNum, _divmod_ints, knum_from_ints


def real_cmp(x, y) -> int:
    """Exact comparison of two real scalars (KNum or AlgNum, mixed allowed)."""
    return (x - y).real_sign()


def from_zsu(z, s, u=0) -> HoroPoint:
    """The K-rational HoroPoint with t = s*sqrt(7)."""
    return HoroPoint(KNum.coerce(z), ISQRT7 * Fraction(s), KNum(Fraction(u)))


def fixes_q_inf(g) -> bool:
    """True if the group element g maps q_inf = (1, 0, 0) to itself."""
    return g.mat.rows[1][0].is_zero() and g.mat.rows[2][0].is_zero()


def o_divmod(x: KNum, y: KNum):
    """Euclidean division in O_7: x = q*y + r with N(r) < N(y)."""
    if y.is_zero():
        raise ZeroDivisionError("division by zero in O_7")
    # scaling x and y by a common denominator D keeps x/y and scales N(r) by D^2
    den = lcm(x.d, y.d)
    sx, sy = den // x.d, den // y.d
    (qa, qb), (ra, rb) = _divmod_ints(x.na * sx, x.nb * sx, y.na * sy, y.nb * sy)
    return KNum(qa, qb), knum_from_ints(ra, rb, den)


def _side_from_sign(sign: int) -> str:
    return "inside" if sign > 0 else ("boundary" if sign == 0 else "outside")


def ford_side(x, g) -> str:
    """Side of x w.r.t. the Ford inequality for g: N(<x,q_inf>) vs N(<x, g q_inf>).

    "inside" means the strict Ford inequality holds (x outside the open
    Cygan ball of g); x is a lifted vector or a ProjPoint.
    """
    if fixes_q_inf(g):
        raise ValueError("Ford side undefined for cusp elements")
    v = x.coords if isinstance(x, ProjPoint) else x
    own = v[2].abs2()
    other = herm_inner(v, g.first_column()).abs2()
    return _side_from_sign(real_cmp(other, own))


def sphere_membership(h: HoroPoint, sph) -> str:
    """Same trichotomy as ford_side, via horospherical coordinates:
    compares the extended Cygan distance to the center against the radius."""
    return _side_from_sign(real_cmp(cygan_dist4(h, sph.center), sph.r4))


def overlap_witness(c):
    """An exact point of c(P) in P (barycenter of overlap vertices), or None."""
    sign = -1 if c.eps else 1
    verts = polygon_vertices(_overlap_constraints(c.m, c.n, sign))
    if not verts:
        return None
    ax = sum(v[0] for v in verts) / len(verts)
    bx = sum(v[1] for v in verts) / len(verts)
    c0, ca, cb = _cross_coeffs(c.w)
    shift = c.s0 + sign * (c0 + ca * ax + cb * bx)
    # pick s in [0,2] with s + shift in [0,2]
    lo = max(Fraction(0), -shift)
    hi = min(Fraction(2), 2 - shift)
    if lo > hi:
        return None
    p = from_zsu(KNum(ax, bx), (lo + hi) / 2)
    q = c.act_horo(p)
    if not (Prism.contains(p.z, p.ti) and Prism.contains(q.z, q.ti)):
        return None
    return p
