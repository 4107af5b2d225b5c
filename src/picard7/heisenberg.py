"""The cusp stabilizer: Heisenberg translations, the half-turn R, and the prism P.

Elements of the stabilizer of q_inf are (up to sign) T(w, t0) R^eps, where
T(w, t0) is the Heisenberg translation by (w, t0) and R is the half-turn
z -> -z.  Every such element has the unique normal form
T_1^m Ttau^n R^eps T_v^l with T_1 = T(1, sqrt(7)), Ttau = T(tau, 0) and
T_v = T(0, 2 sqrt(7)) = [Ttau, T_1].

`CuspElt` is a named tuple of the four ints (m, n, eps, l) of the normal
form.  Products and inverses are closed formulas on them, read off the
Heisenberg group law (z, t)*(z', t') = (z + z', t + t' + 2 Im(z conj z')).
The action on points is `CuspElt.act_horo` on horospherical coordinates; a
boundary point is a `HoroPoint` with u = 0, so there is one point type.
Matrices are only an output form (`CuspElt.to_matrix`).

The prism P = D x [0, 2 sqrt(7)], D = hull{0, 1, tau}, is a fundamental
domain for this action on the boundary minus q_inf.  Boundary coordinates
are (z, t) with t = s*sqrt(7), s rational for K-rational points; as
everywhere we carry ti = i*t instead of t.  Coordinates may be KNum or
AlgNum: the two mix through Python's arithmetic operators, so every
formula below serves both.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache
from itertools import combinations
from math import lcm

from .ring import ISQRT7, KNum, TAU
from .hermitian import GroupElt, HoroPoint


class CuspElt(namedtuple("CuspElt", "m n eps l", defaults=(0, 0, 0, 0))):
    """Normal form T_1^m Ttau^n R^eps T_v^l of a cusp-stabilizer element.

    A named tuple of the four ints: equality, hashing, the repr and the
    order (m, n, eps, l) are the tuple's.
    """

    __slots__ = ()

    def __new__(cls, m=0, n=0, eps=0, l=0):
        if eps not in (0, 1):
            raise ValueError("eps must be 0 or 1")
        return tuple.__new__(cls, (m, n, eps, l))

    # -- translation part ---------------------------------------------

    @property
    def w(self) -> KNum:
        """z-part of the underlying T(w, t0) R^eps."""
        return KNum(self.m, self.n)

    @property
    def s0(self) -> int:
        """t0 as a multiple of sqrt(7)."""
        return self.m - self.m * self.n + 2 * self.l

    def to_matrix(self) -> GroupElt:
        """T(w, t0) R^eps in closed form, with sigma = (-1)^eps: its rows are
        (1, -sigma conj(w), c), (0, sigma, w) and (0, 0, 1), where
        conj(w) = (m + n) - n tau and c = (-N(w) + i t0)/2 = (-N(w) - s0)/2
        + s0 tau.  c is integral, as N(w) + s0 = m(m + 1) + 2(n^2 + l)."""
        m, n, eps, l = self
        sigma = -1 if eps else 1
        s0 = m - m * n + 2 * l
        return GroupElt.from_ints(
            (1, 0, -sigma * (m + n), sigma * n, -((m * m + m * n + 2 * n * n + s0) // 2), s0,
             0, 0, sigma, 0, m, n,
             0, 0, 0, 0, 1, 0),
            self.word(),
        )

    def word(self):
        out = []
        if self.m:
            out.append(("T1", self.m))
        if self.n:
            out.append(("Ttau", self.n))
        if self.eps:
            out.append(("R", 1))
        if self.l:
            out.append(("Tv", self.l))
        return tuple(out)

    @staticmethod
    def _from_translation(m: int, n: int, s0: int, eps: int) -> "CuspElt":
        """The normal form of T(m + n tau, s0*sqrt(7)) R^eps."""
        two_l = s0 - (m - m * n)
        if two_l % 2:
            raise ValueError("cusp element outside the integral lattice")
        return CuspElt(m, n, eps, two_l // 2)

    def inverse(self) -> "CuspElt":
        # (T(w, t0) R^eps)^-1 = R^eps T(-w, -t0) = T(-sigma w, -t0) R^eps
        sign = -1 if self.eps else 1
        return CuspElt._from_translation(-sign * self.m, -sign * self.n, -self.s0, self.eps)

    def __mul__(self, other):
        # T(w, t0) R^eps T(w', t0') R^eps' = T(w + sigma w', t0 + t0'
        # + 2 Im(w conj(sigma w'))) R^(eps + eps'), and for w = m + n tau,
        # w' = m' + n' tau: 2 Im(w conj w') = (n m' - m n') sqrt(7)
        if not isinstance(other, CuspElt):
            return NotImplemented
        sign = -1 if self.eps else 1
        m, n = sign * other.m, sign * other.n
        return CuspElt._from_translation(
            self.m + m, self.n + n, self.s0 + other.s0 + self.n * m - self.m * n, self.eps ^ other.eps
        )

    # -- boundary action ----------------------------------------------

    def act_horo(self, h: HoroPoint) -> HoroPoint:
        """(z, ti, u) -> (w + sigma z, ti + i t0 + w conj(sigma z) - conj(w) sigma z, u)."""
        w = self.w
        z = -h.z if self.eps else h.z
        ti = h.ti + ISQRT7 * self.s0 + w * z.conj() - w.conj() * z
        return HoroPoint(w + z, ti, h.u)

    def order(self):
        """Projective order: 1, 2, or None for infinite."""
        if self.eps == 0:
            return 1 if (self.m, self.n, self.l) == (0, 0, 0) else None
        # (T(w, t0) R)^2 = T(0, 2 t0)
        return 2 if self.s0 == 0 else None


IDENTITY = CuspElt()
T1 = CuspElt(m=1)
TTAU = CuspElt(n=1)
TV = CuspElt(l=1)
R = CuspElt(eps=1)


# ---------------------------------------------------------------------------
# prism coordinates and membership
# ---------------------------------------------------------------------------


def tau_coordinates(z):
    """Real scalars (a, b) with z = a + b*tau, exact: b = (z - conj z)/(i sqrt(7))."""
    b = (z - z.conj()) / ISQRT7
    return z - b * TAU, b


def s_coordinate(ti):
    """The real scalar s with t = s*sqrt(7), from ti = i*t."""
    return ti / ISQRT7


class Prism:
    """The region P = D x [0, 2 sqrt(7)], D the triangle with vertices 0, 1, tau.

    membership() classifies a boundary point and lists the facets it lies on;
    facet names: "b=0" ([0,1] side), "a=0" ([0,tau] side), "a+b=1" ([1,tau]
    side), "s=0" (bottom), "s=2" (top).
    """

    FACETS = ("a=0", "b=0", "a+b=1", "s=0", "s=2")

    @staticmethod
    def membership(z, ti):
        a, b = tau_coordinates(z)
        s = s_coordinate(ti)
        checks = {
            "a=0": a.real_sign(),
            "b=0": b.real_sign(),
            "a+b=1": (1 - a - b).real_sign(),
            "s=0": s.real_sign(),
            "s=2": (2 - s).real_sign(),
        }
        if any(v < 0 for v in checks.values()):
            return "outside", ()
        facets = tuple(k for k, v in checks.items() if v == 0)
        return ("boundary" if facets else "interior"), facets

    @staticmethod
    def contains(z, ti) -> bool:
        return Prism.membership(z, ti)[0] != "outside"


def reduce_to_prism(h: HoroPoint):
    """Cusp element gamma and image with gamma(h)'s (z, t) in P.

    h may have algebraic coordinates; returns (CuspElt, reduced HoroPoint).
    Ties at facets resolve toward the closed lower faces a, b, s >= 0.
    """
    total = IDENTITY
    a, b = tau_coordinates(h.z)
    k, n = a.floor_real(), b.floor_real()
    if k or n:
        total = CuspElt(m=-k) * CuspElt(n=-n)
        h = total.act_horo(h)
        a, b = tau_coordinates(h.z)
    # floor_real is exact, so a and b now lie in [0, 1).  If a + b > 1, both
    # are positive, and z -> 1 + tau - z gives a' = 1 - a and b' = 1 - b in
    # (0, 1) with a' + b' < 1: one flip lands z in D.
    if (1 - a - b).real_sign() < 0:
        step = T1 * TTAU * R  # z -> 1 + tau - z
        h = step.act_horo(h)
        total = step * total
    lshift = (s_coordinate(h.ti) / 2).floor_real()
    if lshift:
        step = CuspElt(l=-lshift)
        h = step.act_horo(h)
        total = step * total
    if not Prism.contains(h.z, h.ti):
        raise ArithmeticError("prism reduction left the prism")
    return total, h


# ---------------------------------------------------------------------------
# cusp elements overlapping the prism
# ---------------------------------------------------------------------------


# triangle D in (a, b) as int constraints c . (a, b) <= d: a >= 0, b >= 0, a + b <= 1
_TRI = (((-1, 0), 0), ((0, -1), 0), ((1, 1), 1))


def _overlap_vertices(m: int, n: int, sign: int):
    """Vertices of the polygon of z = a + b*tau in D with m + n*tau + sign*z in D.

    Every constraint normal lies in {+-(1, 0), +-(0, 1), +-(1, 1)}, and any
    two that are not parallel have det +-1, so each vertex is an int point.
    """
    cons = _TRI + tuple(((c1 * sign, c2 * sign), d - c1 * m - c2 * n) for (c1, c2), d in _TRI)
    verts = []
    for (c1, d1), (c2, d2) in combinations(cons, 2):
        det = c1[0] * c2[1] - c1[1] * c2[0]
        if det == 0:
            continue
        x, rx = divmod(d1 * c2[1] - d2 * c1[1], det)
        y, ry = divmod(c1[0] * d2 - c2[0] * d1, det)
        if rx or ry:
            raise ArithmeticError("an overlap polygon vertex is not an int point")
        if all(c[0] * x + c[1] * y <= d for c, d in cons):
            verts.append((x, y))
    return verts


@cache
def enumerate_cusp_overlaps():
    """All cusp elements gamma with gamma(P) meeting P, in closed form.

    D is the base triangle of P, sigma = (-1)^eps the sign of z in the
    cusp map and w = m + n*tau its planar part.  The t-shift is affine on the
    overlap polygon, so its range lies between its values at the polygon's
    vertices, which gives the exact vertical range of each planar part.
    The result never changes, so it is derived once per process and shared
    as a tuple, in normal-form order.
    """
    out = []
    for m in range(-2, 3):
        for n in range(-2, 3):
            for eps in (0, 1):
                # D meets w + sigma D iff w lies in D - sigma D: the hexagon
                # for a translation, 2D for a half-turn
                if eps:
                    meets = m >= 0 and n >= 0 and m + n <= 2
                else:
                    meets = max(abs(m), abs(n), abs(m + n)) <= 1
                if not meets:
                    continue
                sign = -1 if eps else 1
                verts = _overlap_vertices(m, n, sign)
                if not verts:
                    raise ArithmeticError("overlap polygon of a meeting translate has no vertices")
                # s' = s + (m - mn) + 2l + sign * 2 Im(w conj z)/sqrt(7), and
                # 2 Im(w conj z)/sqrt(7) = n a - m b at z = a + b*tau
                shifts = [m - m * n + sign * (n * x - m * y) for x, y in verts]
                # s and s' both lie in [0, 2] for some s iff shift + 2l lies in
                # [-2, 2], and over the polygon the shift spans [min, max]
                lmin = -((2 + max(shifts)) // 2)
                lmax = (2 - min(shifts)) // 2
                out.extend(CuspElt(m, n, eps, l) for l in range(lmin, lmax + 1))
    return tuple(out)


def overlaps_keeping(h: HoroPoint):
    """The cusp overlaps c other than the identity with c(h) in P, in
    normal-form order; h is a point over P.

    At a K-rational h the test runs on ints.  Write z = (za + zb tau)/den
    and s = sn/den with den > 0.  For c = (m, n, eps, l), sigma = (-1)^eps
    and s0 = m - mn + 2l, c(h) has z = (a + b tau)/den with a = m den
    + sigma za and b = n den + sigma zb, and s = (sn + s0 den + sigma (n za
    - m zb))/den.  So c(h) lies in P exactly when a, b >= 0, a + b <= den
    and that numerator of s lies in [0, 2 den].  At a point with tower
    coordinates, act_horo and Prism.contains decide.
    """
    z, ti = h.z, h.ti
    kept = []
    if type(z) is not KNum or type(ti) is not KNum:
        for c in enumerate_cusp_overlaps():
            hq = c.act_horo(h)
            if c != IDENTITY and Prism.contains(hq.z, hq.ti):
                kept.append(c)
        return kept
    # s = ti.nb / (2 ti.d), as ti = i t = s (2 tau - 1)
    den = lcm(z.d, 2 * ti.d)
    za, zb, sn = z.na * (den // z.d), z.nb * (den // z.d), ti.nb * (den // (2 * ti.d))
    for c in enumerate_cusp_overlaps():
        m, n, eps, l = c
        x, y = (-za, -zb) if eps else (za, zb)
        a, b = m * den + x, n * den + y
        s = sn + (m - m * n + 2 * l) * den + n * x - m * y
        if a >= 0 and b >= 0 and a + b <= den and 0 <= s <= 2 * den and c != IDENTITY:
            kept.append(c)
    return kept


# ---------------------------------------------------------------------------
# cusp torsion
# ---------------------------------------------------------------------------


def cusp_torsion_classes():
    """The involutions of the cusp stabilizer, one per normal-form family."""
    out = []
    for m, n in ((0, 0), (1, 0), (0, 1), (1, 1)):
        c = CuspElt(m, n, 1, 0)
        # the vertical part is forced: only l with t0 = 0 can give torsion
        if c.s0 % 2 == 0:
            c = CuspElt(m, n, 1, -(c.s0 // 2))
        if c.order() == 2:
            out.append(c.to_matrix())
    return out
