"""The cusp stabilizer: Heisenberg translations, the half-turn R, and the prism P.

Elements of the stabilizer of q_inf are (up to sign) T(w, t0) R^eps, where
T(w, t0) is the Heisenberg translation by (w, t0) and R is the half-turn
z -> -z.  Every such element has the unique normal form
T_1^m Ttau^n R^eps T_v^l with T_1 = T(1, sqrt(7)), Ttau = T(tau, 0) and
T_v = T(0, 2 sqrt(7)) = [Ttau, T_1].

`CuspElt` is a named tuple of the four ints (m, n, eps, l) of the normal
form.  Products and inverses are closed formulas on them, read off the
Heisenberg group law (z, t)*(z', t') = (z + z', t + t' + 2 Im(z conj z')).
`CuspElt.to_matrix` writes its matrix in closed form, and points move by it.

The prism P = D x [0, 2 sqrt(7)], D = hull{0, 1, tau}, is a fundamental
domain for this action on the boundary minus q_inf.  A point enters by its
prism coordinates (a, b, s, den), read off its ProjPoint's rep
(`prism_coordinates`): its projection to the boundary is z = (a + b tau)/den
and t = s sqrt(7)/den.
They are ints for a K-rational point.  For a point over K(zeta_3) or
K(zeta_7), a, b and s are the field's real ints (`ring.real_field`: two or
three ints, the int part first) over one int den, read off its
ProjPoint's rep, the field ints of v1 and v2 at v3 = 1.  A cusp
element acts on them affinely (`act_prism`), one formula for both kinds.
Prism reduction and the overlap test are closed form on ints: a K-rational
point's own, and for a tower point the ints of its certified brackets
floor(2^16 x) (`bracket`), with the field's exact sign or floor on the
real ints only where a bracket's window straddles the bound.  A caller
that tests one point several times brackets it once (`prism_grid`).
The overlaps that keep a point of P in P are read off the 13 planar parts
of the cusp overlaps (`overlaps_keeping`), with no table: the 34 overlaps
themselves (`enumerate_cusp_overlaps`) are derived only for the commands
that print them.
"""

from collections import namedtuple
from functools import cache
from itertools import combinations

from .ring import field_of, real_field
from .hermitian import GroupElt, _mul_ints, _norm_ints, sq_norm_ints, tower_sq_norm


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
    def s0(self) -> int:
        """t0 as a multiple of sqrt(7); the z-part is w = m + n tau."""
        return self.m - self.m * self.n + 2 * self.l

    @property
    def ints(self):
        """The 18 ints of T(w, t0) R^eps, in closed form, with sigma =
        (-1)^eps: its rows are (1, -sigma conj(w), c), (0, sigma, w) and
        (0, 0, 1), where conj(w) = (m + n) - n tau and c = (-N(w) + i t0)/2
        = (-N(w) - s0)/2 + s0 tau.  c is integral, as N(w) + s0 = m(m + 1)
        + 2(n^2 + l).  The first int is 1, so these are a GroupElt's ints."""
        m, n, eps, l = self
        sigma = -1 if eps else 1
        s0 = m - m * n + 2 * l
        return (1, 0, -sigma * (m + n), sigma * n, -((m * m + m * n + 2 * n * n + s0) // 2), s0,
                0, 0, sigma, 0, m, n,
                0, 0, 0, 0, 1, 0)

    def to_matrix(self) -> GroupElt:
        """T(w, t0) R^eps with its word."""
        return GroupElt.from_ints(self.ints, self.word())

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
# prism coordinates
# ---------------------------------------------------------------------------


def prism_coordinates(v):
    """(a, b, s, den) of a point's vector v with <v, v> <= 0 and v3 != 0:
    the point's boundary coordinates are z = (a + b tau)/den and
    t = s sqrt(7)/den.

    v is a ProjPoint's rep: six ints, or a tower point's (f1, f2, d).
    z = v2/v3 and t = 2 Im(v1/v3), so s/den is the tau-coefficient of
    v1/v3.  For the six ints of a vector in O_7^3 they are ints over den =
    N(v3) > 0: a + b tau = v2 conj(v3) and s is the tau-coefficient of v1
    conj(v3).  A tower rep is the field ints f1, f2 of d v1 and d v2 at v3
    = 1, so a, b and s are real ints of the field (`ring.real_field`) over
    one int den, with no inverse: with w = x + y tau for x, y real, y = (w
    - conj(w))/sqrt(-7), int-linear in w's ints (`real_split`), so den =
    7 d.  <v, v> <= 0 is an exact sign on the same ints.  Any other v
    raises TypeError.
    """
    if type(v[0]) is int:
        p1, q1, p2, q2, p3, q3 = v
        if not (p3 or q3):
            # <v, v> = |v2|^2 here, so only v2 = 0 leaves a null point: q_inf
            if not (p2 or q2):
                raise ValueError("point at infinity has no horospherical coordinates")
            raise ValueError("vector has positive square norm")
        if sq_norm_ints(v) > 0:
            raise ValueError("vector has positive square norm")
        # conj(p3 + q3 tau) = (p3 + q3) - q3 tau
        a, b = _mul_ints(p2, q2, p3 + q3, -q3)
        return a, b, _mul_ints(p1, q1, p3 + q3, -q3)[1], _norm_ints(p3, q3)
    if len(v) != 3 or type(v[0]) is not tuple:
        raise TypeError("prism coordinates take a ProjPoint's rep: six ints, or a tower point's (f1, f2, den)")
    f1, f2, d = v
    tw = field_of(f1)
    if tw.real_sign(tower_sq_norm(tw, f1, f2, d)) > 0:
        raise ValueError("vector has positive square norm")
    a, b = tw.real_split(f2)
    return a, b, tw.real_split(f1)[1], 7 * d


def act_prism(c: CuspElt, x):
    """c(x) on prism coordinates x = (a, b, s, den), by the Heisenberg group
    law: with sigma = (-1)^eps, z maps to w + sigma z and s to
    s + s0 + sigma (n a - m b), as 2 Im(w conj z)/sqrt(7) = n a - m b.
    A tower point's a, b and s are real ints whose first is the int part,
    so each coordinate is the same int formula on each of its ints, and
    the int terms m, n and s0 go to the first."""
    m, n, eps, l = c
    a, b, s, den = x
    s0 = (m - m * n + 2 * l) * den
    if type(a) is int:
        if eps:
            a, b = -a, -b
        return m * den + a, n * den + b, s + s0 + n * a - m * b, den
    sigma = -1 if eps else 1
    a, b = [sigma * y for y in a], [sigma * y for y in b]
    s = [y + n * p - m * q for y, p, q in zip(s, a, b)]
    a[0] += m * den
    b[0] += n * den
    s[0] += s0
    return tuple(a), tuple(b), tuple(s), den


#: the scale of the brackets of tower coordinates
BRACKET = 1 << 16


def bracket(r, den: int) -> int:
    """The bracket k = floor(2^16 x) of the real element x with the real
    ints r over den, exact by floor_real in both towers: k <= 2^16 x < k + 1."""
    return real_field(r).floor_real([BRACKET * y for y in r], den)


def prism_grid(x):
    """(g, r): prism coordinates x on ints, and the radius of their windows.

    K coordinates are their own grid, with r = 0.  A tower a, b or s has
    the grid value 2k + 1 over 2^17 for its bracket k, and |2^17 y - (2k +
    1)| <= 1: r = 1.  So the grid den times an int combination of a, b, s
    and 1, with coefficients c_a, c_b, c_s of a, b and s, lies within r
    (|c_a| + |c_b| + |c_s|) of the same combination of the grid values.
    A caller that runs several of the tests below on one point brackets it
    once and passes the grid on.
    """
    a, b, s, den = x
    if type(a) is int:
        return x, 0
    return (2 * bracket(a, den) + 1, 2 * bracket(b, den) + 1, 2 * bracket(s, den) + 1, 2 * BRACKET), 1


def _exact(x, ca: int, cb: int, cs: int, c: int):
    """(y, den): the combination ca a + cb b + cs s + c of the coordinates of
    a tower point's prism coordinates x = (a, b, s, den), as real ints y
    over den."""
    a, b, s, den = x
    y = [ca * p + cb * q + cs * u for p, q, u in zip(a, b, s)]
    y[0] += c * den
    return y, den


def _sign(t: int, r: int, exact) -> int:
    """The sign of a real v with den v within r of its grid value t.

    t decides it unless the window [t - r, t + r] holds 0.  Then r > 0, v
    is a tower number, and exact() gives it as (real ints, den) for the
    field's real_sign.
    """
    if t > r:
        return 1
    if t < -r:
        return -1
    if not r:
        return 0
    y, _ = exact()
    return real_field(y).real_sign(y)


def _floor(t: int, r: int, d: int, den: int, exact) -> int:
    """floor(v/d) for an int d > 0 and v as in _sign: the floor of both
    ends of the window over d den, unless they differ.  Then exact() gives
    v as (real ints, den), and the field's floor_real takes it over d den."""
    k = (t - r) // (d * den)
    if not r or k == (t + r) // (d * den):
        return k
    y, e = exact()
    return real_field(y).floor_real(y, d * e)


def _in_triangle(a, b, den, r, exact) -> bool:
    """Whether z = (a + b tau)/den lies in D, the triangle with vertices 0,
    1, tau: a, b >= 0 and a + b <= den, for grid values a, b within r.
    exact() gives the point's prism coordinates."""
    if not r:
        return a >= 0 and b >= 0 and a + b <= den
    return (_sign(a, r, lambda: _exact(exact(), 1, 0, 0, 0)) >= 0
            and _sign(b, r, lambda: _exact(exact(), 0, 1, 0, 0)) >= 0
            and _sign(den - a - b, 2 * r, lambda: _exact(exact(), -1, -1, 0, 1)) >= 0)


def _in_prism(g, r, rs, exact) -> bool:
    """in_prism on grid coordinates g whose a and b lie within r, and s
    within rs, of their points'; exact() gives the point's coordinates."""
    a, b, s, den = g
    if not r:
        return a >= 0 and b >= 0 and a + b <= den and 0 <= s <= 2 * den
    return (_in_triangle(a, b, den, r, exact)
            and _sign(s, rs, lambda: _exact(exact(), 0, 0, 1, 0)) >= 0
            and _sign(2 * den - s, rs, lambda: _exact(exact(), 0, 0, -1, 2)) >= 0)


def in_prism(x, grid=None) -> bool:
    """Whether prism coordinates x lie in P = D x [0, 2 sqrt(7)]: z in D
    and 0 <= s <= 2 den.  grid is `prism_grid(x)`, which a caller that
    holds it passes."""
    g, r = grid or prism_grid(x)
    return _in_prism(g, r, r, lambda: x)


def reduce_to_prism(x, grid=None) -> CuspElt:
    """The cusp element c with c(x) in P, for the prism coordinates x of a
    point and their grid `prism_grid(x)`, which a caller that holds it
    passes.

    Ties at facets resolve toward the closed lower faces a, b, s >= 0.  With
    k = floor(a/den) and j = floor(b/den), T1^-k Ttau^-j moves a/den and
    b/den into [0, 1).  If their sum then exceeds 1, both are positive, and
    z -> 1 + tau - z gives 1 - a/den and 1 - b/den in (0, 1) with a sum
    below 1: one flip lands z in D, so (m, n, eps) is (-k, -j, 0) or
    (k + 1, j + 1, 1).  T_v^l adds 2l to s/den, so l is minus the floor of
    s/(2 den) after (m, n, eps, 0), which lands s in [0, 2 den).  Each sign
    and floor is read off the grid of x, and decided exactly on the real
    ints of x only when its window straddles the threshold.
    """
    g, r = grid or prism_grid(x)
    a, b, _, den = g
    k = _floor(a, r, 1, den, lambda: _exact(x, 1, 0, 0, 0))
    j = _floor(b, r, 1, den, lambda: _exact(x, 0, 1, 0, 0))
    flip = _sign(a + b - (k + j + 1) * den, 2 * r, lambda: _exact(x, 1, 1, 0, -(k + j + 1))) > 0
    m, n, eps = (k + 1, j + 1, 1) if flip else (-k, -j, 0)
    part = CuspElt(m, n, eps)
    # the image of s is s + s0 den + sigma (n a - m b)
    rs = r * (1 + abs(m) + abs(n))
    c = CuspElt(m, n, eps, -_floor(act_prism(part, g)[2], rs, 2, den,
                                   lambda: _exact(act_prism(part, x), 0, 0, 1, 0)))
    if not _in_prism(act_prism(c, g), r, rs, lambda: act_prism(c, x)):
        raise ArithmeticError("prism reduction left the prism")
    return c


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


#: the 13 planar parts (m, n, eps) of the cusp overlaps, in normal-form
#: order: D meets w + sigma D, w = m + n tau, iff w lies in D - sigma D, the
#: hexagon for a translation and 2D for a half-turn
_PARTS = tuple(
    (m, n, eps)
    for m in range(-1, 3)
    for n in range(-1, 3)
    for eps in (0, 1)
    if (m >= 0 and n >= 0 and m + n <= 2 if eps else max(abs(m), abs(n), abs(m + n)) <= 1)
)


@cache
def enumerate_cusp_overlaps():
    """All cusp elements gamma with gamma(P) meeting P, in closed form.

    D is the base triangle of P, sigma = (-1)^eps the sign of z in the
    cusp map and w = m + n*tau its planar part, one of `_PARTS`.  The
    t-shift is affine on the overlap polygon, so its range lies between its
    values at the polygon's vertices, which gives the exact vertical range
    of each planar part.  The result never changes, so it is derived once
    per process and shared as a tuple, in normal-form order.
    """
    out = []
    for m, n, eps in _PARTS:
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


def overlaps_keeping(x, grid=None):
    """The cusp overlaps c other than the identity with c(x) in P, in
    normal-form order, for the prism coordinates x of a point in P and
    their grid, as in reduce_to_prism.  A point outside P raises
    ValueError.

    The moves are read off the 13 planar parts (m, n, eps) of `_PARTS`,
    with no table of overlaps: as x lies in P, c(x) in P means that c(P)
    meets P, so every such c is an overlap.  Each part's image z is tested
    against D once.  Then s' = base + 2 l den, so with k = floor(base/(2
    den)), only l = -k keeps s' in [0, 2 den), and l = 1 - k gives s' =
    2 den exactly when base = 2 k den.  The identity's part tests x
    itself: l = 0 is among its l exactly when x lies in P.  Each test is
    read off the grid of x.
    """
    g, r = grid or prism_grid(x)
    den = g[3]
    out = []
    for part in _PARTS:
        # the image of x under (m, n, eps, 0), read off its four ints
        planar = part + (0,)
        pa, pb, base, _ = act_prism(planar, g)
        ls = ()
        if _in_triangle(pa, pb, den, r, lambda: act_prism(planar, x)):
            rs = r * (1 + abs(part[0]) + abs(part[1]))
            k = _floor(base, rs, 2, den, lambda: _exact(act_prism(planar, x), 0, 0, 1, 0))
            tie = _sign(base - 2 * den * k, rs, lambda: _exact(act_prism(planar, x), 0, 0, 1, -2 * k)) == 0
            ls = (-k, 1 - k) if tie else (-k,)
        if part == (0, 0, 0):
            # the identity keeps x in P exactly when x lies in P
            if 0 not in ls:
                raise ValueError("overlaps_keeping needs a point in the prism P")
            ls = [l for l in ls if l]
        out += [CuspElt(*part, l) for l in ls]
    return out


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
