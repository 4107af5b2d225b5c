"""Ford domain machinery: isometric spheres of the 14 pairing matrices.

The Ford domain F is the set of x with N(<x, q_inf>) <= N(<x, g q_inf>)
for every g not stabilizing q_inf; combined with the cone C_P over the
prism this gives the fundamental domain Omega = F cap C_P.  Membership is
always decided by that exact norm comparison; the Cygan-sphere radius
r^4 = 4 / N(a31) only bounds which translates are compared: the candidate
enumerations, and the window of each field's sweep, a lattice disk of
planar parts and a range of l, from the point's ints in K and from exact
brackets of its coordinates in K(zeta_3) and K(zeta_7).
A point's place over the prism is read off its vector
(`heisenberg.prism_coordinates`), and the cusp element that moves it into
the prism acts on the vector by its matrix; a sphere's center is kept as
the same int coordinates.  A K-rational point stays the six ints of its
ProjPoint's rep from input to answer: the K sweep reads them, and the
reduction moves them by int products.  Gamma maps primitive vectors of
O_7^3 to primitive vectors, so the reduced point takes the sign rule of
its rep and no gcd.  A tower point is ints in the same way, its
ProjPoint's rep (f1, f2, den): the field ints of v1 and v2 at v3 = 1 over
one den.  Each step reads its prism coordinates off the rep, sweeps the
vector (f1, f2, den), and moves it on the field's ints, which
`ProjPoint.of_tower` takes to the next rep.  A tower sweep does not
depend on the mode of the caller, so the hits of each are memoized on the
vector's ints: the cycle graph at a reduced tower point reads the
reduction's last sweep.
"""

from collections import namedtuple
from fractions import Fraction
from functools import cache
from math import isqrt

from .ring import (
    ISQRT7,
    KNum,
    ONE,
    TAU,
    TAU_BAR,
    ZERO,
    eta_sign,
    field_of,
    sqrt21_sign,
    zeta7_autocorr,
)
from .hermitian import (
    ID_INTS,
    GroupElt,
    Mat,
    ProjPoint,
    ints_inverse,
    ints_product,
    sq_norm_ints,
    tower_sq_norm,
    _apply_ints,
    _mul_ints,
    _norm_ints,
    _tower_apply,
)
from .heisenberg import (
    BRACKET,
    IDENTITY,
    CuspElt,
    act_prism,
    bracket,
    in_prism,
    prism_coordinates,
    prism_grid,
    reduce_to_prism,
)


# ---------------------------------------------------------------------------
# the fourteen pairing matrices
# ---------------------------------------------------------------------------


def _g(rows, name):
    return GroupElt(Mat(rows), word=((name, 1),))


def _build_generators():
    a1 = _g([[0, 0, 1], [0, -1, 0], [1, 0, 0]], "A1")
    a2 = _g(
        [
            [KNum(2), -TAU, KNum(1, -3)],
            [TAU_BAR, ZERO, KNum(-2) - TAU],
            [-TAU, KNum(-1), KNum(-3) + TAU],
        ],
        "A2",
    )
    a6 = _g([[ISQRT7, 0, 4], [0, 1, 0], [2, 0, -ISQRT7]], "A6")
    a7 = _g([[-TAU_BAR, 1, 1], [TAU, 0, 1], [2, TAU_BAR, -TAU]], "A7")
    a8 = _g(
        [
            [KNum(1), KNum(2, -1), KNum(-2)],
            [KNum(-1, -1), KNum(-3), KNum(1, 1)],
            [KNum(-2), KNum(-2, 1), KNum(1)],
        ],
        "A8",
    )
    a9 = _g([[-1, 0, ISQRT7], [0, 1, 0], [ISQRT7, 0, 6]], "A9")
    a10 = _g([[-2, 0, ISQRT7], [0, 1, 0], [ISQRT7, 0, 3]], "A10")
    a12 = _g([[-4, 0, ISQRT7 * 3], [0, 1, 0], [ISQRT7, 0, 5]], "A12")

    def inv(g, name):
        return GroupElt.from_ints(g.inverse().ints, ((name, 1),))

    table = {
        1: a1,
        2: a2,
        3: inv(a2, "A3"),
        4: GroupElt.from_ints((a2.inverse() * a2.inverse()).ints, (("A4", 1),)),
        6: a6,
        7: a7,
        8: a8,
        9: a9,
        10: a10,
        11: inv(a10, "A11"),
        12: a12,
        13: inv(a12, "A13"),
        14: inv(a9, "A14"),
    }
    table[5] = inv(table[4], "A5")
    return table


GENERATORS = _build_generators()

#: indices j, k with A_j A_k = +/- Id (used to pair candidate sets), found
#: by comparing with each inverse: the freed row tuples of the products
#: would stay in the interpreter's tuple free list and raise peak memory
INVERSE_PAIRS = {
    j: next(k for k, h in GENERATORS.items() if h == gi)
    for j, gi in ((j, g.inverse()) for j, g in GENERATORS.items())
}


class IsomSphere(namedtuple("IsomSphere", "center r4")):
    """The isometric sphere of g: Cygan sphere about g(inf) with r^4 = 4/N(a31).

    The center g(inf) is a K-rational boundary point, kept as the int prism
    coordinates (a, b, s, den) of g's first column: z = (a + b tau)/den and
    t = s sqrt(7)/den.
    """

    __slots__ = ()

    def __new__(cls, elt: GroupElt):
        t = elt.ints
        col = (t[0], t[1], t[6], t[7], t[12], t[13])
        if not (t[12] or t[13]):
            raise ValueError("element stabilizes the point at infinity")
        if sq_norm_ints(col):
            raise ArithmeticError("isometric sphere center is not on the boundary")
        return tuple.__new__(cls, (prism_coordinates(col), Fraction(4, _norm_ints(t[12], t[13]))))


#: the isometric sphere of each pairing matrix, built once (IsomSphere is immutable)
SPHERES = {j: IsomSphere(g) for j, g in GENERATORS.items()}


# ---------------------------------------------------------------------------
# conservative square-root bounds, as ints over 2^16
# ---------------------------------------------------------------------------

# the tower sweeps hold these bounds against the brackets of a point's
# coordinates (`heisenberg.bracket`), so both are over 2^16
_SQRT_DEN = BRACKET


def _sqrt_ints(num: int, den: int):
    """Ints (lb, ub) with lb/2^16 <= sqrt(num/den) <= ub/2^16, num >= 0, den > 0."""
    if num < 0:
        raise ArithmeticError("square root of a negative number")
    scaled = num * _SQRT_DEN * _SQRT_DEN
    lb = isqrt(scaled // den)
    ub = isqrt(-(-scaled // den)) + 1
    if lb * lb * den > scaled:
        raise ArithmeticError("the lower square-root bound is above the square root")
    if ub * ub * den < scaled:
        raise ArithmeticError("the upper square-root bound is below the square root")
    return lb, ub


#: r2 with r^2 <= r2/2^16 for the sphere of each pairing matrix, where the
#: windows of the sweeps start
_R2 = {j: _sqrt_ints(sph.r4.numerator, sph.r4.denominator)[1] for j, sph in SPHERES.items()}


# ---------------------------------------------------------------------------
# distance from a point to the triangle D (squared, exact)
# ---------------------------------------------------------------------------

# the edges [v0, v1] of D as int pairs in the tau-basis, with N(v1 - v0) (1 or 2)
_D_EDGES = tuple(
    ((v0.na, v0.nb), (v1.na - v0.na, v1.nb - v0.nb), (v1 - v0).norm())
    for v0, v1 in ((ZERO, ONE), (ZERO, TAU), (ONE, TAU))
)


def _dist2_num(a: int, b: int, den: int) -> int:
    """32 den^2 times the squared distance from (a + b tau)/den to D = hull{0, 1, tau}.

    It is 0 inside D.  Outside, the nearest point of D lies on an edge
    whose side constraint (b >= 0, a >= 0, a + b <= den, in the order of
    _D_EDGES) the point breaks: a nearest point inside an edge that the
    point keeps would make the outward normal of that edge point from D
    toward it.  So only those one or two edges are measured.  For an edge
    v0 + t*e, 0 <= t <= 1, and W = a + b tau - den*v0, the foot of the
    perpendicular is at t = q / (4 den N(e)) with q = 4 Re(W conj(e)) an
    int, and den^2 times the squared distance is N(W) for t <= 0,
    N(W - den*e) for t >= 1, and N(W) - q^2/(16 N(e)) between.  As N(e)
    divides 2, every case is an int over 32.
    """
    broken = (b < 0, a < 0, a + b > den)
    if not any(broken):
        return 0
    nums = []
    for ((x0, y0), (ea, eb), ne), out in zip(_D_EDGES, broken):
        if not out:
            continue
        wa, wb = a - den * x0, b - den * y0
        # 4 Re(u conj(v)) = (2x + y)(2s + t) + 7 y t for u = x + y tau, v = s + t tau
        q = (2 * wa + wb) * (2 * ea + eb) + 7 * wb * eb
        if q <= 0:
            nums.append(32 * _norm_ints(wa, wb))
        elif q >= 4 * den * ne:
            nums.append(32 * _norm_ints(wa - den * ea, wb - den * eb))
        else:
            nums.append(32 * _norm_ints(wa, wb) - 2 * q * q // ne)
    return min(nums)


# ---------------------------------------------------------------------------
# candidate cusp translates: the sets E_j and T_jk
# ---------------------------------------------------------------------------


def _lattice_disk(p0: int, q0: int, step: int, nmax: int):
    """The (m, n) with N(p + q tau) <= nmax for p = m step + p0, q = n step + q0.

    4 N(p + q tau) = (2p + q)^2 + 7 q^2, so 7 q^2 <= 4 nmax gives the range
    of n, and for each n, (2p + q)^2 <= 4 nmax - 7 q^2 gives the range of
    m.  Both ranges are exact; nmax >= 0 and step >= 1.  Yields by n, then m.
    """
    qmax = isqrt(4 * nmax // 7)
    for n in range(-((qmax + q0) // step), (qmax - q0) // step + 1):
        q = n * step + q0
        w = isqrt(4 * nmax - 7 * q * q)
        for m in range(-((w + q + 2 * p0) // (2 * step)), (w - q - 2 * p0) // (2 * step) + 1):
            yield m, n


def enumerate_cone_translates(j: int):
    """Finite superset of {alpha in the cusp group : alpha(I(A_j)) meets C_P},
    as l-windows: {(m, n, eps): (lmin, lmax)}, and alpha = (m, n, eps, l) is
    in the superset exactly when lmin <= l <= lmax.

    A translate survives when (a) the disk of radius r about the translated
    center meets the triangle D, and (b) the t-window of the translated
    sphere meets [0, 2 sqrt(7)].  Both run on ints.  With sigma = (-1)^eps
    and the center's prism coordinates (za, zb, sn, zd), the translated z
    is ((m zd + sigma za) + (n zd + sigma zb) tau)/zd, and (a) is dist2^2
    <= r^4 = 4/N(a31) with dist2 an int over 32 zd^2.  D lies in the disk
    N(z - c) <= 4/7 about its circumcenter c = (2 + 3 tau)/7, so (a)
    implies N(7 zd (z - c)) <= (zd (2 sqrt(7) + 7 r))^2, and that disk
    gives the (m, n) that (a) decides.  In (b), the translated center's s
    is (sn + (m - mn) zd + sigma (n za - m zb))/zd, and the window's
    half-width is bounded through square-root bounds over 2^16 that check
    themselves; l runs over the floor-division range of an interval of
    length at least 1, so no window is empty.
    """
    sph = SPHERES[j]
    za, zb, sn, zd = sph.center
    rn, rd = sph.r4.numerator, sph.r4.denominator
    # the disk test dist2^2 <= r^4 is num^2 rd <= disk with dist2 = num/(32 zd^2)
    disk = rn * (32 * zd * zd) ** 2
    # r^2 <= r2/2^16 and r <= r1/2^16; sqrt(7) >= hd/2^32
    r2 = _R2[j]
    r1 = _sqrt_ints(r2, _SQRT_DEN)[1]
    hd = _SQRT_DEN * _sqrt_ints(7, 1)[0]
    # N(7 zd (z - c)) = N((7 a - 2 zd) + (7 b - 3 zd) tau) <= (zd (2 sqrt(7) + 7 r))^2
    nmax = (zd * (_sqrt_ints(28, 1)[1] + 7 * r1)) ** 2 // _SQRT_DEN**2
    # the translated center's s is sn2/zd, and l is a quotient over lden
    lden = 2 * hd * zd
    out = {}
    for eps in (0, 1):
        sigma = -1 if eps else 1
        for m, n in _lattice_disk(7 * sigma * za - 2 * zd, 7 * sigma * zb - 3 * zd, 7 * zd, nmax):
            a, b = m * zd + sigma * za, n * zd + sigma * zb
            num = _dist2_num(a, b, zd)
            if num * num * rd > disk:
                continue
            # |t - d'| <= r^2 + 2 r |z| with z over the disk; bound |z| by
            # |c'| + r where c' is the translated center: the half-width
            # in s is hn/hd
            zub = _sqrt_ints(_norm_ints(a, b), zd * zd)[1]
            hn = r2 * _SQRT_DEN + 2 * r1 * (zub + r1)
            # d' = (s' + 2 l) sqrt(7) with s' = sn2/zd: need s' + 2l in
            # [-hn/hd, 2 + hn/hd]
            sn2 = sn + (m - m * n) * zd + sigma * (n * za - m * zb)
            out[m, n, eps] = -((hn * zd + sn2 * hd) // lden), (2 * hd * zd + hn * zd - sn2 * hd) // lden
    return out


def enumerate_tjk(j: int, k: int):
    """Finite superset of {alpha cusp : alpha(I(A_j)) meets I(A_k)}, sorted.

    Requires A_j A_k = +/-Id.  Uses the necessary condition that the Cygan
    distance d between the two centers is at most r_j + r_k <= (U_j + U_k)/2^16,
    from square-root bounds that check themselves.  Both centers lie on the
    boundary, so d^4 = N(dz)^2 + T^2, with dz the difference of the z's and
    T = t - t' + 2 Im(z conj(z')).  Each center is its prism coordinates
    (a, b, s, zd), and with D = zd_j zd_k, dz = (p + q tau)/D for ints
    p = m D + p0 and q = n D + q0, and N(dz)^2 <= B/2^64, B = (U_j + U_k)^4,
    is the lattice disk N(p + q tau)^2 2^64 <= B D^4.  T = sqrt(7)
    (X + 2 l E)/E for an int X and E = D^2, so l runs over the exact range
    |X + 2 l E| <= isqrt(R / (7 2^64)), R = B D^4 - 2^64 N(p + q tau)^2.
    """
    if INVERSE_PAIRS[j] != k:
        raise ValueError("T_jk is only enumerated for inverse pairs")
    aj, bj, sj, dj = SPHERES[j].center
    ak, bk, sk, dk = SPHERES[k].center
    den = dj * dk
    # s_j - s_k = ds/D
    ds = sj * dk - sk * dj
    e = den * den
    # r <= U/2^16 for each sphere, and bound = B D^4
    uj, uk = (_sqrt_ints(_R2[i], _SQRT_DEN)[1] for i in (j, k))
    bound = (uj + uk) ** 4 * den**4
    nmax = isqrt(bound >> 64)
    out = []
    for eps in (0, 1):
        sigma = -1 if eps else 1
        p0, q0 = sigma * aj * dk - ak * dj, sigma * bj * dk - bk * dj
        for m, n in _lattice_disk(p0, q0, den, nmax):
            nd = _norm_ints(m * den + p0, n * den + q0)
            half = isqrt((bound - (nd * nd << 64)) // (7 << 64))
            # T/sqrt(7) = s_j - s_k + s0 + 2 Im(w conj(sigma z_j) + (w + sigma z_j)
            # conj(z_k))/sqrt(7) with w = m + n tau and s0 = m - mn + 2l, which
            # is (x + 2 l e)/e
            x = ds * den + den * ((m - m * n) * den + sigma * (n * aj - m * bj) * dk
                                   + (n * ak - m * bk) * dj + sigma * (bj * ak - aj * bk))
            for l in range(-((half + x) // (2 * e)), (half - x) // (2 * e) + 1):
                out.append(CuspElt(m, n, eps, l))
    out.sort()
    return out


@cache
def candidate_spheres(j: int) -> dict:
    """The candidate translates of j as l-windows (`enumerate_cone_translates`),
    which each sweep tests its hits against."""
    return enumerate_cone_translates(j)


def _forms(v):
    """Two 6-tuples X, Y of ints with <v, col> = X.col + (Y.col) tau for v in O_7^3.

    <v, col> = sum_k conj(col_k) v_(4-k), and conj(a + b tau)(c + e tau)
    = a c + b (c + 2 e) + (a e - b c) tau.
    """
    (c1, e1), (c2, e2), (c3, e3) = v
    return ((c3, c3 + 2 * e3, c2, c2 + 2 * e2, c1, c1 + 2 * e1),
            (e3, -c3, e2, -c2, e1, -c1))


# One sweep kernel per field: (quantity, cmp, sweep).  quantity(v) is
# |v3|^2 of an integral vector v, up to one positive factor, in an exact int
# form; cmp(p, q) is the exact sign of the difference of two quantities;
# sweep(v, own, g, best) yields (sign, quantity, j, alpha) for each candidate
# translate alpha of j whose column col = alpha(A_j(inf)) has
# |<v, col>|^2 <= own, for an integral v whose point's prism coordinates
# have the grid g (`prism_grid`), in (j, alpha) order.  v is six ints for
# K, and three tuples of the field's ints for a tower.  Each kernel
# compares only the translates in a window derived from that inequality,
# and decides each on ints; the K kernel reads its window off v's six
# ints, and the tower kernels off the brackets in g.  With best set, a
# kernel may yield only the hits whose quantity is below own and below
# every quantity it yielded before: the last is still the first smallest
# strict hit.  The K kernel does, and narrows its window to match; the
# tower kernels ignore best, and return the memoized tuple of their hits
# (`_tower_hits`).


def _k_cmp(p, q) -> int:
    return (p > q) - (p < q)


def _k_quantity(v) -> int:
    return _norm_ints(v[4], v[5])


@cache
def _k_generators():
    """The constants of the K kernel for each pairing matrix, in sweep
    order: (j, za, zb, zd, r2, col, table) with (za, zb, zd) of its
    sphere's center, r2 its r^2 bound, col the six ints of the conjugates
    of A_j's first column and table its candidate l-windows.  Built at the
    first sweep: the tables are not forced at import."""
    out = []
    for j in sorted(GENERATORS):
        t = GENERATORS[j].ints
        za, zb, _, zd = SPHERES[j].center
        # conj(a + b tau) = (a + b) - b tau
        col = (t[0] + t[1], -t[1], t[6] + t[7], -t[7], t[12] + t[13], -t[13])
        out.append((j, za, zb, zd, _R2[j], col, candidate_spheres(j)))
    return tuple(out)


def _k_sweep(v, own, _g, best):
    """v, the six ints of a vector in O_7^3: the quantity is the int N(<v, col>).

    Only the translates alpha = (m, n, eps, l) whose closed Cygan ball can
    hold v are evaluated.  With dv = N(v3), z = v2 conj(v3)/dv and
    u' = -<v, v>/dv, Re<v/v3, col/col3> = -(u' + N(z - z0))/2 for the
    column's center z0 = w + sigma z_j, whatever l is.  A hit has
    |<v/v3, col/col3>| <= r^2/2, so u' + N(z - z0) <= r^2 <= r2/2^16, and
    times S^2 for S = dv zd that is a lattice disk in (m, n), walked as in
    `_lattice_disk` for both eps on one bound of n; the products with v's
    coordinates are formed at a generator's first point of the disk.  Along
    l, col1 grows by i sqrt(7) col3, so <v, col> = Z + l D, and N(Z + l D)
    is a convex quadratic in l: its hits are the ints next to its vertex,
    found by walking out from it.  A hit counts only if alpha is a
    candidate translate of j (l lies in the window of (m, n, eps)), as
    every hit at a point over P is; a hit is the tuple (m, n, eps, l,
    quantity) until it is yielded.

    Every hit has a quantity h <= limit, for limit = own in full mode.  In
    best mode limit starts at own - 1 and drops to h - 1 at each yield, so
    the yields strictly decrease and the last is the first smallest strict
    hit in (j, alpha) order, the one `reduce_to_domain` takes.  A hit with
    h <= limit has |<v/v3, col/col3>|^2 <= (r^4/4)(limit/own), so u' +
    N(z - z0) <= r^2 sqrt(limit/own) <= r2 qb/2^32 for qb/2^16 an upper
    square-root bound: the disk of each later generator shrinks with
    limit, and the l-walk stops above it.  Full mode keeps qb = 2^16.
    """
    v1a, v1b, v2a, v2b, v3a, v3b = v
    dv = _norm_ints(v3a, v3b)
    if dv == 0:
        # N(D) = 7 N(c3) dv below, and c3 != 0 for every A_j
        raise ArithmeticError("a Ford sweep's l-step vanishes")
    # S z = zd (za_v + zb_v tau), and <v, v> = 2 Re(v1 conj(v3)) + N(v2)
    za_v, zb_v = _mul_ints(v2a, v2b, v3a + v3b, -v3b)
    vv = sq_norm_ints(v) << 32
    limit, qb = (own - 1, _sqrt_ints(own - 1, own)[1]) if best else (own, _SQRT_DEN)
    for j, za, zb, zd, r2, (c1a, c1b, c2a, c2b, c3a, c3b), table in _k_generators():
        # floor(S^2 (r2 qb/2^32 - u')), as S^2/dv = dv zd^2
        nmax = dv * zd * zd * (r2 * qb * dv + vv) >> 32
        if nmax < 0:
            continue
        step, qmax = dv * zd, isqrt(4 * nmax // 7)
        hits = None
        for eps in (0, 1):
            sigma = 1 - 2 * eps
            # the disk of S (z - z0) = p + q tau, in (-m, -n)
            p0, q0 = zd * za_v - sigma * dv * za, zd * zb_v - sigma * dv * zb
            for nn in range(-((qmax + q0) // step), (qmax - q0) // step + 1):
                q = nn * step + q0
                w = isqrt(4 * nmax - 7 * q * q)
                for mm in range(-((w + q + 2 * p0) // (2 * step)), (w - q - 2 * p0) // (2 * step) + 1):
                    if hits is None:
                        hits = []
                        # For alpha = (m, n, eps, 0), w = m + n tau, the
                        # column is (c1 - sigma conj(w) c2 + c c3, sigma c2
                        # + w c3, c3) with (c1, c2, c3) the first column of
                        # A_j and conj(c) = k - s0 tau, s0 = m - mn and
                        # k = (s0 - N(w))/2.  So <v, col> = B + sigma C
                        # - sigma w E + conj(w) H + conj(c) G, with B =
                        # conj(c1) v3 + conj(c3) v1, C = conj(c2) v2, E =
                        # conj(c2) v3, H = conj(c3) v2 and G = conj(c3) v3,
                        # and conj(w) = (m + n) - n tau
                        ba, bb = _mul_ints(c1a, c1b, v3a, v3b)
                        fa, fb = _mul_ints(c3a, c3b, v1a, v1b)
                        ca, cb = _mul_ints(c2a, c2b, v2a, v2b)
                        ea, eb = _mul_ints(c2a, c2b, v3a, v3b)
                        ha, hb = _mul_ints(c3a, c3b, v2a, v2b)
                        ga, gb = _mul_ints(c3a, c3b, v3a, v3b)
                        # by eps: B + sigma C, and the coefficients of m and
                        # n in the two ints of Z = <v, col> - conj(c) G
                        forms = ((ba + fa + ca, bb + fb + cb, ha - ea, ha + 2 * hb + 2 * eb, hb - eb, -ea - eb - ha),
                                 (ba + fa - ca, bb + fb - cb, ha + ea, ha + 2 * hb - 2 * eb, hb + eb, ea + eb - ha))
                        gs = ga + gb
                        # D = conj(i sqrt(7)) G = (1 - 2 tau) G, and for
                        # Z = x + y tau, 2 Re(Z conj(D)) = ((2x + y)(2 dx
                        # + dy) + 7 y dy)/2
                        dx, dy = _mul_ints(1, -2, ga, gb)
                        nd = _norm_ints(dx, dy)
                        d2, d7 = 2 * dx + dy, 7 * dy
                    pa, pb, xm, xn, ym, yn = forms[eps]
                    m, n = -mm, -nn
                    s0 = m - m * n
                    k = (s0 - m * m - m * n - 2 * n * n) // 2
                    x = pa + m * xm + n * xn + k * ga + 2 * s0 * gb
                    y = pb + m * ym + n * yn + k * gb - s0 * gs
                    # N(Z + l D) = N(Z) + l tr + l^2 N(D)
                    nz = x * x + x * y + 2 * y * y
                    tr = ((2 * x + y) * d2 + y * d7) // 2
                    top = -tr // (2 * nd)
                    for l, dl in ((top, -1), (top + 1, 1)):
                        while (h := nz + l * (tr + l * nd)) <= limit:
                            hits.append((m, n, eps, l, h))
                            l += dl
        if hits:
            hits.sort()
            for m, n, eps, l, h in hits:
                if h <= limit and (win := table.get((m, n, eps))) and win[0] <= l <= win[1]:
                    yield (-1 if h < own else 0), h, j, tuple.__new__(CuspElt, (m, n, eps, l))
                    if best:
                        limit, qb = h - 1, _sqrt_ints(h - 1, own)[1]


def _zeta3_quantity(x0, y0, x1, y1):
    """(m, n) with 2|X0 + X1 zeta_3|^2 = m + n sqrt(21), X_i = x_i + y_i tau.

    With conj(X0) X1 = p + q tau, 2|X0 + X1 zeta_3|^2 = 2 N(X0) + 2 N(X1)
    - (2 p + q) - q sqrt(21).
    """
    p = x0 * x1 + y0 * (x1 + 2 * y1)
    q = x0 * y1 - y0 * x1
    return 2 * (x0 * x0 + x0 * y0 + 2 * y0 * y0 + x1 * x1 + x1 * y1 + 2 * y1 * y1) - 2 * p - q, -q


def _zeta3_quantity_of(v):
    return _zeta3_quantity(*v[2])


def _zeta3_cmp(p, q) -> int:
    return sqrt21_sign(p[0] - q[0], p[1] - q[1])


def _zeta3_sweep(v, own, g):
    """v = v0 + v1 zeta_3 with v0, v1 in O_7^3: <v, col> = X0 + X1 zeta_3,
    and the quantity is the int pair (m, n) of 2|X0 + X1 zeta_3|^2."""
    rows = _forms([f[:2] for f in v]) + _forms([f[2:] for f in v])
    yield from _tower_sweep(v, own, g, rows, lambda h: _zeta3_quantity(*h), _zeta3_cmp)


def _zeta7_quantity_of(v):
    return zeta7_autocorr((0,) + v[2])


def _zeta7_cmp(p, q) -> int:
    # sum_m d_m zeta^m = d_0 + sum_k d_k eta_k = sum_k (d_k - d_0) eta_k,
    # as the eta_k sum to -1
    d0 = p[0] - q[0]
    return eta_sign(p[1] - q[1] - d0, p[2] - q[2] - d0, p[3] - q[3] - d0)


def _zeta7_sweep(v, own, g):
    """v in O_K(zeta_7)^3, each coordinate its ints F_1 .. F_6 and F_0 = 0: the
    quantity is the autocorrelation (h_0, .., h_3) of <v, col>, |x|^2 =
    sum_m h_m zeta_7^m."""
    # conj(a + b tau) F = a F + b G with G = conj(tau) F, and conj(tau) =
    # 1 + zeta^3 + zeta^5 + zeta^6; one row of ints (F_m, G_m of v3, v2,
    # v1) per power of zeta, as col_k pairs with v_(4-k)
    coords = [(0,) + f for f in reversed(v)]
    rows = []
    for m in range(7):
        row = []
        for f in coords:
            row += (f[m], f[m] + f[m - 3] + f[m - 5] + f[m - 6])
        rows.append(row)
    yield from _tower_sweep(v, own, g, rows, zeta7_autocorr, _zeta7_cmp)


def _height_bracket(v) -> int:
    """The bracket floor(2^16 u') of u' = -<v, v>/|v3|^2, for a tower vector
    with the field ints v whose v3 is a positive int S: u' = -<v/S, v/S>,
    as real ints over S^2 (`tower_sq_norm`)."""
    f1, f2, f3 = v
    tw = field_of(f1)
    scale = tw.as_int(f3)
    return bracket([-y for y in tower_sq_norm(tw, f1, f2, scale)], scale * scale)


def _tower_sweep(v, own, g, rows, quantity, cmp):
    """The sweep of v over K(zeta_3) or K(zeta_7), on a window like _k_sweep's.

    The ints h of <v, col> in the field's basis are r.col for r in rows,
    quantity(h) is the field's quantity of that <v, col>, and cmp compares
    quantities exactly, as in _KERNELS.  v is the vector (f1, f2, den) of
    a tower ProjPoint's rep (its normal form at v3 = 1, times den), and g
    the grid of its prism coordinates, whose values 2k + 1 hold the
    brackets k = floor(2^16 x) of a, b and s (`prism_grid`).  The point's z = a + b tau, s and u' =
    -<v, v>/|v3|^2 are real elements of the field; each lies in [k, k +
    1]/2^16 for its bracket k (`bracket`, and `_height_bracket` for u'),
    exact by the field's floor_real on its real ints.  So u' >= ku/2^16,
    and zc = (ka + kb tau)/2^16 is within |1 + tau|/2^16 = 2/2^16 of z.

    For the center z0 = p + q tau of alpha(I(A_j)) and its s = sc at l = 0,
    |<v/v3, col/col3>|^2 = ((u' + N(z - z0))^2 + 28 (l - l*)^2)/4 with
    l* = (s - sc + b p - a q)/2, and a hit has it <= r^4/4.  So a hit has
    u' + N(z - z0) <= r^2, a lattice disk about zc once widened by 2/2^16,
    and 28 (l - l*)^2 <= r^4 - L^2 for a lower bound L of u' + N(z - z0);
    with the brackets' interval for l*, that is a window of l.  Each l in
    it and in the candidate window of (m, n, eps) for j is decided by cmp,
    on <v, col> = Z + l D with D = <v, (i sqrt(7) c3, 0, 0)>.
    """
    ka, kb, ks = g[0] >> 1, g[1] >> 1, g[2] >> 1
    ku = _height_bracket(v)
    for j in sorted(GENERATORS):
        sph = SPHERES[j]
        za, zb, sn, zd = sph.center
        rn, rd = sph.r4.numerator, sph.r4.denominator
        r2 = _R2[j]
        if ku > r2:
            continue
        step = _SQRT_DEN * zd
        # step^2 N(zc - z0) <= zd^2 (sqrt(2^16 (r2 - ku)) + 2)^2
        nmax = (zd * (isqrt(_SQRT_DEN * (r2 - ku)) + 3)) ** 2
        # step^2 u' >= uk; rn/rd = r^4
        uk = max(ku, 0) * _SQRT_DEN * zd * zd
        r4, wden, step2 = rn * step**4, 7 * rd * step * step, 2 * step
        table = candidate_spheres(j)
        t = GENERATORS[j].ints
        p1, q1, p2, q2, p3, q3 = t[0], t[1], t[6], t[7], t[12], t[13]
        da, db = _mul_ints(-1, 2, p3, q3)
        dl = [r[0] * da + r[1] * db for r in rows]
        hits = []
        for eps in (0, 1):
            sigma = -1 if eps else 1
            x2, y2 = sigma * p2, sigma * q2
            # step (zc - z0) = (mm step + p0) + (nn step + q0) tau for (m, n) = (-mm, -nn)
            p0, q0 = zd * ka - sigma * _SQRT_DEN * za, zd * kb - sigma * _SQRT_DEN * zb
            for mm, nn in _lattice_disk(p0, q0, step, nmax):
                m, n = -mm, -nn
                window = table.get((m, n, eps))
                if window is None:
                    continue
                # step |z - z0| >= g and step^2 (u' + N(z - z0)) >= uk + g^2;
                # then (2 step (l - l*))^2 <= (r4 - rd (uk + g^2)^2)/wden
                x, y = mm * step + p0, nn * step + q0
                g = isqrt(x * x + x * y + 2 * y * y) - 2 * zd
                room = r4 - rd * (uk + g * g if g > 0 else uk) ** 2
                if room < 0:
                    continue
                w = isqrt(room // wden) + 1
                s0 = m - m * n
                # with zd sc = sn + s0 zd + sigma (n za - m zb) and p, q here
                # zd times those of z0, 2 step l* = zd (2^16 s) - 2^16 zd sc +
                # (2^16 b) p - (2^16 a) q is lnum plus less than zd + |p| + |q|
                p, q = m * zd + sigma * za, n * zd + sigma * zb
                lnum = zd * ks - _SQRT_DEN * (sn + s0 * zd + sigma * (n * za - m * zb)) + kb * p - ka * q
                lo = -((w - lnum - (p if p < 0 else 0) + (q if q > 0 else 0)) // step2)
                hi = (lnum + zd + (p if p > 0 else 0) - (q if q < 0 else 0) + w) // step2
                ls = range(max(lo, window[0]), min(hi, window[1]) + 1)
                if not ls:
                    continue
                # the column of (m, n, eps, 0), in the closed form of the
                # centers: (c1 - sigma conj(w) c2 + c c3, sigma c2 + w c3, c3)
                # with c = (-N(w) - s0)/2 + s0 tau
                ca, cb = _mul_ints(m + n, -n, x2, y2)
                ea, eb = _mul_ints(-(_norm_ints(m, n) + s0) // 2, s0, p3, q3)
                wa, wb = _mul_ints(m, n, p3, q3)
                a1, b1, a2, b2 = p1 - ca + ea, q1 - cb + eb, x2 + wa, y2 + wb
                z = [e1 * a1 + e2 * b1 + e3 * a2 + e4 * b2 + e5 * p3 + e6 * q3
                     for e1, e2, e3, e4, e5, e6 in rows]
                for l in ls:
                    h = quantity([zk + l * dk for zk, dk in zip(z, dl)])
                    sign = cmp(h, own)
                    if sign <= 0:
                        hits.append((CuspElt(m, n, eps, l), sign, h))
        hits.sort()
        for alpha, sign, h in hits:
            yield sign, h, j, alpha


#: the sweep of each tower, by n for K(zeta_n)
_TOWER_SWEEPS = {3: _zeta3_sweep, 7: _zeta7_sweep}


@cache
def _tower_hits(v, own, g, n):
    """The hits of the sweep of v over K(zeta_n), as a tuple, memoized on
    the vector's ints.

    A tower sweep ignores best, so `reduce_to_domain`'s last sweep, which
    certifies that its answer y lies in Omega, and the `spheres_at` sweep
    of a cycle graph at y are one call, with the same vector, own and
    grid: the second reads the first's hits.
    """
    return tuple(_TOWER_SWEEPS[n](v, own, g))


#: the sweep kernel of each field, by n for K(zeta_n), 1 for K; a tower
#: kernel ignores best and returns the memoized hits of its field's sweep
_KERNELS = {
    1: (_k_quantity, _k_cmp, _k_sweep),
    3: (_zeta3_quantity_of, _zeta3_cmp, lambda v, own, g, _best: _tower_hits(v, own, g, 3)),
    7: (_zeta7_quantity_of, _zeta7_cmp, lambda v, own, g, _best: _tower_hits(v, own, g, 7)),
}


def _sweep_vector(rep):
    """(vs, own, kernel): a ProjPoint's rep prepared for a Ford sweep.

    A K-rational point's vector is the six ints of its rep, which the K
    kernel sweeps as they are.  A tower rep (f1, f2, den) is the point's
    vector at v3 = 1 as field ints over den, and the kernel sweeps den
    times it, the integral vector (f1, f2, den).  Each test of a sweep
    compares N(<v, col>) with N(v3), and both are homogeneous of degree 2
    in v, so the scale changes no sign, order or tie, and every quantity of
    the sweep is an int form of the kernel of v's field.  own is the
    quantity of its v3.
    """
    if type(rep[0]) is int:
        vs, kernel = rep, _KERNELS[1]
    else:
        f1, f2, d = rep
        tw = field_of(f1)
        vs, kernel = (f1, f2, tw.lift(d, 0)), _KERNELS[tw.n]
    return vs, kernel[0](vs), kernel


def spheres_containing(x: ProjPoint):
    """All translated spheres alpha(I(A_j)) whose closed Cygan ball contains x.

    x is a ProjPoint (negative or null, not q_inf).  Returns a list of
    (alpha: CuspElt, j, flag) with flag "boundary" or "interior" (of the
    ball), valid for x itself (the internal prism reduction is undone in the
    reported alpha).
    """
    xc = prism_coordinates(x.rep)
    return spheres_at(x, xc, prism_grid(xc))


def spheres_at(p: ProjPoint, x, grid):
    """spheres_containing for a ProjPoint p with the prism coordinates x and
    their grid (`prism_grid`), which a caller that carries them passes on:
    the prism reduction and the sweep read the grid, and bracket no
    coordinates of their own unless the reduction moves the point.
    """
    shift = reduce_to_prism(x, grid)
    if shift != IDENTITY:
        grid = prism_grid(act_prism(shift, x))
        p = p.moved(shift.ints)
    vs, own, (_, _, sweep) = _sweep_vector(p.rep)
    # a translated sphere depends only on its center and radius (the coset
    # of alpha*A_j modulo right cusp multiplication).  The prism coordinates
    # (a, b, s, den) of its center alpha(A_j(inf)) give both, as r^4 = 4/den,
    # so dedup on them, keeping the first (j, alpha) of the sweep
    found = {}
    for sign, _, j, alpha in sweep(vs, own, grid[0], False):
        found.setdefault(act_prism(alpha, SPHERES[j].center), (j, alpha, sign))
    shift_inv = shift.inverse()
    return [
        (shift_inv * alpha, j, "boundary" if sign == 0 else "interior")
        for j, alpha, sign in found.values()
    ]


# ---------------------------------------------------------------------------
# reduction into Omega
# ---------------------------------------------------------------------------


class ReductionError(Exception):
    """Raised when domain reduction exceeds its iteration guard."""


#: the most reduction steps reduce_to_domain takes
MAX_ITERS = 1000


def reduce_to_domain(x: ProjPoint):
    """Group element g and point g(x) in Omega (Ford domain cap cone over P).

    x is a negative ProjPoint, and so is g(x).  Deterministic: among
    violated Ford inequalities, the one maximizing the exact violation ratio
    wins, ties broken by (j, cusp normal form): the first strict minimum of
    the sweep's quantities.  The sweep runs in best mode: the K kernel
    yields only the hits that improve on the last it yielded, and narrows
    its window to them, so the first of a tie is its last yield.  The
    point is carried as its ProjPoint, whose rep is ints.  A K-rational
    point is the six ints of a primitive vector of O_7^3: Gamma maps
    primitive vectors to primitive vectors, so each move is an int product
    and its point takes the sign rule only, no gcd.  A tower point is kept
    at v3 = 1 (`ProjPoint.of_tower`): it has no content to divide out, so
    that keeps its ints from growing with the steps, its prism coordinates
    take no inverse, and a cusp shift keeps the form.  g is composed as 18
    ints and a list of word pieces, and built once.
    """
    if x.sq_norm_sign() >= 0:
        raise ValueError("reduction needs an interior point (negative square norm)")
    move, point = (_apply_ints, ProjPoint.of_primitive) if x.rational else (_tower_apply, ProjPoint.of_tower)
    total, pieces = ID_INTS, []
    for _ in range(MAX_ITERS):
        xc = prism_coordinates(x.rep)
        c = reduce_to_prism(xc)
        t = c.ints
        x = x.moved(t)
        total = ints_product(t, total)
        pieces.append(c.word())
        vs, own, (quantity, cmp, sweep) = _sweep_vector(x.rep)
        # the violation ratio own/other is largest when `other` is smallest
        # (own is fixed within this sweep); the sweep's order breaks ties
        best = None
        for sign, other, j, alpha in sweep(vs, own, prism_grid(act_prism(c, xc))[0], True):
            if sign < 0 and (best is None or cmp(other, best[0]) < 0):
                best = (other, j, alpha)
        if best is None:
            word = tuple(letter for piece in reversed(pieces) for letter in piece)
            return GroupElt.from_ints(total, word), x
        _, j, alpha = best
        # (alpha A_j)^-1 maps the swept vector to a multiple of the new
        # point by the same factor, so its Ford quantity compares with `own`
        gi = ints_inverse(ints_product(alpha.ints, GENERATORS[j].ints))
        v = move(gi, vs)
        # the Ford quantity strictly decreases at each step
        if cmp(quantity(v), own) >= 0:
            raise ArithmeticError("the Ford quantity did not decrease")
        x = point(v)
        total = ints_product(gi, total)
        pieces.append(tuple((name, -e) for name, e in reversed(alpha.word() + GENERATORS[j].word)))
    raise ReductionError(f"no Omega representative found in {MAX_ITERS} steps")


def in_omega(x: ProjPoint) -> bool:
    """Exact membership of a point in Omega (closed)."""
    xc = prism_coordinates(x.rep)
    grid = prism_grid(xc)
    if not in_prism(xc, grid):
        return False
    vs, own, (_, _, sweep) = _sweep_vector(x.rep)
    return all(sign == 0 for sign, _, _, _ in sweep(vs, own, grid[0], False))
