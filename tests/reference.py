"""Generic references that the tests compare the package against.

The package decides each of these questions on a faster or narrower path;
the versions here are the textbook ones, kept next to the tests that use
them.  This module holds no tests.
"""

import functools
from collections import namedtuple
from fractions import Fraction
from itertools import combinations, groupby
from operator import itemgetter
from math import floor, isqrt, lcm

from picard7.ford import (
    _SQRT_DEN,
    GENERATORS,
    _forms,
    enumerate_cone_translates,
    spheres_at,
)
from picard7.heisenberg import (
    BRACKET,
    IDENTITY,
    R,
    T1,
    TTAU,
    CuspElt,
    act_prism,
    enumerate_cusp_overlaps,
    in_prism,
    overlaps_keeping,
    prism_coordinates,
    prism_grid,
    reduce_to_prism,
)
from picard7.hermitian import (
    ID_INTS,
    GroupElt,
    Mat,
    ProjPoint,
    _ext_gcd,
    _mul_ints,
    _norm_ints,
    _scaled_ints,
    canonical_ints,
    elements_of_norm,
    herm_inner,
    ints_are_scalar,
    ints_inverse,
    ints_product,
    primitive_rep,
    sq_norm,
)
from picard7.ring import (
    ISQRT7,
    ONE,
    TAU,
    ZERO,
    ZETA3,
    AlgNum,
    KNum,
    _TERM_RE,
    _alg,
    _divmod_ints,
    adjugate,
    eta_sign,
    knum_from_ints,
    o_gcd,
    o_gcd_many,
    real_field,
    sqrt21_sign,
)
from picard7.torsion import _move_element, orbit_walk


def rat(x: KNum) -> Fraction:
    """The value of a KNum that lies in Q."""
    if x.nb != 0:
        raise ValueError(f"{x} is not rational")
    return x.a


# ---------------------------------------------------------------------------
# AlgNum's edge forms and the operations only tests use: its K-coefficients,
# its inverse, and its equality as a value
# ---------------------------------------------------------------------------


def alg_num(tw, coeffs) -> AlgNum:
    """The element sum c_j zeta^j of the field tw (Zeta3Tower or Zeta7Tower)
    for its K-coefficients c_j, KNums in the power basis of zeta, by Horner
    over the field operations; any other coefficient raises TypeError."""
    coeffs = list(coeffs)
    if len(coeffs) > tw.degree:
        raise ValueError(f"{len(coeffs)} coefficients for a field of degree {tw.degree}")
    x, z = _alg(tw, tw.lift(0, 0), 1), _alg(tw, tw.zeta, 1)
    for c in reversed(coeffs):
        if type(c) is not KNum:
            raise TypeError(f"an AlgNum coefficient must be a KNum, not {type(c).__name__}")
        x = x * z + c
    return x


def alg_coeffs(x: AlgNum) -> tuple:
    """The K-coefficients of x in the power basis of zeta, a tuple of KNums:
    K(zeta_3)'s ints (a0, b0, a1, b1) are their int pairs, and K(zeta_7)'s
    convert to them (`k_ints`)."""
    c = x.ints if x.tower is ZETA3 else x.tower.k_ints(x.ints)
    return tuple(knum_from_ints(c[i], c[i + 1], x.den) for i in range(0, len(c), 2))


def alg_in_k(x: AlgNum) -> bool:
    return all(c.is_zero() for c in alg_coeffs(x)[1:])


def alg_k_part(x: AlgNum) -> KNum:
    """x as a KNum; raises ValueError if it is not in K."""
    if not alg_in_k(x):
        raise ValueError(f"{x!r} is not in K")
    return alg_coeffs(x)[0]


def alg_inverse(x: AlgNum) -> AlgNum:
    """1/x = D adj/n: adj is the product of the other images of D x, and
    the norm n = D x adj of the integral D x is a positive int."""
    if x.is_zero():
        raise ZeroDivisionError("division by zero in K(zeta)")
    adj, n = adjugate(x.tower, x.ints)
    return _alg(x.tower, tuple(x.den * a for a in adj), n)


def alg_key(x):
    """The value of an AlgNum, a KNum or an int as a key that compares and
    hashes equal exactly when the values are equal: an element of K is its
    KNum, which equals its int when it is one, and any other AlgNum is its
    field's n with its ints and den, the normal form."""
    if not isinstance(x, AlgNum):
        return x
    return alg_k_part(x) if alg_in_k(x) else (x.tower.n, x.ints, x.den)


def alg_eq(x, y) -> bool:
    """x == y for AlgNums, KNums and ints, by value (`alg_key`)."""
    return alg_key(x) == alg_key(y)


def vec_key(v):
    """The keys (`alg_key`) of a vector's coordinates, a tuple."""
    return tuple(map(alg_key, v))


def zeta_of(tw) -> AlgNum:
    """zeta, the generator of the field tw (Zeta3Tower or Zeta7Tower), as an AlgNum."""
    return alg_num(tw, [ZERO, ONE])


def alg_lift(tw, x) -> AlgNum:
    """The int or KNum x as an AlgNum of the field tw."""
    return alg_num(tw, [KNum.coerce(x)])


def neg(x):
    """-x for a KNum or an AlgNum, as its multiple by the int -1: an AlgNum
    has no negation of its own."""
    return x * -1


def sub(x, y):
    """x - y for ints, KNums and AlgNums of one field, as x + (-1) y."""
    return x + y * -1


def div(x, y):
    """x / y for ints, KNums and AlgNums of one field: an AlgNum divisor by
    its inverse, and an AlgNum by a KNum or an int by K's 1/y."""
    if isinstance(y, AlgNum):
        return alg_inverse(y) * x
    if isinstance(x, AlgNum):
        return x * (ONE / y)
    return x / y


def alg_floor(x: AlgNum) -> int:
    """The floor of a real AlgNum, by its field's floor_real on its real ints."""
    if not x.is_real():
        raise ValueError(f"{x!r} is not real")
    return x.tower.floor_real(x.tower.real_part(x.ints), x.den)


def alg_pow(x: AlgNum, n: int) -> AlgNum:
    """x^n for an int n >= 0, by n products."""
    out = alg_lift(x.tower, 1)
    for _ in range(n):
        out = out * x
    return out


def mat_apply(m: Mat, v):
    """M v, each coordinate the sum of its three entry products; v lies in
    K^3 or has coordinates in K(zeta_3) or K(zeta_7)."""
    return tuple(sum((x * y for x, y in zip(r, v)), start=KNum(0)) for r in m.rows)


def mat_product(a: Mat, b: Mat):
    """The rows of a * b, each entry the sum of its three KNum products."""
    cols = tuple(zip(*b.rows))
    return tuple(tuple(sum((x * y for x, y in zip(r, c)), start=KNum(0)) for c in cols) for r in a.rows)


def mat_neg(m: Mat) -> Mat:
    return Mat([[-x for x in r] for r in m.rows])


def mat_trace(m: Mat) -> KNum:
    return m.rows[0][0] + m.rows[1][1] + m.rows[2][2]


def mat_det(m: Mat) -> KNum:
    """The determinant by cofactors of the first row, in KNum arithmetic."""
    r = m.rows
    return (
        r[0][0] * (r[1][1] * r[2][2] - r[1][2] * r[2][1])
        - r[0][1] * (r[1][0] * r[2][2] - r[1][2] * r[2][0])
        + r[0][2] * (r[1][0] * r[2][1] - r[1][1] * r[2][0])
    )


def mat_charpoly(m: Mat):
    """Coefficients of det(x*I - M), low degree first: (c0, c1, c2, 1)."""
    r = m.rows
    m2 = (
        (r[1][1] * r[2][2] - r[1][2] * r[2][1])
        + (r[0][0] * r[2][2] - r[0][2] * r[2][0])
        + (r[0][0] * r[1][1] - r[0][1] * r[1][0])
    )
    return (-mat_det(m), m2, -mat_trace(m), ONE)


def _kernel_basis(rows, one=ONE):
    """Basis of the kernel of a 3x3 matrix given by its rows (exact Gauss-Jordan elimination).

    The entries are KNums, with one = ONE, or AlgNums of one field, with
    one its 1.
    """
    rows = [list(r) for r in rows]
    pivots = []
    for col in range(3):
        rk = len(pivots)
        piv = next((i for i in range(rk, 3) if not rows[i][col].is_zero()), None)
        if piv is None:
            continue
        rows[rk], rows[piv] = rows[piv], rows[rk]
        inv = div(one, rows[rk][col])
        rows[rk] = [x * inv for x in rows[rk]]
        for i in range(3):
            if i != rk and not rows[i][col].is_zero():
                f = rows[i][col]
                rows[i] = [sub(x, f * y) for x, y in zip(rows[i], rows[rk])]
        pivots.append(col)
    basis = []
    for free in (c for c in range(3) if c not in pivots):
        v = [one * 0] * 3
        v[free] = one
        for r, col in enumerate(pivots):
            v[col] = neg(rows[r][free])
        basis.append(tuple(v))
    return basis


def _shifted_rows(rows, lam):
    """The rows of M - lam I for the KNum rows of M, lifted into lam's field
    when lam is an AlgNum."""
    if isinstance(lam, AlgNum):
        rows = [[alg_lift(lam.tower, x) for x in r] for r in rows]
    return [[sub(x, lam) if i == j else x for j, x in enumerate(r)] for i, r in enumerate(rows)]


def eigenspace_basis(g: GroupElt, lam):
    """Basis of ker(g - lam*I) (list of vectors, exact); lam is in K or in a
    cyclotomic field, and then the vectors are AlgNums of that field."""
    one = alg_lift(lam.tower, 1) if isinstance(lam, AlgNum) else ONE
    return _kernel_basis(_shifted_rows(g.mat.rows, lam), one)


def ref_eigenvector(rows, lam):
    """The bilinear cross product of the first independent pair of rows of
    M - lam I, for the KNum rows of M, in KNum or AlgNum arithmetic: a
    vector spanning its kernel when it has rank 2, or None when lam is no
    eigenvalue of M.

    Two independent rows kill their cross product, and the third row does
    exactly when M - lam I is singular.
    """
    r0, r1, r2 = _shifted_rows(rows, lam)
    for (a1, a2, a3), (b1, b2, b3), (c1, c2, c3) in ((r0, r1, r2), (r0, r2, r1), (r1, r2, r0)):
        v = (sub(a2 * b3, a3 * b2), sub(a3 * b1, a1 * b3), sub(a1 * b2, a2 * b1))
        if not all(x.is_zero() for x in v):
            return v if (c1 * v[0] + c2 * v[1] + c3 * v[2]).is_zero() else None
    raise ArithmeticError("M - lam I has rank below 2")


def _is_mirror(g: GroupElt, lam) -> bool:
    """Whether the lam-eigenspace of g is a complex line that meets the ball:
    a plane on which the form is indefinite (negative Gram determinant)."""
    space = eigenspace_basis(g, lam)
    if len(space) != 2:
        return False
    e1, e2 = space
    g12 = herm_inner(e1, e2)
    return (sq_norm(e1) * sq_norm(e2) - g12 * g12.conj()).real_sign() < 0


def ref_parse_knum(s: str) -> KNum:
    """parse_knum summing Fractions: the same grammar and refusals."""
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


def translation_matrix(w, ti) -> Mat:
    """The Heisenberg translation T(w, t) as a matrix (ti = i*t), for w, ti in K."""
    return Mat([[1, -w.conj(), (-(w * w.conj()) + ti) / 2], [0, 1, w], [0, 0, 1]])


#: the half-turn z -> -z
R_MAT = Mat([[1, 0, 0], [0, -1, 0], [0, 0, 1]])


def cusp_matrix(c) -> Mat:
    """The matrix T(w, t0) R^eps of a cusp element, as a product over K."""
    m = translation_matrix(KNum(c.m, c.n), ISQRT7 * c.s0)
    return m * R_MAT if c.eps else m


def real_cmp(x, y) -> int:
    """Exact comparison of two real scalars (KNum or AlgNum, mixed allowed)."""
    return sub(x, y).real_sign()


# ---------------------------------------------------------------------------
# horospherical coordinates: the prism layer on (z, t, u)
# ---------------------------------------------------------------------------


class HoroPoint(namedtuple("HoroPoint", "z ti u")):
    """Horospherical coordinates (z, t, u) with ti = i*t stored exactly.

    For K-rational points z and ti are KNum (ti = s*(2 tau - 1), t = s*sqrt(7))
    and u is a KNum rational; otherwise they are AlgNum in a common tower.
    """

    __slots__ = ()

    def __new__(cls, z, ti, u):
        if not (ti + ti.conj()).is_zero():
            raise ValueError("ti must be purely imaginary")
        if not alg_eq(u, u.conj()):
            raise ValueError("u must be real")
        return tuple.__new__(cls, (z, ti, u))

    @property
    def s(self) -> Fraction:
        """t as a multiple of sqrt(7) (K-rational points only)."""
        return self.ti.b / 2


def horo_coords(v) -> HoroPoint:
    """Horospherical coordinates of a vector with <v,v> <= 0 and v3 != 0."""
    v1, v2, v3 = v
    if v3.is_zero():
        # <v, v> = |v2|^2 here, so only v2 = 0 leaves a null point: q_inf
        if v2.is_zero():
            raise ValueError("point at infinity has no horospherical coordinates")
        raise ValueError("vector has positive square norm")
    z = div(v2, v3)
    w = div(v1, v3) * 2 + z * z.conj()
    # w = it - u: ti is the anti-Hermitian part, u = -Re(w)
    ti = div(sub(w, w.conj()), 2)
    u = div(w + w.conj(), -2)
    if u.real_sign() < 0:
        raise ValueError("vector has positive square norm")
    return HoroPoint(z, ti, u)


def lift(h: HoroPoint):
    """Homogeneous lift ((-|z|^2 + it - u)/2, z, 1)."""
    z = h.z
    return (div(sub(h.ti, z * z.conj() + h.u), 2), z, ONE)


def act_horo(c: CuspElt, h: HoroPoint) -> HoroPoint:
    """(z, ti, u) -> (w + sigma z, ti + i t0 + w conj(sigma z) - conj(w) sigma z, u)."""
    w = KNum(c.m, c.n)
    z = neg(h.z) if c.eps else h.z
    ti = sub(h.ti + ISQRT7 * c.s0 + w * z.conj(), w.conj() * z)
    return HoroPoint(w + z, ti, h.u)


def tau_coordinates(z):
    """Real scalars (a, b) with z = a + b*tau, exact: b = (z - conj z)/(i sqrt(7))."""
    b = div(sub(z, z.conj()), ISQRT7)
    return sub(z, b * TAU), b


def s_coordinate(ti):
    """The real scalar s with t = s*sqrt(7), from ti = i*t."""
    return div(ti, ISQRT7)


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
            "a+b=1": sub(1, a + b).real_sign(),
            "s=0": s.real_sign(),
            "s=2": sub(2, s).real_sign(),
        }
        if any(v < 0 for v in checks.values()):
            return "outside", ()
        facets = tuple(k for k, v in checks.items() if v == 0)
        return ("boundary" if facets else "interior"), facets

    @staticmethod
    def contains(z, ti) -> bool:
        return Prism.membership(z, ti)[0] != "outside"


def _real_floor(x) -> int:
    """The floor of a real scalar: a KNum's through its rational value."""
    return floor(rat(x)) if isinstance(x, KNum) else alg_floor(x)


def horo_reduce_to_prism(h: HoroPoint):
    """Cusp element gamma and image with gamma(h)'s (z, t) in P, step by step
    on horospherical coordinates: a planar shift by the floors of a and b,
    at most one flip z -> 1 + tau - z, then a vertical shift by the floor of
    s/2.  Returns (CuspElt, reduced HoroPoint)."""
    total = IDENTITY
    a, b = tau_coordinates(h.z)
    k, n = _real_floor(a), _real_floor(b)
    if k or n:
        total = CuspElt(m=-k) * CuspElt(n=-n)
        h = act_horo(total, h)
        a, b = tau_coordinates(h.z)
    if sub(1, a + b).real_sign() < 0:
        step = T1 * TTAU * R  # z -> 1 + tau - z
        h = act_horo(step, h)
        total = step * total
    lshift = _real_floor(div(s_coordinate(h.ti), 2))
    if lshift:
        step = CuspElt(l=-lshift)
        h = act_horo(step, h)
        total = step * total
    if not Prism.contains(h.z, h.ti):
        raise ArithmeticError("prism reduction left the prism")
    return total, h


@functools.cache
def horo_sphere(j):
    """(center, r^4) of the isometric sphere of A_j: the HoroPoint of its
    first column and 4/N(a31)."""
    col = first_column(GENERATORS[j])
    return horo_coords(col), Fraction(4, col[2].norm())


def from_zsu(z, s, u=0) -> HoroPoint:
    """The K-rational HoroPoint with t = s*sqrt(7)."""
    return HoroPoint(KNum.coerce(z), ISQRT7 * KNum(Fraction(s)), KNum(Fraction(u)))


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


def sqrt_lb(q: Fraction) -> Fraction:
    """A rational lower bound for sqrt(q) over 2^16, q >= 0."""
    q = Fraction(q)
    if q < 0:
        raise ArithmeticError("square root of a negative number")
    n = isqrt((q * _SQRT_DEN * _SQRT_DEN).__floor__())
    lb = Fraction(n, _SQRT_DEN)
    if lb * lb > q:
        raise ArithmeticError("sqrt_lb is above the square root")
    return lb


def sqrt_ub(q: Fraction) -> Fraction:
    """A rational upper bound for sqrt(q) over 2^16, q >= 0."""
    q = Fraction(q)
    if q < 0:
        raise ArithmeticError("square root of a negative number")
    ub = Fraction(isqrt((q * _SQRT_DEN * _SQRT_DEN).__ceil__()) + 1, _SQRT_DEN)
    if ub * ub < q:
        raise ArithmeticError("sqrt_ub is below the square root")
    return ub


def cygan_dist4(p: HoroPoint, q: HoroPoint):
    """Fourth power of the extended Cygan distance, exact."""
    dz = p.z - q.z
    du = p.u - q.u
    if du.real_sign() < 0:
        du = -du
    first = dz * dz.conj() + du
    # i*(t - t' + 2 Im(z conj(z'))) = ti - ti' + z conj(z') - conj(z) z'
    cross = p.z * q.z.conj()
    qq = p.ti - q.ti + cross - cross.conj()
    return first * first + qq * qq.conj()


def tjk_in_box(j, k, mbox, nbox, lbox):
    """T_jk by the Cygan-distance filter over |m| <= mbox, |n| <= nbox, |l| <= lbox.

    The distance between the centers after alpha is compared, through exact
    fourth powers, with the Fraction bound (sqrt_ub(sqrt_ub(r_j^4)) +
    sqrt_ub(sqrt_ub(r_k^4)))^4.  A survivor on the box's edge means the box
    may miss some, and is refused.
    """
    (cj, rj), (ck, rk) = horo_sphere(j), horo_sphere(k)
    bound = (sqrt_ub(sqrt_ub(rj)) + sqrt_ub(sqrt_ub(rk))) ** 4
    out = []
    for m in range(-mbox, mbox + 1):
        for n in range(-nbox, nbox + 1):
            for eps in (0, 1):
                planar = act_horo(CuspElt(m, n, eps, 0), cj)
                dz2 = (planar.z - ck.z).norm()
                if dz2 * dz2 > bound:
                    continue
                for l in range(-lbox, lbox + 1):
                    alpha = CuspElt(m, n, eps, l)
                    if rat(cygan_dist4(act_horo(alpha, cj), ck)) > bound:
                        continue
                    if abs(m) == mbox or abs(n) == nbox or abs(l) == lbox:
                        raise ArithmeticError("the reference box is too small")
                    out.append(alpha)
    return sorted(out)


def dist2_to_triangle(p: KNum) -> Fraction:
    """Squared distance from p to D = hull{0, 1, tau}, edge by edge in Fractions."""
    a, b = p.a, p.b
    if a >= 0 and b >= 0 and a + b <= 1:
        return Fraction(0)
    out = []
    for v0, v1 in ((KNum(0), KNum(1)), (KNum(0), TAU), (KNum(1), TAU)):
        d, w = v1 - v0, p - v0
        x = w * d.conj()
        t = (x.a + x.b / 2) / d.norm()
        if t <= 0:
            out.append(Fraction(w.norm()))
        elif t >= 1:
            out.append(Fraction((p - v1).norm()))
        else:
            out.append(w.norm() - t * t * d.norm())
    return min(out)


def polygon_vertices(constraints):
    """Vertices of a 2D polytope {c . x <= d} (exact; assumes boundedness)."""
    verts = []
    for (c1, d1), (c2, d2) in combinations(constraints, 2):
        det = c1[0] * c2[1] - c1[1] * c2[0]
        if det == 0:
            continue
        x = (d1 * c2[1] - d2 * c1[1]) / det
        y = (c1[0] * d2 - c2[0] * d1) / det
        if all(c[0] * x + c[1] * y <= d for c, d in constraints):
            verts.append((x, y))
    return verts


# triangle D in (a, b): a >= 0, b >= 0, a + b <= 1
_TRI = [((-1, 0), Fraction(0)), ((0, -1), Fraction(0)), ((1, 1), Fraction(1))]


def _overlap_constraints(m, n, sign):
    """Constraints on (a, b) for z = a + b*tau in D with m + n*tau + sign*z in D."""
    cons = list(_TRI)
    for (c1, c2), d in _TRI:
        cons.append(((c1 * sign, c2 * sign), d - Fraction(c1 * m + c2 * n)))
    return cons


def _cross_coeffs(w: KNum):
    """Affine-linear coefficients (c0, ca, cb) of 2 Im(w conj(z))/sqrt(7) in z = a + b*tau."""
    # Im(x) = (x.b / 2) sqrt(7) for x = x.a + x.b tau
    f = lambda z: (w * z.conj()).b
    c0 = f(KNum(0))
    ca = f(KNum(1)) - c0
    cb = f(TAU) - c0
    return c0, ca, cb


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
    own = v[2] * v[2].conj()
    other = herm_inner(v, first_column(g))
    other = other * other.conj()
    return _side_from_sign(real_cmp(other, own))


def sphere_membership(h: HoroPoint, j) -> str:
    """Same trichotomy as ford_side for A_j, via horospherical coordinates:
    compares the extended Cygan distance to the center against the radius."""
    center, r4 = horo_sphere(j)
    return _side_from_sign(real_cmp(cygan_dist4(h, center), KNum(r4)))


def overlap_witness(c):
    """An exact point of c(P) in P (barycenter of overlap vertices), or None."""
    sign = -1 if c.eps else 1
    verts = polygon_vertices(_overlap_constraints(c.m, c.n, sign))
    if not verts:
        return None
    ax = sum(v[0] for v in verts) / len(verts)
    bx = sum(v[1] for v in verts) / len(verts)
    c0, ca, cb = _cross_coeffs(KNum(c.m, c.n))
    shift = c.s0 + sign * (c0 + ca * ax + cb * bx)
    # pick s in [0,2] with s + shift in [0,2]
    lo = max(Fraction(0), -shift)
    hi = min(Fraction(2), 2 - shift)
    if lo > hi:
        return None
    p = from_zsu(KNum(ax, bx), (lo + hi) / 2)
    q = act_horo(c, p)
    if not (Prism.contains(p.z, p.ti) and Prism.contains(q.z, q.ti)):
        return None
    return p


def ref_overlaps_keeping(x):
    """overlaps_keeping as one prism test per overlap."""
    return [c for c in enumerate_cusp_overlaps() if c != IDENTITY and in_prism(act_prism(c, x))]


def search_orthogonal_mirrors(ctx, norm: int, height: int):
    """All primitive polar vectors of the given norm orthogonal to the mirror.

    Candidates are integral combinations v = al*b1 + be*b2 of the context
    basis with tau-basis coefficients bounded by the height.  MirrorContext
    certifies that the basis is saturated, so the primitive part of v is
    v/G with G = gcd(al, be), and <v, v> = N(G) <v/G, v/G>.  A candidate is
    kept exactly when its Gram form <v, v> = N(al) g11 + N(be) g22 +
    Tr(be conj(al) g12) equals norm * N(G).  The zero vector has <v, v> = 0
    and is never kept.
    """
    if height < 1:
        raise ValueError("height must be at least 1")
    b1, b2 = ctx.basis
    g11, g12, g22 = ctx.gram
    g11, g22 = int(rat(g11)), int(rat(g22))
    found = set()
    rng = range(-height, height + 1)
    for a1 in rng:
        for c1 in rng:
            al = KNum(a1, c1)
            q1, cross = al.norm() * g11, al.conj() * g12
            for a2 in rng:
                for c2 in rng:
                    be = KNum(a2, c2)
                    q = q1 + be.norm() * g22 + knum_trace(be * cross)
                    if q <= 0 or q % norm or q != norm * o_gcd(al, be).norm():
                        continue
                    found.add(ProjPoint(tuple(al * b1[k] + be * b2[k] for k in range(3))))
    return sorted(found)


# ---------------------------------------------------------------------------
# the Ford domain on the generic path: herm_inner, abs2 and the HoroPoint prism
# ---------------------------------------------------------------------------


def cone_translates(j: int):
    """The translates alpha = (m, n, eps, l) of j's l-windows
    (`enumerate_cone_translates`), in tuple order."""
    return sorted(CuspElt(m, n, eps, l) for (m, n, eps), (lmin, lmax) in enumerate_cone_translates(j).items()
                  for l in range(lmin, lmax + 1))


@functools.cache
def candidate_columns(j: int):
    """(alpha, col) pairs over the translate superset of j, in (j, alpha) order.

    col is the column alpha(A_j(inf)) as six ints (a1, b1, a2, b2, a3, b3),
    its entries col_k = a_k + b_k tau in O_7.  It is in closed form: for
    alpha = T(w, t0) R^eps with w = m + n tau, sigma = (-1)^eps and
    t0 = s0 sqrt(7), s0 = m - mn + 2l, and the first column (v1, v2, v3)
    of A_j, col = (v1 - sigma conj(w) v2 + c v3, sigma v2 + w v3, v3) with
    c = (-N(w) + i sqrt(7) s0)/2 = (-N(w) - s0)/2 + s0 tau.  c is integral,
    as N(w) + s0 = m(m + 1) + 2(n^2 + l) is even.
    """
    t = GENERATORS[j].ints
    p1, q1, p2, q2, p3, q3 = t[0], t[1], t[6], t[7], t[12], t[13]
    out = []
    for alpha in cone_translates(j):
        m, n, eps, l = alpha
        s0 = m - m * n + 2 * l
        nw_s0 = _norm_ints(m, n) + s0
        if nw_s0 % 2:
            raise ArithmeticError("a candidate column is not integral")
        x2, y2 = (-p2, -q2) if eps else (p2, q2)
        # conj(w) = (m + n) - n tau
        ca, cb = _mul_ints(m + n, -n, x2, y2)
        da, db = _mul_ints(-(nw_s0 // 2), s0, p3, q3)
        wa, wb = _mul_ints(m, n, p3, q3)
        out.append((alpha, (p1 - ca + da, q1 - cb + db, x2 + wa, y2 + wb, p3, q3)))
    return out


def lifted(v):
    """Three KNums as they are, or a tower vector as three AlgNums, its KNum
    coordinates lifted into the field."""
    if all(isinstance(c, KNum) for c in v):
        return tuple(v)
    tw = next(c.tower for c in v if isinstance(c, AlgNum))
    return tuple(c if isinstance(c, AlgNum) else alg_lift(tw, c) for c in v)


def scaled_alg(v):
    """A tower vector of AlgNums times the lcm of their denominators, so
    that every coordinate is integral."""
    d = lcm(*(c.den for c in v))
    return tuple(c * d for c in v)


def alg_ints(c: AlgNum):
    """The ints of an integral AlgNum."""
    if c.den != 1:
        raise ArithmeticError("a Ford sweep coordinate is not integral")
    return c.ints


def point_of(v) -> ProjPoint:
    """The point of a vector of KNums, or of AlgNums of one field with KNums
    lifted into it: the vector divided by its last nonzero coordinate, a K
    point when that lies in K^3, else the tower point of its ints scaled to
    one den (`ProjPoint.of_tower`)."""
    v = lifted(v)
    if all(isinstance(c, KNum) for c in v):
        return ProjPoint(v)
    last = next((c for c in reversed(v) if not c.is_zero()), None)
    if last is None:
        raise ValueError("zero vector has no projective class")
    inv = alg_inverse(last)
    v = tuple(c * inv for c in v)
    if all(map(alg_in_k, v)):
        return ProjPoint(tuple(map(alg_k_part, v)))
    return ProjPoint.of_tower(tuple(map(alg_ints, scaled_alg(v))))


def vector_rep(v):
    """A vector as prism_coordinates takes it: a K^3 vector of KNums as the
    six ints of its multiple by the lcm of its denominators, which keeps its
    scale otherwise, and a tower vector as its point's rep."""
    if all(isinstance(c, KNum) for c in v):
        return tuple(_scaled_ints(v)[0])
    return point_of(v).rep


def ref_k_sweep(v, own):
    """The K Ford sweep as a scan of every candidate column, for the six ints
    v of a vector in O_7^3: (sign, N(<v, col>), j, alpha) for each column
    with N(<v, col>) <= own, in (j, alpha) order."""
    (x1, x2, x3, x4, x5, x6), (y1, y2, y3, y4, y5, y6) = _forms(v)
    for j in sorted(GENERATORS):
        for alpha, (a1, b1, a2, b2, a3, b3) in candidate_columns(j):
            x = a1 * x1 + b1 * x2 + a2 * x3 + b2 * x4 + a3 * x5 + b3 * x6
            y = a1 * y1 + b1 * y2 + a2 * y3 + b2 * y4 + a3 * y5 + b3 * y6
            q = x * x + x * y + 2 * y * y
            if q <= own:
                yield (-1 if q < own else 0), q, j, alpha


def ref_zeta3_quantity(x: AlgNum):
    """(m, n) with 2|x|^2 = m + n sqrt(21), for an integral AlgNum x of
    K(zeta_3): |x|^2 = p + q w for its real ints (p, q), w = (1 -
    sqrt(21))/2, so 2|x|^2 = (2p + q) - q sqrt(21)."""
    p, q = x.tower.real_part(alg_ints(x.abs2()))
    return 2 * p + q, -q


def ref_zeta3_cmp(p, q) -> int:
    return sqrt21_sign(p[0] - q[0], p[1] - q[1])


def ref_zeta3_sweep(v, own):
    """The K(zeta_3) Ford sweep as a scan of every candidate column, for an
    integral vector v of AlgNums: <v, col> in AlgNum arithmetic, and the
    quantity the int pair (m, n) of 2|<v, col>|^2 (`ref_zeta3_quantity`)."""
    for j in sorted(GENERATORS):
        for alpha, col in candidate_columns(j):
            q = ref_zeta3_quantity(herm_inner(v, tuple(map(knum_from_ints, col[0::2], col[1::2]))))
            sign = ref_zeta3_cmp(q, own)
            if sign <= 0:
                yield sign, q, j, alpha


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


def ref_zeta7_quantity(x: AlgNum):
    """The autocorrelation (h_0, .., h_3) of the ints of an integral AlgNum
    x of K(zeta_7), with F_0 = 0: |x|^2 = sum_m h_m zeta_7^m."""
    return zeta7_autocorr((0,) + alg_ints(x))


def ref_zeta7_cmp(p, q) -> int:
    d0 = p[0] - q[0]
    return eta_sign(p[1] - q[1] - d0, p[2] - q[2] - d0, p[3] - q[3] - d0)


def ref_zeta7_sweep(v, own):
    """The K(zeta_7) Ford sweep as a scan of every candidate column: v in
    O_K(zeta_7)^3, integral AlgNums, each coordinate its ints F_1 .. F_6 and
    F_0 = 0, and the quantity is the autocorrelation (h_0, .., h_3) of
    <v, col>."""
    # conj(a + b tau) F = a F + b G with G = conj(tau) F, and conj(tau) =
    # 1 + zeta^3 + zeta^5 + zeta^6; one row of ints (F_m, G_m of v3, v2,
    # v1) per power of zeta, as col_k pairs with v_(4-k)
    coords = [(0,) + alg_ints(c) for c in reversed(v)]
    rows = []
    for m in range(7):
        row = []
        for f in coords:
            row += (f[m], f[m] + f[m - 3] + f[m - 5] + f[m - 6])
        rows.append(row)
    for j in sorted(GENERATORS):
        for alpha, (a1, b1, a2, b2, a3, b3) in candidate_columns(j):
            h = zeta7_autocorr([a1 * f3 + b1 * g3 + a2 * f2 + b2 * g2 + a3 * f1 + b3 * g1
                                for f3, g3, f2, g2, f1, g1 in rows])
            sign = ref_zeta7_cmp(h, own)
            if sign <= 0:
                yield sign, h, j, alpha


@functools.cache
def ford_candidates():
    """(j, alpha, alpha A_j) for every candidate column, in sweep order."""
    return [(j, alpha, alpha.to_matrix() * GENERATORS[j])
            for j in sorted(GENERATORS) for alpha in cone_translates(j)]


def ref_reduce(x):
    """reduce_to_domain on the generic path: among the violated Ford
    inequalities the smallest |<v, col>|^2 wins, the first in sweep order
    on a tie."""
    as_proj = isinstance(x, ProjPoint)
    v = x.coords if as_proj else lift(x)
    total = GroupElt.identity()
    while True:
        shift, h = horo_reduce_to_prism(horo_coords(v))
        v = lift(h)
        total = shift.to_matrix() * total
        own = v[2] * v[2].conj()
        best = None
        for _, _, g in ford_candidates():
            other = herm_inner(v, first_column(g))
            other = other * other.conj()
            if real_cmp(other, own) < 0 and (best is None or real_cmp(other, best[0]) < 0):
                best = (other, g)
        if best is None:
            return total, (point_of(v) if as_proj else horo_coords(v))
        gi = best[1].inverse()
        v = mat_apply(gi.mat, v)
        total = gi * total


def _ref_sweep_vector(v):
    """(vs, own, (quantity, cmp, scan)) for a vector of KNums or AlgNums: v
    scaled by the lcm of its denominators, the quantity of its v3, and the
    column scan of its field, with quantity(c) of one coordinate and
    scan(vs, own)."""
    if all(isinstance(c, KNum) for c in v):
        vs = [c * lcm(*(c.d for c in v)) for c in v]
        return vs, vs[2].norm(), (KNum.norm, lambda p, q: (p > q) - (p < q),
                                  lambda w, own: ref_k_sweep(vector_rep(w), own))
    vs = scaled_alg(v)
    if vs[0].tower is ZETA3:
        kernel = ref_zeta3_quantity, ref_zeta3_cmp, ref_zeta3_sweep
    else:
        kernel = ref_zeta7_quantity, ref_zeta7_cmp, ref_zeta7_sweep
    return vs, kernel[0](vs[2]), kernel


def _ref_prism_shift(v) -> CuspElt:
    """The cusp element that reduce_to_prism gives the point of v: on the
    six ints of a K vector, and on the AlgNum prism coordinates of a tower
    vector (`ref_prism_coordinates`, `algnum_reduce_to_prism`)."""
    if all(isinstance(c, KNum) for c in v):
        return reduce_to_prism(prism_coordinates(vector_rep(v)))
    return algnum_reduce_to_prism(ref_prism_coordinates(v))


def ref_reduce_to_domain(x: ProjPoint):
    """reduce_to_domain as a loop on vectors of KNums or AlgNums with
    word-carrying GroupElt products: each step reduces the vector into the
    prism (`_ref_prism_shift`) and scans every candidate column of its
    field, and the answer is the point of v (`point_of`), through the O_7
    gcd for a rational point.  A tower vector shares no step with the
    package's tower path: its prism coordinates and its Ford quantities are
    taken in AlgNum arithmetic.  The same soundness checks raise, and a
    tower vector is divided by v3 after each Ford step."""
    v = x.coords
    if herm_inner(v, v).real_sign() >= 0:
        raise ValueError("reduction needs an interior point (negative square norm)")
    total = GroupElt.identity()
    while True:
        shift = _ref_prism_shift(v).to_matrix()
        v = mat_apply(shift.mat, v)
        total = shift * total
        vs, own, (quantity, cmp, scan) = _ref_sweep_vector(v)
        best = None
        for sign, other, j, alpha in scan(vs, own):
            if sign < 0 and (best is None or cmp(other, best[0]) < 0):
                best = (other, j, alpha)
        if best is None:
            return total, point_of(v)
        gi = (best[2].to_matrix() * GENERATORS[best[1]]).inverse()
        v = mat_apply(gi.mat, vs)
        if cmp(quantity(v[2]), own) >= 0:
            raise ArithmeticError("the Ford quantity did not decrease")
        if not isinstance(v[2], KNum):
            inv = alg_inverse(v[2])
            v = tuple(y * inv for y in v)
        total = gi * total


def ref_in_omega(x):
    v = x.coords if isinstance(x, ProjPoint) else lift(x)
    h = horo_coords(v)
    return Prism.contains(h.z, h.ti) and all(ford_side(v, g) != "outside" for _, _, g in ford_candidates())


def ref_spheres_containing(x):
    shift, h = horo_reduce_to_prism(horo_coords(x.coords) if isinstance(x, ProjPoint) else x)
    v = lift(h)
    found = {}
    for j, alpha, g in ford_candidates():
        side = ford_side(v, g)
        if side != "inside":
            center, r4 = horo_sphere(j)
            found.setdefault((r4, act_horo(alpha, center)), (j, alpha, side))
    return [(shift.inverse() * alpha, j, "boundary" if side == "boundary" else "interior")
            for j, alpha, side in found.values()]


# ---------------------------------------------------------------------------
# the cycle graph as an edge list, with a fixpoint for its spanning transports
# ---------------------------------------------------------------------------


def ref_moves(p, x):
    """The moves (t, q, c, side, xs) of `torsion._moves` at a vertex p in
    Omega with prism coordinates x, derived at p itself: its own sphere
    sweep, with each side image's prism reduction, then the cusp overlaps
    that keep p in P."""
    grid = prism_grid(x)
    for alpha, j, flag in spheres_at(p, x, grid):
        if flag != "boundary":
            raise ArithmeticError("graph vertices must lie in Omega")
        # (alpha A_j)^-1 = A_j^-1 alpha^-1
        g = ints_product(ints_inverse(GENERATORS[j].ints), alpha.inverse().ints)
        image = p.moved(g)
        xs = prism_coordinates(image.rep)
        c = reduce_to_prism(xs)
        yield canonical_ints(ints_product(c.ints, g)), image.moved(c.ints), c, (alpha, j), xs
    for c in overlaps_keeping(x, grid):
        yield c.ints, p.moved(c.ints), c, None, x


def ref_cycle_graph(points):
    """(vertices, edges) of the graph on the Omega-orbit closure of points:
    the given points first, then the vertices in the order their moves find
    them, and the distinct edges (src, dst, label) between their indices.
    Each vertex's moves read its prism coordinates off its vector, and each
    label is the move's GroupElt with its word."""
    vertices = list(dict.fromkeys(points))
    index = {p: i for i, p in enumerate(vertices)}
    edges = []
    seen = set()
    i = 0
    while i < len(vertices):
        for _, q, c, side, _ in ref_moves(vertices[i], prism_coordinates(vertices[i].rep)):
            g = _move_element(c, side)
            if q not in index:
                index[q] = len(vertices)
                vertices.append(q)
            edge = (i, index[q], g)
            if edge not in seen:
                seen.add(edge)
                edges.append(edge)
        i += 1
    return vertices, edges


def ref_spanning_transports(edges, base):
    """Transports t[v] with t[v](vertex base) = vertex v, grown to a fixpoint
    over the edges sorted by (src, dst, label ints), in both directions."""
    order = sorted(edges, key=lambda e: (e[0], e[1], e[2].ints))
    transports = {base: GroupElt.identity()}
    changed = True
    while changed:
        changed = False
        for src, dst, g in order:
            if src in transports and dst not in transports:
                transports[dst] = g * transports[src]
                changed = True
            if dst in transports and src not in transports:
                transports[src] = g.inverse() * transports[dst]
                changed = True
    return transports


def ref_stabilizer_gens(edges, transports):
    """t_dst^-1 label t_src over the edges of the transports' component,
    leaving out the identity."""
    gens = []
    for src, dst, g in edges:
        if src in transports:
            s = transports[dst].inverse() * g * transports[src]
            if not s.is_identity():
                gens.append(s)
    return gens


# ---------------------------------------------------------------------------
# the projective order by repeated products
# ---------------------------------------------------------------------------


def ref_projective_order(g: GroupElt):
    """Smallest n >= 1 with g^n = +/-Id, or None if no n <= 18 works: the
    products g, g^2, ..., g^18, one at a time.  The eigenvalues of a
    finite-order element have degree at most 6 over Q (phi(n) <= 6), so its
    projective order never exceeds 18."""
    p = g
    for n in range(1, 19):
        if p.is_identity():
            return n
        p = p * g
    return None


# ---------------------------------------------------------------------------
# reflections by the repeated eigenvalue
# ---------------------------------------------------------------------------


def _repeated_eigenvalue(charpoly):
    """The repeated K-eigenvalue of a matrix with the characteristic polynomial
    charpoly (`mat_charpoly`), or None when it is squarefree.

    The monic cubic x^3 + a x^2 + b x + c has a repeated root iff its
    discriminant vanishes.  For (x - l)^2 (x - m), a^2 - 3b = (l - m)^2 and
    9c - ab = 2 l (l - m)^2, which gives the double root l; a^2 - 3b = 0
    means a triple root.
    """
    c, b, a, _ = charpoly
    if not (18 * a * b * c - 4 * a * a * a * c + a * a * b * b - 4 * b * b * b - 27 * c * c).is_zero():
        return None
    gap = a * a - 3 * b
    if gap.is_zero():
        raise ArithmeticError("triple eigenvalue: a finite-order element with one is scalar")
    return (9 * c - a * b) / (2 * gap)


def _simple_eigenpoint(g: GroupElt, charpoly, lam):
    """(p, <p, p>) for the eigenline of the simple eigenvalue tr - 2 lam of a
    finite-order g whose repeated eigenvalue is lam; tr = -c2 of its charpoly.

    g is unitary with roots of unity as eigenvalues, so its lam-plane is
    p^perp (Goldman, Complex Hyperbolic Geometry, 3.1): indefinite, a
    mirror, when <p, p> > 0, and definite, around the isolated fixed point
    p, when <p, p> < 0.  <p, p> = 0 would put p in its own lam-plane.
    """
    p = ProjPoint(ref_eigenvector(g.mat.rows, -charpoly[2] - 2 * lam))
    norm = sq_norm(p.coords)
    if norm.is_zero():
        raise ArithmeticError("simple eigenvector of a finite-order element is null")
    return p, norm


def ref_reflection_polar(g: GroupElt):
    """(polar ProjPoint, polar norm) if g is a complex reflection, else None.

    g must have finite order (see _simple_eigenpoint); the elements of a
    FiniteGroup, the enumeration's candidates and the word-table rows do.
    """
    charpoly = mat_charpoly(g.mat)
    lam = _repeated_eigenvalue(charpoly)
    if lam is None:
        return None
    polar, norm = _simple_eigenpoint(g, charpoly, lam)
    if norm.real_sign() < 0:
        return None
    return polar, int(rat(norm))


def ref_involution_axis(g: GroupElt):
    """The six ints of a nonzero column of I - tr(g) g if g^2 = I and g is
    not 1, else None: g^2 taken for every g, with no look at the trace."""
    t = g.ints
    if t == ID_INTS or ints_product(t, t) != ID_INTS:
        return None
    lam = t[0] + t[8] + t[16]
    for j in range(3):
        col = tuple(x for i in range(3)
                    for x in (int(i == j) - lam * t[6 * i + 2 * j], -lam * t[6 * i + 2 * j + 1]))
        if any(col):
            return col


# ---------------------------------------------------------------------------
# a finite stabilizer closed on the linear group
# ---------------------------------------------------------------------------


class RefFiniteGroup:
    """The closure of gens, 18-int tuples, in U(J, O_7) with its line data,
    on the linear group: the walk on the 18 ints of the matrices starts
    from both signs of Id, so it is closed under sign, and its scalars are
    counted.  Its elements are GroupElts.  Each element other than 1 is
    tested by the repeated-eigenvalue reference, and each orbit of 2-lines
    is swept over the elements."""

    def __init__(self, gens):
        start = (ID_INTS, tuple(-x for x in ID_INTS))
        matrices = frozenset(a for a, _, _ in orbit_walk(start, sorted(set(gens)), ints_product))
        self.linear_order = len(matrices)
        self.scalar_order = sum(1 for t in matrices if ints_are_scalar(t))
        self.elements = frozenset(map(GroupElt.from_ints, matrices))
        self.projective_order = len(self.elements)
        if self.linear_order != self.projective_order * self.scalar_order:
            raise ArithmeticError("scalar matrices do not split the closure evenly")
        polars = dict(filter(None, (ref_reflection_polar(g) for g in self.elements if not g.is_identity())))
        self.reflections = sorted(polars.items(), key=lambda t: (t[1], t[0]))
        self.one_lines = sum(1 for n in polars.values() if n == 1)
        self.two_lines = sum(1 for n in polars.values() if n == 2)
        rest, sizes = {p for p, n in polars.items() if n == 2}, []
        while rest:
            orbit = {min(rest).moved(g.ints) for g in self.elements}
            sizes.append(len(orbit))
            rest -= orbit
        self.two_line_orbits = sorted(sizes)


# ---------------------------------------------------------------------------
# element orders and centers over a prime field, one product at a time
# ---------------------------------------------------------------------------


def ref_element_order(rm, x) -> int:
    """The least k >= 1 with x^k = Id over the field of the ResidueMap rm."""
    y, k = x, 1
    while y != (1, 0, 0, 0, 1, 0, 0, 0, 1):
        y = rm.mul(y, x)
        k += 1
    return k


def ref_projective_element_order(rm, x) -> int:
    """The least k >= 1 with x^k scalar over the field of rm."""
    y, k = x, 1
    while not rm.is_scalar(y):
        y = rm.mul(y, x)
        k += 1
    return k


def ref_certificate_row(rm, cls) -> dict:
    """A torsion_free_certificate row by the three order loops: x, -x and
    x up to scalars, for x the image of the class's representative."""
    img = rm(cls.rep.ints)
    row = {
        "word": cls.word,
        "order": cls.proj_order,
        "image_order": ref_element_order(rm, img),
        "neg_image_order": ref_element_order(rm, rm(tuple(-x for x in cls.rep.ints))),
        "projective_image_order": ref_projective_element_order(rm, img),
    }
    row["ok"] = row["projective_image_order"] == cls.proj_order
    return row


def ref_center(grp):
    """The elements of an FpMatGroup that commute with each generator, by
    the two full products for every element."""
    mul = grp.rm.mul
    return sorted(x for x in grp.elements if all(mul(x, g) == mul(g, x) for g in grp.gens))


# ---------------------------------------------------------------------------
# prism coordinates and decisions with every step of a tower point in AlgNum
# arithmetic
# ---------------------------------------------------------------------------


def alg_of_real(r, den: int) -> AlgNum:
    """The real element with the real ints r over den (`ring.real_field`)
    as an AlgNum: p + q w with w = (1 - sqrt(21))/2 = tau - zeta + 2 tau
    zeta in K(zeta_3), c0 + c1 eta_1 + c2 eta_2 in K(zeta_7)."""
    tw = real_field(r)
    if len(r) == 2:
        p, q = r
        return div(alg_num(tw, [KNum(p) + q * TAU, KNum(-q) + 2 * q * TAU]), den)
    c0, c1, c2 = r
    z = zeta_of(tw)
    eta1, eta2 = z + alg_pow(z, 6), alg_pow(z, 2) + alg_pow(z, 5)
    return div(eta1 * c1 + eta2 * c2 + c0, den)


def alg_prism(x):
    """Prism coordinates x as AlgNum ones: a tower point's real ints over
    den as real AlgNums over den = 1; K coordinates as they are."""
    a, b, s, den = x
    if type(a) is int:
        return x
    return alg_of_real(a, den), alg_of_real(b, den), alg_of_real(s, den), 1


def ref_prism_coordinates(v):
    """The prism coordinates (a, b, s, 1) of a tower vector v with <v, v> <=
    0 and v3 != 0 in AlgNum arithmetic: z = v2/v3 = a + b tau and v1/v3 =
    c + s tau for real a, b, c and s, with b = (z - conj z)/(i sqrt 7)."""
    z, y = div(v[1], v[2]), div(v[0], v[2])
    if (y + y.conj() + z * z.conj()).real_sign() > 0:
        raise ValueError("vector has positive square norm")
    a, b = tau_coordinates(z)
    return a, b, tau_coordinates(y)[1], 1


def algnum_act_prism(c: CuspElt, x):
    """act_prism's Heisenberg law on AlgNum or int prism coordinates x."""
    m, n, eps, l = c
    a, b, s, den = x
    if eps:
        a, b = neg(a), neg(b)
    return m * den + a, n * den + b, s + (m - m * n + 2 * l) * den + sub(n * a, m * b), den


def _algnum_in_triangle(a, b, den) -> bool:
    if type(a) is int:
        return a >= 0 and b >= 0 and a + b <= den
    return all(y.real_sign() >= 0 for y in (a, b, sub(den, a + b)))


def algnum_in_prism(x) -> bool:
    a, b, s, den = x
    if not _algnum_in_triangle(a, b, den):
        return False
    if type(s) is int:
        return 0 <= s <= 2 * den
    return s.real_sign() >= 0 and sub(2 * den, s).real_sign() >= 0


def _algnum_floor(x, d: int) -> int:
    """floor(x/d) for an int or a real AlgNum x and an int d > 0."""
    return x // d if type(x) is int else alg_floor(div(x, d))


def algnum_reduce_to_prism(x) -> CuspElt:
    a, b, _, den = x
    k, j = _algnum_floor(a, den), _algnum_floor(b, den)
    y = sub(a + b, (k + j + 1) * den)
    flip = y > 0 if type(y) is int else y.real_sign() > 0
    m, n, eps = (k + 1, j + 1, 1) if flip else (-k, -j, 0)
    c = CuspElt(m, n, eps, -_algnum_floor(algnum_act_prism(CuspElt(m, n, eps), x)[2], 2 * den))
    if not algnum_in_prism(algnum_act_prism(c, x)):
        raise ArithmeticError("prism reduction left the prism")
    return c


def algnum_overlaps_keeping(x):
    den = x[3]
    out = []
    for part, run in groupby(enumerate_cusp_overlaps(), key=itemgetter(0, 1, 2)):
        pa, pb, base, _ = algnum_act_prism(part + (0,), x)
        if not _algnum_in_triangle(pa, pb, den):
            continue
        k = _algnum_floor(base, 2 * den)
        last = 1 - k if alg_eq(base, 2 * den * k) else -k
        out += [c for c in run if -k <= c.l <= last and c != IDENTITY]
    return out


def algnum_bracket(x) -> int:
    """floor(2^16 x) for a real AlgNum x."""
    return alg_floor(x * BRACKET)


# ---------------------------------------------------------------------------
# mirrors: the restriction to a mirror as a 2x2 matrix over K
# ---------------------------------------------------------------------------


def restriction(g: GroupElt, ctx):
    """The 2x2 matrix of g on the mirror, as columns in the context basis:
    each image g b solved for its coordinates with the first nonzero 2x2
    minor of the basis, in KNum arithmetic."""
    if ctx.polar.moved(g.ints) != ctx.polar:
        raise ValueError("element does not preserve the mirror")
    b1, b2 = ctx.basis
    minors = ((i, j, b1[i] * b2[j] - b1[j] * b2[i]) for i, j in ((0, 1), (0, 2), (1, 2)))
    i, j, det = next(m for m in minors if not m[2].is_zero())
    cols = []
    for b in ctx.basis:
        w = mat_apply(g.mat, b)
        x = (w[i] * b2[j] - w[j] * b2[i]) / det
        y = (b1[i] * w[j] - b1[j] * w[i]) / det
        for k in range(3):
            if not (w[k] - x * b1[k] - y * b2[k]).is_zero():
                raise ArithmeticError("the matrix does not preserve the mirror")
        cols.append((x, y))
    return tuple(cols)


def restriction_is_scalar(cols) -> bool:
    (a, c), (b, d) = cols
    return c.is_zero() and b.is_zero() and (a - d).is_zero()


def _rest_mul(p, q):
    (a1, c1), (b1, d1) = p
    (a2, c2), (b2, d2) = q
    return ((a1 * a2 + b1 * c2, c1 * a2 + d1 * c2), (a1 * b2 + b1 * d2, c1 * b2 + d1 * d2))


def ref_restriction_order(g: GroupElt, ctx, cap: int):
    """Smallest k <= cap with the k-th power of the restriction scalar, or None."""
    base = restriction(g, ctx)
    cur = base
    for k in range(1, cap + 1):
        if restriction_is_scalar(cur):
            return k
        cur = _rest_mul(cur, base)
    return None


def ref_primitive_rep(v):
    """The canonical primitive representative of a K-rational point on
    KNums: v scaled by the lcm of its denominators, divided by the O_7 gcd
    of its entries, and negated unless its first nonzero entry is positive
    in the (a, b) order."""
    den = lcm(*(x.d for x in v))
    w = tuple(x * den for x in v)
    g = o_gcd_many(w)
    w = tuple(x / g for x in w)
    if not all(x.is_integral() for x in w):
        raise ArithmeticError("dividing by the O_7 gcd left a non-integral entry")
    lead = next(x for x in w if not x.is_zero())
    return w if (lead.na, lead.nb) > (0, 0) else tuple(-x for x in w)


def ref_make_reflection(v) -> GroupElt:
    """The complex reflection of the polar v by its KNum formula: column j
    is e_j - c_j v with c_j = 2 <e_j, v>/<v, v> and <e_j, v> = conj(v[2 - j]),
    on the primitive representative."""
    v = primitive_rep(v)
    nv = sq_norm(v)
    if nv not in (1, 2):
        raise ValueError("polar norm not integral for this form")
    mat = Mat([[int(i == j) - v[2 - j].conj() * v[i] * 2 / nv for j in range(3)] for i in range(3)])
    return GroupElt(mat, word=(("R_" + "".join(str(x) for x in v), 1),))


# ---------------------------------------------------------------------------
# criterion 11's depth oracle
# ---------------------------------------------------------------------------


def knum_trace(x: KNum):
    """x + conj(x) = 2a + b, a rational (an int when x is integral)."""
    t = 2 * x.na + x.nb
    return t if x.d == 1 else Fraction(t, x.d)


def first_column(g: GroupElt):
    """The first column of g's matrix, three KNums."""
    t = g.ints
    return knum_from_ints(t[0], t[1]), knum_from_ints(t[6], t[7]), knum_from_ints(t[12], t[13])


def depth(p: ProjPoint) -> int:
    """Depth |v3|^2 of a K-rational null point (undefined at q_inf)."""
    if not p.rational:
        raise ValueError("depth is defined for K-rational points only")
    if p.sq_norm_sign() != 0:
        raise ValueError("depth is defined for null points only")
    v3 = p.coords[2]
    if v3.is_zero():
        raise ValueError("depth undefined at the point at infinity")
    return v3.norm()


def generator_depths() -> dict:
    """Depth of each pairing matrix, read off its first column."""
    return {j: depth(ProjPoint(first_column(g))) for j, g in GENERATORS.items()}


#: radius of the box of middle coordinates searched by depth_witness
DEPTH_WITNESS_BOX = 6


def depth_witness(d: int):
    """A primitive integral null vector whose third coordinate has norm d.

    For a fixed third coordinate the trace pairing with integral first
    coordinates realizes exactly the multiples of g = gcd(tr v3, tr tau*v3),
    so a middle coordinate v2 completes to a null vector iff g divides N(v2);
    the first coordinate then comes from the extended Euclidean algorithm.
    Middle coordinates run over a box of radius DEPTH_WITNESS_BOX.  A
    returned point is an exact certificate that depth d occurs; None means
    no certificate was found within the box.
    """
    box = DEPTH_WITNESS_BOX
    mids = sorted(
        (KNum(a, b) for a in range(-box, box + 1) for b in range(-box, box + 1)),
        key=lambda x: (x.norm(), x.a, x.b),
    )
    for v3 in elements_of_norm(d):
        t0, t1 = knum_trace(v3), knum_trace(TAU * v3)
        g, x, y = _ext_gcd(t0, t1)
        for v2 in mids:
            n2 = v2.norm()
            if n2 % g:
                continue
            q = -n2 // g
            # the solutions form a coset of the rank-1 kernel of the trace form
            for k in range(-box, box + 1):
                v1 = KNum(x * q + k * t1 // g, y * q - k * t0 // g).conj()
                v = (v1, v2, v3)
                if o_gcd_many(v).norm() != 1:
                    continue
                p = ProjPoint(v)
                if p.sq_norm_sign() != 0 or depth(p) != d:
                    raise ArithmeticError(f"depth {d} witness {p!r} failed its certificate check")
                return p
    return None


def realizable_depths(max_depth: int):
    """Depths up to max_depth certified by a primitive-null-vector witness."""
    return [d for d in range(1, max_depth + 1) if depth_witness(d) is not None]
