"""Verification suites for the two reflection-mirror stabilizers.

A mirror is the complex line polar^perp, with a primitive, saturated basis
(b1, b2).  An element g of U(J, O_7) preserving it acts on it trivially,
as a scalar lam, exactly when g b_i = lam b_i for both vectors.  Then
lam b_i and lam^-1 b_i = g^-1 b_i are integral with b_i primitive, so lam
and lam^-1 lie in O_7, whose only units are +1 and -1: the test is two
int products against +b_i or -b_i, with one sign for both, and the
restriction order tests the powers of g, formed as int products, the same
way.
"""

from functools import cache
from itertools import permutations

from picard7.ring import ISQRT7, KNum, TAU, TAU_BAR, field_of, o_gcd_many
from picard7.hermitian import (
    GroupElt,
    Mat,
    ProjPoint,
    _apply_ints,
    herm_inner,
    ints_product,
    is_in_gamma,
    norm_form_solutions,
    primitive_rep,
    sq_norm,
    tower_inner,
)
from picard7.heisenberg import R, T1, TTAU, TV
from picard7.ford import GENERATORS
from picard7.torsion import (
    ClosureError,
    _search_alphabet,
    classify_elliptic,
    make_reflection,
    moved_rep,
    orbit_walk,
    point_stabilizer,
    projective_order,
    walk_element,
)


class MirrorContext:
    """A complex line given by the perp of a polar vector, with an exact basis."""

    def __init__(self, polar):
        self.polar = ProjPoint(polar)
        v = self.polar.coords
        # <x, v> = conj(v1) x3 + conj(v2) x2 + conj(v3) x1
        coeffs = (v[2].conj(), v[1].conj(), v[0].conj())
        pivot = max(i for i in range(3) if not coeffs[i].is_zero())
        basis = []
        for free in range(3):
            if free == pivot:
                continue
            w = [KNum(0)] * 3
            w[free] = KNum(1)
            w[pivot] = -coeffs[free] / coeffs[pivot]
            basis.append(primitive_rep(tuple(w)))
        self.basis = tuple(basis)
        b1, b2 = self.basis
        # The 2x2 minors of (b1, b2) have unit gcd exactly when the basis
        # spans polar^perp meet O_7^3 (is saturated); the mirror search
        # rests on that.
        minors = [b1[i] * b2[j] - b1[j] * b2[i] for i, j in ((0, 1), (0, 2), (1, 2))]
        if not o_gcd_many(minors).is_one():
            raise ArithmeticError("the mirror basis is not saturated")
        # the basis as the six ints of each vector, for the tests on ints:
        # each b is primitive under the sign rule, so its point's rep is b
        self.basis_ints = tuple(ProjPoint(b).rep for b in self.basis)
        g11, g12, g22 = sq_norm(b1), herm_inner(b2, b1), sq_norm(b2)
        if (g11 * g22 - g12 * g12.conj()).real_sign() >= 0:
            raise ValueError("form does not restrict with signature (1,1)")
        # the Gram form of the basis: <b1, b1>, <b2, b1>, <b2, b2>
        self.gram = (g11, g12, g22)

    @staticmethod
    @cache
    def mirror_of_half_turn() -> "MirrorContext":
        """The mirror z = 0 of the cusp half-turn, built once per process."""
        return MirrorContext((KNum(0), KNum(1), KNum(0)))

    @staticmethod
    @cache
    def mirror_of_shifted_half_turn() -> "MirrorContext":
        """The mirror L of Ttau R, polar (1, -tau, 0), built once per process."""
        return MirrorContext((KNum(1), -TAU, KNum(0)))


def preserves_mirror(g: GroupElt, ctx) -> bool:
    """True iff the polar vector is an eigenvector of g (so g maps L to L)."""
    return ctx.polar.moved(g.ints) == ctx.polar


def _scalar_on_mirror(t, ctx) -> bool:
    """Whether the matrix with 18 ints t, of an element preserving the
    mirror, is +1 or -1 on it: t b = e b for both basis vectors b, one e."""
    b1, b2 = ctx.basis_ints
    w = _apply_ints(t, b1)
    if w == b1:
        return _apply_ints(t, b2) == b2
    if w == tuple(-x for x in b1):
        return _apply_ints(t, b2) == tuple(-x for x in b2)
    return False


def acts_trivially_on_mirror(g: GroupElt, ctx) -> bool:
    """True iff g restricts to a scalar on the mirror, which is then +1 or
    -1 (see the module docstring); ValueError if g moves the mirror."""
    if not preserves_mirror(g, ctx):
        raise ValueError("element does not preserve the mirror")
    return _scalar_on_mirror(g.ints, ctx)


#: largest power tried by restriction_order
RESTRICTION_ORDER_CAP = 24


def restriction_order(g: GroupElt, ctx):
    """Smallest k >= 1 with g^k scalar on the mirror, or None up to the cap:
    the powers are int products, each tested as in acts_trivially_on_mirror."""
    if not preserves_mirror(g, ctx):
        raise ValueError("element does not preserve the mirror")
    t = p = g.ints
    for k in range(1, RESTRICTION_ORDER_CAP + 1):
        if _scalar_on_mirror(p, ctx):
            return k
        p = ints_product(p, t)
    return None


def _on_mirror(pt: ProjPoint, ctx) -> bool:
    """Whether <v, p> = 0 for the polar p and a vector v of pt; for a tower
    point on its rep's field ints (`tower_inner`)."""
    if pt.rational:
        return herm_inner(pt.coords, ctx.polar.coords).is_zero()
    f1, f2, d = pt.rep
    return not any(tower_inner(field_of(f1), f1, f2, d, ctx.polar.rep))


@cache
def verify_mirror_R() -> dict:
    """Check the cusp half-turn mirror-stabilizer presentation and orbit data."""
    ctx = MirrorContext.mirror_of_half_turn()
    iota = GENERATORS[1]
    mu = GENERATORS[6]
    ups = TV.to_matrix()
    rho = R.to_matrix()
    mti = mu * ups * iota
    report = {
        "preserves": {
            "I": preserves_mirror(iota, ctx),
            "M": preserves_mirror(mu, ctx),
            "T1": preserves_mirror(T1.to_matrix(), ctx),
        },
        "mti_order": projective_order(mti),
        "mti_cube_is_half_turn": (mti ** 3) == rho,
        "relators": {
            "iota^2": (iota ** 2).is_identity(),
            "mu^2": (mu ** 2).is_identity(),
            "rho^2": (rho ** 2).is_identity(),
            "(mu ups iota)^3 rho^-1": (mti ** 3 * rho.inverse()).is_identity(),
            "[rho, iota]": (rho * iota * rho.inverse() * iota.inverse()).is_identity(),
            "[rho, mu]": (rho * mu * rho.inverse() * mu.inverse()).is_identity(),
            "[rho, ups]": (rho * ups * rho.inverse() * ups.inverse()).is_identity(),
        },
    }

    def orbit(key, value, pt):
        st = point_stabilizer(pt)[1]
        return {key: value, "on_mirror": _on_mirror(pt, ctx), "one_lines": st.one_lines, "two_lines": st.two_lines}

    # common fixed point of iota and rho: perp of both polars
    p1 = ProjPoint((KNum(1), KNum(0), KNum(-1)))
    ok1 = p1.moved(iota.ints) == p1 and p1.moved(rho.ints) == p1
    t1 = T1.to_matrix()
    g2 = (rho * t1 * iota * t1.inverse()) ** 2
    kind2, p2, _ = classify_elliptic(g2, projective_order(g2))
    kind3, p3, _ = classify_elliptic(mti, 6)
    report["orbits"] = orbits = {
        "common_point_of_iota_rho": orbit("fixed_by_both", ok1, p1),
        "rho_t1_iota_square": orbit("kind", kind2, p2),
        "mti_point": orbit("kind", kind3, p3),
    }
    report["all_pass"] = (
        report["preserves"] == {"I": True, "M": True, "T1": False}
        and report["mti_order"] == 6
        and report["mti_cube_is_half_turn"]
        and all(report["relators"].values())
        and orbits["common_point_of_iota_rho"]["fixed_by_both"]
        and all(o["on_mirror"] for o in orbits.values())
        and [(o["one_lines"], o["two_lines"]) for o in orbits.values()] == [(1, 1), (2, 2), (1, 0)]
    )
    return report


#: largest height search_orthogonal_mirrors takes; a larger one raises ClosureError
MAX_SEARCH_HEIGHT = 80


def search_orthogonal_mirrors(ctx, norm: int, height: int):
    """All primitive polar vectors of the given norm orthogonal to the mirror.

    Candidates are v = al*b1 + be*b2 over the context basis with tau-basis
    coefficients bounded by the height.  The basis is saturated, so v is G
    times the primitive al'*b1 + be'*b2 for G = gcd(al, be), and v is kept
    exactly when q(al', be') = norm: norm_form_solutions solves that equation.
    So each polar is al'*b1 + be'*b2 for a coprime pair, a primitive vector
    formed on ints, whose point takes the sign rule and no O_7 gcd.
    """
    if height < 1:
        raise ValueError("height must be at least 1")
    if height > MAX_SEARCH_HEIGHT:
        raise ClosureError("height %d exceeds the search cap %d" % (height, MAX_SEARCH_HEIGHT))
    (p1, q1, p2, q2, p3, q3), (r1, s1, r2, s2, r3, s3) = ctx.basis_ints
    # the 18 ints of the matrix with columns b1, b2 and 0, which maps
    # (al, be, 0) to al*b1 + be*b2
    t = (p1, q1, r1, s1, 0, 0, p2, q2, r2, s2, 0, 0, p3, q3, r3, s3, 0, 0)
    pairs = norm_form_solutions(ctx.gram, norm, height)
    return sorted(ProjPoint.of_primitive(_apply_ints(t, (a, b, u, v, 0, 0))) for a, b, u, v in pairs)


# polar vectors of the four reflections pairing sides of the mirror-L domain
MIRROR_L_POLARS = {
    1: (KNum(1), KNum(1), TAU_BAR),
    2: (-ISQRT7, TAU, KNum(2)),
    3: (ISQRT7, TAU, KNum(2)),
    4: (KNum(0), KNum(1), TAU_BAR),
}

S1_MAT = Mat(
    [
        [-TAU - 1, TAU - 2, TAU_BAR + 2],
        [3 * TAU, KNum(4), KNum(-5)],
        [KNum(6), 3 * TAU_BAR, 5 * TAU - 4],
    ]
)
S2_MAT = Mat(
    [
        [TAU - 3, ISQRT7, -ISQRT7],
        [TAU_BAR + 3, 1 - ISQRT7, ISQRT7],
        [-2 * ISQRT7, -TAU - 3, TAU + 4],
    ]
)
S2_FIXED = (KNum(-1), KNum(1), TAU_BAR)


def mirror_l_generators():
    """The seven generators of the mirror-L stabilizer (mod its pointwise part)."""
    gens = {"r%d" % k: make_reflection(v) for k, v in MIRROR_L_POLARS.items()}
    gens["s1"] = GroupElt(S1_MAT)
    gens["s2"] = GroupElt(S2_MAT)
    gens["tv"] = TV.to_matrix()
    return gens


def cusp_orbit_search(target: ProjPoint, alphabet, max_len: int = 5):
    """A word over the alphabet mapping the cusp point q_inf to the target, or
    None: a Schreier tree keyed on the six ints of each rep (`moved_rep`)."""
    tree = {}
    for q, p, g in orbit_walk([(1, 0, 0, 0, 0, 0)], alphabet, moved_rep, max_len):
        tree[q] = (p, g)
        if q == target.rep:
            return walk_element(tree, q)
    return None


@cache
def verify_mirror_L() -> dict:
    """Check the mirror-L stabilizer generators, relators and parabolic data."""
    ctx = MirrorContext.mirror_of_shifted_half_turn()
    gens = mirror_l_generators()
    r = {k: gens["r%d" % k] for k in (1, 2, 3, 4)}
    s1, s2, tv = gens["s1"], gens["s2"], gens["tv"]

    report = {
        "vectors": {
            "v%d" % k: {
                "orthogonal": herm_inner(v, ctx.polar.coords).is_zero(),
                "norm": int(sq_norm(v).a),
            }
            for k, v in MIRROR_L_POLARS.items()
        },
        "in_gamma": {name: is_in_gamma(g.mat) for name, g in gens.items()},
        "preserves": {name: preserves_mirror(g, ctx) for name, g in gens.items()},
        "restriction_orders": {name: restriction_order(g, ctx) for name, g in gens.items()},
    }
    norm2 = search_orthogonal_mirrors(ctx, 2, 5)
    report["search"] = {
        "norm2_height5": [ProjPoint(MIRROR_L_POLARS[k]) in norm2 for k in (1, 2, 3)],
        "norm1_height5": ProjPoint(MIRROR_L_POLARS[4]) in search_orthogonal_mirrors(ctx, 1, 5),
    }
    sc = lambda g: acts_trivially_on_mirror(g, ctx)
    report["relators"] = {
        "r1^2": sc(r[1] ** 2),
        "r2^3": sc(r[2] ** 3),
        "r2^2": sc(r[2] ** 2),
        "r3^2": sc(r[3] ** 2),
        "r4^2": sc(r[4] ** 2),
        "(s2^-1 s1)^2": sc((s2.inverse() * s1) ** 2),
        "s1^-1 r4 r1 r3 tv r2": sc(s1.inverse() * r[4] * r[1] * r[3] * tv * r[2]),
        "s1^-1 r4 r1 r3 tv": sc(s1.inverse() * r[4] * r[1] * r[3] * tv),
    }
    # the side-pairing relator passes for exactly one ordered triple of mirrors
    report["long_relator_triples"] = [
        t
        for t in permutations((1, 2, 3, 4), 3)
        if sc(s1.inverse() * r[t[0]] * r[t[1]] * r[t[2]] * tv)
    ]
    fixed = ProjPoint(S2_FIXED)
    report["s2_parabolic"] = {
        "fixes_point": fixed.moved(s2.ints) == fixed,
        "point_is_null": sq_norm(S2_FIXED).is_zero(),
        "infinite_projective_order": projective_order(s2) is None,
    }
    report["center_scalar_on_mirror"] = sc((TTAU * R).to_matrix())
    # the full group has one cusp: a word carries q_inf to the fixed point of s2
    report["cusps_gamma_equivalent"] = cusp_orbit_search(fixed, _search_alphabet(), 5) is not None
    # Within the mirror stabilizer, generated by the seven generators and the
    # pointwise part Ttau R, the cusps are inequivalent.  If g q_inf =
    # lam S2_FIXED for such a g, both vectors are primitive and O_7 is a PID,
    # so lam = +/-1 and the equation survives reduction mod <tau>: the residue
    # of S2_FIXED would be the first column of an element of the image group.
    # The residue maps load here, so that the other mirror commands do not
    # import them.
    from picard7.congruence import FpMatGroup, ResidueMap

    rm = ResidueMap("tau")
    image = FpMatGroup([g.ints for g in gens.values()] + [(TTAU * R).to_matrix().ints], rm)
    cusp = tuple(rm.scalar(x) for x in S2_FIXED)
    # an element is its nine residues row by row: its first column is x[0::3]
    report["cusps_stab_equivalent"] = any(x[0::3] == cusp for x in image.elements)
    report["all_pass"] = (
        all(d["orthogonal"] for d in report["vectors"].values())
        and [report["vectors"]["v%d" % k]["norm"] for k in (1, 2, 3, 4)] == [2, 2, 2, 1]
        and all(report["in_gamma"].values())
        and all(report["preserves"].values())
        and all(report["search"]["norm2_height5"])
        and report["search"]["norm1_height5"]
        and all(
            report["relators"][w]
            for w in ("r1^2", "r2^2", "r3^2", "r4^2", "(s2^-1 s1)^2", "s1^-1 r4 r1 r3 tv")
        )
        and report["long_relator_triples"] == [(4, 1, 3)]
        and all(report["s2_parabolic"].values())
        and report["center_scalar_on_mirror"]
        and report["cusps_gamma_equivalent"]
        and not report["cusps_stab_equivalent"]
    )
    return report
