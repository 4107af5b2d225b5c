import functools
import random
from fractions import Fraction

import mpmath
import pytest

from picard7.ring import (
    KNum,
    TAU,
    TAU_BAR,
    eta_sign,
    sqrt21_sign,
    zeta3_tower,
    zeta7_tower,
)
from picard7.hermitian import (
    GroupElt,
    ProjPoint,
    is_in_gamma,
    sq_norm_ints,
    vec_from_json,
    _norm_ints,
)
from picard7.heisenberg import (
    CuspElt,
    R,
    T1,
    TTAU,
    TV,
    act_prism,
    in_prism,
    prism_coordinates,
    prism_grid,
    reduce_to_prism,
)
from picard7 import ford
from picard7.ford import (
    GENERATORS,
    INVERSE_PAIRS,
    SPHERES,
    IsomSphere,
    ReductionError,
    _SQRT_DEN,
    _dist2_num,
    _lattice_disk,
    _sqrt_ints,
    _sweep_vector,
    candidate_spheres,
    enumerate_cone_translates,
    in_omega,
    reduce_to_domain,
    spheres_containing,
)
from picard7.presentation import abcd
from picard7.torsion import _torsion_candidates, classify_elliptic
from reference import (
    act_horo,
    neg,
    sub,
    alg_pow,
    candidate_columns,
    cone_translates,
    cygan_dist4,
    depth,
    dist2_to_triangle,
    eigenspace_basis,
    first_column,
    fixes_q_inf,
    ford_candidates,
    ford_side,
    from_zsu,
    generator_depths,
    horo_coords,
    horo_sphere,
    lift,
    mat_apply,
    point_of,
    ref_in_omega,
    ref_k_sweep,
    ref_reduce,
    ref_reduce_to_domain,
    ref_spheres_containing,
    ref_zeta3_sweep,
    ref_zeta7_sweep,
    scaled_alg,
    sphere_membership,
    sqrt_lb,
    sqrt_ub,
    zeta_of,
)
from test_cli import GOLDEN
from test_properties import round_trip_orbit

V1 = (-TAU_BAR, KNum(0), KNum(1))


def sweep_at(x: ProjPoint):
    """(vs, own, hits): the prepared vector of x and its kernel's sweep, on
    the grid of its prism coordinates."""
    vs, own, (_, _, sweep) = _sweep_vector(x.rep)
    return vs, own, list(sweep(vs, own, prism_grid(prism_coordinates(x.rep))[0], False))


def order6_fixture():
    """The order-6 element of the pairing-word algebra and its isolated fixed point."""
    a1 = GENERATORS[1]
    t1, ttau, r = T1.to_matrix(), TTAU.to_matrix(), R.to_matrix()
    inner = (t1 * r) * (t1 * a1) ** 2 * t1.inverse() * r * t1 * a1 * t1.inverse()
    n = (ttau * r) * inner * (r * ttau.inverse())
    fixed = point_of(eigenspace_basis(n, 1 + zeta_of(zeta3_tower()))[0])
    return n, fixed


def test_generator_table():
    assert set(GENERATORS) == set(range(1, 15))
    for j, g in GENERATORS.items():
        assert is_in_gamma(g.mat), j
    # the printed inverse identities
    assert GENERATORS[3] == GENERATORS[2].inverse()
    assert GENERATORS[4] == GENERATORS[2].inverse() ** 2
    assert GENERATORS[5] == GENERATORS[4].inverse()
    assert GENERATORS[11] == GENERATORS[10].inverse()
    assert GENERATORS[13] == GENERATORS[12].inverse()
    assert GENERATORS[14] == GENERATORS[9].inverse()
    # table closed under inversion
    for j, k in INVERSE_PAIRS.items():
        assert (GENERATORS[j] * GENERATORS[k]).is_identity()
    assert sorted({4 / IsomSphere(g).r4 for g in GENERATORS.values()}) == [1, 2, 4, 7]


def test_sphere_data():
    s6 = SPHERES[6]
    assert s6.r4 == 1
    # the center of I(A6) is z = 0, t = sqrt(7): s = 4/4 over den = N(2)
    assert s6.center == (0, 0, 4, 4) and horo_sphere(6) == (from_zsu(0, 1), 1)
    s1 = SPHERES[1]
    assert s1.r4 == 4 and s1.center == (0, 0, 0, 1) and horo_sphere(1) == (from_zsu(0, 0), 4)
    # every center's ints are the prism coordinates of the reference center
    for j, sph in SPHERES.items():
        a, b, s, den = sph.center
        center, r4 = horo_sphere(j)
        assert sph.r4 == r4 and den * r4 == 4
        assert (KNum(Fraction(a, den), Fraction(b, den)), Fraction(s, den)) == (center.z, center.s)
    with pytest.raises(ValueError):
        IsomSphere(T1.to_matrix())


def test_cygan_examples():
    o = from_zsu(0, 0, 0)
    assert cygan_dist4(o, o) == KNum(0)
    assert cygan_dist4(o, from_zsu(0, 2, 0)) == KNum(28)
    assert cygan_dist4(o, from_zsu(1, 0, 0)) == KNum(1)


def test_cygan_left_invariance():
    rng = random.Random(17)
    for _ in range(25):
        p = from_zsu(
            KNum(Fraction(rng.randint(-8, 8), 3), Fraction(rng.randint(-8, 8), 3)),
            Fraction(rng.randint(-8, 8), 2),
            Fraction(rng.randint(0, 6), 2),
        )
        q = from_zsu(
            KNum(Fraction(rng.randint(-8, 8), 3), Fraction(rng.randint(-8, 8), 3)),
            Fraction(rng.randint(-8, 8), 2),
            Fraction(rng.randint(0, 6), 2),
        )
        d = cygan_dist4(p, q)
        for c in (T1, TTAU, TV, R, CuspElt(rng.randint(-2, 2), rng.randint(-2, 2), 1, 1)):
            assert cygan_dist4(act_horo(c, p), act_horo(c, q)) == d


def test_sqrt_bounds():
    for q in (Fraction(2), Fraction(7), Fraction(1, 3), Fraction(0), Fraction(4, 7), Fraction(10**9, 3)):
        assert sqrt_lb(q) ** 2 <= q <= sqrt_ub(q) ** 2
        assert sqrt_ub(q) - sqrt_lb(q) < Fraction(1, 1000)
        # the int bounds are the numerators of the Fraction ones, for any
        # representation num/den of q
        for k in (1, 3):
            assert _sqrt_ints(k * q.numerator, k * q.denominator) == (
                sqrt_lb(q) * _SQRT_DEN, sqrt_ub(q) * _SQRT_DEN)
    with pytest.raises(ArithmeticError, match="negative"):
        _sqrt_ints(-1, 1)


def _dist2(p: KNum) -> Fraction:
    return Fraction(_dist2_num(p.na, p.nb, p.d), 32 * p.d * p.d)


def test_dist2_to_triangle():
    assert _dist2(KNum(Fraction(1, 4), Fraction(1, 4))) == 0
    assert _dist2(KNum(2)) == 1
    assert _dist2(KNum(-1)) == 1
    assert _dist2(TAU * 2) == TAU.norm()


def test_dist2_to_triangle_matches_fraction_reference():
    rng = random.Random(2105)
    points = [KNum(Fraction(x, den), Fraction(y, den))
              for den in (1, 2, 3, 4, 6) for x in range(-2 * den, 3 * den) for y in range(-2 * den, 3 * den)]
    points += [KNum(Fraction(rng.randint(-99, 99), rng.randint(1, 40)),
                    Fraction(rng.randint(-99, 99), rng.randint(1, 40))) for _ in range(2000)]
    for p in points:
        assert _dist2(p) == dist2_to_triangle(p)
        # the cone translates pass a triple that need not be reduced
        k = rng.randint(2, 9)
        assert _dist2_num(k * p.na, k * p.nb, k * p.d) == k * k * _dist2_num(p.na, p.nb, p.d)


def test_lattice_disk_matches_brute_force():
    rng = random.Random(2011)
    cases = [(0, 0, 1, 0), (6, -3, 3, 0), (1, 0, 2, 0), (-7, 5, 4, 1)]
    cases += [(rng.randint(-30, 30), rng.randint(-30, 30), rng.randint(1, 5), rng.randint(0, 60))
              for _ in range(60)]
    for p0, q0, step, nmax in cases:
        # |m|, |n| <= 50 holds every solution: |p|, |q| < 16 and |p0|, |q0| <= 30
        want = [(m, n) for n in range(-50, 51) for m in range(-50, 51)
                if KNum(m * step + p0, n * step + q0).norm() <= nmax]
        assert list(_lattice_disk(p0, q0, step, nmax)) == want, (p0, q0, step, nmax)
    assert list(_lattice_disk(6, -3, 3, 0)) == [(-2, 1)]
    assert list(_lattice_disk(1, 0, 2, 0)) == []


def test_triangle_lies_on_its_circumcircle():
    # the cone tables walk a disk about D's circumcenter c = (2 + 3 tau)/7:
    # N(7 v - (2 + 3 tau)) = 28, that is N(v - c) = 4/7, at each vertex v of D
    for va, vb in ((0, 0), (1, 0), (0, 1)):
        assert _norm_ints(7 * va - 2, 7 * vb - 3) == 28


# the box the cone-table references scan; the tables reach |m|, |n| <= 4,
# and _ref_cone_translates checks that no survivor lies on the box's edge
_CONE_BOX = 8


def test_cone_translates_keep_every_survivor():
    # every (m, n, eps) in the box whose translated disk meets D is kept,
    # with a window that holds at least one l
    for j in GENERATORS:
        center, r4 = horo_sphere(j)
        want = set()
        for m in range(-_CONE_BOX, _CONE_BOX + 1):
            for n in range(-_CONE_BOX, _CONE_BOX + 1):
                for eps in (0, 1):
                    z = act_horo(CuspElt(m, n, eps, 0), center).z
                    if dist2_to_triangle(z) ** 2 <= r4:
                        want.add((m, n, eps))
        assert set(enumerate_cone_translates(j)) == {(a.m, a.n, a.eps) for a in cone_translates(j)} == want


@functools.cache
def _ref_cone_translates(j):
    """The translate superset of j with the full cusp action on every (m, n, eps)."""
    center, r4 = horo_sphere(j)
    r2_ub = sqrt_ub(r4)
    r_ub = sqrt_ub(r2_ub)
    out = []
    for m in range(-_CONE_BOX, _CONE_BOX + 1):
        for n in range(-_CONE_BOX, _CONE_BOX + 1):
            for eps in (0, 1):
                shifted = act_horo(CuspElt(m, n, eps, 0), center)
                if dist2_to_triangle(shifted.z) ** 2 > r4:
                    continue
                assert abs(m) < _CONE_BOX and abs(n) < _CONE_BOX
                zmax = sqrt_ub(Fraction(shifted.z.norm())) + r_ub
                hw = (r2_ub + 2 * r_ub * zmax) / sqrt_lb(Fraction(7))
                lmin = ((-hw - shifted.s) / 2).__ceil__()
                lmax = ((2 + hw - shifted.s) / 2).__floor__()
                out += [CuspElt(m, n, eps, l) for l in range(lmin, lmax + 1)]
    return sorted(out)


def test_cone_translates_match_full_action_reference():
    # filtering on the translated z before the full cusp action keeps the
    # same survivors in all 14 tables, and each l-window holds exactly the
    # l the reference's per-l loop takes
    for j in GENERATORS:
        assert cone_translates(j) == _ref_cone_translates(j)


def test_candidate_columns_match_matrix_reference():
    # the closed-form columns are the matrix products alpha(A_j(inf)), over
    # the reference translates, in the same (j, alpha) order
    total = 0
    for j in sorted(GENERATORS):
        first = first_column(GENERATORS[j])
        want = []
        for alpha in _ref_cone_translates(j):
            col = mat_apply(alpha.to_matrix().mat, first)
            assert all(c.d == 1 for c in col)
            want.append((alpha, tuple(x for c in col for x in (c.na, c.nb))))
        assert candidate_columns(j) == want
        assert candidate_spheres(j) == enumerate_cone_translates(j)
        total += len(want)
    assert total == 548


def test_ford_side_examples():
    # high above the cusp every inequality is strict
    top = lift(from_zsu(0, 0, 100))
    for j, g in GENERATORS.items():
        assert ford_side(top, g) == "inside"
    # the fixed point (-conj(tau), 0, 1) is on I(A6) and on T1(I(A1))
    assert ford_side(V1, GENERATORS[6]) == "boundary"
    t1 = T1.to_matrix()
    assert ford_side(V1, t1 * GENERATORS[1] * t1.inverse()) == "boundary"
    with pytest.raises(ValueError):
        ford_side(V1, T1.to_matrix())


def test_ford_side_matches_sphere_membership():
    rng = random.Random(23)
    for _ in range(25):
        h = from_zsu(
            KNum(Fraction(rng.randint(-4, 4), 3), Fraction(rng.randint(-4, 4), 3)),
            Fraction(rng.randint(-6, 6), 2),
            Fraction(rng.randint(0, 8), 3),
        )
        v = lift(h)
        for j in (1, 2, 6, 9):
            assert ford_side(v, GENERATORS[j]) == sphere_membership(h, j)
    h1 = horo_coords(V1)
    assert sphere_membership(h1, 6) == "boundary"


def test_cone_translates():
    e1 = cone_translates(1)
    assert CuspElt() in e1
    for j in GENERATORS:
        ej = cone_translates(j)
        assert ej
        center, r4 = horo_sphere(j)
        for alpha in ej:
            moved = act_horo(alpha, center)
            d2 = dist2_to_triangle(moved.z)
            assert d2 * d2 <= r4  # defining z-filter


def test_spheres_containing_v1():
    res = spheres_containing(ProjPoint(V1))
    assert len(res) == 3
    assert all(flag == "boundary" for _, _, flag in res)
    got = {(j, alpha) for alpha, j, flag in res}
    assert got == {
        (6, CuspElt()),
        (1, CuspElt(m=1)),
        (1, CuspElt(m=-1, l=1)),  # T1^-1 Tv
    }


def test_spheres_containing_far_point():
    assert spheres_containing(ProjPoint(lift(from_zsu(0, 0, 50)))) == []


def _refused_points():
    """(point, message) for q_inf and for positive points over K and K(zeta_3)."""
    z = zeta_of(zeta3_tower())
    positive = "vector has positive square norm"
    return [
        (ProjPoint((KNum(1), KNum(0), KNum(0))), "point at infinity has no horospherical coordinates"),
        (ProjPoint((KNum(1), KNum(0), KNum(1))), positive),  # <v, v> = 2
        (ProjPoint((KNum(0), KNum(1), KNum(0))), positive),  # v3 = 0, <v, v> = 1
        (point_of((KNum(1), KNum(0), neg(z))), positive),  # <v, v> = -2 Re(zeta_3) = 1
    ]


def test_ford_entry_points_refuse_q_inf_and_positive_points():
    # in_omega and spheres_containing read the point's prism coordinates
    # first, and refuse these points with the messages the CLI prints
    for x, message in _refused_points():
        for f in (in_omega, spheres_containing):
            with pytest.raises(ValueError, match=message):
                f(x)


def test_order6_point_on_five_spheres():
    n, fixed = order6_fixture()
    g, y = reduce_to_domain(fixed)
    assert in_omega(y)
    res = spheres_containing(y)
    assert len(res) == 5
    assert all(flag == "boundary" for _, _, flag in res)
    got = {(j, alpha) for alpha, j, flag in res}
    ttau_r = CuspElt(0, 1, 1, 0)
    t1_ttau_r = CuspElt(1, 1, 1, 0)
    assert got == {
        (2, CuspElt()),
        (3, CuspElt()),
        (4, ttau_r),
        (5, t1_ttau_r),
        (6, CuspElt(n=1)),
    }
    # the conjugated element fixes the reduced point
    conj = g * n * g.inverse()
    assert point_of(mat_apply(conj.mat, y.coords)) == y


def test_sphere_inversion_identity():
    # x on I(g) implies g^-1(x) on I(g^-1), checked at exact boundary points
    a6 = GENERATORS[6]
    img = mat_apply(a6.inverse().mat, V1)
    assert ford_side(img, a6.inverse()) == "boundary"
    _, fixed = order6_fixture()
    a2 = GENERATORS[2]
    # the Omega representative of the fixed point lies on I(A2)
    _, y = reduce_to_domain(fixed)
    assert ford_side(mat_apply(a2.inverse().mat, y.coords), GENERATORS[3]) == "boundary"


def test_reduce_identity_case():
    h = from_zsu(TAU / 2, 1, 5)
    x = ProjPoint(lift(h))
    assert in_omega(x)
    g, y = reduce_to_domain(x)
    assert horo_coords(y.coords) == h
    assert fixes_q_inf(g)


def test_reduce_random_roundtrip():
    rng = random.Random(31)
    base = ProjPoint(lift(from_zsu(TAU / 2, 1, 5)))
    _, center = reduce_to_domain(base)
    v0 = lift(horo_coords(center.coords))
    letters = [GENERATORS[2], GENERATORS[6], T1.to_matrix(), R.to_matrix(), GENERATORS[1]]
    for _ in range(6):
        word = [rng.choice(letters) for _ in range(rng.randint(1, 4))]
        g = GroupElt.identity()
        for w in word:
            g = g * w
        moved = mat_apply(g.mat, v0)
        back, y = reduce_to_domain(ProjPoint(moved))
        assert y == ProjPoint(v0)
        # the returned element actually maps input to output projectively
        assert ProjPoint(mat_apply(back.mat, moved)) == y


def test_reduce_iteration_guard(monkeypatch):
    _, fixed = order6_fixture()
    monkeypatch.setattr(ford, "MAX_ITERS", 1)
    with pytest.raises(ReductionError):
        reduce_to_domain(fixed)


def _seeded_images(points, seed, count):
    """count images of each point under seeded words of 1 to 4 side
    pairings and cusp letters."""
    rng = random.Random(seed)
    letters = [GENERATORS[j] for j in sorted(GENERATORS)]
    letters += [c.to_matrix() for c in (T1, TTAU, TV, R)]
    out = []
    for x in points:
        for _ in range(count):
            w = GroupElt.identity()
            for _ in range(rng.randint(1, 4)):
                w = rng.choice(letters) * w
            out.append(x.apply(w))
    return out


def test_reduction_matches_the_knum_loop():
    # the loop on a point's ints against the loop on KNum vectors with
    # word-carrying GroupElt products and primitive_rep
    # (reference.ref_reduce_to_domain): the same canonical ints, word and
    # ProjPoint on the 500 K orbit images of the round-trip property test,
    # on the five K-rational fixed points under seeded words, whose Omega
    # representatives tie with spheres, on the GOLDEN `ford reduce` inputs,
    # and on the 20 tower fixed points, which both loops carry as AlgNums
    x0, xs = round_trip_orbit()
    golden = [ProjPoint(vec_from_json(p.values[0][3])) for p in GOLDEN if p.values[0][:2] == ["ford", "reduce"]]
    assert len(golden) == 3
    points = [x0] + xs + _seeded_images([ProjPoint(f) for f in K_FIXED_POINTS], 83, 4) + golden
    points += [x for x, _ in tower_fixed_points()]
    moved = 0
    for x in points:
        g, y = reduce_to_domain(x)
        h, z = ref_reduce_to_domain(x)
        assert (g.ints, g.word, y) == (h.ints, h.word, z), x
        moved += not g.is_identity()
    assert moved > len(points) // 2


def test_reduction_keeps_its_soundness_checks(monkeypatch):
    # each check that soundness rests on is an explicit raise with its
    # message: a point that is not interior, and a Ford step that does not
    # lower the Ford quantity.  A positive vector's prism coordinates and
    # a sweep at v3 = 0 are refused in the entry-point and column-scan tests
    z = zeta_of(zeta3_tower())
    for x in (ProjPoint(lift(from_zsu(0, 1, 0))), ProjPoint((KNum(1), KNum(0), KNum(1))),
              point_of((KNum(1), KNum(0), neg(z)))):
        for reduce in (reduce_to_domain, ref_reduce_to_domain):
            with pytest.raises(ValueError, match="reduction needs an interior point"):
                reduce(x)
    # a sweep that reports the sphere of A1 as violated by a point high
    # above it: the step raises the Ford quantity, in K and in K(zeta_3)
    v1, v2, v3 = tower_fixed_points()[0][1].coords
    for x in (ProjPoint(lift(from_zsu(TAU / 2, 1, 5))), point_of((sub(v1, 2 * v3), v2, v3))):
        n = 1 if x.rational else v3.tower.n
        quantity, cmp, _ = ford._KERNELS[n]
        monkeypatch.setitem(ford._KERNELS, n, (quantity, cmp, lambda v, own, g, best: iter([(-1, own, 1, CuspElt())])))
        with pytest.raises(ArithmeticError, match="the Ford quantity did not decrease"):
            reduce_to_domain(x)


def test_generator_depths():
    depths = generator_depths()
    assert set(depths) == set(range(1, 15))
    assert set(depths.values()) == {1, 2, 4, 7}
    # a product of two pairing matrices already leaves that depth range
    g = GENERATORS[1] * GENERATORS[3]
    col = ProjPoint(first_column(g))
    assert col.sq_norm_sign() == 0 and depth(col) == 8


# ---------------------------------------------------------------------------
# the int sweep kernels against the generic path (herm_inner, abs2, real_cmp)
# ---------------------------------------------------------------------------


def _field_points():
    """A fixed point in K (V1), in K(zeta_3) (of c = ab) and in K(zeta_7) (of a)."""
    gens = abcd()
    _, c_fixed, _ = classify_elliptic(gens["c"], 6)
    _, a_fixed, _ = classify_elliptic(gens["a"], 7)
    return {"K": ProjPoint(V1), "zeta3": c_fixed, "zeta7": a_fixed}


@pytest.mark.parametrize("field", ["K", "zeta3", "zeta7"])
def test_sweep_kernels_match_generic_path(field):
    # random orbit images of one point per field: every kernel sign equals
    # ford_side against alpha A_j over all candidate columns, in sweep
    # order, and reduction, Omega membership and the spheres through a
    # point agree with the generic path
    rng = random.Random({"K": 41, "zeta3": 43, "zeta7": 47}[field])
    x0 = _field_points()[field]
    letters = [GENERATORS[j] for j in sorted(GENERATORS)]
    letters += [c.to_matrix() for c in (T1, TTAU, TV, R)]
    _, y0 = reduce_to_domain(x0)
    points = [x0, y0]
    for _ in range(2):
        w = GroupElt.identity()
        for _ in range(rng.randint(1, 3)):
            w = rng.choice(letters) * w
        points.append(y0.apply(w))
    for x in points:
        got = [(j, alpha, sign) for sign, _, j, alpha in sweep_at(x)[2]]
        want = []
        for j, alpha, g in ford_candidates():
            side = ford_side(x, g)
            if side != "inside":
                want.append((j, alpha, 0 if side == "boundary" else -1))
        assert got == want
        assert reduce_to_domain(x) == ref_reduce(x)
        assert in_omega(x) == ref_in_omega(x)
        assert spheres_containing(x) == ref_spheres_containing(x)
    assert in_omega(y0) and any(flag == "boundary" for _, _, flag in spheres_containing(y0))


# the five K-rational isolated fixed points, up to the group
K_FIXED_POINTS = [
    (KNum(1, -1), KNum(0), KNum(-1)),
    (TAU, KNum(1, -1), -TAU),
    (KNum(1), KNum(0), KNum(-1)),
    (KNum(1, 1), KNum(1, -1), -TAU),
    (KNum(1, -1), KNum(-1), KNum(-1, 1)),
]


def test_k_sweep_matches_the_column_scan():
    # the kernel, which evaluates only the translates whose Cygan ball can
    # hold the point, yields what the scan of every candidate column does,
    # tuple for tuple: on seeded orbit images shifted over P, as is and at
    # their Omega representatives; on orbit images of the five K-rational
    # fixed points, whose representatives tie with spheres; on points
    # above the height every sphere reaches; and on orbit images that are
    # not over P
    rng = random.Random(67)
    letters = [GENERATORS[j] for j in sorted(GENERATORS)]
    letters += [c.to_matrix() for c in (T1, TTAU, TV, R)]

    def orbit_image(x):
        w = GroupElt.identity()
        for _ in range(rng.randint(1, 4)):
            w = rng.choice(letters) * w
        return x.apply(w)

    def over_p(x):
        return x.apply(reduce_to_prism(prism_coordinates(x.rep)).to_matrix())

    def sweeps(x):
        vs, own, got = sweep_at(x)
        return got, list(ref_k_sweep(vs, own))

    points = {"over P": [], "fixed": [], "high": [], "off P": []}
    for _ in range(12):
        x = over_p(orbit_image(ProjPoint(V1)))
        points["over P"] += [x, reduce_to_domain(x)[1]]
    for f in K_FIXED_POINTS:
        x = over_p(orbit_image(ProjPoint(f)))
        points["fixed"] += [x, reduce_to_domain(x)[1]]
    for _ in range(12):
        z = KNum(Fraction(rng.randint(0, 4), 4), Fraction(rng.randint(0, 4), 4))
        points["high"].append(ProjPoint(lift(from_zsu(z, Fraction(rng.randint(0, 8), 4), rng.randint(3, 9)))))
    for _ in range(12):
        x = orbit_image(ProjPoint(V1))
        if not in_prism(prism_coordinates(x.rep)):
            points["off P"].append(x)
    ties = 0
    for kind, xs in points.items():
        assert xs, kind
        for x in xs:
            got, want = sweeps(x)
            assert got == want, (kind, x)
            if kind == "high":
                assert got == []
            ties += sum(sign == 0 for sign, _, _, _ in got)
    assert ties > 0
    # with v3 = 0 the l-step D vanishes, and the kernel refuses the vector;
    # the point has no prism coordinates, which the K kernel does not read
    vs, own, (_, _, sweep) = _sweep_vector((-1, 0, 1, 0, 0, 0))
    with pytest.raises(ArithmeticError, match="l-step"):
        list(sweep(vs, own, None, False))


def test_best_first_k_sweep_keeps_the_reduction_step():
    # in best mode the K kernel yields strictly decreasing quantities below
    # own, and its last hit is the first smallest strict hit of the full
    # sweep in (j, alpha) order, the one the reduction step takes, ties
    # with that minimum included; every full-mode hit with a quantity h < B
    # lies in the window the kernel derives from B (own at the start, then
    # each yielded quantity): u' + N(z - z0) <= r^2 sqrt((B - 1)/own) <=
    # r2 qb/2^32.  On the 500 orbit images of the round-trip test, moved
    # over P as a reduction step sees them
    x0, xs = round_trip_orbit()
    stepped = ties = 0
    for x in [x0] + xs:
        x = x.apply(reduce_to_prism(prism_coordinates(x.rep)).to_matrix())
        vs, own, (_, _, sweep) = _sweep_vector(x.rep)
        strict = [(h, j, alpha) for sign, h, j, alpha in sweep(vs, own, None, False) if sign < 0]
        best = list(sweep(vs, own, None, True))
        assert all(sign == -1 for sign, _, _, _ in best)
        bounds = [own] + [h for _, h, _, _ in best]
        assert all(b > h for b, h in zip(bounds, bounds[1:]))
        if not strict:
            assert best == []
            continue
        low = min(h for h, _, _ in strict)
        assert best[-1][1:] == next(hit for hit in strict if hit[0] == low)
        stepped += 1
        ties += sum(h == low for h, _, _ in strict) > 1
        a, b, _, den = prism_coordinates(vs)
        u = Fraction(-sq_norm_ints(vs), own)
        for bound in bounds:
            qb = _sqrt_ints(bound - 1, own)[1]
            for h, j, alpha in strict:
                if h >= bound:
                    continue
                za, zb, _, zd = act_prism(alpha, SPHERES[j].center)
                gap = u + Fraction(_norm_ints(a * zd - za * den, b * zd - zb * den), (den * zd) ** 2)
                assert gap <= 0 or gap * gap * own <= SPHERES[j].r4 * (bound - 1)
                assert gap <= Fraction(ford._R2[j] * qb, 2**32)
    assert stepped > 300 and ties > 200


@functools.cache
def tower_fixed_points():
    """The isolated fixed points over K(zeta_3) and K(zeta_7) of the torsion
    enumeration's candidates, each with its Omega representative."""
    found = set()
    for g, n in _torsion_candidates().items():
        kind, pt, _ = classify_elliptic(g, n)
        if kind == "isolated" and not pt.rational:
            found.add(pt)
    return [(x, reduce_to_domain(x)[1]) for x in sorted(found, key=lambda x: [c.ints for c in x.coords])]


TOWER_SCANS = {3: ref_zeta3_sweep, 7: ref_zeta7_sweep}


def tower_sweeps(x):
    """The kernel's and the column scan's tuples at a tower point: the
    scan reads the point's AlgNum coordinates, scaled to be integral as
    the kernel's vector is."""
    _, own, got = sweep_at(x)
    v = scaled_alg(x.coords)
    return got, list(TOWER_SCANS[v[0].tower.n](v, own))


def test_tower_sweeps_match_the_column_scans():
    # the K(zeta_3) and K(zeta_7) kernels, which evaluate only the
    # translates in their certified window, yield what the scan of every
    # candidate column does, tuple for tuple and in the same order: at the
    # 20 tower fixed points of the enumeration and at their Omega
    # representatives, which tie with spheres; at seeded orbit images of
    # them; and above the height every sphere reaches, where neither yields
    rng = random.Random(73)
    letters = [GENERATORS[j] for j in sorted(GENERATORS)]
    letters += [c.to_matrix() for c in (T1, TTAU, TV, R)]
    pairs = tower_fixed_points()
    assert sorted(x.coords[0].tower.n for x, _ in pairs) == [3] * 5 + [7] * 15
    points = {"fixed": [], "reduced": [], "orbit": [], "high": []}
    for x, y in pairs:
        points["fixed"].append(x)
        points["reduced"].append(y)
        w = GroupElt.identity()
        for _ in range(rng.randint(1, 3)):
            w = rng.choice(letters) * w
        points["orbit"].append(y.apply(w))
        # v1 - 2 v3 raises u' = -<v, v>/|v3|^2 by 4, above every r^2 <= 2
        v1, v2, v3 = y.coords
        points["high"].append(point_of((sub(v1, 2 * v3), v2, v3)))
    ties = 0
    for kind, xs in points.items():
        for x in xs:
            got, want = tower_sweeps(x)
            assert got == want, (kind, x)
            if kind == "high":
                assert got == []
            else:
                assert got, (kind, x)
            ties += sum(sign == 0 for sign, _, _, _ in got)
    assert ties > 0


def test_tower_sweeps_stay_in_their_window(monkeypatch):
    # a scan makes one exact comparison per candidate column, 548 in all;
    # the window makes fewer than 150 at each tower fixed point of the
    # enumeration and at its Omega representative.  The memo of tower hits
    # is cleared before each sweep, so that the kernel runs
    calls = []

    def counted(helper):
        def sign(*args):
            calls.append(args)
            return helper(*args)
        return sign

    monkeypatch.setattr(ford, "sqrt21_sign", counted(sqrt21_sign))
    monkeypatch.setattr(ford, "eta_sign", counted(eta_sign))
    for pair in tower_fixed_points():
        for x in pair:
            vs, own, (_, _, sweep) = _sweep_vector(x.rep)
            g = prism_grid(prism_coordinates(x.rep))[0]
            ford._tower_hits.cache_clear()
            calls.clear()
            list(sweep(vs, own, g, False))
            assert 0 < len(calls) < 150, (x, len(calls))


def test_sign_helpers_match_mpmath():
    # sqrt21_sign and eta_sign against a 100-digit evaluation, on seeded
    # random ints, on zero, on e1 = e2 = e3, and on the tiny eta_2^60,
    # whose sign the first 64-bit bracket cannot decide
    def sign(x):
        return (x > 0) - (x < 0)

    rng = random.Random(53)
    pairs = [(0, 0), (5, 0), (-5, 0), (0, 3), (0, -3), (458, -100), (-459, 100)]
    pairs += [(rng.randint(-10**6, 10**6), rng.randint(-10**5, 10**5)) for _ in range(500)]
    z = zeta_of(zeta7_tower())
    tiny = alg_pow(alg_pow(z, 2) + alg_pow(z, 5), 60)
    # a real integral element of K(zeta_7) is e1 eta_1 + e2 eta_2 + e3 eta_3
    # with (e1, e2, e3) its first three ints
    assert tiny.is_real() and tiny.den == 1
    triples = [(0, 0, 0), (4, 4, 4), (-4, -4, -4), tiny.ints[:3]]
    triples += [tuple(rng.randint(-10**4, 10**4) for _ in range(3)) for _ in range(500)]
    with mpmath.workdps(100):
        for m, n in pairs:
            assert sqrt21_sign(m, n) == sign(m + n * mpmath.sqrt(21)), (m, n)
        etas = [2 * mpmath.cos(2 * mpmath.pi * k / 7) for k in (1, 2, 3)]
        for e in triples:
            assert eta_sign(*e) == sign(sum(c * eta for c, eta in zip(e, etas))), e
        assert abs(sum(c * eta for c, eta in zip(triples[3], etas))) < mpmath.mpf(2) ** -60
