from itertools import permutations, product

import pytest

from picard7.ring import KNum, TAU, knum_from_ints, o_gcd_many
from picard7.hermitian import GroupElt, ProjPoint, herm_inner, norm_form_solutions, primitive_rep, sq_norm
from picard7.heisenberg import R, T1, TTAU, TV
from picard7.ford import GENERATORS
from picard7.torsion import _search_alphabet, make_reflection, projective_order
from picard7.congruence import FpMatGroup, ResidueMap
from picard7 import mirror
from picard7.mirror import (
    MIRROR_L_POLARS,
    RESTRICTION_ORDER_CAP,
    MirrorContext,
    S2_FIXED,
    S2_MAT,
    acts_trivially_on_mirror,
    cusp_orbit_search,
    mirror_l_generators,
    preserves_mirror,
    restriction_order,
    search_orthogonal_mirrors,
    verify_mirror_L,
    verify_mirror_R,
)

from reference import mat_apply, ref_restriction_order, restriction, restriction_is_scalar
from reference import search_orthogonal_mirrors as scan_orthogonal_mirrors


CTX_R = MirrorContext.mirror_of_half_turn()
CTX_L = MirrorContext.mirror_of_shifted_half_turn()


def test_context_basis():
    for ctx in (CTX_R, CTX_L):
        for b in ctx.basis:
            assert herm_inner(b, ctx.polar.coords).is_zero()
    assert CTX_R.basis == ((KNum(1), KNum(0), KNum(0)), (KNum(0), KNum(0), KNum(1)))
    # a polar of negative norm spans a line disjoint from the ball boundary
    with pytest.raises(ValueError):
        MirrorContext((KNum(1), KNum(0), KNum(-1)))


def test_preserves_mirror():
    assert preserves_mirror(GENERATORS[1], CTX_R)
    assert preserves_mirror(GENERATORS[6], CTX_R)
    assert not preserves_mirror(T1.to_matrix(), CTX_R)
    assert preserves_mirror((TTAU * R).to_matrix(), CTX_L)
    assert not preserves_mirror(GENERATORS[1], CTX_L)


def test_restriction():
    # R acts as the identity on its own mirror
    assert restriction_is_scalar(restriction(R.to_matrix(), CTX_R))
    cols = restriction(GENERATORS[1], CTX_R)
    assert not restriction_is_scalar(cols)
    # I swaps the two basis directions of z = 0
    assert cols == ((KNum(0), KNum(1)), (KNum(1), KNum(0)))
    with pytest.raises(ValueError):
        restriction(T1.to_matrix(), CTX_R)


def test_restriction_orders():
    assert restriction_order(R.to_matrix(), CTX_R) == 1
    assert restriction_order(GENERATORS[1], CTX_R) == 2
    assert restriction_order(TV.to_matrix(), CTX_L) is None
    for k, v in MIRROR_L_POLARS.items():
        assert restriction_order(make_reflection(v), CTX_L) == 2


def _against_the_restriction(g, ctx):
    """acts_trivially_on_mirror and restriction_order on ints against the
    2x2 restriction in KNum arithmetic; returns the int test's answer."""
    trivial = acts_trivially_on_mirror(g, ctx)
    assert trivial == restriction_is_scalar(restriction(g, ctx))
    assert restriction_order(g, ctx) == ref_restriction_order(g, ctx, RESTRICTION_ORDER_CAP)
    return trivial


def _mirror_l_words():
    """The seven generators of mirror L, the relator words of
    verify_mirror_L with Ttau R, and the 24 long-relator triples."""
    gens = mirror_l_generators()
    r = {k: gens["r%d" % k] for k in (1, 2, 3, 4)}
    s1, s2, tv = gens["s1"], gens["s2"], gens["tv"]
    words = dict(gens)
    words.update({
        "r1^2": r[1] ** 2, "r2^3": r[2] ** 3, "r2^2": r[2] ** 2, "r3^2": r[3] ** 2, "r4^2": r[4] ** 2,
        "(s2^-1 s1)^2": (s2.inverse() * s1) ** 2,
        "s1^-1 r4 r1 r3 tv r2": s1.inverse() * r[4] * r[1] * r[3] * tv * r[2],
        "s1^-1 r4 r1 r3 tv": s1.inverse() * r[4] * r[1] * r[3] * tv,
        "Ttau R": (TTAU * R).to_matrix(),
    })
    triples = {t: s1.inverse() * r[t[0]] * r[t[1]] * r[t[2]] * tv for t in permutations((1, 2, 3, 4), 3)}
    return words, triples


def test_int_mirror_tests_match_the_restriction():
    # the +/-1 test on the basis ints decides what the 2x2 restriction
    # does: on mirror L's generators and relator words, where the relators
    # of verify_mirror_L pass but r2^3 and the six-letter word, and on the
    # 24 long-relator triples, of which only (4, 1, 3) passes
    words, triples = _mirror_l_words()
    trivial = {name: _against_the_restriction(g, CTX_L) for name, g in words.items()}
    assert [name for name, t in trivial.items() if not t] == [
        "r1", "r2", "r3", "r4", "s1", "s2", "tv", "r2^3", "s1^-1 r4 r1 r3 tv r2"]
    assert [t for t, g in triples.items() if _against_the_restriction(g, CTX_L)] == [(4, 1, 3)]
    # on mirror R: I swaps the basis directions, M and R
    iota, mu, rho = GENERATORS[1], GENERATORS[6], R.to_matrix()
    assert [_against_the_restriction(g, CTX_R) for g in (iota, mu, rho)] == [False, False, True]
    assert [restriction_order(g, CTX_R) for g in (iota, mu, rho)] == [2, 2, 1]
    # T1 moves mirror R, and every test refuses it
    for f in (acts_trivially_on_mirror, restriction_order, restriction):
        with pytest.raises(ValueError, match="does not preserve"):
            f(T1.to_matrix(), CTX_R)


def test_int_mirror_test_reads_one_sign_for_both_vectors():
    # the mirror of polar (1, 0, 1) has the orthogonal basis b1 = (1, 0, -1),
    # b2 = (0, 1, 0): R is +1 on b1 and -1 on b2, A1 is -1 on both, and
    # A1 R is -1 on b1 and +1 on b2.  A test that took a sign per vector
    # would call R and A1 R trivial.  (On mirrors L and R, <b2, b1> != 0,
    # so no element of Gamma is +1 on one vector and -1 on the other.)
    ctx = MirrorContext((KNum(1), KNum(0), KNum(1)))
    assert herm_inner(ctx.basis[1], ctx.basis[0]).is_zero()
    rho, a1 = R.to_matrix(), GENERATORS[1]
    assert [_against_the_restriction(g, ctx) for g in (rho, a1, a1 * rho)] == [False, True, False]
    assert [restriction_order(g, ctx) for g in (rho, a1, a1 * rho)] == [2, 1, 2]


def test_verify_mirror_R():
    rep = verify_mirror_R()
    assert rep["mti_order"] == 6
    assert rep["mti_cube_is_half_turn"]
    assert all(rep["relators"].values())
    orb = rep["orbits"]
    assert (orb["common_point_of_iota_rho"]["one_lines"],
            orb["common_point_of_iota_rho"]["two_lines"]) == (1, 1)
    assert (orb["rho_t1_iota_square"]["one_lines"],
            orb["rho_t1_iota_square"]["two_lines"]) == (2, 2)
    assert (orb["mti_point"]["one_lines"], orb["mti_point"]["two_lines"]) == (1, 0)
    assert all(o["on_mirror"] for o in orb.values())
    assert rep["all_pass"]


def test_search_orthogonal_mirrors():
    found = search_orthogonal_mirrors(CTX_L, 2, 3)
    for k in (1, 2, 3):
        assert ProjPoint(MIRROR_L_POLARS[k]) in found
    assert ProjPoint(MIRROR_L_POLARS[4]) not in found  # its polar norm is 1
    assert ProjPoint(MIRROR_L_POLARS[4]) in search_orthogonal_mirrors(CTX_L, 1, 3)
    # the half-turn mirror has no norm-1 orthogonal vectors besides units times e1/e3 combos
    small = search_orthogonal_mirrors(CTX_R, 1, 2)
    for p in small:
        assert herm_inner(p.coords, CTX_R.polar.coords).is_zero()
        assert sq_norm(p.coords) == KNum(1)
    # results are primitive and deduplicated projectively
    assert len(set(small)) == len(small)


def _unfiltered_search(ctx, norm, height):
    """search_orthogonal_mirrors without its Gram-form pre-filter.

    Returns the candidates whose primitive representative has the norm, and
    the polars they give.
    """
    b1, b2 = ctx.basis
    rng = range(-height, height + 1)
    kept, polars = set(), set()
    for a1, c1, a2, c2 in product(rng, rng, rng, rng):
        al, be = KNum(a1, c1), KNum(a2, c2)
        v = tuple(al * b1[k] + be * b2[k] for k in range(3))
        if any(not x.is_zero() for x in v):
            p = primitive_rep(v)
            if sq_norm(p) == KNum(norm):
                kept.add(v)
                polars.add(ProjPoint(p))
    return kept, polars


@pytest.mark.parametrize("norm", [1, 2])
@pytest.mark.parametrize("height", [1, 2, 3])
def test_search_prefilter_keeps_every_polar(monkeypatch, norm, height):
    of_primitive = ProjPoint.of_primitive
    for ctx in (CTX_L, CTX_R):
        reached = []

        def recording(w):
            # the six ints of each polar's vector, as KNums
            reached.append(tuple(map(knum_from_ints, w[0::2], w[1::2])))
            return of_primitive(w)

        monkeypatch.setattr(ProjPoint, "of_primitive", staticmethod(recording))
        found = search_orthogonal_mirrors(ctx, norm, height)
        monkeypatch.undo()
        kept, polars = _unfiltered_search(ctx, norm, height)
        assert len(set(found)) == len(found) and set(found) == polars
        # each polar is built once, from a primitive vector: the primitive
        # members of kept up to sign.  A polar whose only members of kept are
        # non-primitive multiples is built from its primitive part, which can
        # lie outside the box.
        assert len(set(reached)) == len(reached) == len(polars)
        assert all(o_gcd_many(v).is_one() for v in reached)
        signed = set(reached) | {tuple(-x for x in v) for v in reached}
        assert {v for v in kept if o_gcd_many(v).is_one()} <= signed
    assert search_orthogonal_mirrors(CTX_L, norm, height)


@pytest.mark.parametrize("norm", [1, 2])
def test_search_polars_match_the_gcd_path(monkeypatch, norm):
    # each polar is formed on ints from a coprime pair over the saturated
    # basis and takes the sign rule only; the same pairs through the KNum
    # vector and ProjPoint, which divides out the O_7 gcd, give the same
    # points, so every such vector is primitive
    solved = []

    def recorded(*args):
        solved.append(norm_form_solutions(*args))
        return solved[-1]

    monkeypatch.setattr(mirror, "norm_form_solutions", recorded)
    for ctx in (CTX_L, CTX_R):
        b1, b2 = ctx.basis
        for height in range(1, 21):
            found = search_orthogonal_mirrors(ctx, norm, height)
            pairs = solved.pop()
            want = []
            for a, b, u, v in pairs:
                al, be = knum_from_ints(a, b), knum_from_ints(u, v)
                want.append(ProjPoint(tuple(al * b1[k] + be * b2[k] for k in range(3))))
            assert found == sorted(want), (norm, height)
            assert len(set(want)) == len(want) > 0


@pytest.mark.parametrize("norm", [1, 2])
@pytest.mark.parametrize("height", range(1, 7))
def test_search_matches_the_scan(norm, height):
    for ctx in (CTX_L, CTX_R):
        assert search_orthogonal_mirrors(ctx, norm, height) == scan_orthogonal_mirrors(ctx, norm, height)


def test_search_refuses_other_gram_forms():
    # polar (1, 0, 1): a saturated basis with Gram form (-2, 0, 1), on which
    # the scan finds polars; the search solves neither of its two shapes
    ctx = MirrorContext((KNum(1), KNum(0), KNum(1)))
    assert ctx.gram == (-2, 0, 1)
    assert scan_orthogonal_mirrors(ctx, 2, 2)
    with pytest.raises(ArithmeticError):
        search_orthogonal_mirrors(ctx, 2, 2)


def test_unsaturated_basis_is_refused():
    def minors_gcd(ctx):
        b1, b2 = ctx.basis
        return o_gcd_many(b1[i] * b2[j] - b1[j] * b2[i] for i, j in ((0, 1), (0, 2), (1, 2)))

    assert minors_gcd(CTX_R) == 1 and minors_gcd(CTX_L) == 1
    # a norm-2 polar whose basis minors have gcd 1 - tau (norm 2): the
    # Gram-form test of the mirror search would drop polars on it
    polar = (TAU, -1 - 2 * TAU, -1 - 2 * TAU)
    assert sq_norm(polar) == 2
    with pytest.raises(ArithmeticError):
        MirrorContext(polar)


def test_mirror_l_generators():
    gens = mirror_l_generators()
    assert set(gens) == {"r1", "r2", "r3", "r4", "s1", "s2", "tv"}
    for g in gens.values():
        assert preserves_mirror(g, CTX_L)
    assert projective_order(gens["s1"]) is None
    assert projective_order(gens["s2"]) is None
    # s2 fixes a null point, hence parabolic rather than loxodromic-with-axis in L
    assert gens["s2"] == GroupElt(S2_MAT)
    assert ProjPoint(mat_apply(gens["s2"].mat, S2_FIXED)) == ProjPoint(S2_FIXED)
    assert sq_norm(S2_FIXED).is_zero()


def test_side_pairing_identity_on_mirror():
    gens = mirror_l_generators()
    r4, r1, r3 = gens["r4"], gens["r1"], gens["r3"]
    w = gens["s1"].inverse() * r4 * r1 * r3 * gens["tv"]
    assert acts_trivially_on_mirror(w, CTX_L)
    # this relator even closes up in the ambient group, not just on the mirror
    assert w.is_identity()


def test_verify_mirror_L():
    rep = verify_mirror_L()
    assert [rep["vectors"]["v%d" % k]["norm"] for k in (1, 2, 3, 4)] == [2, 2, 2, 1]
    assert all(rep["in_gamma"].values()) and all(rep["preserves"].values())
    assert rep["restriction_orders"] == {
        "r1": 2, "r2": 2, "r3": 2, "r4": 2, "s1": None, "s2": None, "tv": None,
    }
    # all four r's restrict to involutions, so a cube relator can only hold
    # with exponent 2; the printed exponent-3 form fails as stated
    assert not rep["relators"]["r2^3"]
    assert rep["relators"]["r2^2"]
    assert rep["relators"]["(s2^-1 s1)^2"]
    # the six-letter side-pairing relator needs its trailing r2 dropped, and
    # the remaining index pattern (4,1,3) is then the unique one that works
    assert not rep["relators"]["s1^-1 r4 r1 r3 tv r2"]
    assert rep["relators"]["s1^-1 r4 r1 r3 tv"]
    assert rep["long_relator_triples"] == [(4, 1, 3)]
    assert all(rep["s2_parabolic"].values())
    assert rep["center_scalar_on_mirror"]
    # one cusp downstairs, two in the mirror stabilizer
    assert rep["cusps_gamma_equivalent"]
    assert not rep["cusps_stab_equivalent"]
    assert rep["all_pass"]


def test_mirror_L_cusp_certificate():
    # mod <tau> (O_7/<tau> = F_2) the stabilizer keeps q_inf = (1, 0, 0) fixed,
    # while the cusp of s2 reduces to (1, 1, 1); Gamma's generators reach it
    rm = ResidueMap("tau")

    def first_columns(gens):
        # an element is its nine residues row by row
        return {x[0::3] for x in FpMatGroup(gens, rm).elements}

    cusp = tuple(rm.scalar(x) for x in S2_FIXED)
    assert cusp == (1, 1, 1)
    stab = list(mirror_l_generators().values()) + [(TTAU * R).to_matrix()]
    assert first_columns([g.ints for g in stab]) == {(1, 0, 0)}
    assert cusp in first_columns([g.ints for g in _search_alphabet()])
    rep = verify_mirror_L()
    assert rep["cusps_gamma_equivalent"] and not rep["cusps_stab_equivalent"]


def test_cusp_orbit_search_identity():
    start = ProjPoint((KNum(1), KNum(0), KNum(0)))
    assert cusp_orbit_search(start, [], 0).is_identity()
    tgt = ProjPoint(mat_apply(GENERATORS[1].mat, start.coords))
    w = cusp_orbit_search(tgt, [GENERATORS[1]], 2)
    assert w is not None and ProjPoint(mat_apply(w.mat, start.coords)) == tgt
