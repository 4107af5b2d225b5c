import random
from fractions import Fraction

import pytest

from picard7.ring import ISQRT7, KNum, TAU, zeta3_tower, zeta7_tower
from picard7.hermitian import GroupElt, Mat, is_in_gamma, sq_norm
from picard7.heisenberg import (
    CuspElt,
    IDENTITY,
    R,
    T1,
    TTAU,
    TV,
    act_prism,
    cusp_torsion_classes,
    enumerate_cusp_overlaps,
    _overlap_vertices,
    in_prism,
    overlaps_keeping,
    prism_coordinates,
    reduce_to_prism,
)
from reference import (
    HoroPoint,
    alg_prism,
    ref_prism_coordinates,
    div,
    neg,
    sub,
    Prism,
    _cross_coeffs,
    _overlap_constraints,
    act_horo,
    alg_lift,
    cusp_matrix,
    fixes_q_inf,
    from_zsu,
    horo_coords,
    horo_reduce_to_prism,
    lift,
    mat_apply,
    overlap_witness,
    polygon_vertices,
    ref_overlaps_keeping,
    s_coordinate,
    tau_coordinates,
    translation_matrix,
    vec_key,
    vector_rep,
    zeta_of,
)


def rand_pt(rng, den=4, u=0):
    """A random K-rational point (z, s*sqrt(7), u) with denominators den."""
    return from_zsu(
        KNum(Fraction(rng.randint(-12, 12), den), Fraction(rng.randint(-12, 12), den)),
        Fraction(rng.randint(-12, 12), den),
        Fraction(u, den),
    )


def rand_cusp(rng, k=4):
    return CuspElt(rng.randint(-k, k), rng.randint(-k, k), rng.randint(0, 1), rng.randint(-k, k))


def test_generator_matrices():
    for c in (T1, TTAU, TV, R):
        g = c.to_matrix()
        assert is_in_gamma(g.mat)
        assert fixes_q_inf(g)
    assert R.to_matrix().mat == Mat([[1, 0, 0], [0, -1, 0], [0, 0, 1]])
    assert IDENTITY.to_matrix().is_identity()
    # T_1 = T(1, sqrt(7)), Ttau = T(tau, 0), T_v = T(0, 2 sqrt(7))
    assert T1.to_matrix().mat == translation_matrix(KNum(1), ISQRT7)
    assert TTAU.to_matrix().mat == translation_matrix(TAU, KNum(0))
    assert TV.to_matrix().mat == translation_matrix(KNum(0), 2 * ISQRT7)


def test_to_matrix_matches_the_matrix_product():
    # the closed form against T(w, t0) R^eps multiplied out over K, on every
    # cusp overlap and on the box |m|, |n|, |l| <= 3
    overlaps = enumerate_cusp_overlaps()
    assert len(overlaps) == 34
    box = [CuspElt(m, n, eps, l)
           for m in range(-3, 4) for n in range(-3, 4) for eps in (0, 1) for l in range(-3, 4)]
    for c in list(overlaps) + box:
        g = c.to_matrix()
        assert g.mat == cusp_matrix(c) and g.word == c.word()
        # the constructor's check: the matrix lies in U(J, O_7)
        assert GroupElt(cusp_matrix(c)) == g


def test_vertical_is_commutator():
    assert TTAU * T1 * TTAU.inverse() * T1.inverse() == TV


def test_heis_group_law():
    h = from_zsu(TAU, Fraction(1, 2))
    assert act_horo(IDENTITY, h) == h
    # (1, sqrt 7) * (1, sqrt 7) = (2, 2 sqrt 7): on points and on elements
    assert act_horo(T1, from_zsu(1, 1)) == from_zsu(2, 2)
    assert T1 * T1 == CuspElt(m=2)
    rng = random.Random(5)
    for _ in range(60):
        a, b, c = rand_cusp(rng), rand_cusp(rng), rand_cusp(rng)
        assert (a * b) * c == a * (b * c)
        assert a * a.inverse() == IDENTITY
        # the action law on points off the lattice, on and above the boundary
        den = rng.choice((3, 4))
        for p in (rand_pt(rng, den), rand_pt(rng, den, rng.randint(1, 12))):
            assert act_horo(a * b, p) == act_horo(a, act_horo(b, p))
            assert act_horo(a.inverse(), act_horo(a, p)) == p
    # R conjugation flips the translation part, keeps the vertical part
    for _ in range(20):
        c = CuspElt(rng.randint(-3, 3), rng.randint(-3, 3), 0, rng.randint(-3, 3))
        conj = R * c * R
        assert (conj.m, conj.n) == (-c.m, -c.n)
        assert conj.s0 == c.s0
        assert conj.eps == 0


def test_normal_form_roundtrip():
    rng = random.Random(9)
    for _ in range(80):
        c = CuspElt(rng.randint(-4, 4), rng.randint(-4, 4), rng.randint(0, 1), rng.randint(-4, 4))
        assert (c * c.inverse()) == IDENTITY
        assert (c.inverse() * c) == IDENTITY
    # the normal form of a product matches the matrix product
    a, b = CuspElt(1, 2, 1, 0), CuspElt(-1, 0, 1, 3)
    assert (a * b).to_matrix() == a.to_matrix() * b.to_matrix()


def test_closed_form_matches_matrices():
    # products and inverses by the group law agree with the matrix route
    rng = random.Random(17)
    for _ in range(200):
        a, b = rand_cusp(rng), rand_cusp(rng)
        assert (a * b).to_matrix() == a.to_matrix() * b.to_matrix()
        assert a.inverse().to_matrix() == a.to_matrix().inverse()


def _tower_point(rng, tw):
    h = from_zsu(
        KNum(Fraction(rng.randint(-9, 9), 4), Fraction(rng.randint(-9, 9), 4)),
        Fraction(rng.randint(-9, 9), 4),
        Fraction(rng.randint(0, 9), 4),
    )
    if tw is None:
        return h
    g = zeta_of(tw)
    # shift by a real, an imaginary and a positive real element of the field
    real = g + g.conj()
    return HoroPoint(h.z + real, sub(h.ti + g, g.conj()), h.u + real * real)


@pytest.mark.parametrize("field", ["K", "zeta3", "zeta7"])
def test_act_horo_matches_matrices(field):
    tw = {"K": None, "zeta3": zeta3_tower(), "zeta7": zeta7_tower()}[field]
    rng = random.Random(23)
    for _ in range(10):
        c, h = rand_cusp(rng, 2), _tower_point(rng, tw)
        got = act_horo(c, h)
        want = horo_coords(mat_apply(c.to_matrix().mat, lift(h)))
        assert vec_key(got) == vec_key(want)
        assert [type(x) for x in (got.z, got.ti, got.u)] == [type(x) for x in (h.z, h.ti, h.u)]


def test_outside_lattice_raises():
    # s0 - (m - m n) must be even
    with pytest.raises(ValueError):
        CuspElt._from_translation(1, 0, 0, 0)
    with pytest.raises(ValueError):
        CuspElt._from_translation(0, 0, 1, 1)
    assert CuspElt._from_translation(1, 0, 1, 0) == T1
    with pytest.raises(ValueError):
        CuspElt(eps=2)


def test_cusp_action_consistency():
    rng = random.Random(13)
    for _ in range(40):
        c = CuspElt(rng.randint(-2, 2), rng.randint(-2, 2), rng.randint(0, 1), rng.randint(-2, 2))
        p = rand_pt(rng)
        via_mat = horo_coords(mat_apply(c.to_matrix().mat, lift(p)))
        assert act_horo(c, p) == via_mat


def _in_prism_at(z, ti):
    """in_prism at the boundary point (z, t), through its lifted vector."""
    return in_prism(prism_coordinates(vector_rep(lift(HoroPoint(z, ti, KNum(0))))))


def test_prism_membership():
    assert Prism.membership(TAU / 2, KNum(0)) == ("boundary", ("a=0", "s=0"))
    assert Prism.membership(KNum(Fraction(1, 4), Fraction(1, 4)), from_zsu(0, 1).ti)[0] == "interior"
    assert Prism.membership(TAU, from_zsu(0, Fraction(9, 7)).ti) == ("boundary", ("a=0", "a+b=1"))
    assert Prism.membership(KNum(2), KNum(0))[0] == "outside"
    assert Prism.membership(KNum(0), from_zsu(0, -1).ti)[0] == "outside"
    state, facets = Prism.membership(KNum(0), from_zsu(0, 2).ti)
    assert state == "boundary" and "s=2" in facets
    # the int test on the vector agrees with the reference at each example
    assert _in_prism_at(TAU / 2, KNum(0))
    assert _in_prism_at(KNum(Fraction(1, 4), Fraction(1, 4)), from_zsu(0, 1).ti)
    assert _in_prism_at(TAU, from_zsu(0, Fraction(9, 7)).ti)
    assert not _in_prism_at(KNum(2), KNum(0))
    assert not _in_prism_at(KNum(0), from_zsu(0, -1).ti)
    assert _in_prism_at(KNum(0), from_zsu(0, 2).ti)


def _prism_reals(x):
    """The real coordinates (a, b, s) that prism coordinates x stand for:
    KNums for ints, and AlgNums for a tower point's real ints."""
    a, b, s, den = x
    return tuple(KNum(Fraction(y, den)) for y in (a, b, s)) if type(a) is int else alg_prism(x)[:3]


def _grid_points(r):
    """HoroPoints with a, b and s/2 on and around integers and every facet
    of P, r a small real step (a rational KNum, or an irrational real
    AlgNum); every other one lies above the boundary."""
    coords = (-1, 0, KNum(Fraction(1, 2)), 1, r, sub(1, r), 1 + r, neg(r))
    grid = [(a, b, s) for a in coords for b in coords for s in (-2, 0, 1, 2, 4, r, sub(2, r), 2 + r)]
    return [HoroPoint(a + b * TAU, ISQRT7 * s, KNum(Fraction(i % 2, 3))) for i, (a, b, s) in enumerate(grid)]


def _check_against_reference(v, overlaps=()):
    """The prism coordinates of v, the in-prism test, prism reduction and
    the action of the given cusp elements against the HoroPoint reference;
    returns the reducing element, after checking that a second pass keeps
    the reduced point."""
    h = horo_coords(v)
    x = prism_coordinates(vector_rep(v))
    a, b = tau_coordinates(h.z)
    assert vec_key(_prism_reals(x)) == vec_key((a, b, s_coordinate(h.ti)))
    assert in_prism(x) == Prism.contains(h.z, h.ti)
    ref, p = horo_reduce_to_prism(h)
    c = reduce_to_prism(x)
    assert c == ref
    assert vec_key(_prism_reals(act_prism(c, x))) == vec_key(tau_coordinates(p.z) + (s_coordinate(p.ti),))
    assert in_prism(act_prism(c, x)) and reduce_to_prism(act_prism(c, x)) == IDENTITY
    for e in overlaps:
        q = act_horo(e, h)
        assert in_prism(act_prism(e, x)) == Prism.contains(q.z, q.ti)
    return c


def test_reduce_examples():
    _check_against_reference(lift(from_zsu(KNum(2, 3), 5)))
    assert _check_against_reference(lift(from_zsu(TAU / 2, Fraction(1, 2)))) == IDENTITY
    _check_against_reference(lift(from_zsu(KNum(-1), -1)))


def test_reduce_random_roundtrip():
    rng = random.Random(21)
    for _ in range(60):
        _check_against_reference(lift(rand_pt(rng)))


def test_reduce_algebraic_point():
    # interior point with coordinates in K(zeta3), shifted out of the prism
    tw = zeta3_tower()
    h = from_zsu(TAU / 2, Fraction(1, 2), 1)
    hl = HoroPoint(
        alg_lift(tw, h.z), alg_lift(tw, h.ti), alg_lift(tw, KNum(1))
    )
    shifted = act_horo(CuspElt(3, -2, 1, 1), hl)
    red = act_horo(_check_against_reference(lift(shifted)), shifted)
    # the reduced point is the original one (it was in P)
    assert sub(red.z, hl.z).is_zero() and sub(red.ti, hl.ti).is_zero()


@pytest.mark.parametrize("field", ["K", "zeta3", "zeta7"])
def test_prism_coordinates_match_the_reference(field):
    # the coordinates read off a vector, the cusp action on them, the
    # in-prism test and prism reduction against horo_coords, act_horo,
    # Prism.contains and the HoroPoint reduction: on points on and around
    # every facet and integral a, b and s/2, where the floors tie, each
    # lifted and scaled, and on random vectors; the cusp overlaps act on
    # the points in P
    overlaps = enumerate_cusp_overlaps()
    if field == "K":
        r, scales = KNum(Fraction(1, 8)), [KNum(1), KNum(2, 1), KNum(Fraction(-3, 5), 1)]
    else:
        g = zeta_of(zeta3_tower() if field == "zeta3" else zeta7_tower())
        # (g - conj g) i sqrt(7) is real and irrational, near 4.5
        r, scales = div(sub(g, g.conj()) * ISQRT7, 16), [KNum(1), g, sub(2, g * g)]
    points = _grid_points(r)
    kinds, facets = zip(*(Prism.membership(h.z, h.ti) for h in points))
    assert set(kinds) == {"interior", "boundary", "outside"}
    assert set().union(*facets) == set(Prism.FACETS)
    for i, (h, kind) in enumerate(zip(points, kinds)):
        v = lift(h)
        _check_against_reference(tuple(scales[i % 3] * y for y in v),
                                 overlaps if kind != "outside" and i % 3 == 0 else ())
    if field != "K":
        return
    rng = random.Random(61)
    tried = 0
    while tried < 300:
        v = tuple(KNum(rng.randint(-6, 6), rng.randint(-6, 6)) for _ in range(3))
        if v[2].is_zero() or sq_norm(v).real_sign() > 0:
            continue
        tried += 1
        _check_against_reference(v, overlaps[tried % 7::7])


@pytest.mark.parametrize("field", ["K", "zeta3", "zeta7"])
def test_prism_coordinates_refuse_q_inf_and_positive_vectors(field):
    one = KNum(1) if field == "K" else alg_lift(zeta3_tower() if field == "zeta3" else zeta7_tower(), 1)
    zero = one * 0
    for v, message in (((one, zero, zero), "point at infinity has no horospherical coordinates"),
                       ((one, one, zero), "vector has positive square norm"),
                       ((one, zero, one), "vector has positive square norm")):
        with pytest.raises(ValueError, match=message):
            prism_coordinates(vector_rep(v))
        with pytest.raises(ValueError, match=message):
            horo_coords(v)
    if field == "K":
        return
    # the vectors above are K-rational, so their reps are six ints; (1, 0,
    # +-zeta) with <v, v> = +-2 Re(zeta) > 0 is a tower point, refused on
    # its field ints
    z = zeta_of(zeta3_tower() if field == "zeta3" else zeta7_tower())
    v = (one, zero, neg(z) if field == "zeta3" else z)
    rep = vector_rep(v)
    assert type(rep[0]) is tuple
    with pytest.raises(ValueError, match="vector has positive square norm"):
        prism_coordinates(rep)
    with pytest.raises(ValueError, match="vector has positive square norm"):
        horo_coords(v)
    # a tower vector with v3 = 0 has no tower rep: every such point but
    # q_inf is positive, and q_inf is K-rational
    v = (one, z, zero)
    with pytest.raises(ValueError, match="a tower point needs v3 != 0"):
        vector_rep(v)
    with pytest.raises(ValueError, match="vector has positive square norm"):
        horo_coords(v)


@pytest.mark.parametrize("field", ["zeta3", "zeta7"])
def test_prism_coordinates_refuse_knum_coordinates(field):
    # prism coordinates take a ProjPoint's rep: six ints, or a tower
    # point's field ints (f1, f2, den).  A vector of AlgNums, with a KNum
    # beside them in any place or not, or a vector of KNums, raises
    # TypeError at entry
    tw = zeta3_tower() if field == "zeta3" else zeta7_tower()
    g = zeta_of(tw)
    v = (sub(div(g * g.conj(), -2), 3), g, alg_lift(tw, 1))
    assert vec_key(alg_prism(prism_coordinates(vector_rep(v)))) == vec_key(ref_prism_coordinates(v))
    for i in range(3):
        mixed = v[:i] + (KNum(1),) + v[i + 1:]
        with pytest.raises(TypeError, match="a ProjPoint's rep"):
            prism_coordinates(mixed)
    for w in (v, (KNum(-2), KNum(0), KNum(1))):
        with pytest.raises(TypeError, match="a ProjPoint's rep"):
            prism_coordinates(w)


def fm_feasible(constraints, nvars):
    """Feasibility of {sum c_i x_i <= d}: exact Fourier-Motzkin elimination."""
    cons = [([Fraction(c) for c in cs], Fraction(d)) for cs, d in constraints]
    for var in range(nvars - 1, -1, -1):
        lower, upper, rest = [], [], []
        for cs, d in cons:
            c = cs[var]
            if c > 0:
                upper.append(([x / c for x in cs[:var]], d / c))
            elif c < 0:
                lower.append(([x / -c for x in cs[:var]], d / -c))
            else:
                rest.append((cs[:var], d))
        for lo_cs, lo_d in lower:
            for up_cs, up_d in upper:
                # -x <= lo_d - lo_cs . y  and  x <= up_d - up_cs . y
                rest.append(([l + u for l, u in zip(lo_cs, up_cs)], lo_d + up_d))
        cons = rest
    return all(d >= 0 for _, d in cons)


def fm_cusp_overlaps():
    """Reference derivation of the cusp overlaps: a 3-D feasibility test in
    (a, b, s) for every (m, n, eps, l) in a box wider than any overlap."""
    out = []
    for m in range(-3, 4):
        for n in range(-3, 4):
            for eps in (0, 1):
                sign = -1 if eps else 1
                cons2 = _overlap_constraints(m, n, sign)
                c0, ca, cb = _cross_coeffs(KNum(m, n))
                for l in range(-4, 5):
                    # s in [0, 2] and s' = s + sh0 + sa*a + sb*b in [0, 2]
                    sh0 = m - m * n + 2 * l + sign * c0
                    sa, sb = sign * ca, sign * cb
                    cons3 = [((c1, c2, 0), d) for (c1, c2), d in cons2]
                    cons3 += [((0, 0, -1), 0), ((0, 0, 1), 2)]
                    cons3 += [((-sa, -sb, -1), sh0), ((sa, sb, 1), 2 - sh0)]
                    if fm_feasible(cons3, 3):
                        out.append(CuspElt(m, n, eps, l))
    return tuple(out)


def test_cusp_overlaps_match_feasibility_reference():
    assert enumerate_cusp_overlaps() == fm_cusp_overlaps()


def test_overlap_vertices_match_fraction_reference():
    # the int vertices and the t-shift n a - m b at them are the Fraction
    # derivation's, in the same order
    for m in range(-3, 4):
        for n in range(-3, 4):
            for sign in (1, -1):
                verts = _overlap_vertices(m, n, sign)
                assert all(type(x) is int and type(y) is int for x, y in verts)
                assert verts == polygon_vertices(_overlap_constraints(m, n, sign))
                c0, ca, cb = _cross_coeffs(KNum(m, n))
                assert [n * x - m * y for x, y in verts] == [c0 + ca * x + cb * y for x, y in verts]


def test_overlap_vertices_refuse_a_fractional_vertex(monkeypatch):
    # with a normal outside {+-(1, 0), +-(0, 1), +-(1, 1)} a vertex can be
    # fractional, and the int derivation must refuse it
    import picard7.heisenberg as heisenberg

    monkeypatch.setattr(heisenberg, "_TRI", (((-1, 0), 0), ((0, -1), 0), ((2, 1), 1)))
    with pytest.raises(ArithmeticError, match="not an int point"):
        _overlap_vertices(0, 0, 1)


def test_fm_feasible():
    # x <= 1, -x <= -2 infeasible; x <= 3, -x <= 0 feasible
    assert not fm_feasible([((1,), 1), ((-1,), -2)], 1)
    assert fm_feasible([((1,), 3), ((-1,), 0)], 1)
    assert fm_feasible([((1, 1), 1), ((-1, 0), 0), ((0, -1), 0)], 2)


def test_cusp_overlaps():
    ov = enumerate_cusp_overlaps()
    assert IDENTITY in ov
    assert R in ov
    assert CuspElt(0, 1, 1, 0) in ov  # Ttau R
    # every overlap has an exact witness point
    for c in ov:
        assert overlap_witness(c) is not None
    # the torsion subset is exactly the five conjugates/products of R
    torsion = {c for c in ov if c.order() == 2}
    expected = {R, T1 * R * T1.inverse(), TTAU * R * TTAU.inverse(), TTAU * R, T1 * TTAU * R}
    assert torsion == expected
    assert len(torsion) == 5


def test_cusp_overlaps_are_derived_once():
    ov = enumerate_cusp_overlaps()
    assert isinstance(ov, tuple) and len(ov) == 34
    assert enumerate_cusp_overlaps() is ov
    # the cached result is the exact derivation, run afresh
    assert ov == enumerate_cusp_overlaps.__wrapped__()


def test_overlaps_keeping_on_seeded_int_coordinates():
    # small denominators put many images on a facet of P, s' = 2 den too;
    # a draw outside P is refused
    rng = random.Random(61)
    ties = 0
    inside = 0
    for _ in range(400):
        den = rng.randint(1, 4)
        x = tuple(rng.randint(-den, 2 * den) for _ in range(2)) + (rng.randint(-2 * den, 4 * den), den)
        if not in_prism(x):
            with pytest.raises(ValueError, match="needs a point in the prism"):
                overlaps_keeping(x)
            continue
        inside += 1
        got = overlaps_keeping(x)
        assert got == ref_overlaps_keeping(x)
        ties += sum(act_prism(c, x)[2] == 2 * den for c in got)
    assert ties > 0 and 0 < inside < 400


def test_cusp_overlaps_translate_range():
    # cross-check the translation parts in the alternate normal form
    # T1^j Ttau^k (T1 Ttau R)^eps Tv^l: -1 <= j, k, j+k <= 1 and -1 <= l <= 1
    flip = T1 * TTAU * R
    for c in enumerate_cusp_overlaps():
        j, k = c.m - c.eps, c.n - c.eps
        sign = -1 if c.eps else 1
        degenerate = len(set(polygon_vertices(_overlap_constraints(c.m, c.n, sign)))) <= 2
        rest = (CuspElt(m=j) * CuspElt(n=k) * (flip if c.eps else IDENTITY)).inverse() * c
        assert (rest.m, rest.n, rest.eps) == (0, 0, 0)
        if not degenerate:
            assert -1 <= j <= 1 and -1 <= k <= 1 and -1 <= j + k <= 1
            assert -1 <= rest.l <= 1
        # triangles touching only in a vertex or edge can fall outside the
        # printed ranges (e.g. the half-turn R itself has j = k = -1)


def test_cusp_torsion():
    # the order of T(w, t0) R for w in {0, 1, tau, 1 + tau}, over vertical corrections
    orders = {
        (m, n): {l: CuspElt(m, n, 1, l).order() for l in range(-2, 3)}
        for m, n in ((0, 0), (1, 0), (0, 1), (1, 1))
    }
    # R, Ttau R and T1 Ttau R are involutions
    assert orders[0, 0][0] == orders[0, 1][0] == orders[1, 1][0] == 2
    # the T1 R family contains no torsion at all: its square is a nonzero
    # vertical translation for every vertical correction
    assert all(v is None for v in orders[1, 0].values())
    sq = (T1 * R) * (T1 * R)
    assert sq == TV

    classes = cusp_torsion_classes()
    assert len(classes) == 3
    assert all((g * g).is_identity() for g in classes)
