import random
from fractions import Fraction

import pytest

from picard7 import hermitian
from picard7.ring import ISQRT7, KNum, TAU, TAU_BAR, ZERO, ZETA3, ZETA7
from picard7.hermitian import (
    GroupElt,
    Mat,
    ProjPoint,
    _apply_ints,
    _tower_apply,
    herm_inner,
    is_in_gamma,
    mat_from_json,
    mat_to_json,
    primitive_rep,
    sq_norm,
)
from picard7.heisenberg import prism_coordinates
from reference import (
    _kernel_basis,
    sub,
    alg_in_k,
    alg_ints,
    alg_lift,
    alg_pow,
    depth,
    depth_witness,
    eigenspace_basis,
    first_column,
    from_zsu,
    horo_coords,
    lift,
    lifted,
    mat_apply,
    mat_charpoly,
    mat_det,
    mat_neg,
    mat_product,
    mat_trace,
    point_of,
    realizable_depths,
    ref_primitive_rep,
    scaled_alg,
    vec_key,
    vector_rep,
    zeta_of,
)

ID = Mat([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
A1 = Mat([[0, 0, 1], [0, -1, 0], [1, 0, 0]])
A2 = Mat(
    [
        [KNum(2), -TAU, KNum(1, -3)],
        [TAU_BAR, KNum(0), KNum(-2) - TAU],
        [-TAU, KNum(-1), KNum(-3) + TAU],
    ]
)
A6 = Mat([[ISQRT7, 0, 4], [0, 1, 0], [2, 0, -ISQRT7]])
A9 = Mat([[-1, 0, ISQRT7], [0, 1, 0], [ISQRT7, 0, 6]])


def rand_vec(rng):
    return tuple(KNum(rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(3))


def test_form_is_hermitian():
    rng = random.Random(1)
    for _ in range(50):
        v, w = rand_vec(rng), rand_vec(rng)
        assert herm_inner(v, w) == herm_inner(w, v).conj()
        assert sq_norm(v) == sq_norm(v).conj()


def test_gamma_membership():
    for m in (A1, A2, A6, A9):
        assert is_in_gamma(m)
    assert not is_in_gamma(Mat([[1, 1, 0], [0, 1, 0], [0, 0, 1]]))
    # M* J M differs from J in one entry, tau, whose 1-coordinate is 0
    assert not is_in_gamma(Mat([[1, 0, -1], [0, 1, TAU], [0, 0, 1]]))
    # non-integral entries fail even if unitary
    assert not is_in_gamma(Mat([[KNum(Fraction(1, 2)), 0, 0], [0, 1, 0], [0, 0, 2]]))


def test_inner_product_invariance():
    rng = random.Random(2)
    for m in (A1, A2, A6):
        g = GroupElt(m)
        for _ in range(20):
            v, w = rand_vec(rng), rand_vec(rng)
            assert herm_inner(mat_apply(g.mat, v), mat_apply(g.mat, w)) == herm_inner(v, w)


def test_matrix_algebra():
    assert (A1 * A1) == ID
    c0, c1, c2, c3 = mat_charpoly(A1)
    # A1 has eigenvalues 1, -1, -1: (x-1)(x+1)^2 = x^3 + x^2 - x - 1
    assert (c0, c1, c2, c3) == (KNum(-1), KNum(-1), KNum(1), KNum(1))


def test_charpoly_matches_the_k_reference():
    # the cofactor expansion over K has the closed form the trace table of
    # torsion.projective_order rests on: x^3 - t x^2 + d conj(t) x - d, for
    # t = tr g and d = det g = +/-1 (g^-1 = J g* J has trace conj(t)), on
    # the 14 side pairings, every torsion class representative and random words
    from picard7.ford import GENERATORS
    from picard7.torsion import enumerate_torsion

    reps = [c.rep for c in enumerate_torsion()]
    words = [g for g, _ in _random_words(31, 100)]
    for g in list(GENERATORS.values()) + reps + words:
        t, d = mat_trace(g.mat), mat_det(g.mat)
        assert d in (1, -1)
        assert mat_charpoly(g.mat) == (-d, d * t.conj(), -t, KNum(1))
    assert len(GENERATORS) == 14 and len(reps) == 12


def _rand_k(rng):
    # denominators up to 6, so most entries are not integral
    return KNum(Fraction(rng.randint(-20, 20), rng.randint(1, 6)),
                Fraction(rng.randint(-20, 20), rng.randint(1, 6)))


def test_int_matrix_kernel_matches_generic_path():
    # Mat products over the common denominators against KNum sums, and the
    # int action on the six ints of a K^3 vector against the same sums over
    # g.mat: directly on an integral vector, and through its ProjPoint on a
    # vector with denominators
    rng = random.Random(11)
    words = _random_words(13, 200)
    for g, _ in words:
        a = Mat([[_rand_k(rng) for _ in range(3)] for _ in range(3)])
        b = Mat([[_rand_k(rng) for _ in range(3)] for _ in range(3)])
        v = tuple(_rand_k(rng) for _ in range(3))
        assert (a * b).rows == mat_product(a, b)
        assert (a * g.mat).rows == mat_product(a, g.mat)
        w = rand_vec(rng)
        assert _apply_ints(g.ints, vector_rep(w)) == vector_rep(mat_apply(g.mat, w))
        if not all(x.is_zero() for x in v):
            assert ProjPoint(v).moved(g.ints) == ProjPoint(mat_apply(g.mat, v))


def test_mat_refuses_algnum_entries():
    z = zeta_of(ZETA3)
    with pytest.raises(TypeError, match="cannot coerce"):
        Mat([[z, 1, 0], [0, z * z, TAU], [KNum(Fraction(1, 2)), 0, z + 1]])
    # an AlgNum that lies in K is refused too: a matrix holds KNums only
    with pytest.raises(TypeError, match="cannot coerce"):
        Mat([[alg_lift(ZETA3, 2), 0, 0], [0, 1, 0], [0, 0, 1]])


def test_tower_vectors_move_by_the_k_kernel_per_power(monkeypatch):
    # a matrix over K moves the K-coefficients of each power of zeta on its
    # own: the int kernel runs once per power, and a tower point moves to
    # the point of the entrywise product
    import picard7.hermitian as hermitian

    calls = []
    kernel = hermitian._apply_ints
    monkeypatch.setattr(hermitian, "_apply_ints", lambda t, v: calls.append(v) or kernel(t, v))
    for tw in (ZETA3, ZETA7):
        z = zeta_of(tw)
        for v in ((z, KNum(1), TAU), (z * z, z + 1, KNum(Fraction(1, 2))), (z, sub(z * 3, TAU), z * z * z)):
            v = scaled_alg(lifted(v))
            for m in (A2, A6):
                g = GroupElt(m)
                calls.clear()
                assert _tower_apply(g.ints, tuple(map(alg_ints, v))) == tuple(map(alg_ints, mat_apply(g.mat, v)))
                assert len(calls) == tw.degree
                assert point_of(v).moved(g.ints) == point_of(mat_apply(g.mat, v))
        # a tower point has v3 != 0: a vector with v3 = 0 is refused, and so
        # is a move that takes v3 to 0
        with pytest.raises(ValueError, match="v3 != 0"):
            point_of((z, KNum(1), KNum(0)))
        p = point_of((KNum(0), z, KNum(1)))
        with pytest.raises(ValueError, match="v3 != 0"):
            p.moved(GroupElt(A1).ints)
        assert p.moved(hermitian.ID_INTS) == p


@pytest.mark.parametrize("tw", [ZETA3, ZETA7], ids=["zeta3_tower", "zeta7_tower"])
def test_tower_apply_matches_the_entrywise_sum(tw):
    # the int rows F_k, tau F_k of a tower vector over one denominator
    # against the sum of the KNum entries' AlgNum products, on seeded words
    # and vectors with denominators, some of whose coordinates lie in K
    rng = random.Random(83)
    z = zeta_of(tw)
    mixed = 0
    for g, _ in _random_words(29, 60):
        v = [_rand_k(rng) for _ in range(3)]
        for i in rng.sample(range(3), rng.randint(1, 3)):
            v[i] = sum((_rand_k(rng) * alg_pow(z, k) for k in range(tw.degree)), start=alg_lift(tw, 0))
        v = scaled_alg(lifted(v))
        mixed += any(alg_in_k(x) for x in v)
        assert _tower_apply(g.ints, tuple(map(alg_ints, v))) == tuple(map(alg_ints, mat_apply(g.mat, v)))
    assert mixed > 0


def test_group_inverse_is_j_conj_transpose_j():
    from picard7.ford import GENERATORS
    from picard7.heisenberg import R, T1, TTAU, TV

    letters = list(GENERATORS.values()) + [c.to_matrix() for c in (T1, TTAU, TV, R)]
    rng = random.Random(12)
    words = []
    for _ in range(40):
        g = GroupElt.identity()
        for _ in range(rng.randint(1, 5)):
            g = g * rng.choice(letters)
        words.append(g)
    for g in letters + words:
        inv = g.inverse()
        # the inverse is unique, and GroupElt keeps one of +/- it
        assert g.mat * inv.mat in (ID, mat_neg(ID))
        assert (g * inv).mat == ID and (inv * g).mat == ID
        assert is_in_gamma(inv.mat)
        assert inv.word == tuple((name, -e) for name, e in reversed(g.word))


def _random_words(seed, count):
    """(g, m) for seeded random words in A_1..A_14 and the cusp letters: g
    the GroupElt product, m the product of the letters' matrices over K.
    Every other word is followed by its inverse, letter by letter, so it
    multiplies out to +/- the identity."""
    from picard7.ford import GENERATORS
    from picard7.heisenberg import R, T1, TTAU, TV

    cusp = [c.to_matrix() for c in (T1, TTAU, TV, R)]
    letters = list(GENERATORS.values()) + cusp + [c.inverse() for c in cusp]
    rng = random.Random(seed)
    out = []
    for k in range(count):
        word = [rng.choice(letters) for _ in range(rng.randint(1, 6))]
        if k % 2:
            word += [x.inverse() for x in reversed(word)]
        g, m = GroupElt.identity(), ID
        for x in word:
            g, m = g * x, m * x.mat
        out.append((g, m))
    return out


def _leads_positive(m: Mat) -> bool:
    lead = next(x for r in m.rows for x in r if not x.is_zero())
    return (lead.na, lead.nb) > (0, 0)


def test_int_products_match_mat_products():
    # the product, inverse, sign rule and identity test on the 18 ints,
    # against products of the letters' matrices over K
    identities = 0
    for g, m in _random_words(21, 200):
        assert g.mat in (m, mat_neg(m)) and _leads_positive(g.mat)
        assert GroupElt(m) == g and hash(GroupElt(m)) == hash(g)
        inv = g.inverse()
        assert inv.mat * m in (ID, mat_neg(ID)) and _leads_positive(inv.mat)
        assert g.is_identity() == (m in (ID, mat_neg(ID)))
        identities += g.is_identity()
    assert 100 <= identities < 200


def test_int_action_matches_mat_action():
    # a rational point's image is the int product with its sign normalized
    rng = random.Random(22)
    words = _random_words(21, 200)
    for g, m in words:
        v = rand_vec(rng)
        if all(x.is_zero() for x in v):
            continue
        p = ProjPoint(v)
        assert p.moved(g.ints) == ProjPoint(mat_apply(m, p.coords))
    # a point with tower coordinates takes the tower path on its ints
    z = zeta_of(ZETA3)
    t = point_of((z, KNum(1), TAU))
    for g, m in words[:10]:
        assert t.moved(g.ints) == point_of(mat_apply(m, t.coords))


def test_group_elt_refuses_non_integral_matrices():
    half = Mat([[KNum(Fraction(1, 2)), 0, 0], [0, 1, 0], [0, 0, 2]])
    with pytest.raises(ArithmeticError, match="not integral"):
        GroupElt(half)


def test_rank_and_kernel():
    # the reference elimination under eigenspace_basis, on a matrix of rank 2 outside Gamma
    m = Mat([[1, 2, 3], [2, 4, 6], [0, 0, 1]])
    kernel = _kernel_basis(m.rows)
    assert len(kernel) == 1  # rank 2
    v = kernel[0]
    assert all(x.is_zero() for x in mat_apply(m, v))
    assert eigenspace_basis(GroupElt(A2), ZERO) == []  # rank 3


def test_eigenspaces():
    g = GroupElt(A1)
    assert len(eigenspace_basis(g, KNum(1))) == 1
    assert len(eigenspace_basis(g, KNum(-1))) == 2
    assert eigenspace_basis(g, KNum(5)) == []
    for lam in (KNum(1), KNum(-1)):
        for v in eigenspace_basis(g, lam):
            img = mat_apply(A1, v)
            assert all((img[i] - lam * v[i]).is_zero() for i in range(3))


def test_primitive_rep():
    v = primitive_rep((KNum(Fraction(2, 3)), KNum(0), KNum(Fraction(4, 3))))
    assert v == (KNum(1), KNum(0), KNum(2))
    # sign canonicalization kills the overall unit
    assert primitive_rep((KNum(-2), KNum(0), KNum(-4))) == (KNum(1), KNum(0), KNum(2))
    assert ProjPoint((TAU * 3, KNum(3), KNum(0))) == ProjPoint((TAU, KNum(1), KNum(0)))


def test_depths_of_generator_columns():
    for m, d in ((A1, 1), (A2, 2), (A6, 4), (A9, 7)):
        p = ProjPoint(tuple(m.rows[i][0] for i in range(3)))
        assert p.sq_norm_sign() == 0
        assert depth(p) == d
    with pytest.raises(ValueError):
        depth(ProjPoint((KNum(1), KNum(0), KNum(0))))


def test_horospherical_examples():
    # the point (-conj(tau), 0, 1) sits at z = 0, t = sqrt(7), u = 1
    h = horo_coords((-TAU_BAR, KNum(0), KNum(1)))
    assert h == from_zsu(0, 1, 1)
    assert h.s == 1 and h.u == 1
    # its prism coordinates: z = 0 and t = sqrt(7), over den = N(1)
    assert prism_coordinates(vector_rep((-TAU_BAR, KNum(0), KNum(1)))) == (0, 0, 1, 1)
    # boundary point (0, sqrt(7)) lifts to a null vector
    b = from_zsu(0, 1, 0)
    assert ProjPoint(lift(b)).sq_norm_sign() == 0


def test_horo_roundtrip_random():
    rng = random.Random(3)
    for _ in range(50):
        h = from_zsu(
            KNum(Fraction(rng.randint(-9, 9), 4), Fraction(rng.randint(-9, 9), 4)),
            Fraction(rng.randint(-9, 9), 3),
            Fraction(rng.randint(0, 9), 2),
        )
        assert horo_coords(lift(h)) == h
        # the prism coordinates of the lift are h's z and s
        a, b, s, den = prism_coordinates(vector_rep(lift(h)))
        assert (KNum(Fraction(a, den), Fraction(b, den)), Fraction(s, den)) == (h.z, h.s)


def test_horo_rejects_positive_points():
    for f in (horo_coords, lambda v: prism_coordinates(vector_rep(v))):
        with pytest.raises(ValueError, match="positive square norm"):
            f((KNum(1), KNum(0), KNum(1)))  # <v,v> = 2 > 0
        with pytest.raises(ValueError, match="point at infinity"):
            f((KNum(1), KNum(0), KNum(0)))  # q_inf


def test_group_elt_projectivization():
    g = GroupElt(A2)
    gneg = GroupElt(mat_neg(A2))
    assert g == gneg and hash(g) == hash(gneg)
    assert (g * g.inverse()).is_identity()
    assert (GroupElt(A1) ** 2).is_identity()
    # A6's first entry is i*sqrt(7) = -1 + 2*tau, negative in the ring order,
    # so the canonical representative is -A6
    assert first_column(GroupElt(A6)) == (-ISQRT7, KNum(0), KNum(-2))
    with pytest.raises(ValueError):
        GroupElt(Mat([[1, 1, 0], [0, 1, 0], [0, 0, 1]]))


def test_algebraic_projpoint():
    # ProjPoint takes KNums only; a vector of AlgNums is a point through its
    # ints (`point_of` scales them to one den for ProjPoint.of_tower)
    tw = ZETA3
    z = zeta_of(tw)
    one = alg_lift(tw, KNum(1))
    with pytest.raises(TypeError, match="three KNums"):
        ProjPoint((z, one, one))
    p = point_of((z, one, one))
    q = point_of((z * 2, one * 2, one * 2))
    assert p == q and not p.rational
    assert p.rep == ((0, 0, 1, 0), (1, 0, 0, 0), 1)
    assert vec_key(p.coords) == vec_key((z, one, one))
    # an AlgNum vector that is secretly K-rational canonicalizes to KNum form
    r = point_of((one * 2, one * 4, one * 6))
    assert r.rational and r.coords == (KNum(1), KNum(2), KNum(3))


@pytest.mark.parametrize("tw", [ZETA3, ZETA7], ids=["zeta3", "zeta7"])
def test_tower_vector_rational_up_to_scale_is_rational(tw):
    # (zeta tau, 2 zeta, zeta) is projectively (tau, 2, 1): it is tested for
    # K-rationality after its lead is divided out
    z = zeta_of(tw)
    p = point_of((z * TAU, z * 2, z))
    q = ProjPoint((TAU, KNum(2), KNum(1)))
    assert p.rational and p == q and hash(p) == hash(q)
    assert p.rep == (0, 1, 2, 0, 1, 0)
    with pytest.raises(ValueError, match="zero vector"):
        point_of((z * 0, z * 0, z * 0))


@pytest.mark.parametrize("tw", [ZETA3, ZETA7], ids=["zeta3", "zeta7"])
def test_projpoint_refuses_a_mixed_vector(tw):
    # a ProjPoint's coordinates are three KNums: an AlgNum among them, in
    # any place, raises TypeError, where the vector with its KNums lifted
    # into the field is a tower point, built on its ints
    z = zeta_of(tw)
    one = alg_lift(z.tower, 1)
    v = (z * TAU, z + 1, z)
    for i in range(3):
        mixed = v[:i] + (KNum(1),) + v[i + 1:]
        with pytest.raises(TypeError, match="three KNums"):
            ProjPoint(mixed)
        assert not point_of(mixed).rational
        assert point_of(mixed) == point_of(v[:i] + (one,) + v[i + 1:])
    # the int constructor refuses v3 = 0, and its rep has one positive den
    # that shares no factor with the ints
    f = tuple(map(alg_ints, scaled_alg(v)))
    with pytest.raises(ValueError, match="v3 != 0"):
        ProjPoint.of_tower((f[0], f[1], (0,) * len(f[0])))
    for lam in (-1, 2, -6):
        p = ProjPoint.of_tower(tuple(tuple(lam * x for x in c) for c in f))
        assert p == point_of(v) and p.rep[2] > 0


def test_rational_point_is_its_six_ints(monkeypatch):
    rng = random.Random(24)
    words = _random_words(25, 40)
    points, images = [], []
    for _ in range(200):
        v = tuple(KNum(Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
                       Fraction(rng.randint(-9, 9), rng.randint(1, 4))) for _ in range(3))
        if all(x.is_zero() for x in v):
            continue
        p, w = ProjPoint(v), primitive_rep(v)
        assert w == ref_primitive_rep(v)
        assert p.rational and p.rep == tuple(n for x in w for n in (x.na, x.nb))
        assert p.coords == w
        g, m = words[len(points) % len(words)]
        points.append(p)
        images.append((g, ProjPoint(mat_apply(m, w))))

    # the image of a rational point is formed on its ints: no KNum is built
    def refused(*args):
        raise RuntimeError("a KNum was built")

    monkeypatch.setattr(hermitian, "knum_from_ints", refused)
    assert [p.moved(g.ints) for p, (g, _) in zip(points, images)] == [q for _, q in images]
    monkeypatch.undo()
    # the order of points is the order of their (a, b) pairs
    assert sorted(points) == sorted(points, key=lambda q: tuple((x.na, x.nb) for x in q.coords))


def test_mat_json_roundtrip():
    data = mat_to_json(A2)
    assert mat_from_json(data) == A2


def test_elements_of_norm():
    from picard7.hermitian import elements_of_norm

    assert elements_of_norm(1) == [KNum(-1), KNum(1)]
    assert set(elements_of_norm(2)) == {TAU, -TAU, TAU_BAR, -TAU_BAR}
    assert elements_of_norm(3) == [] and elements_of_norm(5) == []
    assert all(x.norm() == 7 for x in elements_of_norm(7))


def test_depth_witnesses():
    from picard7.hermitian import elements_of_norm

    # every certified depth is a norm of the ring of integers, and the small
    # non-norms admit no certificate at all
    ds = realizable_depths(12)
    assert set(ds) <= {n for n in range(1, 13) if elements_of_norm(n)}
    assert all(depth_witness(d) is None for d in (3, 5, 6, 10, 12))
    w = depth_witness(8)
    assert w is not None and w.sq_norm_sign() == 0 and depth(w) == 8
