import ast
import random
from math import gcd
import sys
from types import SimpleNamespace

import pytest

from picard7.ring import ISQRT7, TAU, KNum, TAU_BAR, _alg, knum_from_ints, real_field, zeta3_tower, zeta7_tower
from picard7.hermitian import GroupElt, Mat, ProjPoint, ints_inverse, ints_product, mat_ints, sq_norm, sq_norm_ints
from picard7.heisenberg import (
    BRACKET,
    IDENTITY,
    CuspElt,
    cusp_torsion_classes,
    R,
    T1,
    TTAU,
    TV,
    act_prism,
    enumerate_cusp_overlaps,
    in_prism,
    overlaps_keeping,
    prism_coordinates,
    prism_grid,
    reduce_to_prism,
)
from picard7.ford import GENERATORS, INVERSE_PAIRS, enumerate_tjk, reduce_to_domain, spheres_containing
from picard7.mirror import mirror_l_generators
from picard7.presentation import abcd, torsion_word_rows
from picard7 import ford, heisenberg, hermitian, mirror, ring, torsion
from picard7.torsion import (
    ClosureError,
    FiniteGroup,
    build_cycle_graph,
    classify_elliptic,
    dedup_isolated,
    enumerate_torsion,
    make_reflection,
    orbit_walk,
    projective_order,
    reflection_conjugacy,
    reflection_polar,
    stabilizer,
    walk_element,
    _orbit_ball,
    _search_alphabet,
)
from reference import (
    alg_eq,
    alg_in_k,
    alg_ints,
    alg_k_part,
    alg_key,
    algnum_bracket,
    ref_prism_coordinates,
    alg_of_real,
    alg_prism,
    algnum_act_prism,
    alg_floor,
    div,
    neg,
    sub,
    HoroPoint,
    Prism,
    _is_mirror,
    _repeated_eigenvalue,
    _simple_eigenpoint,
    act_horo,
    alg_pow,
    algnum_in_prism,
    algnum_overlaps_keeping,
    algnum_reduce_to_prism,
    eigenspace_basis,
    fixes_q_inf,
    horo_coords,
    lift,
    mat_apply,
    mat_charpoly,
    mat_product,
    rat,
    ref_projective_order,
    ref_cycle_graph,
    ref_eigenvector,
    ref_moves,
    ref_overlaps_keeping,
    ref_involution_axis,
    ref_reflection_polar,
    ref_spanning_transports,
    ref_stabilizer_gens,
    point_of,
    scaled_alg,
    tjk_in_box,
    vec_key,
    vector_rep,
    zeta_of,
)
from reference import RefFiniteGroup, ref_make_reflection, ref_primitive_rep, s_coordinate, tau_coordinates
from test_ford import K_FIXED_POINTS, tower_fixed_points
from test_heisenberg import _prism_reals
from test_hygiene import MODULES, bound_names

V1 = ProjPoint((-TAU_BAR, KNum(0), KNum(1)))


def test_projective_order():
    t1m, rm = T1.to_matrix(), R.to_matrix()
    assert projective_order(rm) == 2
    assert projective_order(GENERATORS[1]) == 2
    assert projective_order(GENERATORS[1] * rm * t1m) == 7
    assert projective_order(GENERATORS[2]) == 7
    assert projective_order(t1m) is None
    assert projective_order(GroupElt.identity()) == 1


def test_infinite_order_sweep():
    # elements reported infinite stay away from +/-Id for 126 products, far
    # past 7, the largest order of the trace table; T1 and Tv have the trace
    # 3 of the identity, and the power check refutes that order
    for g in (T1.to_matrix(), TV.to_matrix(), GENERATORS[2] * T1.to_matrix()):
        assert projective_order(g) is None
        p = g
        for _ in range(126):
            assert not p.is_identity()
            p = p * g


def _poly_divmod(p, m):
    """(q, r) with p = q m + r over K, deg r < deg m: lists of KNums, low
    degree first, with no zero leading coefficient."""
    r, q = list(p), [KNum(0)] * max(len(p) - len(m) + 1, 0)
    while len(r) >= len(m):
        f, shift = r[-1] / m[-1], len(r) - len(m)
        q[shift] = f
        r = [c - f * m[i - shift] if i >= shift else c for i, c in enumerate(r)][:-1]
        while r and r[-1].is_zero():
            r.pop()
    return q, r


def _radical(p):
    """The squarefree part p / gcd(p, p') of a polynomial over K."""
    a, b = p, [i * c for i, c in enumerate(p)][1:]
    while b:
        a, b = b, _poly_divmod(a, b)[1]
    return _poly_divmod(p, a)[0]


def test_trace_table_is_derived_exactly():
    # For g in U(J, O_7) with t = tr g and d = det g = +/-1, the
    # characteristic polynomial is p = x^3 - t x^2 + d conj(t) x - d
    # (test_charpoly_matches_the_k_reference).  A finite-order g is
    # diagonalizable, so g^n = +/-Id exactly when rad(p) divides x^n -+ 1,
    # and its eigenvalues have modulus 1, so |t|^2 <= 9.  Over every such t
    # in O_7 and both d, the least n with rad(p) | x^n -+ 1 are the orders
    # the table keeps for +/-t, and a t outside the table has no such n.
    # n up to 14 suffices: a root of rad(p) | x^n -+ 1 is a root of unity
    # of degree at most 3 over K = Q(sqrt(-7)).  Of order m, it has degree
    # phi(m) over Q, halved over K when K lies in Q(zeta_m), that is when
    # 7 | m: that leaves m in {1, 2, 3, 4, 6} (phi(m) <= 2) and m in {7, 14}
    # (phi(m) = 6).  A root of order 7 or 14 brings its two conjugates over
    # K, of its order, so rad(p) divides x^12 - 1 or x^14 - 1.
    found = {}
    ts = [(a, b) for a in range(-4, 5) for b in range(-2, 3) if a * a + a * b + 2 * b * b <= 9]
    assert len(ts) == 25 and max(abs(a) for a, _ in ts) == 3 and max(abs(b) for _, b in ts) == 2
    for a, b in ts:
        t = KNum(a, b)
        for d in (1, -1):
            rad = _radical([KNum(-d), d * t.conj(), -t, KNum(1)])
            power = [KNum(1)]  # x^n mod rad(p)
            for n in range(1, 15):
                power = _poly_divmod([KNum(0)] + power, rad)[1]
                if power in ([KNum(1)], [KNum(-1)]):
                    key = (a, b) if (a, b) >= (0, 0) else (-a, -b)
                    found.setdefault(key, set()).add(n)
                    break
    assert found == {key: set(orders) for key, orders in torsion._ORDERS_BY_TRACE.items()}


def test_projective_order_matches_the_product_loop():
    # the trace table and the power check against g, g^2, ..., g^18 on the
    # 396 translates alpha A_j, the cusp torsion, the word-table rows, every
    # element of the isolated classes' stabilizers, the generators of
    # mirror L's stabilizer, T1, Tv, the A_j and seeded random words
    translates = [alpha.to_matrix() * GENERATORS[j] for j in sorted(GENERATORS)
                  for alpha in enumerate_tjk(j, INVERSE_PAIRS[j])]
    assert len(translates) == 396
    rows = [g for row in torsion_word_rows()
            for g in [row["elt"], row["other"][1]] + [alt for _, alt in row["alt"]]]
    stabs = {c.fixed: c.stab for c in enumerate_torsion() if c.kind == "isolated"}
    elts = sorted((g for st in stabs.values() for g in st.elements), key=lambda g: g.ints)
    mirror = mirror_l_generators()
    cusp = [c.to_matrix() for c in (T1, TTAU, TV, R)]
    rng = random.Random(38)
    words = []
    for _ in range(200):
        w = rng.choice(list(GENERATORS.values()))
        for _ in range(rng.randint(0, 3)):
            w = rng.choice(list(GENERATORS.values())) * rng.choice(cusp) * w
        words.append(w)
    seen = set()
    for g in (translates + list(cusp_torsion_classes()) + rows + elts + [mirror["s1"], mirror["s2"]]
              + [T1.to_matrix(), TV.to_matrix()] + list(GENERATORS.values()) + words):
        n = projective_order(g)
        assert n == ref_projective_order(g)
        seen.add(n)
    assert seen == {None, 1, 2, 3, 4, 6, 7}


def _eigenvector_calls(monkeypatch):
    """The candidates classify_elliptic tries through torsion._eigenvectors,
    recorded as (g's ints, lam, field, answer) as each answer is taken,
    field None for K and else the tower."""
    eigenvectors = torsion._eigenvectors
    calls = []

    def spy(t, cross, lams, lift, mul):
        lams = list(lams)
        field = None if lift is torsion._k_lift else lift.__self__
        for lam, v in zip(lams, eigenvectors(t, cross, lams, lift, mul)):
            calls.append((t, lam, field, v))
            yield v

    monkeypatch.setattr(torsion, "_eigenvectors", spy)
    return calls


def _eigenvector(t, lam, lift, mul):
    """torsion._eigenvectors at the one candidate lam."""
    (v,) = torsion._eigenvectors(t, {}, [lam], lift, mul)
    return v


def _number(field, f):
    """The ints f of a number of field (None for K, or a tower) as a KNum or an AlgNum."""
    return knum_from_ints(*f) if field is None else _alg(field, f, 1)


def test_tower_candidates_hold_the_fixed_point_eigenvalue(monkeypatch):
    # a fixed point outside K^3 is the eigenvector of one of the tower
    # candidates e z^k that classify_elliptic tries, on the tower's ints,
    # after +/-1, on int pairs: its eigenvalue lam has lam^n = e for
    # g^n = e Id; on the enumeration's candidates and the word-table rows
    calls = _eigenvector_calls(monkeypatch)
    elts = list(torsion._torsion_candidates().items()) + [(row["elt"], row["order"]) for row in torsion_word_rows()]
    towers = 0
    for g, n in elts:
        calls.clear()
        _, pt, _ = classify_elliptic(g, n)
        if pt.rational:
            continue
        assert [lam for _, lam, field, _ in calls[:2]] == [(1, 0), (-1, 0)]
        assert all(field is None for _, _, field, _ in calls[:2])
        tried = [_number(field, lam) for _, lam, field, _ in calls[2:]]
        assert all(len(lam) == 2 * field.degree for _, lam, field, _ in calls[2:])
        # a point outside K^3 ends in v3 = 1, so its eigenvalue is (g v)_3
        image = mat_apply(g.mat, pt.coords)
        assert point_of(image) == pt and alg_key(image[2]) in map(alg_key, tried)
        power = g.mat.rows  # g^n = e Id, on the matrix that g.mat shows
        for _ in range(n - 1):
            power = mat_product(Mat(power), g.mat)
        assert power[0][0] in (1, -1) and alg_eq(alg_pow(image[2], n), power[0][0])
        towers += 1
    assert towers > 0


def test_repeated_eigenvalue():
    assert _repeated_eigenvalue(mat_charpoly(R.to_matrix().mat)) == 1
    assert _repeated_eigenvalue(mat_charpoly(GENERATORS[1].mat)) == -1
    assert _repeated_eigenvalue(mat_charpoly(GENERATORS[4].mat)) is None  # order 7
    # two matrices outside Gamma
    assert _repeated_eigenvalue(mat_charpoly(Mat([[2, 1, 0], [0, 2, 0], [5, 0, 3]]))) == 2
    assert _repeated_eigenvalue(mat_charpoly(Mat([[2, 0, 0], [1, 3, 0], [0, 4, 3]]))) == 3
    with pytest.raises(ArithmeticError):
        _repeated_eigenvalue(mat_charpoly(GroupElt.identity().mat))


def test_classify_elliptic_accepts_exactly_the_projective_order():
    # classify_elliptic checks a stated n as projective_order(g) == n (the
    # trace table, then g^n = +/-Id by squaring and g^(n/q) != +/-Id for
    # each prime q dividing n): over the 65 candidates of the enumeration
    # and every word-table row, each n in 0..19 is accepted exactly when it
    # is the order
    cands = list(torsion._torsion_candidates())
    assert len(cands) == 65
    for g in cands + [row["elt"] for row in torsion_word_rows()]:
        order = projective_order(g)
        assert order is not None
        for n in range(20):
            if n == order:
                assert classify_elliptic(g, n)[0] in ("reflection", "isolated")
            else:
                with pytest.raises(ValueError, match="stated order"):
                    classify_elliptic(g, n)


def test_make_reflection_matches_the_knum_formula():
    # the 18 ints written directly against the KNum formula, matrix and
    # word: on the four polars of mirror L, (0, 1, 0) and (1, 0, 1); a polar
    # of norm 3 is refused by both
    polars = [
        (KNum(1), KNum(1), TAU_BAR),
        (-ISQRT7, TAU, KNum(2)),
        (ISQRT7, TAU, KNum(2)),
        (KNum(0), KNum(1), TAU_BAR),
        (KNum(0), KNum(1), KNum(0)),
        (KNum(1), KNum(0), KNum(1)),
    ]
    for v in polars:
        got, want = make_reflection(v), ref_make_reflection(v)
        assert got.ints == want.ints and got.word == want.word
    # a multiple of a polar gives the same reflection and word
    assert make_reflection((KNum(2), KNum(2), 2 * TAU_BAR)).word == make_reflection(polars[0]).word
    for f in (make_reflection, ref_make_reflection):
        with pytest.raises(ValueError, match="polar norm"):
            f((KNum(1), KNum(1), KNum(1)))


def test_make_reflection():
    assert make_reflection((KNum(0), KNum(1), KNum(0))).mat == R.to_matrix().mat
    assert make_reflection((KNum(1), KNum(0), KNum(1))) == GENERATORS[1]
    r1 = make_reflection((KNum(1), KNum(1), TAU_BAR))
    assert projective_order(r1) == 2
    polar, norm = reflection_polar(r1)
    assert polar == ProjPoint((KNum(1), KNum(1), TAU_BAR)) and norm == 2
    with pytest.raises(ValueError):
        make_reflection((KNum(1), KNum(1), KNum(1)))  # <v,v> = 3


def test_classify_reflections():
    assert classify_elliptic(R.to_matrix(), 2) == (
        "reflection", ProjPoint((KNum(0), KNum(1), KNum(0))), 1,
    )
    assert classify_elliptic(GENERATORS[1], 2) == (
        "reflection", ProjPoint((KNum(1), KNum(0), KNum(1))), 2,
    )
    with pytest.raises(ValueError):
        classify_elliptic(R.to_matrix(), 3)


def test_classify_isolated_rational():
    t1m, rm = T1.to_matrix(), R.to_matrix()
    kind, pt, norm = classify_elliptic(GENERATORS[1] * rm, 2)
    assert (kind, pt, norm) == ("isolated", ProjPoint((KNum(-1), KNum(0), KNum(1))), -2)
    g4 = GENERATORS[1] * t1m.inverse() * rm * t1m
    kind, pt, norm = classify_elliptic(g4, 4)
    assert (kind, pt, norm) == ("isolated", ProjPoint((KNum(-1), KNum(-1), KNum(1))), -1)
    # the stored point is fixed exactly
    assert pt.apply(g4) == pt


def test_classify_isolated_algebraic():
    g7 = GENERATORS[1] * R.to_matrix() * T1.to_matrix()
    kind, pt, norm = classify_elliptic(g7, 7)
    assert kind == "isolated" and norm is None
    assert not pt.rational
    assert sq_norm(pt.coords).real_sign() < 0
    assert point_of(mat_apply(g7.mat, pt.coords)) == pt


def test_classify_takes_kernels_only_at_eigenvalues(monkeypatch):
    # a candidate root of unity that is no eigenvalue gives None, so each
    # cross product classify_elliptic keeps is a nonzero eigenvector
    calls = _eigenvector_calls(monkeypatch)
    gens = abcd()
    g7 = GENERATORS[1] * R.to_matrix() * T1.to_matrix()
    for g, n in ((gens["a"], 7), (gens["c"], 6), (g7, 7), (GENERATORS[1] * R.to_matrix(), 2)):
        assert classify_elliptic(g, n)[0] == "isolated"
    assert any(v is None for *_, v in calls)
    assert {field is None for *_, field, v in calls if v is not None} == {True, False}
    for t, lam, field, v in calls:
        if v is None:
            continue
        lam, v = _number(field, lam), tuple(_number(field, f) for f in v)
        assert not all(x.is_zero() for x in v)
        assert all(sub(y, lam * x).is_zero() for x, y in zip(v, mat_apply(GroupElt.from_ints(t).mat, v)))


def test_classify_forms_the_cross_products_once_per_element(monkeypatch):
    # an element whose fixed point lies outside K^3 tries +/-1 in K, then
    # the tower candidates: both passes read one dict of g's int-pair cross
    # products, so each row triple's pairs are formed once (six int
    # products), and only the lifts into each field repeat
    eigenvectors, mul_ints = torsion._eigenvectors, torsion._mul_ints
    dicts, formed = [], []

    def spy(t, cross, lams, lift, mul):
        dicts.append(cross)
        return eigenvectors(t, cross, lams, lift, mul)

    def counted(*args):
        if sys._getframe(1).f_code.co_name == "_eigenvectors":
            formed.append(args)
        return mul_ints(*args)

    monkeypatch.setattr(torsion, "_eigenvectors", spy)
    monkeypatch.setattr(torsion, "_mul_ints", counted)
    gens = abcd()
    mti = GENERATORS[6] * TV.to_matrix() * GENERATORS[1]
    for g, n in ((gens["a"], 7), (gens["c"], 6), (gens["b"] * gens["a"] * gens["b"] * gens["a"], 3), (mti, 6)):
        dicts.clear()
        formed.clear()
        _, pt, _ = classify_elliptic(g, n)
        assert not pt.rational
        assert len(dicts) == 2 and dicts[0] is dicts[1]
        assert len(formed) == 6 * len(dicts[0]) > 0


def _matches_the_reference(m: Mat, lam, field, v) -> bool:
    """Whether v, torsion._eigenvectors' answer for the matrix m at lam,
    spans a kernel: it is None exactly where the KNum-row reference cross
    product is, where the reference elimination finds no kernel and the
    reference characteristic polynomial does not vanish, and otherwise
    spans the same line as both."""
    lam = _number(field, lam)
    want = ref_eigenvector(m.rows, lam)
    c0, c1, c2, _ = mat_charpoly(m)
    assert (v is None) == (want is None) == (not (((lam + c2) * lam + c1) * lam + c0).is_zero())
    kernel = eigenspace_basis(SimpleNamespace(mat=m), lam)
    if v is None:
        assert kernel == []
        return False
    (basis,) = kernel
    assert point_of(tuple(_number(field, f) for f in v)) == point_of(want) == point_of(basis)
    return True


def test_eigenvector_matches_the_reference_kernel(monkeypatch):
    # at every eigenvalue candidate classify_elliptic tries, +/-1 and the
    # tower roots of unity alike, on the enumeration's candidates, seeded
    # conjugates of them, the word-table rows and the presentation's a and
    # c, the int cross product agrees with the reference kernel, and so it
    # does on a rank-2 matrix outside Gamma
    calls = _eigenvector_calls(monkeypatch)
    cands = sorted(torsion._torsion_candidates().items(), key=lambda t: t[0].ints)
    assert len(cands) == 65
    rng = random.Random(37)
    letters = _search_alphabet()
    conjugates = []
    for g, n in rng.sample(cands, 12):
        h = rng.choice(letters) * rng.choice(letters) * rng.choice(letters)
        conjugates.append((h * g * h.inverse(), n))
    gens = abcd()
    for g, n in (cands + conjugates + [(row["elt"], row["order"]) for row in torsion_word_rows()]
                 + [(gens["a"], 7), (gens["c"], 6)]):
        classify_elliptic(g, n)
    assert len(calls) > len(cands)
    hits = {True: [], False: []}
    for t, lam, field, v in calls:
        hits[field is None].append(_matches_the_reference(GroupElt.from_ints(t).mat, lam, field, v))
    for found in hits.values():
        assert 0 < sum(found) < len(found)
    # a rank-2 matrix outside Gamma, whose first two rows are dependent, at
    # its three simple eigenvalues, and at 2 and zeta_3, which are none
    m = Mat([[1, 2, 3], [2, 4, 6], [0, 0, 1]])
    for lam in (0, 1, 5, 2):
        v = _eigenvector(mat_ints(m), (lam, 0), torsion._k_lift, torsion._k_mul)
        assert _matches_the_reference(m, (lam, 0), None, v) == (lam != 2)
    tw = zeta3_tower()
    v = _eigenvector(mat_ints(m), tw.zeta, tw.lift, tw.mul)
    assert not _matches_the_reference(m, tw.zeta, tw, v)


def test_mirror_is_a_positive_simple_eigenvector():
    # a finite-order g with a repeated eigenvalue lam is a reflection exactly
    # when the simple eigenvector p has <p, p> > 0, that is when the
    # reference Gram determinant of the lam-plane is negative; checked on the
    # repeated-eigenvalue candidates and on every element of the isolated
    # classes' stabilizers
    repeated = [g for g in torsion._torsion_candidates() if _repeated_eigenvalue(mat_charpoly(g.mat)) is not None]
    assert len(repeated) == 11
    stabs = {c.fixed: c.stab for c in enumerate_torsion() if c.kind == "isolated"}
    elts = sorted((g for s in stabs.values() for g in s.elements if not g.is_identity()), key=lambda g: g.ints)
    signs = []
    for g in repeated + elts:
        charpoly = mat_charpoly(g.mat)
        lam = _repeated_eigenvalue(charpoly)
        if lam is None:
            continue
        assert len(eigenspace_basis(g, lam)) == 2
        simple = -charpoly[2] - 2 * lam  # +/-1
        v = _eigenvector(g.ints, (simple.na, simple.nb), torsion._k_lift, torsion._k_mul)
        norm = sq_norm_ints(v[0] + v[1] + v[2])
        assert norm != 0
        sign = 1 if norm > 0 else -1
        assert (sign > 0) == _is_mirror(g, lam) == (reflection_polar(g) is not None)
        signs.append(sign)
    assert 1 in signs and -1 in signs


def test_involution_test_matches_the_eigenvalue_reference():
    # reflection_polar and classify_elliptic read an involution off g^2 = I
    # and a column of I - tr(g) g; on elements of finite order they agree
    # with the repeated-eigenvalue reference: every element other than 1 of
    # every isolated class's stabilizer, the enumeration's candidates and
    # the word-table rows.  Every involution among them has the reference's
    # (kind, point, norm), and no other element has a repeated eigenvalue.
    # The identity is no reflection (the reference has no repeated
    # eigenvalue to read there)
    assert reflection_polar(GroupElt.identity()) is None
    stabs = {c.fixed: c.stab for c in enumerate_torsion() if c.kind == "isolated"}
    elts = [g for s in stabs.values() for g in s.elements if not g.is_identity()]
    cands = list(torsion._torsion_candidates())
    assert len(cands) == 65
    rows = [g for row in torsion_word_rows()
            for g in [row["elt"], row["other"][1]] + [alt for _, alt in row["alt"]]]
    found = {True: 0, False: 0}
    kinds = {"reflection": 0, "isolated": 0, None: 0}
    for g in elts + cands + rows:
        got = reflection_polar(g)
        assert got == ref_reflection_polar(g)
        found[got is None] += 1
        charpoly = mat_charpoly(g.mat)
        if projective_order(g) != 2:
            assert _repeated_eigenvalue(charpoly) is None
            kinds[None] += 1
            continue
        p, norm = _simple_eigenpoint(g, charpoly, _repeated_eigenvalue(charpoly))
        kind = "reflection" if norm.real_sign() > 0 else "isolated"
        assert classify_elliptic(g, 2) == (kind, p, int(rat(norm)))
        kinds[kind] += 1
    assert found[True] and found[False]
    assert all(kinds.values()), kinds


def test_involution_test_refuses_infinite_order_words():
    # seeded words in the side pairings and cusp letters: on those of finite
    # order both paths agree, and those of infinite order fail g^2 = I.  The
    # reference assumes finite order: it gives None on most of them too,
    # but raises on a unipotent word (a triple eigenvalue)
    rng = random.Random(71)
    cusp = [c.to_matrix() for c in (T1, TTAU, TV, R)]
    cusp += [c.inverse() for c in cusp]
    pairs = list(GENERATORS.values())
    seen = {"finite": 0, "none": 0, "raises": 0}
    for _ in range(300):
        w = rng.choice(pairs)
        for _ in range(rng.randint(0, 3)):
            w = rng.choice(pairs) * rng.choice(cusp) * w
        got = reflection_polar(w)
        if projective_order(w) is not None:
            assert got == ref_reflection_polar(w)
            seen["finite"] += 1
            continue
        assert got is None
        try:
            assert ref_reflection_polar(w) is None
            seen["none"] += 1
        except ArithmeticError as e:
            assert "triple eigenvalue" in str(e)
            seen["raises"] += 1
    assert all(seen.values()), seen
    # R Tv is ellipto-parabolic: its repeated eigenvalue 1 has one
    # eigenvector, and the reference reads the positive eigenline of -1 as
    # a polar; it is not an involution
    w = R.to_matrix() * TV.to_matrix()
    assert projective_order(w) is None and len(eigenspace_basis(w, KNum(1))) == 1
    assert ref_reflection_polar(w) == (ProjPoint((KNum(0), KNum(1), KNum(0))), 1)
    assert reflection_polar(w) is None


def test_tjk_basics():
    t11 = enumerate_tjk(1, 1)
    assert CuspElt() in t11
    assert CuspElt(m=1) in t11  # yields the class of the v1 stabilizer element
    with pytest.raises(ValueError):
        enumerate_tjk(1, 2)


@pytest.mark.parametrize("j,k", sorted(INVERSE_PAIRS.items()))
def test_tjk_superset_against_larger_box(j, k):
    # the Fraction distance filter over |m|, |l| <= 10 and |n| <= 7, which
    # refuses a survivor on its box's edge, finds the same translates, in
    # the same order
    assert enumerate_tjk(j, k) == tjk_in_box(j, k, 10, 7, 10)


def test_tjk_runs_no_cusp_action():
    # the windows and the distance test run on the centers' ints, and the
    # package keeps no horospherical layer to build a translated center in:
    # no module binds one of its names (the towers' lift methods, which
    # take an element of K into the field, are another thing)
    sizes = [len(enumerate_tjk(j, INVERSE_PAIRS[j])) for j in sorted(GENERATORS)]
    assert all(sizes) and sum(sizes) == 396
    gone = {"HoroPoint", "horo_coords", "lift", "act_horo", "tau_coordinates", "s_coordinate", "Prism"}
    bound = sorted((path.name, name) for path in MODULES for name in bound_names(ast.parse(path.read_text()).body))
    assert [(m, n) for m, n in bound if n in gone or n.rsplit(".", 1)[-1] in gone - {"lift"}] == []


def test_orbit_walk_order_depth_and_cap():
    step = lambda x, g: x + g
    assert list(orbit_walk([0, 0, 5], [1], step, depth=2)) == [
        (0, None, None), (5, None, None), (1, 0, 1), (6, 5, 1), (2, 1, 1), (7, 6, 1),
    ]
    assert [x for x, _, _ in orbit_walk([0], [1, -1], step, depth=1)] == [0, 1, -1]
    assert len(list(orbit_walk([0], [1], step, cap=5, depth=4))) == 5
    with pytest.raises(ClosureError):
        list(orbit_walk([0], [1], step, cap=5))


def _reference_ball(start, depth):
    """The ball as it was built before the Schreier tree: one product per point."""
    seen = {start: GroupElt.identity()}
    frontier = [start]
    for _ in range(depth):
        new = []
        for p in frontier:
            for g in _search_alphabet():
                q = p.apply(g)
                if q not in seen:
                    seen[q] = g * seen[p]
                    new.append(q)
        frontier = new
    return seen


def test_orbit_ball_rebuilds_the_stored_products():
    start = reflection_polar(GENERATORS[1])[0]
    ball, ref = _orbit_ball(start, 2), _reference_ball(start, 2)
    assert list(ball) == list(ref)
    for q, g in ref.items():
        w = walk_element(ball, q)
        assert w.mat == g.mat and w.word == g.word
        assert q.apply(w.inverse()) == start


def test_reflection_conjugacy_known_pairs():
    t1m, rm = T1.to_matrix(), R.to_matrix()
    i = GENERATORS[1]
    ttau_r = (TTAU * R).to_matrix()
    t1_ttau_r = (T1 * TTAU * R).to_matrix()
    # the conjugator (T1 R)^2 T1^-1 = Tv T1^-1 is a cusp element and cannot
    # move Ttau R out of the cusp stabilizer; (T1 I)^2 T1^-1 does the job
    c1 = (t1m * i) ** 2 * t1m.inverse()
    assert c1 * ttau_r * c1.inverse() == i
    c2 = t1m * i * t1m.inverse() * i.inverse()
    assert c2 * ttau_r * c2.inverse() == t1_ttau_r
    # conjugating R by T1 I T1^-1 produces the reflection with the diagonal
    # entries i*sqrt(7), -1, -i*sqrt(7)
    c3 = t1m * i * t1m.inverse()
    lhs = GroupElt(Mat([[ISQRT7, 0, 4], [0, -1, 0], [2, 0, -ISQRT7]]))
    assert c3 * rm * c3.inverse() == lhs
    # the search finds witnesses of its own
    for a, b in ((ttau_r, i), (ttau_r, t1_ttau_r), (i, t1_ttau_r)):
        d = reflection_conjugacy(a, b)
        assert d is not None and d * a * d.inverse() == b
    # R vs I differ in polar norm: rejected without search
    assert reflection_conjugacy(rm, i) is None
    with pytest.raises(ValueError):
        reflection_conjugacy(rm, t1m * i)  # second argument not a reflection


def test_reflection_conjugacy_builds_each_ball_once(monkeypatch):
    import picard7.torsion as torsion

    walks = []
    exact = torsion.orbit_walk

    def counted(starts, *args):
        walks.append(tuple(starts))
        return exact(starts, *args)

    monkeypatch.setattr(torsion, "orbit_walk", counted)
    _orbit_ball.cache_clear()
    a, b = (TTAU * R).to_matrix(), GENERATORS[1]
    first = reflection_conjugacy(a, b)
    assert first is not None and reflection_conjugacy(a, b) == first
    # one walk from each polar; the second call reads the same two balls
    assert sorted(walks, key=repr) == sorted(
        [(reflection_polar(a)[0],), (reflection_polar(b)[0],)], key=repr
    )


def test_finite_group_closure(monkeypatch):
    fg = FiniteGroup([R.to_matrix()])
    assert (fg.linear_order, fg.projective_order, fg.scalar_order) == (4, 2, 2)
    # the walk holds one element per pair +/-M, so it stops at half the cap
    walks = []
    monkeypatch.setattr(torsion, "orbit_walk", lambda *args, **kw: walks.append(kw["cap"]) or orbit_walk(*args, **kw))
    monkeypatch.setattr(torsion, "CLOSURE_CAP", 50)
    with pytest.raises(ClosureError):
        FiniteGroup([T1.to_matrix()])
    assert walks == [25]
    # exactly one walked element, 1, is scalar
    monkeypatch.setattr(torsion, "ints_are_scalar", lambda t: True)
    with pytest.raises(ArithmeticError, match="scalar other than"):
        FiniteGroup([R.to_matrix()])


def _command_stabilizers(monkeypatch):
    """(group, generators) of every stabilizer the commands close: the 7 of
    `enumerate_torsion`, the 3 of `verify_mirror_R`, and those of the five
    K-rational fixed points moved by seeded words and reduced into Omega."""
    built = []

    class Recorded(FiniteGroup):
        def __init__(self, gens):
            super().__init__(gens)
            built.append((self, list(gens)))

    monkeypatch.setattr(torsion, "FiniteGroup", Recorded)
    torsion.enumerate_torsion.__wrapped__()
    mirror.verify_mirror_R.__wrapped__()
    assert len(built) == 10
    rng = random.Random(89)
    letters = list(GENERATORS.values()) + [T1.to_matrix(), TTAU.to_matrix(), R.to_matrix()]
    for f in K_FIXED_POINTS:
        w = GroupElt.identity()
        for _ in range(3):
            w = rng.choice(letters) * w
        _, y = reduce_to_domain(point_of(mat_apply(w.mat, f)))
        stabilizer(y, build_cycle_graph([y]))
    assert len(built) == 15
    return built


def test_stabilizers_match_the_linear_closure(monkeypatch):
    # the projective walk gives what the walk of the linear group from
    # +/-Id gives, with the reflections of the repeated-eigenvalue
    # reference, for every stabilizer the commands close
    orders = set()
    for st, gens in _command_stabilizers(monkeypatch):
        ref = RefFiniteGroup(gens)
        for name in ("linear_order", "scalar_order", "projective_order", "elements", "reflections",
                     "one_lines", "two_lines", "two_line_orbits"):
            assert getattr(st, name) == getattr(ref, name), name
        orders.add(st.projective_order)
    assert len(orders) > 3


def test_trace_first_involution_test_matches_the_square_only_reference(monkeypatch):
    # an involution other than +/-Id has the trace +/-1, so reading the
    # trace first drops no axis: every element of every stabilizer the
    # commands close, and every alpha A_j the candidate sweeps form
    elts = {g for st, _ in _command_stabilizers(monkeypatch) for g in st.elements}
    for j in sorted(GENERATORS):
        a = GENERATORS[j]
        elts |= {GroupElt.from_ints(ints_product(alpha.ints, a.ints)) for alpha in enumerate_tjk(j, INVERSE_PAIRS[j])}
    squares = []
    exact = torsion.ints_product
    monkeypatch.setattr(torsion, "ints_product", lambda x, y: squares.append(x) or exact(x, y))
    seen = {"axis": 0, "square refused": 0, "trace refused": 0}
    for g in elts:
        squares.clear()
        got = torsion._involution_axis(g)
        assert got == ref_involution_axis(g)
        seen["axis" if got is not None else "square refused" if squares else "trace refused"] += 1
    assert all(seen.values()), seen
    assert seen["trace refused"] > seen["axis"] + seen["square refused"]


def test_axis_points_match_the_gcd_path(monkeypatch):
    # an axis point divides by the O_7 gcd on int pairs and takes the sign
    # rule (ProjPoint.of_ints): the primitive representative of the KNum
    # reference, for every vector the commands' classifications,
    # stabilizers and points pass, and for seeded vectors scaled by
    # elements of O_7 of norm above 1
    cols = []
    exact = ProjPoint.of_ints
    monkeypatch.setattr(ProjPoint, "of_ints", staticmethod(lambda t: cols.append(tuple(t)) or exact(t)))
    _command_stabilizers(monkeypatch)
    assert cols
    rng = random.Random(97)
    for _ in range(300):
        v = [(rng.randint(-9, 9), rng.randint(-9, 9)) if rng.random() < 0.8 else (0, 0) for _ in range(3)]
        c = (rng.randint(-4, 4), rng.randint(-4, 4))
        cols.append(tuple(x for p in v for x in hermitian._mul_ints(*p, *c)))
    unit = 0
    for col in cols:
        if not any(col):
            continue
        got = exact(col)
        ref = ref_primitive_rep(tuple(map(knum_from_ints, col[0::2], col[1::2])))
        assert got.rep == tuple(n for x in ref for n in (x.na, x.nb))
        unit += got.rep == col or got.rep == tuple(-x for x in col)
    assert 0 < unit < len(cols)
    with pytest.raises(ValueError, match="zero vector"):
        exact((0,) * 6)
    # a wrong gcd leaves an inexact division, which raises
    monkeypatch.setattr(hermitian, "_gcd_ints", lambda a, b, c, e: (2, 0))
    with pytest.raises(ArithmeticError, match="non-integral"):
        exact((2, 0, 0, 1, 0, 0))


def _vertices(graph):
    """The vertices of a cycle graph, orbit by orbit, in the order found."""
    return [q for orbit in graph.values() for q in orbit.transports]


def test_v1_cycle_graph_and_stabilizer():
    graph = build_cycle_graph([V1])
    # the orbit is the triangle v1, v2 = TtauR(v1), v3 = T1R(v1); v3 lies
    # on the top face s = 2, so its Tv-translate on the bottom face shows up
    # as a fourth vertex of the closed prism
    pts = set(_vertices(graph))
    v2 = point_of(mat_apply((TTAU * R).to_matrix().mat, V1.coords))
    v3 = point_of(mat_apply((T1 * R).to_matrix().mat, V1.coords))
    v3b = point_of(mat_apply(TV.inverse().to_matrix().mat, v3.coords))
    assert pts == {V1, v2, v3, v3b}
    stab = stabilizer(V1, graph)
    assert stab.linear_order == 16
    assert stab.projective_order == 8
    assert stab.scalar_order == 2
    assert sorted(n for _, n in stab.reflections) == [1, 1, 2, 2]
    assert R.to_matrix() in stab.elements
    assert GENERATORS[6] in stab.elements


def _moves_at(v):
    """The moves at a cycle-graph vertex as (element, image) pairs, with
    the vertex's prism coordinates read off its vector."""
    return [(GroupElt.from_ints(t), q) for t, q, _, _, _ in torsion._moves(v, prism_coordinates(v.rep), {})]


def test_second_cycle_graph_runs_no_feasibility_test(monkeypatch):
    import picard7.heisenberg as heisenberg

    first = build_cycle_graph([V1])
    moves = [_moves_at(v) for v in _vertices(first)]
    calls = []
    exact = heisenberg._overlap_vertices

    def counted(*args):
        calls.append(args)
        return exact(*args)

    monkeypatch.setattr(heisenberg, "_overlap_vertices", counted)
    assert heisenberg.enumerate_cusp_overlaps.__wrapped__()  # the counter sees a derivation
    assert calls
    calls.clear()
    second = build_cycle_graph([V1])
    assert [_moves_at(v) for v in _vertices(second)] == moves
    assert calls == []
    assert second == first


def _one_point_graph_points():
    """The five K-rational isolated fixed points, the tower fixed points of
    c, a and (ba)^2, and seeded orbit images of them, all reduced into Omega."""
    rng = random.Random(67)
    g = abcd()
    fixed = list(dict.fromkeys(
        c.fixed for c in enumerate_torsion() if c.kind == "isolated" and c.fixed.rational
    ))
    fixed += [classify_elliptic(elt, order)[1] for elt, order in ((g["c"], 6), (g["a"], 7), (g["d"] ** 2, 3))]
    letters = list(GENERATORS.values()) + [T1.to_matrix(), TTAU.to_matrix(), R.to_matrix()]
    points = []
    for f in fixed:
        points.append(reduce_to_domain(f)[1])
        for _ in range(2):
            w = GroupElt.identity()
            for _ in range(3):
                w = rng.choice(letters) * w
            points.append(reduce_to_domain(point_of(mat_apply(w.mat, f.coords)))[1])
    return points


def test_walk_matches_the_edge_list_fixpoint():
    # on one-point graphs the walk's transports are the spanning tree that
    # the edge-list fixpoint grows, and its Schreier generators are the
    # edge composites at the vertices that are prism images, which generate
    # the same stabilizer
    parallel = 0
    for p in _one_point_graph_points():
        graph = build_cycle_graph([p])
        vertices, edges = ref_cycle_graph([p])
        ref = ref_spanning_transports(edges, 0)
        ref_gens = ref_stabilizer_gens(edges, ref)
        assert list(graph[p].transports) == vertices
        assert graph[p].transports == {vertices[i]: t for i, t in ref.items()}
        assert {s.ints for s in graph[p].gens} <= {s.ints for s in ref_gens}
        assert stabilizer(p, graph).elements == FiniteGroup(ref_gens).elements
        pairs = [(src, dst) for src, dst, _ in edges if src != dst]
        parallel += len(pairs) - len(set(pairs))
    # some vertex is found by two moves, so the least-move rule is tested
    assert parallel > 0


def test_schreier_generators_are_distinct_int_products():
    # each orbit keeps each Schreier generator once and never the identity,
    # where the edge composites repeat some
    repeats = 0
    for p in _one_point_graph_points():
        gens = build_cycle_graph([p])[p].gens
        assert len(set(gens)) == len(gens) and not any(g.is_identity() for g in gens)
        _, edges = ref_cycle_graph([p])
        ref_gens = ref_stabilizer_gens(edges, ref_spanning_transports(edges, 0))
        repeats += len(ref_gens) - len(set(ref_gens))
    assert repeats > 0


def test_walk_bases_each_orbit_once():
    # a given point that an earlier walk reached is not a base, and the
    # stabilizer is read at bases only
    graph = build_cycle_graph([V1])
    v2 = next(q for q in graph[V1].transports if q != V1)
    both = build_cycle_graph([V1, v2])
    assert list(both) == [V1] and both == graph
    with pytest.raises(ValueError):
        stabilizer(v2, both)
    t = graph[V1].transports[v2]
    assert V1.apply(t) == v2


def test_isolated_classes_keep_their_own_orbit():
    # the coverage report reads each class's transports: they are the walk
    # from its fixed point, never another base's
    for c in _classes_by("isolated"):
        graph = build_cycle_graph([c.fixed])
        assert c.transports == graph[c.fixed].transports
        assert c.stab.elements == stabilizer(c.fixed, graph).elements


def _classes_by(kind, order=None):
    return [
        c for c in enumerate_torsion()
        if c.kind == kind and (order is None or c.proj_order == order)
    ]


def test_reflection_classes():
    refl = _classes_by("reflection")
    assert len(refl) == 2
    assert sorted(c.polar_norm for c in refl) == [1, 2]
    for c in refl:
        assert c.proj_order == 2
        assert reflection_polar(c.rep)[0] == c.polar


def test_isolated_class_counts():
    assert [len(_classes_by("isolated", n)) for n in (2, 3, 4, 6, 7)] == [3, 3, 2, 1, 1]


def test_isolated_class_invariants():
    rows = {
        (c.proj_order, c.fp_norm, c.stab_order, c.one_lines, c.two_lines,
         tuple(c.two_line_orbits))
        for c in _classes_by("isolated")
    }
    assert rows == {
        (2, -1, 8, 2, 2, (2,)),
        (2, -2, 4, 1, 1, (1,)),
        (2, -2, 8, 0, 4, (2, 2)),
        (3, -3, 6, 0, 3, (3,)),
        (3, None, 6, 1, 0, ()),
        (4, -1, 8, 2, 2, (2,)),
        (4, -2, 8, 0, 4, (2, 2)),
        (6, None, 6, 1, 0, ()),
        (7, None, 7, 0, 0, ()),
    }
    # the order-4 norm -2 class has four 2-lines in two stabilizer orbits
    c4 = next(c for c in _classes_by("isolated", 4) if c.fp_norm == -2)
    assert c4.two_line_orbits == [2, 2]


def _overlap_moves_against_reference(graph, ties):
    """Check the cusp-overlap moves (those whose element fixes q_inf) at
    each vertex of a cycle graph against act_horo and Prism.membership: the
    overlaps c != 1 that keep the vertex in P, in normal-form order.  Adds
    the facets the kept images lie on to ties; returns the number of moves."""
    found = 0
    for v in _vertices(graph):
        h = horo_coords(v.coords)
        want = []
        for c in enumerate_cusp_overlaps():
            hq = act_horo(c, h)
            inside, facets = Prism.membership(hq.z, hq.ti)
            if c != IDENTITY and inside != "outside":
                want.append(c.to_matrix())
                ties.update(facets)
        assert [g for g, _ in _moves_at(v) if fixes_q_inf(g)] == want
        found += len(want)
    return found


def test_int_overlap_test_matches_the_cusp_action():
    # on every vertex of the cycle graphs of the five K-rational isolated
    # fixed points; the kept overlaps tie on every facet of the prism, so
    # each bound is tested at equality
    fixed = list(dict.fromkeys(
        c.fixed for c in enumerate_torsion() if c.kind == "isolated" and c.fixed.rational
    ))
    assert len(fixed) == 5
    ties = set()
    for f in fixed:
        graph = build_cycle_graph([f])
        assert all(v.rational for v in _vertices(graph))
        _overlap_moves_against_reference(graph, ties)
    assert ties == set(Prism.FACETS)


@pytest.mark.parametrize("name,order,moves", [("c", 6, 0), ("a", 7, 1)])
def test_tower_overlap_moves_match_the_cusp_action(name, order, moves):
    # the same on the cycle graphs of the zeta_3 fixed point of c (one
    # vertex, no move) and of the zeta_7 fixed point of a (two vertices,
    # one move), whose coordinates are tower elements
    _, fixed, _ = classify_elliptic(abcd()[name], order)
    graph = build_cycle_graph([fixed])
    assert not any(v.rational for v in _vertices(graph))
    assert _overlap_moves_against_reference(graph, set()) == moves


def test_overlaps_keeping_matches_one_prism_test_per_overlap():
    # by planar part against the comprehension, on every cycle-graph vertex
    # of the five K-rational isolated fixed points and of the tower fixed
    # points of c and a, and on those vertices moved by seeded cusp
    # elements: a point in P gives the comprehension's moves, and one
    # outside P (such as the unreduced tower fixed points) is refused
    rng = random.Random(59)
    fixed = list(dict.fromkeys(
        c.fixed for c in enumerate_torsion() if c.kind == "isolated" and c.fixed.rational
    ))
    fixed += [classify_elliptic(abcd()[name], order)[1] for name, order in (("c", 6), ("a", 7))]
    kept = {True: 0, False: 0}
    placed = {True: 0, False: 0}

    def check(x, rational):
        inside = in_prism(x)
        placed[inside] += 1
        if not inside:
            with pytest.raises(ValueError, match="needs a point in the prism"):
                overlaps_keeping(x)
            return
        got = overlaps_keeping(x)
        assert got == ref_overlaps_keeping(x)
        kept[rational] += len(got)

    for f in fixed:
        for v in _vertices(build_cycle_graph([f])):
            x = prism_coordinates(v.rep)
            check(x, v.rational)
            for _ in range(3):
                c = CuspElt(rng.randint(-2, 2), rng.randint(-2, 2), rng.randint(0, 1), rng.randint(-2, 2))
                check(act_prism(c, x), v.rational)
    # a tower point in P keeps an overlap only on a facet of P, and the
    # tower vertices lie inside: the facet points of both towers stand in
    assert kept[False] == 0
    for x in _tower_facet_points():
        check(x, False)
    # both kinds of point keep some overlap, so both branches decide a move
    assert kept[True] > 0 and kept[False] > 0
    assert placed[True] > 0 and placed[False] > 0


def _tower_facet_points():
    """Prism coordinates of tower points placed exactly on the facets of P,
    five in each tower, at a distance r in (0, 1) of the facets they miss,
    and two more, just below the lines a = 1 and s = 2, by e = r/2^17 <
    2^-16, where the brackets straddle a floor."""
    points = []
    for tw in (zeta3_tower(), zeta7_tower()):
        g = zeta_of(tw)
        r = div(sub(g, g.conj()) * ISQRT7, 16)
        if r.real_sign() < 0:
            r = neg(r)
        assert alg_floor(r) == 0 and not alg_in_k(r)
        e = div(r, 1 << 17)
        for a, b, s in ((0, r, r), (r, 0, r), (r, sub(1, r), r), (r, r, 0), (r, r, 2), (sub(1, e), e, r),
                        (r, r, sub(2, e))):
            x = prism_coordinates(vector_rep(lift(HoroPoint(a + b * TAU, ISQRT7 * s, r * r))))
            assert vec_key(alg_prism(x)) == vec_key((a, b, s, 1))
            points.append(x)
    return points


def _check_tower_int_path(p: ProjPoint):
    """The int path of a tower point p against its AlgNum reference: the
    prism coordinates, their grid, the cusp action, prism reduction, the
    prism and overlap tests, the u' bracket of its sweep, and its moves by
    the reducing cusp element and by a side pairing."""
    x, xa = prism_coordinates(p.rep), ref_prism_coordinates(p.coords)
    assert vec_key(alg_prism(x)) == vec_key(xa)
    assert prism_grid(x) == (tuple(2 * algnum_bracket(y) + 1 for y in xa[:3]) + (2 * BRACKET,), 1)
    c = reduce_to_prism(x)
    assert c == algnum_reduce_to_prism(xa)
    y = act_prism(c, x)
    assert vec_key(alg_prism(y)) == vec_key(algnum_act_prism(c, xa))
    assert in_prism(x) == algnum_in_prism(xa) and in_prism(y)
    assert overlaps_keeping(y) == algnum_overlaps_keeping(alg_prism(y))
    # the swept vector is the point's coordinates times den, on ints
    vs, v = ford._sweep_vector(p.rep)[0], scaled_alg(p.coords)
    assert vs == tuple(map(alg_ints, v))
    scale = alg_k_part(v[2])
    assert ford._height_bracket(vs) == algnum_bracket(div(neg(sq_norm(v)), scale * scale))
    for t in (c.ints, GENERATORS[2].ints):
        q = p.moved(t)
        assert q == point_of(mat_apply(GroupElt.from_ints(t).mat, p.coords))
        assert q.rep[2] > 0 and gcd(q.rep[2], *q.rep[0], *q.rep[1]) == 1


def test_tower_int_path_matches_the_algnum_reference(monkeypatch):
    # at every tower vertex and side image of the torsion enumeration's
    # cycle graph and of mirror R's three graphs, and at every step of the
    # reductions of the tower fixed points of c, (ba)^2 and a and of the
    # enumeration's 20, both towers
    points = [v for cls in enumerate_torsion() if cls.kind == "isolated" for v in cls.transports]
    graphs = []

    def recorded(vertices):
        graphs.append(build_cycle_graph(vertices))
        return graphs[-1]

    monkeypatch.setattr(mirror, "build_cycle_graph", recorded)
    mirror.verify_mirror_R.__wrapped__()
    assert len(graphs) == 3
    points += [v for graph in graphs for v in _vertices(graph)]
    vertices = [v for v in dict.fromkeys(points) if not v.rational]
    sides = [v.moved(ints_inverse(ints_product(alpha.ints, GENERATORS[j].ints)))
             for v in vertices for alpha, j, _ in spheres_containing(v)]
    steps = []
    monkeypatch.setattr(ford, "prism_coordinates", lambda v: steps.append(v) or prism_coordinates(v))
    gens = abcd()
    for g, n in ((gens["c"], 6), (gens["b"] * gens["a"] * gens["b"] * gens["a"], 3), (gens["a"], 7)):
        reduce_to_domain(classify_elliptic(g, n)[1])
    for x, _ in tower_fixed_points():
        reduce_to_domain(x)
    # each recorded rep is a tower ProjPoint's, taken as it is
    steps = [ProjPoint._make((v, False)) for v in steps]
    assert {len(p.rep[0]) for p in vertices} == {len(p.rep[0]) for p in steps} == {4, 6}
    assert len(sides) >= len(vertices) and steps
    for p in dict.fromkeys(vertices + sides + steps):
        assert not p.rational
        _check_tower_int_path(p)


def test_exact_prism_fallbacks_run_on_ints_at_the_facet_points(monkeypatch):
    # on the facet points of both towers, every exact fallback of the prism
    # decisions runs: the sign and floor of reduce_to_prism and of
    # overlaps_keeping, and the sign of in_prism.  Each decides on the real
    # ints it is given as the AlgNum of those ints does, and each function
    # answers as its all-AlgNum reference
    entered = []
    sign, floor = heisenberg._sign, heisenberg._floor

    def checked_sign(t, r, exact):
        def run():
            y, den = exact()
            assert type(y[0]) is int
            got = real_field(y).real_sign(y)
            assert got == alg_of_real(y, den).real_sign()
            entered.append("sign")
            return y, den
        return sign(t, r, run)

    def checked_floor(t, r, d, den, exact):
        def run():
            y, e = exact()
            assert type(y[0]) is int
            assert real_field(y).floor_real(y, d * e) == alg_floor(div(alg_of_real(y, e), d))
            entered.append("floor")
            return y, e
        return floor(t, r, d, den, run)

    monkeypatch.setattr(heisenberg, "_sign", checked_sign)
    monkeypatch.setattr(heisenberg, "_floor", checked_floor)
    seen = {}
    for x in _tower_facet_points():
        xa = alg_prism(x)
        for name, f, ref in (("reduce_to_prism", reduce_to_prism, algnum_reduce_to_prism),
                             ("in_prism", in_prism, algnum_in_prism),
                             ("overlaps_keeping", overlaps_keeping, algnum_overlaps_keeping)):
            entered.clear()
            if name == "overlaps_keeping" and not algnum_in_prism(xa):
                continue
            assert f(x) == ref(xa), (name, x)
            seen.setdefault((len(x[0]), name), set()).update(entered)
    want = {"reduce_to_prism": {"sign", "floor"}, "in_prism": {"sign"}, "overlaps_keeping": {"sign", "floor"}}
    assert seen == {(n, name): kinds for n in (2, 3) for name, kinds in want.items()}


def test_overlaps_keeping_matches_the_table_on_paper_graphs(monkeypatch):
    # at every vertex of the cycle graph of the torsion enumeration and of
    # the three cycle graphs of mirror R's point stabilizers, the moves read
    # off the 13 planar parts are the table's overlaps that keep the vertex
    # in P.  Vertices in K keep some; the tower vertices (in K(zeta_3) and
    # K(zeta_7)) lie inside P and keep none
    vertices = [v for c in enumerate_torsion() if c.kind == "isolated" for v in c.transports]
    graphs = []

    def recorded(points):
        graphs.append(build_cycle_graph(points))
        return graphs[-1]

    monkeypatch.setattr(mirror, "build_cycle_graph", recorded)
    mirror.verify_mirror_R.__wrapped__()
    assert len(graphs) == 3
    vertices += [v for graph in graphs for v in _vertices(graph)]
    kept = tower = 0
    for v in dict.fromkeys(vertices):
        x = prism_coordinates(v.rep)
        got = overlaps_keeping(x)
        assert got == ref_overlaps_keeping(x), v
        if v.rational:
            kept += len(got)
        else:
            assert got == []
            tower += 1
    assert kept > 0 and tower > 0


def _count_fallbacks(monkeypatch):
    """The exact tests that heisenberg's grid decisions fall back to, as
    they run: one entry per call of an `exact` argument."""
    calls = []
    sign, floor = heisenberg._sign, heisenberg._floor
    monkeypatch.setattr(heisenberg, "_sign", lambda t, r, exact: sign(
        t, r, lambda: calls.append("sign") or exact()))
    monkeypatch.setattr(heisenberg, "_floor", lambda t, r, d, den, exact: floor(
        t, r, d, den, lambda: calls.append("floor") or exact()))
    return calls


def _check_prism_decisions(x):
    """reduce_to_prism, in_prism and overlaps_keeping at x and at its
    reduced image against their all-AlgNum versions; overlaps_keeping
    refuses an x outside P."""
    c = reduce_to_prism(x)
    xa = alg_prism(x)
    assert c == algnum_reduce_to_prism(xa)
    assert in_prism(x) == algnum_in_prism(xa)
    if algnum_in_prism(xa):
        assert overlaps_keeping(x) == algnum_overlaps_keeping(xa)
    else:
        with pytest.raises(ValueError, match="needs a point in the prism"):
            overlaps_keeping(x)
    y = act_prism(c, x)
    assert vec_key(alg_prism(y)) == vec_key(algnum_act_prism(c, xa))
    assert in_prism(y) and algnum_in_prism(alg_prism(y))
    assert overlaps_keeping(y) == algnum_overlaps_keeping(alg_prism(y)) == ref_overlaps_keeping(y)


def test_bracketed_prism_decisions_match_the_algnum_tests(monkeypatch):
    # at the 20 tower fixed points, their Omega representatives, their
    # cycle-graph vertices and seeded orbit images, every sign and floor
    # read off the brackets agrees with the exact AlgNum test
    rng = random.Random(79)
    letters = list(GENERATORS.values()) + [T1.to_matrix(), TTAU.to_matrix(), R.to_matrix()]
    assert len(tower_fixed_points()) == 20
    calls = _count_fallbacks(monkeypatch)
    for x, y in tower_fixed_points():
        images = []
        for _ in range(2):
            w = GroupElt.identity()
            for _ in range(3):
                w = rng.choice(letters) * w
            images.append(point_of(mat_apply(w.mat, x.coords)))
        for p in [x] + images:
            _check_prism_decisions(prism_coordinates(p.rep))
        # the Omega representatives and the vertices of their cycle graphs
        # lie off the facets of P: the brackets decide every test there
        calls.clear()
        for p in [y] + _vertices(build_cycle_graph([y])):
            assert not p.rational
            _check_prism_decisions(prism_coordinates(p.rep))
        assert calls == []
    # a point placed exactly on a facet of P straddles it: the decision
    # there falls back to the exact test, in both towers
    for x in _tower_facet_points():
        calls.clear()
        _check_prism_decisions(x)
        assert calls, x


def test_isolated_reps_fix_their_points():
    for c in _classes_by("isolated"):
        assert projective_order(c.rep) == c.proj_order
        if c.fixed.rational:
            assert c.fixed.apply(c.rep) == c.fixed
        else:
            assert point_of(mat_apply(c.rep.mat, c.fixed.coords)) == c.fixed


def test_stabilizer_linear_orders():
    c2 = next(c for c in _classes_by("isolated", 2) if c.fp_norm == -1)
    assert (c2.stab_linear_order, c2.stab_order) == (16, 8)
    c6 = _classes_by("isolated", 6)[0]
    assert (c6.stab_linear_order, c6.stab_order) == (12, 6)


def test_order6_vertex_five_loops():
    c6 = _classes_by("isolated", 6)[0]
    graph = build_cycle_graph([c6.fixed])
    assert _vertices(graph) == [c6.fixed]
    # five Ford side-pairing loops; the element itself coincides with one of
    # the side-pairing composites
    moves = _moves_at(c6.fixed)
    assert len(moves) == 5
    assert all(q == c6.fixed for _, q in moves)
    assert c6.rep in {g for g, _ in moves}
    stab = stabilizer(c6.fixed, graph)
    assert (stab.linear_order, stab.projective_order) == (12, 6)
    assert c6.rep in stab
    assert [n for _, n in stab.reflections] == [1]
    # the order-3 class with algebraic fixed point shares this vertex
    c3 = next(c for c in _classes_by("isolated", 3) if c.fp_norm is None)
    assert c3.fixed == c6.fixed


def test_order7_class_has_no_lines():
    c7 = _classes_by("isolated", 7)[0]
    assert (c7.one_lines, c7.two_lines) == (0, 0)
    assert c7.stab_order == 7


def test_dedup_merges_conjugate_copies():
    g = GENERATORS[1] * R.to_matrix()  # isolated order 2 at (-1, 0, 1)
    kind, fp, _ = classify_elliptic(g, 2)
    assert kind == "isolated"
    delta = (T1 * TTAU).to_matrix() * GENERATORS[6]
    g2 = delta * g * delta.inverse()
    fp2 = point_of(mat_apply(delta.mat, fp.coords))
    classes = dedup_isolated([(g, 2, fp), (g2, 2, fp2)])
    assert len(classes) == 1


def test_dedup_merges_powers():
    # an order-4 element and its inverse fix the same point and merge into
    # one class through a power-conjugacy witness
    t1m, rm = T1.to_matrix(), R.to_matrix()
    g4 = GENERATORS[1] * t1m.inverse() * rm * t1m
    _, fp, _ = classify_elliptic(g4, 4)
    classes = dedup_isolated([(g4, 4, fp), (g4.inverse(), 4, fp)])
    assert len(classes) == 1
    assert len(classes[0].members) == 2


def test_dedup_refuses_a_candidate_that_does_not_fix_its_point():
    # A1 R fixes (-1, 0, 1), not the fixed point of A6: carried to the
    # cycle graph it lies outside the stabilizer, which is a failed
    # soundness check and not a closure running past its cap
    g = GENERATORS[1] * R.to_matrix()
    _, fp, _ = classify_elliptic(GENERATORS[6], projective_order(GENERATORS[6]))
    with pytest.raises(ArithmeticError):
        dedup_isolated([(g, 2, fp)])


def test_dedup_reduces_each_prism_image_once(monkeypatch):
    # the 45 fixed points of the isolated candidates have 19 prism images;
    # a point's reduction into Omega is its image's times its own prism
    # shift, with the same ints and word, so dedup_isolated reduces each
    # image once, and its classes are the enumeration's
    cands = []
    for g, n in sorted(torsion._torsion_candidates().items(), key=lambda t: (len(t[0].word), t[0].ints)):
        kind, pt, _ = classify_elliptic(g, n)
        if kind == "isolated":
            cands.append((g, n, pt))
    fixed = list(dict.fromkeys(pt for _, _, pt in cands))
    assert len(fixed) == 45
    for f in fixed:
        c = reduce_to_prism(prism_coordinates(f.rep))
        shift, y = reduce_to_domain(f.moved(c.ints))
        want, want_y = reduce_to_domain(f)
        composed = shift * c.to_matrix()
        assert (composed.ints, composed.word, y) == (want.ints, want.word, want_y)
    calls = []
    monkeypatch.setattr(torsion, "reduce_to_domain", lambda x: calls.append(x) or reduce_to_domain(x))
    classes = dedup_isolated(cands)
    assert len(calls) == len(set(calls)) == 19
    assert [(c.rep.ints, c.word, c.fixed) for c in classes] == [
        (c.rep.ints, c.word, c.fixed) for c in _classes_by("isolated")
    ]


def test_order3_norm3_classes_stay_distinct():
    pair = [c for c in _classes_by("isolated", 3) if c.fp_norm == -3]
    assert len(pair) == 2
    assert pair[0].fixed != pair[1].fixed


def _paper_walk_bases():
    """The Omega representatives of the five K-rational isolated fixed
    points, of the zeta_3 fixed point of mu ups iota and of the zeta_7 fixed
    point of a."""
    mti = GENERATORS[6] * TV.to_matrix() * GENERATORS[1]
    points = [ProjPoint(v) for v in K_FIXED_POINTS]
    points += [classify_elliptic(mti, 6)[1], classify_elliptic(abcd()["a"], 7)[1]]
    return [reduce_to_domain(p)[1] for p in points]


def test_tower_points_are_normalized_at_their_last_coordinate():
    # a tower ProjPoint is its vector divided by v3, kept as the field ints
    # of v1 and v2 over one den with no common factor: at the 20 tower
    # fixed points of the enumeration and at their Omega representatives
    # its coordinates are the reference's v/v3 of any vector of the point,
    # every nonzero multiple of the vector gives the same point, and the
    # prism coordinates, read with no inverse, are those of the
    # horospherical reference, which divides by v3
    pairs = tower_fixed_points()
    assert len(pairs) == 20
    for pair in pairs:
        for p in pair:
            f1, f2, den = p.rep
            assert not p.rational and den > 0 and gcd(den, *f1, *f2) == 1
            v = p.coords
            zeta = zeta_of(v[2].tower)
            for lam in (2, TAU, zeta):
                w = tuple(c * lam for c in v)
                assert vec_key(p.coords) == vec_key(tuple(div(c, w[2]) for c in w))
                assert ProjPoint.of_tower(tuple(map(alg_ints, scaled_alg(w)))) == p
            h = horo_coords(v)
            assert vec_key(_prism_reals(prism_coordinates(p.rep))) == vec_key(
                tau_coordinates(h.z) + (s_coordinate(h.ti),))


def test_walks_carry_each_vertex_coordinates(monkeypatch):
    # the prism coordinates build_cycle_graph carries to each vertex it
    # expands are those read off the vertex's vector, and so are those each
    # move carries to its image (the cusp shift's action on the side
    # image's own): on the walks from the five K-rational fixed points,
    # the zeta_3 point of mu ups iota and the zeta_7 point of a
    moves = torsion._moves
    expanded = []

    def checked(p, x, images):
        assert vec_key(_prism_reals(x)) == vec_key(_prism_reals(prism_coordinates(p.rep)))
        expanded.append(p)
        for move in moves(p, x, images):
            _, q, c, _, xs = move
            assert vec_key(_prism_reals(act_prism(c, xs))) == vec_key(_prism_reals(prism_coordinates(q.rep)))
            yield move

    monkeypatch.setattr(torsion, "_moves", checked)
    for base in _paper_walk_bases():
        expanded.clear()
        assert list(build_cycle_graph([base])[base].transports) == expanded


def _prism_image(v):
    """The point reduce_to_prism moves the vertex v to."""
    return v.moved(reduce_to_prism(prism_coordinates(v.rep)).ints)


def test_moves_match_the_per_vertex_reference():
    # at every vertex of the walks from the one-point graph points and the
    # paper's walk bases, the moves read off the vertex's prism image are
    # the moves derived at the vertex itself, tuple for tuple; some
    # vertices are not their own prism image, so derived moves are checked
    derived = 0
    for base in dict.fromkeys(_one_point_graph_points() + _paper_walk_bases()):
        images = {}
        for v in build_cycle_graph([base])[base].transports:
            x = prism_coordinates(v.rep)
            assert list(torsion._moves(v, x, images)) == list(ref_moves(v, x))
            derived += _prism_image(v) != v
    assert derived > 0


def test_cycle_graph_sweeps_each_prism_image_once(monkeypatch):
    # one full K sweep per distinct prism image of the vertices, where a
    # sweep per vertex repeats the vector of each vertex that a cusp
    # overlap relates to another
    quantity, cmp, sweep = ford._KERNELS[1]
    full = []

    def counted(v, own, g, best):
        if not best:
            full.append(v)
        return sweep(v, own, g, best)

    monkeypatch.setitem(ford._KERNELS, 1, (quantity, cmp, counted))
    repeats = 0
    for base in _paper_walk_bases()[:5]:
        full.clear()
        vertices = list(build_cycle_graph([base])[base].transports)
        images = {_prism_image(v) for v in vertices}
        assert len(full) == len(images)
        repeats += len(vertices) - len(images)
    assert repeats > 0


def test_tower_vertex_reads_its_coordinates_once(monkeypatch):
    # at the zeta_3 vertex of mu ups iota and the zeta_7 vertex of a, the
    # walk takes prism coordinates once for the vertex and once for each
    # side image, and one inverse at most per side image (the adjugate of
    # its normal form, on the field's ints: no AlgNum is built); the
    # vertex's own sweep, prism reduction and overlap test read its carried
    # coordinates and one grid of them: a, b and s are bracketed once per
    # vertex, u once by its sweep, and each side image's a, b and s once by
    # its prism reduction
    calls = {"prism_coordinates": 0, "adjugate": 0, "bracket": 0, "_alg": 0}

    def counted(name, f):
        def wrapped(*args):
            calls[name] += 1
            return f(*args)
        return wrapped

    bases = _paper_walk_bases()
    for base, shape in ((bases[5], (1, 5)), (bases[6], (1, 6))):
        assert not base.rational
        graph = build_cycle_graph([base])
        vertices = list(graph[base].transports)
        sides = sum(len(spheres_containing(v)) for v in vertices)
        assert (len(vertices), sides) == shape
        with monkeypatch.context() as patch:
            for module in (heisenberg, ford, torsion):
                patch.setattr(module, "prism_coordinates", counted("prism_coordinates", prism_coordinates))
            bracket = counted("bracket", heisenberg.bracket)
            for module in (heisenberg, ford):
                patch.setattr(module, "bracket", bracket)
            patch.setattr(hermitian, "adjugate", counted("adjugate", hermitian.adjugate))
            for module in (ring, hermitian):
                patch.setattr(module, "_alg", counted("_alg", ring._alg))
            calls.update(dict.fromkeys(calls, 0))
            assert build_cycle_graph([base]) == graph
        assert calls["prism_coordinates"] <= len(vertices) + sides
        assert 0 < calls["adjugate"] <= sides and calls["_alg"] == 0
        assert calls["bracket"] <= 4 * len(vertices) + 3 * sides


def test_in_omega_brackets_a_tower_point_once(monkeypatch):
    # at the zeta_3 Omega representative of mu ups iota, in_omega takes one
    # grid for its prism test and its sweep: a, b and s are bracketed once,
    # and u' once by the sweep.  The reduction's last sweep is that sweep,
    # so the memo of tower hits is cleared first, and the kernel runs
    mti = GENERATORS[6] * TV.to_matrix() * GENERATORS[1]
    _, y = reduce_to_domain(classify_elliptic(mti, 6)[1])
    assert not y.rational and y.coords[2].tower is zeta3_tower()
    calls = []
    bracket = heisenberg.bracket

    def counted(*args):
        calls.append(args)
        return bracket(*args)

    for module in (heisenberg, ford):
        monkeypatch.setattr(module, "bracket", counted)
    ford._tower_hits.cache_clear()
    assert ford.in_omega(y)
    assert len(calls) == 4
