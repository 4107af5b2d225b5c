"""End-to-end acceptance checks, one pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criterion 11 checks the proven depth spectrum: the realizable
depths up to 11 are exactly the norms of O_7 up to 11, [1, 2, 4, 7, 8, 9, 11].
The claimed spectrum [1, 2, 4, 7, 11] omits depths 8 and 9, which the test
certifies exactly (the first column (1-tau, -1, 2+tau) of A1*A3 in Gamma
has depth 8, and (5-10*tau, 0, 3) is a primitive null vector of depth 9);
its printed note keeps that discrepancy on record.
"""

from picard7.ring import ISQRT7, KNum, TAU, TAU_BAR, o_gcd_many
from picard7.hermitian import (
    GroupElt,
    Mat,
    ProjPoint,
    elements_of_norm,
    is_in_gamma,
    sq_norm,
)
from picard7.heisenberg import (
    R,
    T1,
    TTAU,
    cusp_torsion_classes,
    enumerate_cusp_overlaps,
    in_prism,
    prism_coordinates,
)
from picard7.ford import GENERATORS, reduce_to_domain, spheres_containing
from picard7.torsion import (
    build_cycle_graph,
    enumerate_torsion,
    reflection_conjugacy,
    stabilizer,
)
from picard7 import congruence, mirror, presentation
from reference import depth, depth_witness, first_column, generator_depths, realizable_depths

V1 = ProjPoint((-TAU_BAR, KNum(0), KNum(1)))


def _line(num, name, ok, note=""):
    status = "PASS" if ok else "FAIL"
    tail = " (%s)" % note if note else ""
    print("criterion %02d %s: %s%s" % (num, name, status, tail))
    assert ok, "criterion %02d %s: %s%s" % (num, name, status, tail)


def _classes(kind, order=None):
    return [
        c for c in enumerate_torsion()
        if c.kind == kind and (order is None or c.proj_order == order)
    ]


def test_criterion_01_generator_table():
    ok = all(is_in_gamma(g.mat) for g in GENERATORS.values())
    ok = ok and len(GENERATORS) == 14
    inv = {3: 2, 5: 4, 11: 10, 13: 12, 14: 9}
    ok = ok and all(GENERATORS[j] == GENERATORS[k].inverse() for j, k in inv.items())
    ok = ok and GENERATORS[4] == GENERATORS[2].inverse() ** 2
    _line(1, "generator-table", ok)


def test_criterion_02_reflection_classes():
    refl = _classes("reflection")
    ok = len(refl) == 2 and sorted(c.polar_norm for c in refl) == [1, 2]
    t1m, rm, i = T1.to_matrix(), R.to_matrix(), GENERATORS[1]
    ttau_r = (TTAU * R).to_matrix()
    c1 = (t1m * i) ** 2 * t1m.inverse()
    c2 = t1m * i * t1m.inverse() * i.inverse()
    c3 = t1m * i * t1m.inverse()
    ok = ok and c1 * ttau_r * c1.inverse() == i
    ok = ok and c2 * ttau_r * c2.inverse() == (T1 * TTAU * R).to_matrix()
    ok = ok and c3 * rm * c3.inverse() == GroupElt(
        Mat([[ISQRT7, 0, 4], [0, -1, 0], [2, 0, -ISQRT7]])
    )
    d = reflection_conjugacy(ttau_r, i)
    ok = ok and d is not None and d * ttau_r * d.inverse() == i
    _line(2, "reflection-classes", ok)


def test_criterion_03_isolated_classes():
    counts = [len(_classes("isolated", n)) for n in (2, 3, 4, 6, 7)]
    ok = counts == [3, 3, 2, 1, 1]
    rows = {
        (c.proj_order, c.fp_norm, c.stab_order, c.one_lines, c.two_lines,
         tuple(c.two_line_orbits))
        for c in _classes("isolated")
    }
    ok = ok and rows == {
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
    _line(3, "isolated-classes", ok)


def test_criterion_04_worked_examples():
    # V1 lies over z = 0 at t = sqrt(7): on the edge a = b = 0 of P, at
    # half its height
    x = prism_coordinates(V1.rep)
    ok = x == (0, 0, 1, 1) and in_prism(x)
    res = spheres_containing(V1)
    ok = ok and len(res) == 3 and all(f == "boundary" for _, _, f in res)
    st = stabilizer(V1, build_cycle_graph([V1]))
    ok = ok and (st.linear_order, st.projective_order, st.scalar_order) == (16, 8, 2)
    ok = ok and sorted(n for _, n in st.reflections) == [1, 1, 2, 2]
    c6 = _classes("isolated", 6)[0]
    _, y = reduce_to_domain(c6.fixed)
    res6 = spheres_containing(y)
    ok = ok and len(res6) == 5 and all(f == "boundary" for _, _, f in res6)
    ok = ok and (c6.stab_linear_order, c6.stab_order) == (12, 6)
    _line(4, "worked-examples", ok)


def test_criterion_05_cusp_torsion():
    torsion = {c for c in enumerate_cusp_overlaps() if c.order() == 2}
    expected = {
        R,
        T1 * R * T1.inverse(),
        TTAU * R * TTAU.inverse(),
        TTAU * R,
        T1 * TTAU * R,
    }
    ok = torsion == expected and all(c.order() == 2 for c in expected)
    ok = ok and len(cusp_torsion_classes()) == 3
    _line(5, "cusp-torsion", ok)


def test_criterion_06_mirror_of_half_turn():
    rep = mirror.verify_mirror_R()
    ok = rep["all_pass"] and rep["mti_order"] == 6 and rep["mti_cube_is_half_turn"]
    ok = ok and all(o["on_mirror"] for o in rep["orbits"].values())
    ok = ok and rep["orbits"]["common_point_of_iota_rho"]["fixed_by_both"]
    _line(6, "mirror-of-half-turn", ok)


def test_criterion_07_mirror_of_shifted_half_turn():
    rep = mirror.verify_mirror_L()
    ok = rep["all_pass"]
    # documented corrections: the fourth polar vector has norm 1, the second
    # reflection enters squared, and (4, 1, 3) is the unique working triple
    ok = ok and rep["vectors"]["v4"]["norm"] == 1
    ok = ok and rep["relators"]["r2^2"] and not rep["relators"]["r2^3"]
    ok = ok and rep["long_relator_triples"] == [(4, 1, 3)]
    ok = ok and all(rep["s2_parabolic"].values())
    _line(7, "mirror-of-shifted-half-turn", ok)


def test_criterion_08_presentation():
    rel = presentation.verify_relators()
    rows = presentation.verify_table_rows()
    cov = presentation.coverage_report()
    ok = rel["all_pass"] and rows["all_pass"] and cov["all_covered"]
    classes = enumerate_torsion()
    table = {r["word"]: r["elt"] for r in presentation.torsion_word_rows()}
    for idx, m in cov["matches"].items():
        d, k = m["delta"], m["power"]
        ok = ok and d * table[m["word"]] * d.inverse() == classes[idx].rep ** k
    _line(8, "presentation", ok)


def test_criterion_09_congruence():
    r7 = congruence.torsion_free_certificate("isqrt7")
    r2 = congruence.torsion_free_certificate("tau")
    ok = r7["image_order"] == 336 and r7["center_order"] == 1
    ok = ok and r7["torsion_free"] and r7["cusp_torsion_free"]
    ok = ok and r2["image_order"] == 168 and not r2["torsion_free"]
    _line(9, "congruence", ok)


def test_criterion_10_property_suites():
    import test_properties as tp

    tp.test_heisenberg_group_law_axioms()
    tp.test_cygan_left_invariance()
    tp.test_ford_membership_agrees_with_sphere_inequality()
    tp.test_sphere_inversion_side_flip()
    tp.test_reduce_round_trips_on_random_orbits()
    _line(10, "property-suites", True)


# The realizable depths up to 11 as claimed for Gamma: the side pairings'
# depths {1, 2, 4, 7} plus 11.  Depths 8 and 9 are missing from it, although
# both occur (see the certificates in criterion 11).
CLAIMED_DEPTHS_TO_11 = [1, 2, 4, 7, 11]


def test_criterion_11_depth_spectrum():
    ok = set(generator_depths().values()) == {1, 2, 4, 7}
    # a depth is N(v3) for a primitive null vector v, hence a norm of O_7;
    # the oracle must certify exactly the norms, and no other depth
    got = realizable_depths(11)
    ok = ok and got == [n for n in range(1, 12) if elements_of_norm(n)]
    ok = ok and got == [1, 2, 4, 7, 8, 9, 11]
    ok = ok and all(depth_witness(d) is None for d in (3, 5, 6, 10))
    # oracle-free certificates for the two depths that the claim omits:
    # the first column of A1*A3 in Gamma, and (-5*i*sqrt7, 0, 3) = (5-10*tau, 0, 3)
    a13 = GENERATORS[1] * GENERATORS[3]
    col8 = first_column(a13)
    ok = ok and is_in_gamma(a13.mat) and col8 == (1 - TAU, KNum(-1), 2 + TAU)
    col9 = (-5 * ISQRT7, KNum(0), KNum(3))
    for v, d in ((col8, 8), (col9, 9)):
        ok = ok and sq_norm(v) == 0 and o_gcd_many(v).norm() == 1
        ok = ok and v[2].norm() == d and depth(ProjPoint(v)) == d
    note = (
        "the claimed spectrum %s omits depths %s, certified by: "
        "A1*A3 lies in the group with first column %r of depth 8, "
        "and %r is a primitive null vector of depth 9"
        % (
            CLAIMED_DEPTHS_TO_11,
            sorted(set(got) - set(CLAIMED_DEPTHS_TO_11)),
            ProjPoint(col8),
            ProjPoint(col9),
        )
    )
    _line(11, "depth-spectrum", ok, note)
