from picard7.ring import KNum, TAU
from picard7.hermitian import GroupElt, ProjPoint, is_in_gamma, mat_from_json
from picard7.heisenberg import R, T1, TTAU, TV
from picard7.ford import GENERATORS
from picard7.cli import _class_json, _elt_json
from picard7 import presentation
from picard7.torsion import classify_elliptic, enumerate_torsion, projective_order
from picard7.presentation import (
    A_MAT,
    B_MAT,
    ab_matrices,
    abcd,
    coverage_report,
    relator_words,
    torsion_word_rows,
    verify_relators,
    verify_table_rows,
)


def test_ab_matrices():
    a, b = ab_matrices()
    assert is_in_gamma(A_MAT) and is_in_gamma(B_MAT)
    assert projective_order(a) == 7
    assert projective_order(b) == 2
    assert b == (TTAU * R).to_matrix()


def test_abcd_products():
    g = abcd()
    assert g["c"] == g["a"] * g["b"]
    assert g["d"] == g["b"] * g["a"]
    assert projective_order(g["c"]) == 6
    assert projective_order(g["d"]) == 6


def test_relators():
    words = relator_words()
    assert len(words) == 10
    for name, w in words.items():
        assert w.is_identity(), name
    rep = verify_relators()
    assert rep["all_pass"]


def test_table_rows_all_pass():
    rep = verify_table_rows()
    assert len(rep["rows"]) == 12
    assert rep["all_pass"]
    orders = [projective_order(r["elt"]) for r in torsion_word_rows()]
    assert orders == [2, 2, 2, 2, 3, 3, 4, 4, 6, 7, 2, 3]


def test_five_letter_word_is_ad_squared():
    g = abcd()
    a, d = g["a"], g["d"]
    ababa = a * g["b"] * a * g["b"] * a
    # the compact form of the order-4 word needs the square on d
    assert ababa == a * d * d
    assert ababa != a * d
    assert projective_order(a * d) is None


def test_reflection_rows():
    rows = torsion_word_rows()
    b_row, ba3_row = rows[0], rows[1]
    kind, polar, norm = classify_elliptic(b_row["elt"], 2)
    assert kind == "reflection" and norm == 2
    assert polar == ProjPoint((KNum(1), -TAU, KNum(0)))
    kind, polar, norm = classify_elliptic(ba3_row["elt"], 2)
    assert kind == "reflection" and norm == 1
    assert polar == ProjPoint((TAU, KNum(0), KNum(1)))


def test_irrational_fixed_points():
    for row in torsion_word_rows():
        if row["fixed"] is None:
            _, pt, _ = classify_elliptic(row["elt"], row["order"])
            assert not pt.rational


def test_coverage():
    cov = coverage_report()
    classes = enumerate_torsion()
    assert cov["n_classes"] == len(classes) == 12
    assert cov["all_covered"]
    rows = {r["word"]: r["elt"] for r in torsion_word_rows()}
    # each witness exactly conjugates the table word to a power of the rep
    for idx, m in cov["matches"].items():
        cls = classes[idx]
        g = rows[m["word"]]
        delta, k = m["delta"], m["power"]
        assert delta * g * delta.inverse() == cls.rep ** k
        assert projective_order(g) == cls.proj_order


def test_coverage_reduces_each_isolated_row_once(monkeypatch):
    # a row's reduced fixed point serves every class of the row's order,
    # and each distinct isolated fixed point is reduced once: d^-2 c^2 and
    # (d^-2 c^2)^2 share one, and so do ababa and (ad^2)^2
    reduce = presentation.reduce_to_domain
    reduced = []

    def counted(p):
        reduced.append(p)
        return reduce(p)

    monkeypatch.setattr(presentation, "reduce_to_domain", counted)
    coverage_report.cache_clear()
    assert coverage_report()["all_covered"]
    isolated = [
        pt for kind, pt, _ in (classify_elliptic(row["elt"], row["order"]) for row in torsion_word_rows())
        if kind == "isolated"
    ]
    assert len(isolated) == 10
    assert len(reduced) == len(set(reduced)) == len(set(isolated)) == 8
    assert set(reduced) == set(isolated)


def test_coverage_powers_nontrivial():
    cov = coverage_report()
    # the order-6 and order-7 classes are only reached through proper powers
    powers = {idx: m["power"] for idx, m in cov["matches"].items()}
    classes = enumerate_torsion()
    by_order = {classes[i].proj_order: k for i, k in powers.items()}
    assert by_order[6] in (1, 5)
    assert by_order[7] in (1, 2, 3, 4, 5, 6)


def _evaluate(word: str) -> GroupElt:
    """A printed word, multiplied out letter by letter."""
    letters = {"A%d" % j: g for j, g in GENERATORS.items()}
    letters.update({name: c.to_matrix() for name, c in (("T1", T1), ("Ttau", TTAU), ("Tv", TV), ("R", R))})
    g = GroupElt.identity()
    for token in word.split("*"):
        name, _, e = token.partition("^")
        g = g * letters[name] ** int(e or 1)
    return g


def test_printed_words_evaluate_to_their_matrices():
    printed = [_class_json(i, c) for i, c in enumerate(enumerate_torsion())]
    printed += [_elt_json(m["delta"]) for m in coverage_report()["matches"].values()]
    words = [(p["word"], p["matrix"]) for p in printed if p["word"] is not None]
    assert len(words) > 12
    for word, matrix in words:
        names = [token.partition("^")[0] for token in word.split("*")]
        assert all(a != b for a, b in zip(names, names[1:])), word
        # equality of group elements is up to sign
        assert _evaluate(word) == GroupElt(mat_from_json(matrix)), word
