import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from picard7.ring import KNum
from picard7.hermitian import GroupElt, mat_ints
from picard7.heisenberg import R, T1, TTAU, TV
from picard7.ford import GENERATORS
from picard7.torsion import ClosureError, enumerate_torsion
from picard7.presentation import A_MAT, B_MAT, torsion_word_rows
from picard7 import congruence
from picard7.congruence import (
    IDENTITY,
    FpMatGroup,
    ResidueMap,
    image_group,
    torsion_free_certificate,
)
from reference import ref_center, ref_certificate_row, ref_element_order, ref_projective_element_order


def test_residue_map_laws():
    for ideal, p, t in (("isqrt7", 7, 4), ("tau", 2, 0)):
        rm = ResidueMap(ideal)
        assert (rm.p, rm.tau) == (p, t)
        # tau's minimal polynomial x^2 - x + 2 vanishes on the residue
        assert (t * t - t + 2) % p == 0
    with pytest.raises(ValueError):
        ResidueMap("five")


def test_reduce_examples():
    rm = ResidueMap("isqrt7")
    assert rm(GroupElt.identity().ints) == IDENTITY
    # a residue matrix is its nine entries, row by row
    assert rm(mat_ints(A_MAT)) == (1, 0, 0, 6, 1, 0, 3, 1, 1)
    assert rm(mat_ints(B_MAT)) == (1, 4, 6, 0, 6, 4, 0, 0, 1)
    assert rm.is_scalar(IDENTITY) and rm.is_scalar((3, 0, 0, 0, 3, 0, 0, 0, 3))
    for x in ((3, 0, 0, 0, 3, 0, 0, 0, 1), (1, 0, 0, 0, 1, 0, 0, 1, 1), rm(mat_ints(A_MAT))):
        assert not rm.is_scalar(x)
    with pytest.raises(ValueError):
        rm.scalar(KNum(Fraction(1, 2)))


def test_homomorphism_random_products():
    rng = random.Random(41)
    letters = [T1.to_matrix(), TTAU.to_matrix(), R.to_matrix(), GENERATORS[1], GENERATORS[2]]
    for ideal in ("isqrt7", "tau"):
        rm = ResidueMap(ideal)
        for _ in range(100):
            # multiply plain matrices: the projective canonical sign of a
            # GroupElt product would spoil exact equality of residues
            m = rng.choice(letters).mat
            n = (rng.choice(letters).mat) * (rng.choice(letters).mat)
            assert rm(mat_ints(m * n)) == rm.mul(rm(mat_ints(m)), rm(mat_ints(n)))


def test_image_group_orders():
    g7 = image_group("isqrt7")
    assert g7.order == 336
    assert g7.projective_order == 336
    assert len(g7.scalars) == 1
    assert len(g7.center()) == 1
    g2 = image_group("tau")
    assert g2.order == 168
    assert len(g2.center()) == 1
    # index must be a multiple of the lcm of the torsion orders
    assert g7.order % 84 == 0


def test_element_orders():
    # (ord x, ord -x, projective order of x): a of order 7 has -a of order
    # 14 mod isqrt7, b of order 2 has -b of order 2, and -Id is a scalar
    # of order 2; mod tau, -x = x
    g7 = image_group("isqrt7")
    rm = g7.rm
    assert g7.element_orders(rm(mat_ints(A_MAT))) == (7, 14, 7)
    assert g7.element_orders(rm(mat_ints(B_MAT))) == (2, 2, 2)
    assert g7.element_orders(rm(tuple(-x for x in GroupElt.identity().ints))) == (2, 1, 1)
    assert g7.element_orders(IDENTITY) == (1, 2, 1)
    g2 = image_group("tau")
    assert g2.element_orders(g2.rm(mat_ints(A_MAT))) == (7, 7, 7)


def _certified_classes():
    """The classes of the enumeration, then the 12 word-table rows as
    classes of their elements."""
    rows = [SimpleNamespace(rep=row["elt"], proj_order=row["order"], word=row["word"])
            for row in torsion_word_rows()]
    assert len(rows) == 12
    return list(enumerate_torsion()) + rows


@pytest.mark.parametrize("ideal", ["isqrt7", "tau"])
def test_certificate_rows_match_the_order_loops(ideal):
    # one list of powers gives the three orders that the loops over x, -x
    # and x up to scalars give, for every class the command certifies and
    # every word-table row
    classes = _certified_classes()
    rm = ResidueMap(ideal)
    rep = torsion_free_certificate(ideal, classes)
    assert rep["classes"] == [ref_certificate_row(rm, cls) for cls in classes]
    t = TV.to_matrix().ints
    assert rep["cusp"]["tv_image_order"] == ref_element_order(rm, rm(t))
    assert image_group(ideal).element_orders(rm(t)) == (
        ref_element_order(rm, rm(t)), ref_element_order(rm, rm(tuple(-x for x in t))),
        ref_projective_element_order(rm, rm(t)))
    # the sign matters: some image has ord -x != ord x
    if ideal == "isqrt7":
        assert any(r["neg_image_order"] != r["image_order"] for r in rep["classes"])


@pytest.mark.parametrize("ideal", ["isqrt7", "tau"])
def test_center_matches_the_full_scan(ideal):
    # the (0, 0) entry decides most elements; the image group, whose center
    # is 1, and the cyclic and two-generator groups of the class images,
    # whose centers hold non-scalar elements, give the full scan's center
    rm = ResidueMap(ideal)
    grp = image_group(ideal)
    assert grp.center() == ref_center(grp) == [IDENTITY]
    reps = [cls.rep.ints for cls in _certified_classes()]
    big = 0
    for i, t in enumerate(reps):
        for gens in ([t], [t, reps[(5 * i + 3) % len(reps)]]):
            sub = FpMatGroup(gens, rm)
            assert sub.center() == ref_center(sub)
            big += len(sub.center()) > 1
    assert big > len(reps)


def test_closure_cap(monkeypatch):
    rm = ResidueMap("isqrt7")
    monkeypatch.setattr(congruence, "CLOSURE_CAP", 10)
    with pytest.raises(ClosureError):
        FpMatGroup([mat_ints(A_MAT), mat_ints(B_MAT)], rm)


def test_certificate_isqrt7():
    rep = torsion_free_certificate("isqrt7")
    assert rep["image_order"] == 336
    assert rep["center_order"] == 1
    assert rep["torsion_free"]
    assert rep["cusp_torsion_free"]
    assert all(r["projective_image_order"] == r["order"] for r in rep["classes"])
    # vertical translations lie in the kernel, so the cusp check rests
    # entirely on the half-turn-translation product
    assert rep["cusp"]["tv_image_order"] == 1
    assert rep["cusp"]["products_nontrivial"] == [True, True, True, True]


def test_certificate_tau():
    rep = torsion_free_certificate("tau")
    assert rep["image_order"] == 168
    assert not rep["torsion_free"]
    dropped = [r for r in rep["classes"] if not r["ok"]]
    assert dropped
    # order-2 torsion dies mod 2
    assert any(r["order"] == 2 and r["projective_image_order"] == 1 for r in dropped)
