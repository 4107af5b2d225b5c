import random
from fractions import Fraction

import pytest

from picard7.ring import KNum
from picard7.hermitian import GroupElt, mat_ints
from picard7.heisenberg import R, T1, TTAU
from picard7.ford import GENERATORS
from picard7.torsion import ClosureError
from picard7.presentation import A_MAT, B_MAT
from picard7 import congruence
from picard7.congruence import (
    IDENTITY,
    FpMatGroup,
    ResidueMap,
    image_group,
    torsion_free_certificate,
)


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
    g7 = image_group("isqrt7")
    rm = g7.rm
    assert g7.element_order(rm(mat_ints(A_MAT))) == 7
    assert g7.element_order(rm(mat_ints(B_MAT))) == 2
    assert g7.projective_element_order(rm(tuple(-x for x in GroupElt.identity().ints))) == 1


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
