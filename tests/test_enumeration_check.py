"""`torsion enumerate` checked with arithmetic it does not share.

The benchmark keeps its own exact arithmetic in K, on pairs of Fractions
(`perfbench/tau.py`), and its checker's helpers (`perfbench/check.py`)
read picard7's JSON with it.  Both are imported as they are, so a fault in
picard7's int arithmetic cannot vouch for itself here.
"""

import copy
import json
import sys
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from picard7.cli import main

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import check  # noqa: E402
import tau  # noqa: E402


def enumeration_problems(data):
    """The printed facts of `torsion enumerate` that tau refutes; [] when all hold.

    Each class matrix is integral and J-unitary, of its printed projective
    order; each reflection polar is primitive, of its printed norm, and an
    eigenvector of the class matrix; each K-rational fixed point is fixed,
    negative, primitive and of its printed norm; each stabilizer's linear
    order is twice its projective order, which the class's order divides.
    """
    problems = []
    if data["count"] != len(data["classes"]):
        problems.append("count %s for %d classes" % (data["count"], len(data["classes"])))
    for c in data["classes"]:
        row = "row %s" % c["row"]
        try:
            m = check._matrix(c["matrix"])
        except ValueError as e:
            problems.append("%s: %s" % (row, e))
            continue
        if tau.projective_order(m) != c["order"]:
            problems.append("%s: the matrix does not have order %s" % (row, c["order"]))
        if c["kind"] == "reflection":
            p = check._point(c["polar"], row + " polar")
            problems += check._primitive_norm(p, c["polar_norm"], row + " polar")
            if not tau.same_line(tau.matvec(m, p), p):
                problems.append("%s: the polar is not an eigenvector of the matrix" % row)
            continue
        if c["fixed_point_norm"] is not None:
            f = check._point(c["fixed_point"], row + " fixed point")
            if not tau.same_line(tau.matvec(m, f), f):
                problems.append("%s: the fixed point is not fixed by the matrix" % row)
            if check._real(tau.herm(f, f)) >= 0:
                problems.append("%s: the fixed point is not negative" % row)
            problems += check._primitive_norm(f, c["fixed_point_norm"], row + " fixed point")
        elif c["fixed_point"].get("rational") is not False:
            problems.append("%s: a fixed point without a norm should lie outside K^3" % row)
        if c["stabilizer_linear_order"] != 2 * c["stabilizer_order"]:
            problems.append("%s: linear order is not twice the projective order" % row)
        if c["stabilizer_order"] % c["order"]:
            problems.append("%s: the class order does not divide its stabilizer's" % row)
    return problems


@pytest.fixture(scope="module")
def enumeration():
    out = StringIO()
    with redirect_stdout(out):
        assert main(["torsion", "enumerate"]) == 0
    return json.loads(out.getvalue())


def test_enumeration_holds_in_independent_arithmetic(enumeration):
    assert enumeration_problems(enumeration) == []
    kinds = [c["kind"] for c in enumeration["classes"]]
    assert len(kinds) == 12 and kinds.count("reflection") == 2
    assert [_kind(c) for c in enumeration["classes"]].count("isolated") == 7


def _bump(s):
    """A K-number string plus one."""
    return tau.fmt(tau.add(tau.parse(s), tau.ONE))


def _kind(c):
    """reflection, isolated (a K-rational fixed point) or tower (one outside K^3)."""
    return "tower" if c["kind"] == "isolated" and c["fixed_point_norm"] is None else c["kind"]


#: one altered printed entry or order: (kind of the first class altered,
#: path to the entry, change)
CORRUPTIONS = {
    "matrix-entry": ("isolated", ("matrix", 0, 0), _bump),
    "reflection-matrix-entry": ("reflection", ("matrix", 1, 2), _bump),
    "order": ("tower", ("order",), lambda n: n + 1),
    "reflection-order": ("reflection", ("order",), lambda n: 4),
    "polar-entry": ("reflection", ("polar", 0), _bump),
    "polar-norm": ("reflection", ("polar_norm",), lambda n: n + 1),
    "fixed-point-entry": ("isolated", ("fixed_point", 1), _bump),
    "fixed-point-norm": ("isolated", ("fixed_point_norm",), lambda n: n - 1),
    "linear-order": ("tower", ("stabilizer_linear_order",), lambda n: 7),
    "stabilizer-order": ("isolated", ("stabilizer_order",), lambda n: 5),
}


@pytest.mark.parametrize("name", sorted(CORRUPTIONS))
def test_enumeration_check_refutes_one_altered_entry(enumeration, name):
    # each altered printed entry or order is refuted, so the check above
    # reads what it claims to read
    kind, path, change = CORRUPTIONS[name]
    data = copy.deepcopy(enumeration)
    node = next(c for c in data["classes"] if _kind(c) == kind)
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = change(node[path[-1]])
    assert enumeration_problems(data) != []
