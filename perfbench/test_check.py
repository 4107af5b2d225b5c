"""Self-test of the benchmark's checker.

Runs one short round of real operations from every workload, then shows
that the checker accepts each real output and rejects every corruption of
it listed below.  Run from the repository root:

    python3 perfbench/test_check.py
"""

import copy
import os
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import check  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import tau  # noqa: E402


def _bump(s):
    """A K-number string plus one."""
    return tau.fmt(tau.add(tau.parse(s), tau.ONE))


def _set(path, value):
    def corrupt(out):
        node = out
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value(node[path[-1]]) if callable(value) else value
    return corrupt


def _drop(path, index=0):
    def corrupt(out):
        node = out
        for key in path:
            node = node[key]
        del node[index]
    return corrupt


def _double_point(key):
    return _set([key], lambda v: [tau.fmt(tau.mul(tau.parse(x), tau.k(2))) for x in v])


CORRUPTIONS = {
    "ford_reduce": {
        "one matrix entry changed": _set(["element", "matrix", 0, 0], _bump),
        "point moved": _set(["point", 0], _bump),
        "not in Omega": _set(["in_omega"], False),
        "identity flag flipped": _set(["is_identity"], lambda v: not v),
    },
    "stabilizer": {
        "wrong stabilizer order": _set(["projective_order"], lambda v: v * 2),
        "wrong linear order": _set(["linear_order"], lambda v: v + 2),
        "wrong line count": _set(["one_lines"], lambda v: v + 1),
        "wrong orbit sizes": _set(["two_line_orbits"], [5]),
        "point not primitive": _double_point("point"),
    },
    "classify": {
        "wrong order": _set(["order"], lambda v: v + 1),
        "wrong kind": _set(["kind"], lambda v: "isolated" if v == "reflection" else "reflection"),
    },
    "classify:reflection": {
        "polar of the wrong norm": _set(["polar_norm"], lambda v: 3 - v),
        "polar moved": _set(["polar", 2], _bump),
    },
    "classify:isolated": {
        "wrong stabilizer order": _set(["projective_order"], lambda v: v + 1),
        "wrong 2-line count": _set(["two_lines"], lambda v: v + 1),
    },
    "classify:rational": {
        "fixed point moved": _set(["fixed_point", 0], _bump),
        "reduced point not primitive": _double_point("point"),
    },
    "classify:tower": {
        "fixed point claimed rational": _set(["fixed_point"], ["1", "0", "-1"]),
    },
    "congruence": {
        "wrong image order": _set(["image_order"], lambda v: v // 2),
        "torsion-freeness flipped": _set(["torsion_free"], lambda v: not v),
        "missing torsion class": _drop(["classes"]),
        "wrong class image order": _set(["classes", 0, "projective_image_order"], 5),
    },
    "cusp_torsion": {
        "missing element": lambda out: (_drop(["elements"])(out), _set(["count"], 4)(out)),
        "missing class": _drop(["classes"]),
        "class matrix changed": _set(["classes", 0, "matrix", 1, 1], _bump),
    },
    "relators": {
        "a relator fails": lambda out: out["relators"].update({next(iter(out["relators"])): False}),
        "wrong order of a": _set(["a_order"], 14),
    },
    "table_rows": {
        "a row fails": _set(["rows", 0, "order_ok"], False),
        "missing row": _drop(["rows"]),
    },
    "mirror_R": {
        "wrong mti order": _set(["mti_order"], 3),
        "wrong orbit lines": _set(["orbits", "mti_point", "one_lines"], 2),
        "point off the mirror": _set(["orbits", "mti_point", "on_mirror"], False),
    },
    "mirror_search": {
        "polar of the wrong norm": _set(["polars", 0], ["0", "1", "1-1*tau"]),
        "missing polar": lambda out: (_drop(["polars"])(out), _set(["count"], lambda v: v - 1)(out)),
        "polar not orthogonal": _set(["polars", 0], ["0", "1", "1"]),
    },
    "mirror_L_facts": {
        "extra relator triple": _set(["long_relator_triples"], lambda v: v + [[1, 4, 3]]),
        "r2 enters cubed": _set(["r2^3_trivial"], True),
        "s2 elliptic": _set(["s2_projective_order"], 3),
    },
    "cusp_orbit": {
        "not found": _set(["found"], False),
        "one matrix entry changed": _set(["matrix", 2, 2], _bump),
    },
}


def _kinds(expect):
    kind = expect["check"]
    if kind != "classify":
        return [kind]
    order, row_kind, data = expect["row"]
    extra = "rational" if row_kind == "isolated" and data[0] is not None else "tower"
    return [kind, "classify:" + row_kind] + (["classify:" + extra] if row_kind == "isolated" else [])


def real_outputs():
    """(expect, output) for a few real operations of every kind."""
    wanted = {"b", "(ad^2)^2", "c"}
    pairs = []
    for workload in ("queries", "classify", "mirrors"):
        seen = set()
        for op, expect in inputs.make_round(workload, 7):
            key = expect["check"]
            if key == "classify":
                if expect["word"] not in wanted:
                    continue
                key = expect["word"]
            if key not in seen:
                seen.add(key)
                pairs.append((op, expect))
    res = run.run_worker({"ops": [op for op, _ in pairs]})
    out = []
    for (op, expect), rec in zip(pairs, res["ops"]):
        assert rec["error"] is None, rec["error"]
        out.append((expect, rec["output"]))
    return out


def test_checker_accepts_real_outputs_and_rejects_corruptions():
    covered = set()
    for expect, output in real_outputs():
        assert check.check(expect, output) == [], (expect["check"], check.check(expect, output))
        for kind in _kinds(expect):
            for name, corrupt in CORRUPTIONS[kind].items():
                bad = copy.deepcopy(output)
                corrupt(bad)
                assert check.check(expect, bad), "%s: %s was not caught" % (kind, name)
                covered.add(kind)
    assert covered == set(CORRUPTIONS), set(CORRUPTIONS) - covered


def test_own_arithmetic():
    assert tau.parse("13*tau") == tau.k(0, 13)
    assert tau.parse("3/2-1/2*tau") == (Fraction(3, 2), Fraction(-1, 2))
    assert tau.mul(tau.TAU, tau.TAU) == tau.sub(tau.TAU, tau.k(2))
    assert tau.norm(tau.k(1, 1)) == 4
    assert tau.is_primitive((tau.k(1, -1), tau.k(0), tau.k(-1)))
    assert not tau.is_primitive((tau.k(2), tau.k(0, 2), tau.k(4)))
    for bad in ("1+*tau", "", "x", 7):
        try:
            tau.parse(bad)
        except ValueError:
            continue
        raise AssertionError("%r parsed" % (bad,))


if __name__ == "__main__":
    test_own_arithmetic()
    test_checker_accepts_real_outputs_and_rejects_corruptions()
    print("checker self-test passed: %d corruptions caught" % sum(len(c) for c in CORRUPTIONS.values()))
