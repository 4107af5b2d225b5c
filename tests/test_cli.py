import hashlib
import json
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import picard7.cli as cli
from picard7.cli import COMMANDS, main, parse
from picard7.ford import ReductionError
from picard7.torsion import ClosureError


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_cusp_torsion(capsys):
    code, out = run(capsys, ["cusp", "torsion"])
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 5
    assert len(data["classes"]) == 3


def test_cusp_overlaps_deterministic(capsys):
    code, out1 = run(capsys, ["cusp", "overlaps"])
    assert code == 0
    assert json.loads(out1)["count"] == 34
    _, out2 = run(capsys, ["cusp", "overlaps"])
    assert out1 == out2


def test_ford_reduce_identity(capsys):
    code, out = run(capsys, ["ford", "reduce", "--point", '["-1","0","1"]'])
    assert code == 0
    data = json.loads(out)
    assert data["is_identity"] and data["in_omega"]
    assert data["point"] == ["1", "0", "-1"]


def test_ford_reduce_rejects_boundary(capsys):
    code, out = run(capsys, ["ford", "reduce", "--point", '["1","0","0"]'])
    assert code == 1
    assert json.loads(out)["error"] == "ValueError"


@pytest.mark.parametrize("command", [["ford", "reduce"], ["torsion", "stabilizer"]])
@pytest.mark.parametrize(
    "point",
    [
        "null",
        '["1/0","0","1"]',
        '[1.5,"0","1"]',
        '[true,"0","1"]',
        '["-1","0"]',
        '{"a": 1}',
        '["1","0","1"]',
    ],
)
def test_bad_point_is_a_value_error(capsys, command, point):
    code, out = run(capsys, command + ["--point", point])
    assert code == 1
    assert json.loads(out)["error"] == "ValueError"


@pytest.mark.parametrize("command", [["ford", "reduce"], ["torsion", "stabilizer"]])
@pytest.mark.parametrize("point", ['["1","0","1"]', '["1","0","0"]'], ids=["positive", "null"])
def test_point_outside_the_ball_is_refused_by_the_reduction(capsys, command, point):
    # reduce_to_domain is the one interior-point check both commands pass through
    assert run(capsys, command + ["--point", point]) == (
        1,
        '{"error": "ValueError", "message": "reduction needs an interior point (negative square norm)"}\n',
    )


@pytest.mark.parametrize(
    "point,message",
    [
        ('["0","0","0"]', "zero vector has no projective class"),
        ('["1","0","0"]', "point at infinity has no horospherical coordinates"),
        # v3 = 0 gives <v, v> = N(v2), so this point is positive, not q_inf
        ('["0","1","0"]', "vector has positive square norm"),
    ],
)
def test_ford_spheres_point_with_v3_zero(capsys, point, message):
    code, out = run(capsys, ["ford", "spheres", "--point", point])
    assert code == 1
    assert json.loads(out) == {"error": "ValueError", "message": message}


@pytest.mark.parametrize("command", [["ford", "reduce"], ["ford", "spheres"], ["torsion", "stabilizer"]])
def test_deeply_nested_point_is_a_value_error(capsys, command):
    # the JSON decoder recurses once per bracket; past the interpreter's
    # limit it raises RecursionError, which must not escape as a traceback
    code, out = run(capsys, command + ["--point", "[" * 2000 + "]" * 2000])
    assert code == 1
    assert json.loads(out)["error"] == "ValueError"


def test_point_entries_may_be_json_ints(capsys):
    code, out = run(capsys, ["ford", "reduce", "--point", "[-1,0,1]"])
    assert code == 0
    assert out == run(capsys, ["ford", "reduce", "--point", '["-1","0","1"]'])[1]


@pytest.mark.parametrize("literal", ["1 2", "tau tau", "1*", "\u0661"])
def test_malformed_literal_is_a_value_error(capsys, literal):
    # a digit outside ASCII, such as the Arabic-Indic one, is refused too
    code, out = run(capsys, ["ford", "reduce", "--point", json.dumps([literal, "0", "1"])])
    assert code == 1
    err = json.loads(out)
    assert err["error"] == "ValueError" and repr(literal) in err["message"]


def test_ford_spheres(capsys):
    code, out = run(capsys, ["ford", "spheres", "--point", '["-1+1*tau","0","1"]'])
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 3
    assert all(s["side"] == "boundary" for s in data["spheres"])


def test_torsion_stabilizer(capsys):
    code, out = run(capsys, ["torsion", "stabilizer", "--point", '["-1+1*tau","0","1"]'])
    assert code == 0
    data = json.loads(out)
    assert data["linear_order"] == 16
    assert data["projective_order"] == 8
    assert data["one_lines"] == 2 and data["two_lines"] == 2


def test_mirror_search(capsys):
    code, out = run(capsys, ["mirror", "search", "--norm", "2", "--height", "2"])
    assert code == 0
    data = json.loads(out)
    assert ["1", "1", "1-1*tau"] in data["polars"]


@pytest.mark.parametrize("height", ["0", "-1"])
def test_mirror_search_bad_height(capsys, height):
    code, out = run(capsys, ["mirror", "search", "--norm", "2", "--height", height])
    assert code == 1
    assert json.loads(out)["error"] == "ValueError"


def test_mirror_search_height_cap(capsys):
    # a height past the cap is a resource limit: exit 2 with a JSON error;
    # the cap admits the default height
    from picard7.mirror import MAX_SEARCH_HEIGHT

    assert MAX_SEARCH_HEIGHT >= COMMANDS[("mirror", "search")][1]["height"]
    code = main(["mirror", "search", "--norm", "2", "--height", str(MAX_SEARCH_HEIGHT + 1)])
    out, err = capsys.readouterr()
    assert code == 2 and err == ""
    assert json.loads(out)["error"] == "ClosureError"


def test_congruence_check(capsys):
    code, out = run(capsys, ["congruence", "check", "--ideal", "tau"])
    assert code == 0
    data = json.loads(out)
    assert data["image_order"] == 168
    assert data["torsion_free"] is False


def test_parser_covers_all_subcommands():
    # every table entry names a cmd_* function of the module and every cmd_*
    # function has an entry
    for argv in (
        ["cusp", "overlaps"],
        ["cusp", "torsion"],
        ["torsion", "enumerate"],
        ["mirror", "verify", "--which", "L"],
        ["presentation", "verify"],
        ["report", "all"],
    ):
        assert callable(getattr(cli, parse(argv)[0]))
    named = {name for name, _ in COMMANDS.values()}
    defined = {name for name, f in vars(cli).items() if name.startswith("cmd_") and callable(f)}
    assert len(COMMANDS) == 11 and named == defined


def test_parser_has_no_global_options():
    # the computation has no tunable input: the limits are fixed constants,
    # and the five per-command options are all there is
    options = {opt for _, defaults in COMMANDS.values() for opt in defaults}
    assert options == set(cli.OPTIONS) == {"point", "which", "norm", "height", "ideal"}
    for flag in ("--closure-cap", "--max-reduce-iters", "--point"):
        with pytest.raises(cli.UsageError):
            parse([flag, "5", "cusp", "overlaps"])


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["ford", "reduce"],
        ["mirror", "search", "--norm", "2", "--height", "x"],
        ["--closure-cap", "5", "cusp", "overlaps"],
        ["--max-reduce-iters", "5", "cusp", "overlaps"],
        ["ford", "sideways"],
        ["mirror", "search", "--norm", "3"],
        ["cusp", "overlaps", "--closure-cap", "5"],
        ["ford", "reduce", "--point"],
        ["mirror", "verify", "--which", "X"],
        ["ford", "reduce", '--point=["-1","0","1"]'],
        ["ford", "reduce", "--poi", '["-1","0","1"]'],
    ],
    ids=["no-command", "missing-point", "bad-int", "no-closure-cap", "no-max-reduce-iters",
         "unknown-command", "bad-norm", "unknown-option", "point-without-value", "bad-which",
         "equals-form", "abbreviated-option"],
)
def test_usage_error_is_json_exit_1(capsys, argv):
    # a malformed command line is bad input (exit 1), not a resource limit (exit 2)
    code, out = run(capsys, argv)
    assert code == 1
    assert json.loads(out)["error"] == "UsageError"


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["mirror", "search", "--help"]])
def test_help_exits_0_and_lists_every_command(capsys, argv):
    code, out = run(capsys, argv)
    assert code == 0
    listed = [line.split()[1:3] for line in out.splitlines() if line.startswith("  picard7 ")]
    assert listed == [list(key) for key in COMMANDS]


def test_readme_command_lines_parse():
    # the README's examples are read by the CLI's own table, and cover all of it
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [shlex.split(line) for line in block.splitlines()]
    assert all(words[0] == "picard7" for words in lines)
    for words in lines:
        assert parse(words[1:])[0] == COMMANDS[tuple(words[1:3])][0]
    assert {tuple(words[1:3]) for words in lines} == set(COMMANDS)


def test_closed_pipe_exits_141_without_a_traceback():
    # a reader that stops early, as in `picard7 ... | head -1`, closes stdout
    # while the output (about 120 KB, more than a pipe holds) is being written
    src = Path(__file__).resolve().parent.parent / "src"
    argv = ["mirror", "search", "--which", "L", "--norm", "2", "--height", "40"]
    code = "import sys; sys.path.insert(0, %r); from picard7.cli import main; sys.exit(main(%r))" % (str(src), argv)
    proc = subprocess.Popen([sys.executable, "-I", "-c", code], stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(), err) == (141, b"")
    assert cli.EXIT_CLOSED_PIPE == 141


#: bad command lines and their exit codes: positive, null, zero and
#: malformed points, a missing option, a height past the search cap (2, a
#: resource limit; the child reads the cap from picard7.mirror) and an
#: unknown command
BAD_COMMAND_LINES = [
    (["ford", command, "--point", point], 1)
    for command in ("reduce", "spheres")
    for point in ('["1", "0", "1"]', '["1", "0", "0"]', '["0", "0", "0"]', '["1", "0"', '["x", "0", "1"]')
] + [
    (["mirror", "search", "--which", "L"], 1),
    (["mirror", "search", "--norm", "2", "--height", "MAX_SEARCH_HEIGHT + 1"], 2),
    (["frobnicate", "now"], 1),
]


@pytest.mark.parametrize("argv, exit_code", BAD_COMMAND_LINES, ids=lambda x: " ".join(x) if isinstance(x, list) else None)
def test_bad_command_line_is_one_json_line_under_python_o(argv, exit_code):
    # the exit-code contract holds with asserts stripped: in a fresh
    # `python -O -I`, a bad command line exits 1, or 2 for a resource
    # limit, prints one JSON error line on stdout, and writes no stderr
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import sys; sys.path.insert(0, %r); from picard7.cli import main; from picard7.mirror import "
            "MAX_SEARCH_HEIGHT; argv = [str(MAX_SEARCH_HEIGHT + 1) if a == 'MAX_SEARCH_HEIGHT + 1' else a "
            "for a in %r]; sys.exit(main(argv))") % (str(src), argv)
    out = subprocess.run([sys.executable, "-O", "-I", "-c", code], capture_output=True, text=True)
    lines = out.stdout.splitlines()
    assert (out.returncode, out.stderr, len(lines)) == (exit_code, "", 1)
    assert set(json.loads(lines[0])) == {"error", "message"}


def test_failed_soundness_check_exits_3(capsys, monkeypatch):
    def broken(args):
        raise ArithmeticError("the Ford quantity did not decrease")

    monkeypatch.setattr(cli, "cmd_cusp_overlaps", broken)
    code, out = run(capsys, ["cusp", "overlaps"])
    assert code == 3
    assert json.loads(out) == {"error": "ArithmeticError", "message": "the Ford quantity did not decrease"}


@pytest.mark.parametrize("error", [ClosureError, ReductionError], ids=lambda e: e.__name__)
def test_resource_limit_exits_2(capsys, monkeypatch, error):
    def limited(args):
        raise error("limit reached")

    monkeypatch.setattr(cli, "cmd_cusp_overlaps", limited)
    code, out = run(capsys, ["cusp", "overlaps"])
    assert code == 2
    assert out.count("\n") == 1
    assert json.loads(out) == {"error": error.__name__, "message": "limit reached"}


# the stabilizer of this point has two 1-lines and two 2-lines
STABILIZER_GOLDEN = (
    ["torsion", "stabilizer", "--point", '["-1+1*tau","0","1"]'],
    "436212708d21f9006c36bcee8777ad25737a6593e69b61618ab7d2f1878cd1bc",
)

# sha256 of the stdout of these commands; a change of representation or a
# cache must leave every printed byte as it was.  The first six were taken
# before KNum moved from pairs of Fractions to (a, b, d) ints, the next three
# before the cusp overlaps were cached and matrix products moved to ints, the
# next before the boundary-point types were merged, the next before the
# value records became named tuples, the two mirror-search pins after
# them before a rational point became the six ints of its primitive rep,
# the next two before the mirror search kept a candidate by the one
# equation <v, v> = norm * N(gcd(al, be)), and the last, the search at its
# default height 20, from the scan that solving the norm equation replaced.
GOLDEN = [
    pytest.param(["cusp", "torsion"],
                 "93dc2f9b75a6832a23e1ef8d85ea4cfe840159e4c73d99c85d924c84c59a3f3c",
                 id="cusp-torsion"),
    pytest.param(["mirror", "verify", "--which", "R"],
                 "5decd91c1b9f359454a00fb458489731854d1813fa88849ea58c238d59b01ccc",
                 id="mirror-verify-R"),
    pytest.param(["mirror", "search", "--which", "L", "--norm", "2", "--height", "2"],
                 "ea5a12b06b3fe5e49a3e8c45bfe36d71e1c3b0acfa13ddd3bbf3503af9dcf950",
                 id="mirror-search-L"),
    pytest.param(["ford", "reduce", "--point", '["42+12*tau", "27-19*tau", "10-25*tau"]'],
                 "f2e703d6836811ee05a874ac3d9e13a5850b8385178986672e07bfdcf2289783",
                 id="ford-reduce-1"),
    pytest.param(["ford", "reduce", "--point", '["-7-2*tau", "-2-1*tau", "-11+16*tau"]'],
                 "341cbe1ae830eda804921323616be8fe0cce7ba24c611d55a8b3c54cbae5a8f5",
                 id="ford-reduce-2"),
    pytest.param(["ford", "reduce", "--point", '["346-118*tau", "60-267*tau", "-251-110*tau"]'],
                 "313548a10db8e0b0a4da3212c4a6b10301af515f83fd361c47b98d014c26311c",
                 id="ford-reduce-3"),
    pytest.param(["cusp", "overlaps"],
                 "a7e7f0595b137d2ae130cdcb27132c9a7f0be9d79a3ce2b7c62fb59616cb1a8a",
                 id="cusp-overlaps"),
    pytest.param(*STABILIZER_GOLDEN, id="torsion-stabilizer-2-lines"),
    # a row of the order-2 table with one 1-line and one 2-line
    pytest.param(["torsion", "stabilizer", "--point", '["-1","0","1"]'],
                 "de450833322a6f213843f0c1de959ce320eddf9f235010c0a7b872d8642a88d5",
                 id="torsion-stabilizer-1-line"),
    # the merge of translated spheres rests on the key (r^4, centre)
    pytest.param(["ford", "spheres", "--point", '["42+12*tau", "27-19*tau", "10-25*tau"]'],
                 "10d9f563e6165260c6236836dd155c3156620de4be9bfa8abb411b56f65462be",
                 id="ford-spheres"),
    # the whole pipeline: every point type's representation reaches this JSON
    pytest.param(["report", "all"],
                 "7ac02892cc70fcd3196b7630f37bfe888d6d2365d20d34f4718f999a9c7de0cd",
                 id="report-all"),
    # the order of the polars is the order of the points' int tuples
    pytest.param(["mirror", "search", "--which", "L", "--norm", "2", "--height", "3"],
                 "f8ebfa2ee371591c58058675700f3f89a7e441cddaaea6afe7b667a2ad185451",
                 id="mirror-search-L-height-3"),
    pytest.param(["mirror", "search", "--which", "R", "--norm", "1", "--height", "4"],
                 "b5e1e36ca8774a854e38fd6f30f7b72678df58425127ec8ec2d44c8a00d78ff3",
                 id="mirror-search-R-height-4"),
    # the other norm of each mirror; the first is verify_mirror_L's norm-1 search
    pytest.param(["mirror", "search", "--which", "L", "--norm", "1", "--height", "5"],
                 "63049711ad337878db994fa99862ccb61a89f9c159f1998e261d182047323bdc",
                 id="mirror-search-L-norm-1"),
    pytest.param(["mirror", "search", "--which", "R", "--norm", "2", "--height", "3"],
                 "807605d50a9b387c93eef1068461cee887fc9afe3221b8ea67b7952b934160d8",
                 id="mirror-search-R-norm-2"),
    pytest.param(["mirror", "search", "--which", "L", "--norm", "2"],
                 "7a6041de5a0b367bdcf0568dc806cb87002e374d8d8ae5d778e0724d2d6cc312",
                 id="mirror-search-L-default-height"),
]


@pytest.mark.parametrize("argv,digest", GOLDEN)
def test_golden_output(capsys, argv, digest):
    code, out = run(capsys, argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_zeta3_points_never_use_intervals(capsys, monkeypatch):
    # mirror verify R and the classification of c = ab (order 6) work in
    # K(zeta_3), whose signs are decided on ints: with every interval
    # enclosure refused they print the same bytes and give c's table row
    from picard7 import mirror
    from picard7.ford import reduce_to_domain
    from picard7.presentation import abcd
    from picard7.ring import AlgNum, Zeta3Tower
    from picard7.torsion import build_cycle_graph, classify_elliptic, stabilizer

    def refused(self, prec=None):
        raise RuntimeError("interval enclosure requested")

    signs = []
    exact_sign = Zeta3Tower.real_sign

    def counted(self, x):
        signs.append(x)
        return exact_sign(self, x)

    monkeypatch.setattr(AlgNum, "enclosure", refused)
    monkeypatch.setattr(Zeta3Tower, "real_sign", counted)
    mirror.verify_mirror_R.cache_clear()
    argv, digest = next(p.values for p in GOLDEN if p.id == "mirror-verify-R")
    code, out = run(capsys, argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    assert signs
    del signs[:]
    c = abcd()["c"]
    kind, pt, _ = classify_elliptic(c, 6)
    assert kind == "isolated" and not pt.rational
    _, y = reduce_to_domain(pt)
    st = stabilizer(y, build_cycle_graph([y]))
    row = (st.linear_order, st.projective_order, st.one_lines, st.two_lines, list(st.two_line_orbits))
    assert row == (12, 6, 1, 0, [])
    assert signs


def test_stabilizer_output_does_not_depend_on_cache_state(capsys):
    # the second call finds the cusp overlaps and the candidate tables
    # already built, and must print the same bytes
    argv, digest = STABILIZER_GOLDEN
    for _ in range(2):
        code, out = run(capsys, argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_mixed_operations_pay_no_abc_checks(capsys, monkeypatch):
    # KNum's operators take KNums and ints only, so an AlgNum operand
    # reaches NotImplemented without an ABCMeta.__instancecheck__ call, and
    # the Ford sweep kernels compare on ints; watched here through
    # a K(zeta_7) comparison and two stabilizer queries, one on a K(zeta_7)
    # fixed point
    import sys
    from abc import ABCMeta
    from fractions import Fraction

    from picard7 import ford
    from picard7.ford import GENERATORS, reduce_to_domain
    from picard7.heisenberg import R, T1
    from picard7.ring import AlgNum, KNum, ZETA7
    from picard7.torsion import build_cycle_graph, classify_elliptic, stabilizer
    from reference import div, real_cmp, sub, zeta_of

    watched = {f.__code__ for f in (KNum.__add__, KNum.__sub__, KNum.__mul__, KNum.__truediv__,
                                    ford._k_cmp, ford._tower_cmp)}
    callers = []
    instancecheck = ABCMeta.__instancecheck__

    def recorded(cls, instance):
        callers.append(sys._getframe(1).f_code)
        return instancecheck(cls, instance)

    monkeypatch.setattr(ABCMeta, "__instancecheck__", recorded)
    z = zeta_of(ZETA7)
    eta = z + z.conj()  # 2 cos(2 pi/7) ~ 1.247
    # the wrapper sees the calls it should
    assert not isinstance(eta, Fraction)
    assert callers and callers[-1] is sys._getframe().f_code
    del callers[:]
    assert [real_cmp(KNum(1), eta), real_cmp(eta, KNum(2)), real_cmp(KNum(5, 0) / 4, eta)] == [-1, -1, 1]
    assert sub(KNum(3) * eta, eta * 3).is_zero() and div(KNum(1) + eta, 2).is_real()
    argv, digest = STABILIZER_GOLDEN
    code, out = run(capsys, argv)
    assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest
    g7 = GENERATORS[1] * R.to_matrix() * T1.to_matrix()
    kind, pt, _ = classify_elliptic(g7, 7)
    assert kind == "isolated" and not pt.rational
    _, y = reduce_to_domain(pt)
    assert stabilizer(y, build_cycle_graph([y])).linear_order % 7 == 0
    assert [c.co_name for c in callers if c in watched] == []
