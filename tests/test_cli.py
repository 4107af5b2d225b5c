import json

import pytest

from picard7.cli import Config, build_parser, main


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_config_validation():
    cfg = Config()
    assert cfg.max_reduce_iters == 1000 and cfg.closure_cap == 10000


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


def test_congruence_check(capsys):
    code, out = run(capsys, ["congruence", "check", "--ideal", "tau"])
    assert code == 0
    data = json.loads(out)
    assert data["image_order"] == 168
    assert data["torsion_free"] is False


def test_bad_config_flag(capsys):
    code, out = run(capsys, ["--max-reduce-iters", "0", "cusp", "overlaps"])
    assert code == 1


def test_parser_covers_all_subcommands():
    p = build_parser()
    for argv in (
        ["cusp", "overlaps"],
        ["cusp", "torsion"],
        ["torsion", "enumerate"],
        ["mirror", "verify", "--which", "L"],
        ["presentation", "verify"],
        ["report", "all"],
    ):
        args = p.parse_args(argv)
        assert callable(args.func)


@pytest.mark.parametrize(
    "argv",
    [[], ["ford", "reduce"], ["--closure-cap", "x", "cusp", "overlaps"]],
    ids=["no-command", "missing-point", "bad-int"],
)
def test_usage_error_is_json_exit_1(capsys, argv):
    # argparse would print plain text and exit 2, the resource-limit code
    code, out = run(capsys, argv)
    assert code == 1
    assert json.loads(out)["error"] == "UsageError"


def test_failed_soundness_check_exits_3(capsys, monkeypatch):
    import picard7.cli as cli

    def broken(args, cfg):
        raise ArithmeticError("candidate box too small")

    monkeypatch.setattr(cli, "cmd_cusp_overlaps", broken)
    code, out = run(capsys, ["cusp", "overlaps"])
    assert code == 3
    assert json.loads(out) == {"error": "ArithmeticError", "message": "candidate box too small"}
