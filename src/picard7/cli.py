"""Command-line front end for the verification and enumeration pipelines."""

import argparse
import json
import sys
from functools import cache

from picard7.hermitian import (
    GroupElt,
    ProjPoint,
    mat_to_json,
    vec_from_json,
    vec_to_json,
    word_str,
)
from picard7.heisenberg import cusp_torsion_classes, enumerate_cusp_overlaps
from picard7.ford import ReductionError, reduce_to_domain, spheres_containing
from picard7.torsion import ClosureError, build_cycle_graph, enumerate_torsion, stabilizer

class UsageError(Exception):
    """A malformed command line (argparse's error, which would exit 2)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _point_json(p: ProjPoint):
    if p is None:
        return None
    if p.rational:
        return vec_to_json(p.coords)
    return {"rational": False, "note": "coordinates lie in a proper extension field"}


def _elt_json(g: GroupElt):
    return {"matrix": mat_to_json(g.mat), "word": word_str(g.word) if g.word else None}


def _interior_point(text) -> ProjPoint:
    """The --point argument as a ProjPoint, which must be negative (inside the ball)."""
    p = ProjPoint(vec_from_json(text))
    if p.sq_norm_sign() >= 0:
        raise ValueError("reduction needs an interior point (negative square norm)")
    return p


def cmd_ford_reduce(args):
    g, y = reduce_to_domain(_interior_point(args.point))
    return {
        "element": _elt_json(g),
        "point": _point_json(y),
        # reduce_to_domain returns only a prism-reduced point that violates
        # no Ford inequality, which is the predicate of ford.in_omega
        "in_omega": True,
        "is_identity": g.is_identity(),
    }


def cmd_ford_spheres(args):
    v = vec_from_json(args.point)
    res = spheres_containing(ProjPoint(v))
    return {
        "count": len(res),
        "spheres": [
            {"translate": repr(alpha), "generator": j, "side": flag}
            for alpha, j, flag in res
        ],
    }


def cmd_cusp_overlaps(args):
    ov = enumerate_cusp_overlaps()
    return {
        "count": len(ov),
        "overlaps": [
            {"normal_form": repr(c), "order": c.order()} for c in ov
        ],
    }


def cmd_cusp_torsion(args):
    ov = enumerate_cusp_overlaps()
    torsion = [c for c in ov if c.order() == 2]
    classes = cusp_torsion_classes()
    return {
        "count": len(torsion),
        "elements": [repr(c) for c in torsion],
        "classes": [_elt_json(g) for g in classes],
    }


def _class_json(i, cls):
    return {
        "row": i + 1,
        "table": "reflections" if cls.kind == "reflection" else "order-%d" % cls.proj_order,
        "kind": cls.kind,
        "order": cls.proj_order,
        "word": cls.word,
        "matrix": mat_to_json(cls.rep.mat),
        "polar": _point_json(cls.polar),
        "polar_norm": cls.polar_norm,
        "fixed_point": _point_json(cls.fixed),
        "fixed_point_norm": cls.fp_norm,
        "stabilizer_order": cls.stab_order,
        "stabilizer_linear_order": cls.stab_linear_order,
        "one_lines": cls.one_lines,
        "two_lines": cls.two_lines,
        "two_line_orbits": cls.two_line_orbits,
        "members": len(cls.members),
    }


def cmd_torsion_enumerate(args):
    classes = enumerate_torsion()
    return {
        "count": len(classes),
        "classes": [_class_json(i, c) for i, c in enumerate(classes)],
    }


def cmd_torsion_stabilizer(args):
    _, y = reduce_to_domain(_interior_point(args.point))
    graph = build_cycle_graph([y])
    st = stabilizer(y, graph)
    return {
        "point": _point_json(y),
        "linear_order": st.linear_order,
        "projective_order": st.projective_order,
        "scalar_order": st.scalar_order,
        "one_lines": st.one_lines,
        "two_lines": st.two_lines,
        "two_line_orbits": st.two_line_orbits,
    }


def cmd_mirror_verify(args):
    from picard7 import mirror

    if args.which == "R":
        return mirror.verify_mirror_R()
    rep = dict(mirror.verify_mirror_L())
    rep["long_relator_triples"] = [list(t) for t in rep["long_relator_triples"]]
    return rep


def cmd_mirror_search(args):
    from picard7 import mirror

    ctx = (
        mirror.MirrorContext.mirror_of_half_turn()
        if args.which == "R"
        else mirror.MirrorContext.mirror_of_shifted_half_turn()
    )
    res = mirror.search_orthogonal_mirrors(ctx, args.norm, args.height)
    return {
        "count": len(res),
        "polars": [vec_to_json(p.coords) for p in res],
    }


def cmd_presentation_verify(args):
    from picard7 import presentation

    cov = presentation.coverage_report()
    return {
        "relators": presentation.verify_relators(),
        "rows": presentation.verify_table_rows(),
        "coverage": {
            "n_classes": cov["n_classes"],
            "all_covered": cov["all_covered"],
            "matches": {
                str(i): {"word": m["word"], "power": m["power"], "delta": _elt_json(m["delta"])}
                for i, m in cov["matches"].items()
            },
        },
    }


def cmd_congruence_check(args):
    from picard7 import congruence

    return congruence.torsion_free_certificate(args.ideal)


def cmd_report_all(args):
    from types import SimpleNamespace

    return {
        "torsion": cmd_torsion_enumerate(args),
        "cusp": cmd_cusp_torsion(args),
        "mirror_R": cmd_mirror_verify(SimpleNamespace(which="R")),
        "mirror_L": cmd_mirror_verify(SimpleNamespace(which="L")),
        "presentation": cmd_presentation_verify(args),
        "congruence_isqrt7": cmd_congruence_check(SimpleNamespace(ideal="isqrt7")),
        "congruence_tau": cmd_congruence_check(SimpleNamespace(ideal="tau")),
    }


def _command(name):
    """The subcommand function `name`, looked up in this module when it runs.

    The parser is built once per process; the lookup at run time keeps a
    cmd_* function that was replaced after that (a test double, a tracer)
    in effect.
    """

    def run(args):
        return globals()[name](args)

    return run


@cache
def build_parser():
    p = _Parser(prog="picard7", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    ford = sub.add_parser("ford").add_subparsers(dest="sub", required=True)
    fr = ford.add_parser("reduce")
    fr.add_argument("--point", required=True, help="JSON vector, e.g. '[\"-1\",\"0\",\"1\"]'")
    fr.set_defaults(func=_command("cmd_ford_reduce"))
    fs = ford.add_parser("spheres")
    fs.add_argument("--point", required=True)
    fs.set_defaults(func=_command("cmd_ford_spheres"))

    cusp = sub.add_parser("cusp").add_subparsers(dest="sub", required=True)
    cusp.add_parser("overlaps").set_defaults(func=_command("cmd_cusp_overlaps"))
    cusp.add_parser("torsion").set_defaults(func=_command("cmd_cusp_torsion"))

    tor = sub.add_parser("torsion").add_subparsers(dest="sub", required=True)
    tor.add_parser("enumerate").set_defaults(func=_command("cmd_torsion_enumerate"))
    ts = tor.add_parser("stabilizer")
    ts.add_argument("--point", required=True)
    ts.set_defaults(func=_command("cmd_torsion_stabilizer"))

    mir = sub.add_parser("mirror").add_subparsers(dest="sub", required=True)
    mv = mir.add_parser("verify")
    mv.add_argument("--which", choices=("R", "L"), required=True)
    mv.set_defaults(func=_command("cmd_mirror_verify"))
    ms = mir.add_parser("search")
    ms.add_argument("--which", choices=("R", "L"), default="L")
    ms.add_argument("--norm", type=int, choices=(1, 2), required=True)
    ms.add_argument("--height", type=int, default=20)
    ms.set_defaults(func=_command("cmd_mirror_search"))

    pres = sub.add_parser("presentation").add_subparsers(dest="sub", required=True)
    pres.add_parser("verify").set_defaults(func=_command("cmd_presentation_verify"))

    con = sub.add_parser("congruence").add_subparsers(dest="sub", required=True)
    cc = con.add_parser("check")
    cc.add_argument("--ideal", choices=("isqrt7", "tau"), required=True)
    cc.set_defaults(func=_command("cmd_congruence_check"))

    rep = sub.add_parser("report").add_subparsers(dest="sub", required=True)
    rep.add_parser("all").set_defaults(func=_command("cmd_report_all"))
    return p


def _error(name, e, code) -> int:
    print(json.dumps({"error": name, "message": str(e)}, sort_keys=True))
    return code


def main(argv=None) -> int:
    """Exit codes: 0 success, 1 bad input, 2 resource limit, 3 failed soundness check."""
    try:
        args = build_parser().parse_args(argv)
        out = args.func(args)
    except UsageError as e:
        return _error("UsageError", e, 1)
    except (ClosureError, ReductionError) as e:
        return _error(type(e).__name__, e, 2)
    except ValueError as e:
        return _error("ValueError", e, 1)
    except ArithmeticError as e:
        return _error(type(e).__name__, e, 3)
    print(json.dumps(out, sort_keys=True, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
