"""Command-line front end for the verification and enumeration pipelines."""

import json
import os
import sys
from types import SimpleNamespace

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
from picard7.torsion import ClosureError, enumerate_torsion, point_stabilizer


class UsageError(Exception):
    """A malformed command line."""


def _point_json(p: ProjPoint):
    if p is None:
        return None
    if p.rational:
        return vec_to_json(p.coords)
    return {"rational": False, "note": "coordinates lie in a proper extension field"}


def _elt_json(g: GroupElt):
    return {"matrix": mat_to_json(g.mat), "word": word_str(g.word) if g.word else None}


def cmd_ford_reduce(args):
    g, y = reduce_to_domain(ProjPoint(vec_from_json(args.point)))
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
    y, st = point_stabilizer(ProjPoint(vec_from_json(args.point)))
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
    return {
        "torsion": cmd_torsion_enumerate(args),
        "cusp": cmd_cusp_torsion(args),
        "mirror_R": cmd_mirror_verify(SimpleNamespace(which="R")),
        "mirror_L": cmd_mirror_verify(SimpleNamespace(which="L")),
        "presentation": cmd_presentation_verify(args),
        "congruence_isqrt7": cmd_congruence_check(SimpleNamespace(ideal="isqrt7")),
        "congruence_tau": cmd_congruence_check(SimpleNamespace(ideal="tau")),
    }


#: (group, command) -> (name of its cmd_* function, {option: default}); a
#: default of None marks a required option
COMMANDS = {
    ("ford", "reduce"): ("cmd_ford_reduce", {"point": None}),
    ("ford", "spheres"): ("cmd_ford_spheres", {"point": None}),
    ("cusp", "overlaps"): ("cmd_cusp_overlaps", {}),
    ("cusp", "torsion"): ("cmd_cusp_torsion", {}),
    ("torsion", "enumerate"): ("cmd_torsion_enumerate", {}),
    ("torsion", "stabilizer"): ("cmd_torsion_stabilizer", {"point": None}),
    ("mirror", "verify"): ("cmd_mirror_verify", {"which": None}),
    ("mirror", "search"): ("cmd_mirror_search", {"which": "L", "norm": None, "height": 20}),
    ("presentation", "verify"): ("cmd_presentation_verify", {}),
    ("congruence", "check"): ("cmd_congruence_check", {"ideal": None}),
    ("report", "all"): ("cmd_report_all", {}),
}

#: option -> (type of its value, the values it accepts or None for any)
OPTIONS = {
    "point": (str, None),
    "which": (str, ("R", "L")),
    "norm": (int, (1, 2)),
    "height": (int, None),
    "ideal": (str, ("isqrt7", "tau")),
}


def parse(argv):
    """The cmd_* name and the options of `<group> <command> [--option value ...]`."""
    if tuple(argv[:2]) not in COMMANDS:
        raise UsageError("unknown command %r; see --help" % " ".join(argv[:2]))
    if len(argv) % 2:
        raise UsageError("expected --option value pairs after %r" % " ".join(argv[:2]))
    name, defaults = COMMANDS[tuple(argv[:2])]
    opts = dict(defaults)
    for flag, text in zip(argv[2::2], argv[3::2]):
        opt = flag[2:]
        if not flag.startswith("--") or opt not in opts:
            raise UsageError("unrecognized argument: %s" % flag)
        kind, choices = OPTIONS[opt]
        try:
            opts[opt] = kind(text)
        except ValueError:
            raise UsageError("argument %s: invalid %s value: %r" % (flag, kind.__name__, text)) from None
        if choices is not None and opts[opt] not in choices:
            raise UsageError("argument %s: invalid choice: %r (choose from %s)"
                             % (flag, text, ", ".join(map(str, choices))))
    missing = ["--" + opt for opt, value in opts.items() if value is None]
    if missing:
        raise UsageError("the following arguments are required: " + ", ".join(missing))
    return name, opts


def usage() -> str:
    lines = ["usage: picard7 <group> <command> [--option value ...]", "", __doc__, ""]
    for (group, command), (_, defaults) in COMMANDS.items():
        words = ["  picard7", group, command]
        for opt, default in defaults.items():
            choices = OPTIONS[opt][1]
            arg = "--%s %s" % (opt, "|".join(map(str, choices)) if choices else opt.upper())
            words.append(arg if default is None else "[%s]" % arg)
        lines.append(" ".join(words))
    return "\n".join(lines)


#: stdout closed early: 128 + SIGPIPE, as a shell reports a writer killed by a closed pipe
EXIT_CLOSED_PIPE = 141


def _error(name, e):
    return json.dumps({"error": name, "message": str(e)}, sort_keys=True)


def _run(argv):
    """(stdout text, exit code) of one command line."""
    try:
        name, opts = parse(argv)
        # looked up when it runs, so a cmd_* replaced after import (a test
        # double, a tracer) takes effect
        out = globals()[name](SimpleNamespace(**opts))
    except UsageError as e:
        return _error("UsageError", e), 1
    except (ClosureError, ReductionError) as e:
        return _error(type(e).__name__, e), 2
    except ValueError as e:
        return _error("ValueError", e), 1
    except ArithmeticError as e:
        return _error(type(e).__name__, e), 3
    return json.dumps(out, sort_keys=True, indent=2), 0


def main(argv=None) -> int:
    """Exit codes: 0 success, 1 bad input, 2 resource limit, 3 failed soundness
    check, 141 (EXIT_CLOSED_PIPE) stdout closed before the output was written."""
    argv = sys.argv[1:] if argv is None else argv
    text, code = (usage(), 0) if "-h" in argv or "--help" in argv else _run(argv)
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone: point stdout at os.devnull, so that the flush
        # at interpreter exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED_PIPE
    return code


if __name__ == "__main__":
    sys.exit(main())
