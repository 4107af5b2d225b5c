"""One round of a workload in a fresh interpreter.

Reads a request from stdin: {"ops": [...], "trace": bool, "spans": path or
null, "primitives": bool}.  Times the set-up (import
picard7.cli and build the Ford candidate tables), then each operation,
and prints one JSON line: set-up time, per-operation latency and output,
peak RSS, and, when traced, the per-layer numbers.  The set-up and each
operation come with the time of a calibration loop run just before and
just after them.

CLI operations go through picard7.cli.main with argv, capturing the JSON
it prints.  Library operations call picard7's public functions and
serialize the result to JSON.
"""

import contextlib
import io
import json
import resource
import statistics
import sys
import time
from fractions import Fraction

clock = time.perf_counter


def calibrate():
    """Median time of three runs of a fixed loop of exact rational and
    big-integer arithmetic that touches no picard7 code (about 10 ms each).
    The machine's speed drifts by a quarter within seconds; the parent
    scales the set-up and each operation by the calibration taken just
    before and just after it (see run.py)."""
    times = []
    for _ in range(3):
        t = clock()
        s, x = Fraction(0), 12345678901234567
        for i in range(1, 2000):
            s += Fraction(i, i + 7)
            x = (x * 31 + i) % 1000000007 ** 3
        times.append(clock() - t)
    return statistics.median(times)


def run_cli(argv):
    import picard7.cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = picard7.cli.main(argv)
    text = buf.getvalue()
    if rc != 0:
        raise RuntimeError("exit code %d: %s" % (rc, text.strip()))
    return json.loads(text)


def _point_json(p):
    from picard7.hermitian import vec_to_json

    return vec_to_json(p.coords) if p.rational else {"rational": False}


def lib_classify(op):
    from picard7.ford import reduce_to_domain
    from picard7.hermitian import GroupElt, mat_from_json, vec_to_json
    from picard7.torsion import build_cycle_graph, classify_elliptic, projective_order, stabilizer

    g = GroupElt(mat_from_json(op["matrix"]))
    out = {"order": projective_order(g)}
    kind, pt, norm = classify_elliptic(g, op["order"])
    out["kind"] = kind
    if kind == "reflection":
        out.update(polar=vec_to_json(pt.coords), polar_norm=norm)
        return out
    _, y = reduce_to_domain(pt)
    st = stabilizer(y, build_cycle_graph([y]))
    out.update(
        fixed_point=_point_json(pt),
        point=_point_json(y),
        linear_order=st.linear_order,
        projective_order=st.projective_order,
        scalar_order=st.scalar_order,
        one_lines=st.one_lines,
        two_lines=st.two_lines,
        two_line_orbits=list(st.two_line_orbits),
    )
    return out


def lib_congruence(op):
    from types import SimpleNamespace

    from picard7 import congruence
    from picard7.hermitian import GroupElt, mat_from_json

    classes = [
        SimpleNamespace(rep=GroupElt(mat_from_json(c["matrix"])), proj_order=c["order"], word=c["word"])
        for c in op["classes"]
    ]
    return congruence.torsion_free_certificate(op["ideal"], classes)


def lib_relators(op):
    from picard7 import presentation

    return presentation.verify_relators()


def lib_table_rows(op):
    from picard7 import presentation

    return presentation.verify_table_rows()


def lib_mirror_L_facts(op):
    from itertools import permutations

    from picard7 import mirror
    from picard7.hermitian import is_in_gamma
    from picard7.torsion import projective_order

    ctx = mirror.MirrorContext.mirror_of_shifted_half_turn()
    gens = mirror.mirror_l_generators()
    r = {k: gens["r%d" % k] for k in (1, 2, 3, 4)}
    s1, s2, tv = gens["s1"], gens["s2"], gens["tv"]

    def trivial(g):
        return mirror.acts_trivially_on_mirror(g, ctx)

    return {
        "in_gamma": {name: is_in_gamma(g.mat) for name, g in gens.items()},
        "preserves": {name: mirror.preserves_mirror(g, ctx) for name, g in gens.items()},
        "r2^2_trivial": trivial(r[2] ** 2),
        "r2^3_trivial": trivial(r[2] ** 3),
        "long_relator_triples": [
            list(t) for t in permutations((1, 2, 3, 4), 3)
            if trivial(s1.inverse() * r[t[0]] * r[t[1]] * r[t[2]] * tv)
        ],
        "s2_projective_order": projective_order(s2),
    }


def lib_cusp_orbit(op):
    from picard7.ford import GENERATORS
    from picard7.heisenberg import R, T1, TTAU, TV
    from picard7.hermitian import ProjPoint, mat_to_json, vec_from_json
    from picard7.mirror import cusp_orbit_search

    alphabet = [GENERATORS[j] for j in sorted(GENERATORS)]
    for c in (T1, TTAU, TV):
        alphabet += [c.to_matrix(), c.inverse().to_matrix()]
    alphabet.append(R.to_matrix())
    g = cusp_orbit_search(ProjPoint(vec_from_json(op["target"])), alphabet, op["max_len"])
    return {"found": g is not None, "matrix": mat_to_json(g.mat) if g is not None else None}


LIBRARY = {
    "classify": lib_classify,
    "congruence": lib_congruence,
    "relators": lib_relators,
    "table_rows": lib_table_rows,
    "mirror_L_facts": lib_mirror_L_facts,
    "cusp_orbit": lib_cusp_orbit,
}


def run_op(op):
    if "cli" in op:
        return run_cli(op["cli"])
    return LIBRARY[op["lib"]](op)


def _us_per_call(call, operands):
    """Median over five batches of the time per call, in microseconds; a
    batch cycles through the operands and lasts at least 20 ms."""
    reps = len(operands)
    while True:
        t = clock()
        for i in range(reps):
            call(operands[i % len(operands)])
        if clock() - t >= 0.02:
            break
        reps *= 2
    samples = []
    for _ in range(5):
        t = clock()
        for i in range(reps):
            call(operands[i % len(operands)])
        samples.append((clock() - t) / reps * 1e6)
    return statistics.median(samples)


def time_primitives(ops):
    """Per-call cost of the ROADMAP's primitives on operands from the round.

    K-numbers and vectors come from the round's input points and matrices
    and from the side-pairing matrices; tower numbers from the fixed point
    of the order-7 element a of the presentation.
    """
    from picard7.ford import GENERATORS
    from picard7.hermitian import GroupElt, herm_inner, mat_from_json, primitive_rep, sq_norm, vec_from_json
    from picard7.presentation import A_MAT
    from picard7.ring import KNum
    from picard7.torsion import classify_elliptic

    vecs, mats = [], [GENERATORS[j].mat for j in sorted(GENERATORS)]
    for op in ops:
        if "cli" in op and "--point" in op["cli"]:
            vecs.append(vec_from_json(op["cli"][op["cli"].index("--point") + 1]))
        if "matrix" in op:
            mats.append(mat_from_json(op["matrix"]))
    for m in mats:
        vecs += [tuple(m.rows[i][j] for i in range(3)) for j in range(3)]
    knums = [x for v in vecs for x in v if not x.is_zero()]
    pairs = list(zip(knums, knums[1:]))
    vpairs = list(zip(vecs, vecs[1:]))
    mpairs = list(zip(mats, mats[1:]))
    scaled = [tuple(x * KNum(2) for x in v) for v in vecs if any(not x.is_zero() for x in v)]
    _, fixed, _ = classify_elliptic(GroupElt(A_MAT), 7)
    alg = list(fixed.coords)
    apairs = [(x, y) for x in alg for y in alg]
    reals = [x.abs2() for x in alg if not x.is_zero()] + [sq_norm(fixed.coords)]
    return {
        "ring.knum_mul_us": _us_per_call(lambda p: p[0] * p[1], pairs),
        "ring.algnum_mul_us": _us_per_call(lambda p: p[0] * p[1], apairs),
        "ring.algnum_conj_us": _us_per_call(lambda x: x.conj(), alg),
        "ring.algnum_real_sign_us": _us_per_call(lambda x: x.real_sign(), reals),
        "hermitian.herm_inner_us": _us_per_call(lambda p: herm_inner(p[0], p[1]), vpairs),
        "hermitian.mat_mul_us": _us_per_call(lambda p: p[0] * p[1], mpairs),
        "hermitian.primitive_rep_us": _us_per_call(primitive_rep, scaled),
    }


def main():
    req = json.load(sys.stdin)
    cal = calibrate()
    t0 = clock()
    tracer = None
    if req.get("trace"):
        import layers

        tracer = layers.Tracer()
        tracer.install()
    import picard7.cli  # noqa: F401
    from picard7.ford import GENERATORS, candidate_spheres

    for j in sorted(GENERATORS):
        candidate_spheres(j)
    setup_s = clock() - t0
    cal = (cal + calibrate()) / 2
    result = {"setup_s": setup_s, "setup_cal_s": cal, "ops": []}
    for op in req["ops"]:
        before = calibrate()
        t = clock()
        try:
            out, error = run_op(op), None
        except Exception as e:  # the benchmark counts a failing operation and goes on
            out, error = None, "%s: %s" % (type(e).__name__, e)
        latency = clock() - t
        result["ops"].append({"latency_s": latency, "cal_s": (before + calibrate()) / 2,
                              "output": out, "error": error})
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        result["layers"] = tracer.report(req.get("spans"))
    if req.get("primitives"):
        result["primitives"] = time_primitives(req["ops"])
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
