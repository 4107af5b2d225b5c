"""picard7 benchmark: run one workload, check every output, print the metrics.

    python3 perfbench/run.py --workload queries --seed 1 --seconds 20 --trace 0

Run from the repository root.  The seed fixes one round of operations.  A
run repeats the round, each time in a fresh interpreter
(perfbench/worker.py) that sets picard7 up and runs the round's
operations, so module-level and lru caches start cold as they do for a
user's CLI invocation.  With --trace 0 the run makes --seconds // ROUND_S
repeats and the last line printed is the end-to-end metrics, taken from
each operation's fastest repeat.  With --trace 1 it makes three: one
untraced, then two with every layer wrapped; the last line is the
per-layer metrics.  See perfbench/README.md.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_build", "perfbench")
PYCACHE = os.path.join(OUT, "pycache")
HASH_SEED = "0"
SETUP_SAMPLES = 3
# A run makes --seconds // ROUND_S repeats, at least one, so two commits
# are measured on the same work however fast each is.
ROUND_S = 10
# The machine's speed drifts by a quarter within seconds, the same for
# picard7 and for any other interpreted arithmetic.  The set-up and each
# operation are scaled by CAL_REF_S over the time of a fixed calibration
# loop run just before and after them (worker.calibrate, which touches no
# picard7 code), and so read in reference seconds: seconds on this machine
# when the loop takes CAL_REF_S.
CAL_REF_S = 0.010
WORKER_TIMEOUT_S = 170

sys.path.insert(0, HERE)


def child_env():
    env = dict(os.environ)
    env.update(PYTHONPATH=SRC, PYTHONHASHSEED=HASH_SEED, PYTHONPYCACHEPREFIX=PYCACHE)
    return env


def compile_sources():
    """Byte-compile picard7 into the benchmark's own cache, so that no round
    pays for compiling and the source tree is left as it was."""
    subprocess.run([sys.executable, "-m", "compileall", "-q", SRC], env=child_env(),
                   check=True, stdout=subprocess.DEVNULL, timeout=WORKER_TIMEOUT_S)


def run_worker(request):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py")],
        input=json.dumps(request), capture_output=True, text=True, env=child_env(),
        timeout=WORKER_TIMEOUT_S, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError("worker failed (exit %d):\n%s" % (proc.returncode, proc.stderr))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_round(pairs, **request):
    """Run one round in a fresh worker and check its outputs."""
    import check

    res = run_worker(dict(request, ops=[op for op, _ in pairs]))
    failed, problems = 0, []
    for i, ((op, expect), rec) in enumerate(zip(pairs, res["ops"])):
        if rec["error"] is not None:
            failed += 1
            print("op %d failed: %s" % (i, rec["error"]), file=sys.stderr)
            continue
        for p in check.check(expect, rec["output"]):
            problems.append("op %d (%s): %s" % (i, expect["check"], p))
    for p in problems:
        print("CHECK FAILED " + p, file=sys.stderr)
    res["failed"], res["problems"] = failed, problems
    return res


def scaled(t, cal_s):
    return t * CAL_REF_S / cal_s


def latencies(res):
    return [scaled(r["latency_s"], r["cal_s"]) for r in res["ops"]]


def end_to_end(rounds, setups):
    """The round time counts each operation with its fastest repeat."""
    per_round = (latencies(res) for res in rounds)
    return {
        "round_s": (sum(min(ops) for ops in zip(*per_round)), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mib": (statistics.median(res["peak_rss_mib"] for res in rounds), "MiB"),
    }


def per_layer(plain, traced):
    import layers

    out = {}
    for name in layers.metric_names():
        values = [t["layers"][name] for t in traced]
        if name.endswith(".self_s"):
            out[name] = (statistics.median(values), "s")
        else:
            out[name] = (values[0], "count")
    for name, value in plain["primitives"].items():
        out[name] = (value, "us")
    round_s = [sum(latencies(res)) for res in [plain] + traced]
    out["trace.round_s"] = (statistics.median(round_s[1:]), "s")
    out["trace.overhead_s"] = (statistics.median(round_s[1:]) - round_s[0], "s")
    counts = [{k: v for k, v in t["layers"].items() if not k.endswith("_s")} for t in traced]
    out["trace.calls_repeat"] = (int(all(c == counts[0] for c in counts)), "count")
    return out


def main():
    import inputs

    # on SIGTERM, unwind so that subprocess.run kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "picard7", "cli.py")):
        sys.exit("perfbench: no picard7 sources under %s; run from a checkout of the repository" % SRC)
    os.makedirs(OUT, exist_ok=True)
    compile_sources()
    sys.pycache_prefix = PYCACHE
    sys.path.insert(0, SRC)

    pairs = inputs.make_round(args.workload, args.seed)
    rounds, setups = [], []
    if args.trace:
        spans = os.path.join(OUT, "traces", "%s-seed%d-round%%d.spans.csv.gz" % (args.workload, args.seed))
        os.makedirs(os.path.dirname(spans), exist_ok=True)
        plain = run_round(pairs, primitives=True)
        traced = [run_round(pairs, trace=True, spans=spans % k) for k in (1, 2)]
        rounds = [plain] + traced
        metrics = per_layer(plain, traced)
    else:
        rounds = [run_round(pairs) for _ in range(max(1, int(args.seconds // ROUND_S)))]
        setups = rounds + [run_worker({"ops": []})
                           for _ in range(SETUP_SAMPLES - len(rounds))]
        setups = [scaled(r["setup_s"], r["setup_cal_s"]) for r in setups]
        metrics = end_to_end(rounds, setups)

    result = {
        "correct": not any(r["problems"] for r in rounds),
        "attempted": sum(len(r["ops"]) for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    detail = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, rounds=rounds, setups=setups)
    path = os.path.join(OUT, "results", "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump(detail, f, indent=1)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
