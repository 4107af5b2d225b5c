"""Outside-in tracing of picard7's layers.

`Tracer.install()` wraps each function in TARGETS in every picard7 module
namespace that holds it (methods on their class; a class by its
`__init__`).  Each call records a span (id, function, start, end, parent
span id) in memory; `report()` turns the spans into per-function call
counts and self times (span time minus the time of its child spans) and
can write the spans out.  Nothing under src/ changes.
"""

import gzip
import importlib
import itertools
import sys
import time
from collections import defaultdict

# (layer, function) pairs; the metric names are "<layer>.<function>.calls"
# and "<layer>.<function>.self_s"
TARGETS = [
    ("ring", "o_gcd"),
    ("ring", "AlgNum.__mul__"),
    ("ring", "AlgNum.conj"),
    ("ring", "AlgNum.real_sign"),
    ("ring", "AlgNum.enclosure"),
    ("hermitian", "herm_inner"),
    ("hermitian", "primitive_rep"),
    ("hermitian", "is_in_gamma"),
    ("heisenberg", "reduce_to_prism"),
    ("heisenberg", "enumerate_cusp_overlaps"),
    ("ford", "candidate_spheres"),
    ("ford", "reduce_to_domain"),
    ("ford", "in_omega"),
    ("ford", "spheres_containing"),
    ("torsion", "enumerate_torsion"),
    ("torsion", "dedup_isolated"),
    ("torsion", "classify_elliptic"),
    ("torsion", "projective_order"),
    ("torsion", "reflection_conjugacy"),
    ("torsion", "build_cycle_graph"),
    ("torsion", "stabilizer"),
    ("torsion", "FiniteGroup"),
    ("mirror", "verify_mirror_R"),
    ("mirror", "verify_mirror_L"),
    ("mirror", "search_orthogonal_mirrors"),
    ("mirror", "cusp_orbit_search"),
    ("presentation", "verify_relators"),
    ("presentation", "verify_table_rows"),
    ("presentation", "coverage_report"),
    ("congruence", "image_group"),
    ("congruence", "torsion_free_certificate"),
    ("cli", "main"),
    ("cli", "cmd_ford_reduce"),
    ("cli", "cmd_torsion_stabilizer"),
    ("cli", "cmd_cusp_torsion"),
    ("cli", "cmd_mirror_verify"),
    ("cli", "cmd_mirror_search"),
]

# counts derived from the span tree
DERIVED = ["ring.real_sign_escalations", "ford.reduce_steps", "torsion.closure_elements"]

# Reached by no workload: they run inside `torsion enumerate`, `mirror verify
# --which L` and `presentation verify`, whose minutes do not fit in one run.
# Their call counts (0) are still reported, so that a change in what the
# workloads reach shows; a self time that is always 0 is not.
UNREACHED = {
    "torsion.enumerate_torsion",
    "torsion.dedup_isolated",
    "torsion.reflection_conjugacy",
    "mirror.verify_mirror_L",
    "presentation.coverage_report",
}


def metric_names():
    names = []
    for layer, fn in TARGETS:
        label = "%s.%s" % (layer, fn)
        names.append(label + ".calls")
        if label not in UNREACHED:
            names.append(label + ".self_s")
    return names + DERIVED


class Tracer:
    def __init__(self):
        self.labels = []
        self.spans = []
        self.closure_elements = 0
        self._stack = [0]
        self._ids = itertools.count(1)

    def _wrap(self, label, orig):
        idx = len(self.labels)
        self.labels.append(label)
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter

        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            t0 = clock()
            try:
                return orig(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, idx, t0, t1, parent))

        traced.__wrapped__ = orig
        return traced

    def install(self):
        for layer, _ in TARGETS:
            importlib.import_module("picard7." + layer)
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "picard7"]
        for layer, fn in TARGETS:
            mod = sys.modules["picard7." + layer]
            label = "%s.%s" % (layer, fn)
            if "." in fn:
                cls_name, attr = fn.split(".")
                cls = getattr(mod, cls_name)
                setattr(cls, attr, self._wrap(label, cls.__dict__[attr]))
            elif isinstance(getattr(mod, fn), type):
                cls = getattr(mod, fn)
                cls.__init__ = self._wrap(label, self._counting_init(cls.__init__))
            else:
                orig = getattr(mod, fn)
                traced = self._wrap(label, orig)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, attr, traced)

    def _counting_init(self, init):
        tracer = self

        def counted(group, *args, **kwargs):
            init(group, *args, **kwargs)
            tracer.closure_elements += group.linear_order

        return counted

    def report(self, spans_path=None):
        """Per-function calls and self time, plus the derived counts."""
        n = len(self.labels)
        calls = [0] * n
        self_s = [0.0] * n
        child = defaultdict(float)
        label_of = {}
        for sid, idx, t0, t1, parent in self.spans:
            child[parent] += t1 - t0
            label_of[sid] = idx
        idx_of = {label: i for i, label in enumerate(self.labels)}
        real_sign, enclosure = idx_of["ring.AlgNum.real_sign"], idx_of["ring.AlgNum.enclosure"]
        reduce, prism = idx_of["ford.reduce_to_domain"], idx_of["heisenberg.reduce_to_prism"]
        enclosures_in = defaultdict(int)
        steps = 0
        for sid, idx, t0, t1, parent in self.spans:
            calls[idx] += 1
            self_s[idx] += (t1 - t0) - child.get(sid, 0.0)
            pidx = label_of.get(parent)
            if idx == enclosure and pidx == real_sign:
                enclosures_in[parent] += 1
            elif idx == prism and pidx == reduce:
                steps += 1
        out = {}
        for i, label in enumerate(self.labels):
            out[label + ".calls"] = calls[i]
            out[label + ".self_s"] = self_s[i]
        out["ring.real_sign_escalations"] = sum(c - 1 for c in enclosures_in.values())
        out["ford.reduce_steps"] = steps
        out["torsion.closure_elements"] = self.closure_elements
        if spans_path:
            with gzip.open(spans_path, "wt") as f:
                f.write("id,function,start,end,parent\n")
                for sid, idx, t0, t1, parent in self.spans:
                    f.write("%d,%s,%.9f,%.9f,%d\n" % (sid, self.labels[idx], t0, t1, parent))
        return out
