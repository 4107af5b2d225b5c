"""Static hygiene checks on the package source, and on the test modules'
imports (stdlib `ast`; picard7 is imported only in a child interpreter)."""

import ast
import functools
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "picard7"
BENCH = ROOT / "perfbench"
MODULES = sorted(SRC.glob("*.py"))
TEST_MODULES = sorted(Path(__file__).resolve().parent.glob("*.py"))


def unused_imports(path: Path):
    """Names a module imports and never reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def asserts(path: Path):
    """Line numbers of `assert` statements, which `python -O` strips."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return sorted(n.lineno for n in ast.walk(tree) if isinstance(n, ast.Assert))


def imported_packages(path: Path):
    """Top-level names of the packages a module imports (absolute imports only)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def environment_reads(path: Path):
    """Line numbers of reads of the process environment (os.environ, getenv)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = []
    for node in ast.walk(tree):
        name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
        if name in ("environ", "getenv", "environb", "getenvb"):
            lines.append(node.lineno)
    return sorted(lines)


def bound_names(body):
    """Names a module or class body binds, with "Class.attr" for its classes."""
    names = set()
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        if isinstance(node, ast.ClassDef):
            names |= {node.name + "." + n for n in bound_names(node.body)}
    return names


def coerce_callers(path: Path):
    """Where a module calls KNum.coerce: qualified function names, or "<module>"."""
    found = set()

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, child.name if where == "<module>" else where + "." + child.name)
                continue
            func = getattr(child, "func", None)
            if (isinstance(child, ast.Call) and isinstance(func, ast.Attribute)
                    and func.attr == "coerce" and getattr(func.value, "id", None) == "KNum"):
                found.add(where)
            visit(child, where)

    visit(ast.parse(path.read_text(), filename=str(path)), "<module>")
    return found


def attribute_reads(path: Path, attr: str):
    """Line numbers where a module reads an attribute named attr."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return sorted(n.lineno for n in ast.walk(tree) if isinstance(n, ast.Attribute) and n.attr == attr)


def benchmark_references():
    """(module, name) pairs that perfbench reaches in picard7.

    The tracer's TARGETS list, and every `from picard7.<m> import ...` (or
    `from picard7 import <m>`) in the worker and the input builder.
    """
    refs = []
    tree = ast.parse((BENCH / "layers.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TARGETS" for t in node.targets):
            refs += ast.literal_eval(node.value)
    for name in ("worker.py", "inputs.py"):
        for node in ast.walk(ast.parse((BENCH / name).read_text())):
            if not isinstance(node, ast.ImportFrom) or node.level or not node.module:
                continue
            if node.module == "picard7":
                refs += [(alias.name, None) for alias in node.names]
            elif node.module.startswith("picard7."):
                refs += [(node.module.split(".", 1)[1], alias.name) for alias in node.names]
    return refs


def function_qualnames(path: Path):
    """(co_qualname, line) of every function and method a module defines,
    named as Python names their code objects."""

    def walk(body, prefix):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield prefix + node.name, node.lineno
                yield from walk(node.body, prefix + node.name + ".<locals>.")
            elif isinstance(node, ast.ClassDef):
                yield from walk(node.body, prefix + node.name + ".")

    return list(walk(ast.parse(path.read_text(), filename=str(path)).body, ""))


def golden_commands():
    """The argv lists of test_cli's GOLDEN pins, read off its source."""
    tree = ast.parse((ROOT / "tests" / "test_cli.py").read_text())
    assigned = {t.id: node.value for node in tree.body if isinstance(node, ast.Assign)
                for t in node.targets if isinstance(t, ast.Name)}
    out = []
    for param in assigned["GOLDEN"].elts:
        argv = param.args[0]
        if isinstance(argv, ast.Starred):
            argv = assigned[argv.value.id].elts[0]
        out.append(ast.literal_eval(argv))
    return out


#: the command lines the traced gate runs past the GOLDEN ones, with their
#: exit codes: `-h` is the only caller of cli.usage, and the last two are
#: bad input (1) and a resource limit (2), a height past the search cap,
#: which the child interpreter reads from picard7.mirror
TRACED_COMMANDS = [
    (["mirror", "verify", "--which", "L"], 0),
    (["congruence", "check", "--ideal", "isqrt7"], 0),
    (["congruence", "check", "--ideal", "tau"], 0),
    (["-h"], 0),
    (["ford", "reduce", "--point", '["1", "0", "0"]'], 1),
    (["mirror", "search", "--norm", "2", "--height", "MAX_SEARCH_HEIGHT + 1"], 2),
]

#: (module, co_qualname) of the functions no command enters that stay in
#: `src/`, each with its reason
UNENTERED_ALLOWED = {
    # perfbench calls or names them.  No command builds an AlgNum: the
    # worker times AlgNum products, conj and real_sign on the coordinates
    # of the fixed point of a (ProjPoint.coords), and forms its real
    # operands with abs2 and sq_norm
    ("ford", "in_omega"): "named in perfbench's TARGETS",
    ("heisenberg", "in_prism"): "the prism test of in_omega",
    ("hermitian", "Mat.__mul__"): "perfbench's worker times it as hermitian.mat_mul_us",
    ("hermitian", "mat_from_json"): "perfbench's input builder reads its matrices with it",
    ("ring", "_alg"): "perfbench's worker builds its AlgNums through ProjPoint.coords and AlgNum operations",
    ("ring", "AlgNum.__mul__"): "named in perfbench's TARGETS; its worker times it as ring.algnum_mul_us",
    ("ring", "AlgNum.conj"): "named in perfbench's TARGETS; its worker times it as ring.algnum_conj_us",
    ("ring", "AlgNum.real_sign"): "named in perfbench's TARGETS; its worker times it as ring.algnum_real_sign_us",
    ("ring", "AlgNum.enclosure"): "named in perfbench's TARGETS",
    ("ring", "AlgNum._operand"): "perfbench's worker reaches it through AlgNum.__mul__ and __add__",
    ("ring", "AlgNum.__add__"): "perfbench's worker reaches it through sq_norm of its tower point's coordinates",
    ("ring", "AlgNum.is_zero"): "perfbench's worker picks its nonzero tower operands with it",
    ("ring", "AlgNum.abs2"): "perfbench's worker forms the real operands of ring.algnum_real_sign_us with it",
    ("ring", "AlgNum._real_ints"): "perfbench's worker reaches it through AlgNum.real_sign",
    ("ring", "AlgNum.is_real"): "perfbench's worker reaches it through AlgNum.real_sign",
    # KNum defines __eq__, so it is hashable only with its own __hash__;
    # no command keys anything by a KNum since a tower point is ints.  It
    # leaves with KNum's arithmetic (ROADMAP item 7)
    ("ring", "KNum.__hash__"): "KNum's equality makes it unhashable without it",
    # an edge form that only tests use
    ("ring", "KNum.b"): "the tau-coordinate as a Fraction, beside KNum.a",
}

#: methods allowed unentered by name, in every class
UNENTERED_METHODS_ALLOWED = {
    "__repr__": "a value's printed form serves every caller that debugs it",
    "__setattr__": "the immutability guard of KNum, AlgNum and GroupElt refuses a write",
}

_TRACE = """
import contextlib, io, json, sys
sys.path.insert(0, %r)
seen = set()

def record(frame, event, arg):
    if event == "call":
        seen.add(frame.f_code)

sys.setprofile(record)
from picard7 import cli
from picard7.mirror import MAX_SEARCH_HEIGHT
codes = []
for argv in json.loads(sys.argv[1]):
    argv = [str(MAX_SEARCH_HEIGHT + 1) if a == "MAX_SEARCH_HEIGHT + 1" else a for a in argv]
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main(argv))
sys.setprofile(None)
print(json.dumps({"codes": codes, "entered": sorted({(c.co_filename, c.co_qualname) for c in seen})}))
"""


def test_modules_found():
    assert {p.name for p in MODULES} >= {"ring.py", "hermitian.py", "heisenberg.py", "cli.py"}


@pytest.mark.parametrize("path", MODULES + TEST_MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_asserts(path):
    assert asserts(path) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_only_stdlib_and_picard7(path):
    # the package has no runtime dependency
    allowed = set(sys.stdlib_module_names) | {"picard7"}
    assert sorted(imported_packages(path) - allowed) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_environment_reads(path):
    # the computation is fixed: no environment variable reaches it
    assert environment_reads(path) == []


def test_benchmark_names_resolve():
    # a name the benchmark traces or imports must survive every refactor,
    # or `perfbench/run.py --trace 1` breaks without a test noticing
    refs = benchmark_references()
    assert ("torsion", "build_cycle_graph") in refs and ("ring", "AlgNum.conj") in refs
    missing = []
    for module, name in refs:
        path = SRC / (module + ".py")
        if not path.exists():
            missing.append((module, name))
        elif name is not None and name not in bound_names(ast.parse(path.read_text()).body):
            missing.append((module, name))
    assert missing == []


@functools.cache
def traced_commands():
    """The `src/` functions, as (module, co_qualname), that the GOLDEN and
    TRACED_COMMANDS command lines enter, run once in a fresh interpreter,
    where no functools.cache memo hides a call; each command's exit code
    is checked."""
    commands = [(argv, 0) for argv in golden_commands()] + TRACED_COMMANDS
    out = subprocess.run([sys.executable, "-I", "-c", _TRACE % str(SRC.parent),
                          json.dumps([argv for argv, _ in commands])],
                         capture_output=True, text=True, check=True)
    result = json.loads(out.stdout)
    assert result["codes"] == [code for _, code in commands]
    return {(Path(f).stem, q) for f, q in result["entered"] if Path(f).parent == SRC}


def test_every_src_function_has_a_caller():
    # code that only tests reach belongs with the tests, not in the package:
    # each function and method of `src/` must be entered by a command line
    # or stand on an allowlist with its reason
    entered = traced_commands()
    unentered = [(path.name, line, qualname) for path in MODULES
                 for qualname, line in function_qualnames(path)
                 if (path.stem, qualname) not in entered | UNENTERED_ALLOWED.keys()
                 and qualname.rsplit(".", 1)[-1] not in UNENTERED_METHODS_ALLOWED]
    assert unentered == []
    # the allowlist names only functions that exist and that no command enters
    defined = {(path.stem, q) for path in MODULES for q, _ in function_qualnames(path)}
    assert UNENTERED_ALLOWED.keys() <= defined - entered


def test_no_command_builds_an_algnum():
    # a tower point is its field ints from eigenvector to Omega, so no
    # command line enters an AlgNum method or ring._alg, the one builder of
    # an AlgNum: AlgNum is the view that ProjPoint.coords gives the tests
    # and the benchmark.  The class body itself runs at import
    entered = traced_commands()
    assert sorted(q for m, q in entered if m == "ring" and (q.startswith("AlgNum.") or q == "_alg")) == []
    assert ("ring", "AlgNum") in entered and ("hermitian", "ProjPoint.of_tower") in entered


def test_interior_takes_one_type():
    # ints become KNums at the edges only: the matrix constructor (which
    # serves int literals) and the JSON reader.  A Fraction becomes one only
    # through KNum(a, b): no operator of KNum or AlgNum, no KNum.coerce and
    # no AlgNum._operand names Fraction
    callers = {(p.stem, name) for p in MODULES if p.name != "ring.py" for name in coerce_callers(p)}
    assert callers <= {("hermitian", "Mat.__new__"), ("hermitian", "mat_from_json")}
    ring = ast.parse((SRC / "ring.py").read_text()).body
    assert "scalar" not in bound_names(ring)
    operators = {"__add__", "__sub__", "__rsub__", "__mul__", "__truediv__", "__rtruediv__", "__eq__",
                 "__neg__", "__pow__", "coerce", "_operand"}
    methods = [(cls.name, fn) for cls in ring if isinstance(cls, ast.ClassDef) and cls.name in ("KNum", "AlgNum")
               for fn in cls.body if isinstance(fn, ast.FunctionDef) and fn.name in operators]
    assert {(c, fn.name) for c, fn in methods} >= {("KNum", "coerce"), ("AlgNum", "_operand"), ("KNum", "__rsub__")}
    assert [(c, fn.name) for c, fn in methods
            if any(isinstance(n, ast.Name) and n.id == "Fraction" for n in ast.walk(fn))] == []


def test_only_ring_reads_k_coefficients():
    # an AlgNum is its ints; its K-coefficients are an edge view of ring.py,
    # so no other module depends on how the two fields store an element
    reads = [(p.name, line) for p in MODULES if p.name != "ring.py" for line in attribute_reads(p, "coeffs")]
    assert reads == []


def test_points_are_ordered_without_their_knum_ints():
    # a rational point's format is decided in hermitian: torsion and mirror
    # sort points by the point's own order and read no KNum ints
    reads = [(name, attr, line) for name in ("torsion.py", "mirror.py")
             for attr in ("na", "nb") for line in attribute_reads(SRC / name, attr)]
    assert reads == []


def test_only_numbers_and_group_elements_hand_roll_immutability():
    # a record whose equality is field equality is a named tuple; KNum,
    # AlgNum and GroupElt are not, because their equality is not the tuple's
    classes = [
        node.name
        for path in MODULES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.ClassDef)
        and any(isinstance(f, ast.FunctionDef) and f.name == "__setattr__" for f in node.body)
    ]
    assert "KNum" in classes and set(classes) <= {"AlgNum", "GroupElt", "KNum"}


def test_cli_import_loads_no_code_generators():
    # dataclasses pulls in inspect, ast, dis and tokenize, which a process
    # that cannot cache bytecode compiles from source at every start; so is
    # __future__, which no module needs on the supported Pythons
    code = (
        "import sys; sys.path.insert(0, %r); import picard7.cli; "
        "print(sorted({'dataclasses', 'inspect', 'ast', '__future__'} & set(sys.modules)))" % str(SRC.parent)
    )
    out = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_cli_command_loads_no_argparse():
    # the CLI reads its command line from its own table; argparse, and the
    # locale and gettext it loads for its messages, would cost a process that
    # cannot cache bytecode tens of milliseconds of compiling at every start
    code = (
        "import sys; sys.path.insert(0, %r); import picard7.cli; "
        "picard7.cli.main(['cusp', 'overlaps']); "
        "print(sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)))" % str(SRC.parent)
    )
    out = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.splitlines()[-1] == "[]"


def test_mirror_import_loads_no_residue_maps():
    # only mirror L's cusp certificate reduces matrices modulo an ideal, so
    # `mirror search` and `mirror verify --which R` do not import congruence
    code = (
        "import sys; sys.path.insert(0, %r); import picard7.mirror; "
        "print('picard7.congruence' in sys.modules)" % str(SRC.parent)
    )
    out = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("argv,zeta3_sweeps", [
    (["torsion", "stabilizer", "--point", '["-1+1*tau","0","1"]'], 0),
    (["mirror", "verify", "--which", "R"], 2),
], ids=["torsion-stabilizer", "mirror-verify-R"])
def test_point_stabilizers_derive_only_what_they_read(argv, zeta3_sweeps):
    # in a fresh process, a point stabilizer reads its cusp overlaps off the
    # 13 planar parts and leaves the 34-element table underived; mirror R's
    # zeta_3 point is swept once per reduction step, and its cycle graph
    # reads the last sweep of the reduction from the memo of tower hits
    code = """
import contextlib, io, sys
sys.path.insert(0, %r)
from picard7 import cli, ford, heisenberg
sweeps = []
sweep = ford._TOWER_SWEEPS[3]
def counted(*args):
    sweeps.append(args)
    return sweep(*args)
ford._TOWER_SWEEPS[3] = counted
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(sys.argv[1:]) == 0
print(heisenberg.enumerate_cusp_overlaps.cache_info().currsize, len(sweeps))
""" % str(SRC.parent)
    out = subprocess.run([sys.executable, "-I", "-c", code] + argv, capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["0", str(zeta3_sweeps)]


def test_tower_prism_steps_enter_no_algnum_method():
    # in a fresh `mirror verify --which R`, whose zeta_3 vertex of mu ups
    # iota is reduced, walked and moved, the prism functions, a point's
    # moves and the sweeps' u' bracket run on the field's ints: below them
    # no AlgNum method is entered, while the zeta_3 field's real ints are
    code = """
import contextlib, io, sys
sys.path.insert(0, %r)
from picard7 import cli, ford, heisenberg, hermitian
watched = {f.__code__ for f in (heisenberg.prism_coordinates, heisenberg.act_prism, heisenberg.bracket,
                                heisenberg.prism_grid, heisenberg.in_prism, heisenberg.reduce_to_prism,
                                heisenberg.overlaps_keeping, hermitian.ProjPoint.moved, ford._height_bracket)}
depth, below = [0], set()
def record(frame, event, arg):
    code = frame.f_code
    if event == "call":
        if code in watched:
            depth[0] += 1
        elif depth[0] and code.co_filename.endswith("ring.py"):
            below.add(code.co_qualname)
    elif event == "return" and code in watched:
        depth[0] -= 1
sys.setprofile(record)
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["mirror", "verify", "--which", "R"])
sys.setprofile(None)
print(code, sorted(q for q in below if q.startswith("AlgNum")), "Zeta3Tower.real_split" in below,
      "Zeta3Tower.floor_real" in below)
""" % str(SRC.parent)
    out = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["0", "[]", "True", "True"]


def test_mirror_contexts_are_built_once_per_process():
    # each mirror's context is a zero-argument memo: in a fresh process the
    # two searches on mirror L and the verify of mirror R build two
    # contexts, and a second call returns the same object
    code = """
import contextlib, io, sys
sys.path.insert(0, %r)
from picard7 import cli, mirror
built = []
init = mirror.MirrorContext.__init__
def counted(self, polar):
    built.append(polar)
    init(self, polar)
mirror.MirrorContext.__init__ = counted
with contextlib.redirect_stdout(io.StringIO()):
    for norm in ("2", "1"):
        assert cli.main(["mirror", "search", "--which", "L", "--norm", norm, "--height", "2"]) == 0
    assert cli.main(["mirror", "verify", "--which", "R"]) == 0
same = (mirror.MirrorContext.mirror_of_half_turn() is mirror.MirrorContext.mirror_of_half_turn()
        and mirror.MirrorContext.mirror_of_shifted_half_turn() is mirror.MirrorContext.mirror_of_shifted_half_turn())
print(len(built), same)
""" % str(SRC.parent)
    out = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["2", "True"]


def test_k_rational_reduction_runs_on_ints():
    # a K-rational `ford reduce` finds the primitive representative once
    # (`ProjPoint.of_ints`), for its input: each move of the point is an int product, and the
    # answer takes the sign rule only.  The reduction, and so the K sweep
    # kernel, builds no KNum: the input's ProjPoint is its six ints
    code = """
import contextlib, io, sys
sys.path.insert(0, %r)
from picard7 import cli, ford, hermitian, ring
from picard7.hermitian import ProjPoint, vec_from_json
counts = {"of_ints": 0, "knum": 0}
of_ints, knum, init = ProjPoint.of_ints, ring._knum, ring.KNum.__init__
def counted_rep(t):
    counts["of_ints"] += 1
    return of_ints(t)
def counted_knum(*args):
    counts["knum"] += 1
    return knum(*args)
def counted_init(self, *args):
    counts["knum"] += 1
    init(self, *args)
ProjPoint.of_ints = staticmethod(counted_rep)
for point in sys.argv[1:]:
    counts["of_ints"] = 0
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["ford", "reduce", "--point", point]) == 0
    reps = counts["of_ints"]
    x = ProjPoint(vec_from_json(point))
    ring._knum, ring.KNum.__init__ = counted_knum, counted_init
    counts["knum"] = 0
    g, y = ford.reduce_to_domain(x)
    ring._knum, ring.KNum.__init__ = knum, init
    print(reps, counts["knum"], int(g.is_identity()))
""" % str(SRC.parent)
    points = ['["42+12*tau", "27-19*tau", "10-25*tau"]', '["-7-2*tau", "-2-1*tau", "-11+16*tau"]',
              '["346-118*tau", "60-267*tau", "-251-110*tau"]', '["-1+1*tau","0","1"]']
    out = subprocess.run([sys.executable, "-I", "-c", code] + points, capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["1", "0", "0"] * 3 + ["1", "0", "1"]


def test_gamma_algebra_runs_on_group_elements():
    # orders, residues, the action on vectors and the eigenvectors, at +/-1
    # and at the tower roots of unity alike (torsion._eigenvectors), run on a
    # GroupElt's 18 ints; a Mat keeps its edge role: literals, JSON, products
    bound = bound_names(ast.parse((SRC / "hermitian.py").read_text()).body)
    gone = {"Mat.apply", "Mat.charpoly", "Mat.det", "Mat.trace", "Mat.__neg__", "_dot_k", "GroupElt.apply",
            "GroupElt.entries"}
    assert "Mat.__mul__" in bound and not bound & gone
    # src/ has no characteristic polynomial: an order is read off the trace
    # and confirmed by powers, an eigenvalue candidate is kept when its cross
    # product is a kernel vector, and a norm is an int; one eigenvector
    # routine serves every eigenvalue, and no AlgNum is raised to a power
    gone = {"GroupElt.charpoly", "_roots", "KNum.__pow__", "KNum.rat", "MAX_PROJECTIVE_ORDER", "_k_eigenvector",
            "AlgNum.__pow__"}
    assert {p.name: sorted(bound_names(ast.parse(p.read_text()).body) & gone) for p in MODULES} == {
        p.name: [] for p in MODULES
    }
    # classify_elliptic and its eigenvector routine read no KNum rows
    torsion = {n.name: n for n in ast.parse((SRC / "torsion.py").read_text()).body
               if isinstance(n, ast.FunctionDef)}
    for name in ("classify_elliptic", "_eigenvectors"):
        assert not [n for n in ast.walk(torsion[name]) if getattr(n, "attr", getattr(n, "id", None)) == "entries"]
    # the `g.mat` view is read for JSON in cli, for verify_mirror_L's
    # in_gamma report field, and for a GroupElt's printed form
    reads = {p.name: attribute_reads(p, "mat") for p in MODULES}
    assert sorted(name for name, lines in reads.items() if lines) == ["cli.py", "hermitian.py", "mirror.py"]
    source = (SRC / "mirror.py").read_text()
    fn = next(n for n in ast.parse(source).body if getattr(n, "name", None) == "verify_mirror_L")
    lines = source.splitlines()
    assert [line for line in reads["mirror.py"]
            if not (fn.lineno <= line <= fn.end_lineno and '"in_gamma"' in lines[line - 1])] == []
    elt = next(n for n in ast.parse((SRC / "hermitian.py").read_text()).body if getattr(n, "name", None) == "GroupElt")
    fn = next(n for n in elt.body if getattr(n, "name", None) == "__repr__")
    assert [line for line in reads["hermitian.py"] if not fn.lineno <= line <= fn.end_lineno] == []


def test_cycle_graph_is_one_walk_per_orbit():
    # build_cycle_graph records each orbit's transports and Schreier
    # generators in one walk: the edge list and its fixpoint pass are gone
    bound = bound_names(ast.parse((SRC / "torsion.py").read_text()).body)
    gone = {"Edge", "CycleGraph", "_spanning_transports", "_stabilizer_from"}
    assert {"build_cycle_graph", "stabilizer", "_moves"} <= bound and not bound & gone
    assert [(p.name, attr) for p in MODULES for attr in ("edges", "index_of", "add_vertex")
            if attribute_reads(p, attr)] == []
    # the coverage report reads each class's orbit and stabilizer, and
    # builds and closes nothing of its own
    imported = bound_names(ast.parse((SRC / "presentation.py").read_text()).body)
    assert not imported & ({"build_cycle_graph", "stabilizer", "FiniteGroup"} | gone)


def test_mirror_tests_run_on_ints():
    # "trivial on the mirror" and the restriction order are int products
    # against the basis ints: an element of U(J, O_7) is a scalar on the
    # primitive basis only as +1 or -1.  The 2x2 restriction over K is a
    # test reference, and no module binds it or its helpers
    source = ast.parse((SRC / "mirror.py").read_text())
    functions = {n.name: n for n in source.body if isinstance(n, ast.FunctionDef)}

    def names_in(name):
        fn = functions[name]
        return {n.id for n in ast.walk(fn) if isinstance(n, ast.Name)} | {
            n.attr for n in ast.walk(fn) if isinstance(n, ast.Attribute)
        }

    def names_reached(name):
        # the function's names and those of the module functions it names
        own = names_in(name)
        return own.union(*(names_in(n) for n in own & functions.keys() - {name}))

    for name in ("acts_trivially_on_mirror", "restriction_order"):
        reached = names_reached(name)
        assert reached & {"_apply_ints", "ints_product"}, name
        assert "restriction" not in reached, name
    gone = {"restriction", "restriction_is_scalar", "_rest_mul"}
    assert {p.name: sorted(bound_names(ast.parse(p.read_text()).body) & gone) for p in MODULES} == {
        p.name: [] for p in MODULES
    }


def parameters(path: Path, qualname: str):
    """The parameter names of a module-level function or of a method."""
    body = ast.parse(path.read_text()).body
    *owner, name = qualname.split(".")
    if owner:
        body = next(n for n in body if isinstance(n, ast.ClassDef) and n.name == owner[0]).body
    fn = next(n for n in body if isinstance(n, ast.FunctionDef) and n.name == name)
    return [a.arg for a in fn.args.args + fn.args.kwonlyargs]


def test_limits_are_module_constants():
    # no caller sets the unitarity check, the reduction guard or a closure
    # cap, so they are not parameters
    assert parameters(SRC / "hermitian.py", "GroupElt.__init__") == ["self", "mat", "word"]
    assert parameters(SRC / "ford.py", "reduce_to_domain") == ["x"]
    assert parameters(SRC / "torsion.py", "FiniteGroup.__init__") == ["self", "gens"]
    assert parameters(SRC / "congruence.py", "FpMatGroup.__init__") == ["self", "gens", "rm"]


def test_src_has_no_row_reduction():
    # each eigenvector the classification reads is a cross product at a
    # simple eigenvalue, and a mirror is the sign of its norm: the
    # Gauss-Jordan elimination and the Gram test of a plane are references
    gone = {"_kernel_basis", "eigenspace_basis", "_is_mirror"}
    assert {p.name: sorted(bound_names(ast.parse(p.read_text()).body) & gone) for p in MODULES} == {
        p.name: [] for p in MODULES
    }


def test_reflection_count_reads_no_eigenvalues():
    # a FiniteGroup counts its reflections with reflection_polar on every
    # element, and classify_elliptic sorts the order-2 classes, through one
    # involution test: g^2 = I on the ints and one column of I - tr(g) g,
    # so none of the classification's K arithmetic runs there.  The
    # repeated eigenvalue and its simple eigenvector are test references
    source = ast.parse((SRC / "torsion.py").read_text())

    def names_in(name):
        fn = next(n for n in source.body if isinstance(n, ast.FunctionDef) and n.name == name)
        return {n.id for n in ast.walk(fn) if isinstance(n, ast.Name)} | {
            n.attr for n in ast.walk(fn) if isinstance(n, ast.Attribute)
        }

    axis = names_in("_involution_axis")
    assert "ints_product" in axis
    assert not axis & {"charpoly", "_repeated_eigenvalue", "_eigenvectors"}
    assert "_involution_axis" in names_in("reflection_polar") & names_in("classify_elliptic")
    # an axis point is ProjPoint.of_ints, the one int-pair O_7 gcd of a
    # vector, which primitive_rep shares: the primitive normal form is
    # written in hermitian alone
    assert "of_ints" in names_in("reflection_polar") & names_in("classify_elliptic")
    assert {p.name for p in MODULES if "_gcd_ints" in p.read_text()} == {"hermitian.py", "ring.py"}
    gone = {"_repeated_eigenvalue", "_simple_eigenpoint"}
    assert not names_in("classify_elliptic") & gone
    assert {p.name: sorted(bound_names(ast.parse(p.read_text()).body) & gone) for p in MODULES} == {
        p.name: [] for p in MODULES
    }
