"""Independent checks of picard7's outputs.

Every check uses the benchmark's own arithmetic (`tau`), the paper's stated
facts (the tables in `inputs`), or a property the method must have.  None
compares against a stored copy of an earlier output.  `check(expect, out)`
returns a list of problems; an empty list means the output is correct.
"""

import functools

import tau
from inputs import MIRROR_L_POLAR, MIRROR_L_POLARS, Q_INF


def _real(x):
    """The rational value of a K-number that must be real."""
    if x[1] != 0:
        raise ValueError("%s is not real" % tau.fmt(x))
    return x[0]


def _point(data, what):
    if not isinstance(data, list):
        raise ValueError("%s is not K-rational: %r" % (what, data))
    return tau.vec_from_json(data)


def _matrix(data):
    m = tau.mat_from_json(data)
    if not tau.in_unitary_group(m):
        raise ValueError("matrix is not in U(J, O_7)")
    return m


def _primitive_norm(p, want, what):
    if not tau.is_primitive(p):
        return ["%s is not a primitive integral vector" % what]
    got = _real(tau.herm(p, p))
    if got != want:
        return ["%s has <v,v> = %s, want %s" % (what, got, want)]
    return []


def _stab_row(out, row):
    lin, proj, one, two, orbits = row
    got = (out["linear_order"], out["projective_order"], out["one_lines"], out["two_lines"],
           sorted(out["two_line_orbits"]))
    want = (lin, proj, one, two, sorted(orbits))
    problems = [] if got == want else ["stabilizer row %s, want %s" % (got, want)]
    if out["scalar_order"] * out["projective_order"] != out["linear_order"]:
        problems.append("linear order is not scalar order times projective order")
    return problems


def check_ford_reduce(e, out):
    g = _matrix(out["element"]["matrix"])
    y = _point(out["point"], "returned point")
    problems = []
    if not tau.same_line(tau.matvec(g, e["input"]), y):
        problems.append("the element does not map the input point to the returned point")
    if _real(tau.herm(y, y)) >= 0:
        problems.append("returned point is not negative")
    if out["in_omega"] is not True:
        problems.append("returned point is not reported in Omega")
    # the base point is interior to Omega, a fundamental domain, so every
    # point of its orbit has it as Omega-representative
    if not tau.same_line(y, e["base"]):
        problems.append("returned point is not the orbit's interior base point")
    if out["is_identity"] != tau.is_scalar(g):
        problems.append("is_identity disagrees with the matrix")
    return problems


def check_stabilizer(e, out):
    fp_norm, lin, proj, scalar, one, two, orbits = e["row"]
    y = _point(out["point"], "reduced fixed point")
    problems = _primitive_norm(y, fp_norm, "reduced fixed point")
    problems += _stab_row(out, (lin, proj, one, two, orbits))
    if out["scalar_order"] != scalar:
        problems.append("scalar order %s, want %s" % (out["scalar_order"], scalar))
    return problems


def check_classify(e, out):
    h = e["matrix"]
    order, kind, data = e["row"]
    problems = []
    if not tau.in_unitary_group(h) or tau.projective_order(h) != order:
        problems.append("the class word does not evaluate to an element of order %d" % order)
    if out["order"] != order:
        problems.append("projective order %s, want %d" % (out["order"], order))
    if out["kind"] != kind:
        return problems + ["kind %s, want %s" % (out["kind"], kind)]
    if kind == "reflection":
        p = _point(out["polar"], "polar")
        problems += _primitive_norm(p, data, "polar")
        if out["polar_norm"] != data:
            problems.append("polar norm %s, want %s" % (out["polar_norm"], data))
        if not tau.same_line(tau.matvec(h, p), p):
            problems.append("the polar is not an eigenvector of the element")
        return problems
    fp_norm, lin, proj, one, two, orbits = data
    if fp_norm is None:
        for key in ("fixed_point", "point"):
            if out[key] != {"rational": False}:
                problems.append("%s should lie outside K^3" % key)
    else:
        f = _point(out["fixed_point"], "fixed point")
        if not tau.same_line(tau.matvec(h, f), f):
            problems.append("the fixed point is not fixed by the element")
        if _real(tau.herm(f, f)) >= 0:
            problems.append("the fixed point is not negative")
        problems += _primitive_norm(_point(out["point"], "reduced fixed point"), fp_norm,
                                    "reduced fixed point")
    return problems + _stab_row(out, (lin, proj, one, two, orbits))


# the paper's congruence quotients: the images of the lattice have orders
# 336 (mod i sqrt 7) and 168 (mod tau); the first kernel is torsion-free and
# free of cusp torsion, the second is not torsion-free
CONGRUENCE = {"isqrt7": (336, True, True), "tau": (168, False, None)}


def check_congruence(e, out):
    order, torsion_free, cusp_free = CONGRUENCE[e["ideal"]]
    problems = []
    if out["image_order"] != order:
        problems.append("image order %s, want %d" % (out["image_order"], order))
    if out["torsion_free"] is not torsion_free:
        problems.append("torsion_free is %s, want %s" % (out["torsion_free"], torsion_free))
    if cusp_free is not None and out["cusp_torsion_free"] is not cusp_free:
        problems.append("cusp_torsion_free is %s, want %s" % (out["cusp_torsion_free"], cusp_free))
    rows = out["classes"]
    if [(r["word"], r["order"]) for r in rows] != [(c["word"], c["order"]) for c in e["classes"]]:
        problems.append("the certificate does not cover every class given")
    for r in rows:
        # an image order divides the order of the image group and a torsion
        # element's image order divides its own order
        if order % r["image_order"] or r["order"] % r["projective_image_order"]:
            problems.append("image orders of %s are impossible" % r["word"])
        if r["ok"] != (r["projective_image_order"] == r["order"]):
            problems.append("row %s: ok flag disagrees with its orders" % r["word"])
    if all(r["ok"] for r in rows) != out["torsion_free"]:
        problems.append("torsion_free disagrees with the class rows")
    return problems


def check_cusp_torsion(e, out):
    # the paper: five order-2 elements among the cusp overlaps, in three
    # conjugacy classes
    problems = []
    if out["count"] != 5 or len(set(out["elements"])) != 5:
        problems.append("%s cusp torsion elements, want 5" % out["count"])
    if len(out["classes"]) != 3:
        problems.append("%d cusp torsion classes, want 3" % len(out["classes"]))
    for c in out["classes"]:
        if tau.projective_order(_matrix(c["matrix"])) != 2:
            problems.append("a cusp torsion class matrix does not have order 2")
    return problems


def check_relators(e, out):
    problems = [] if out["all_pass"] is True and out["a_order"] == 7 else [
        "presentation relators do not pass"]
    if not out["relators"] or not all(v is True for v in out["relators"].values()):
        problems.append("a relator is not the identity")
    return problems


def check_table_rows(e, out):
    rows = out["rows"]
    problems = [] if out["all_pass"] is True else ["torsion word table does not pass"]
    if len(rows) != e["n_rows"]:
        problems.append("%d word rows, want %d" % (len(rows), e["n_rows"]))
    for r in rows:
        if not all(v is True for k, v in r.items() if k != "word"):
            problems.append("word row %s fails" % r["word"])
    return problems


def check_mirror_R(e, out):
    # the paper: mu*upsilon*iota has order 6 and its cube is the half-turn;
    # the three orbit points lie on the mirror with lines (1,1), (2,2), (1,0)
    problems = []
    if out["all_pass"] is not True:
        problems.append("mirror R does not pass")
    if out["mti_order"] != 6 or out["mti_cube_is_half_turn"] is not True:
        problems.append("mti order %s or its cube is wrong" % out["mti_order"])
    if out["preserves"] != {"I": True, "M": True, "T1": False}:
        problems.append("wrong generators preserve the mirror")
    if not all(v is True for v in out["relators"].values()):
        problems.append("a mirror R relator fails")
    lines = {k: (o["one_lines"], o["two_lines"]) for k, o in out["orbits"].items()}
    if lines != {"common_point_of_iota_rho": (1, 1), "rho_t1_iota_square": (2, 2), "mti_point": (1, 0)}:
        problems.append("orbit lines %s" % lines)
    if not all(o["on_mirror"] is True for o in out["orbits"].values()):
        problems.append("an orbit point is off the mirror")
    return problems


@functools.lru_cache(maxsize=None)
def _search_space(height):
    """The benchmark's own count of the candidates of a mirror-L search: the
    projective classes of primitive a*(1,0,0) + b*(0,1,1-tau) with tau-basis
    coefficients of a and b in [-height, height], by norm."""
    b1 = (tau.k(1), tau.k(0), tau.k(0))
    b2 = (tau.k(0), tau.k(1), tau.k(1, -1))
    found = {}
    rng = range(-height, height + 1)
    for a1 in rng:
        for c1 in rng:
            for a2 in rng:
                for c2 in rng:
                    al, be = tau.k(a1, c1), tau.k(a2, c2)
                    v = tuple(tau.add(tau.mul(al, b1[i]), tau.mul(be, b2[i])) for i in range(3))
                    if all(tau.is_zero(x) for x in v):
                        continue
                    p = tau.primitive(v)
                    n = _real(tau.herm(p, p))
                    if not any(tau.same_line(p, q) for q in found.get(n, [])):
                        found.setdefault(n, []).append(p)
    return found


def check_mirror_search(e, out):
    n = e["norm"]
    polars = [tau.vec_from_json(p) for p in out["polars"]]
    problems = []
    if out["count"] != len(polars):
        problems.append("count disagrees with the list")
    for p in polars:
        problems += _primitive_norm(p, n, "polar %s" % tau.vec_to_json(p))
        if not tau.is_zero(tau.herm(p, MIRROR_L_POLAR)):
            problems.append("polar %s is not orthogonal to mirror L" % tau.vec_to_json(p))
    if any(tau.same_line(p, q) for i, p in enumerate(polars) for q in polars[:i]):
        problems.append("a polar is listed twice")
    want = len(_search_space(e["height"]).get(n, []))
    if len(polars) != want:
        problems.append("%d polars of norm %d, want %d" % (len(polars), n, want))
    for q in MIRROR_L_POLARS[n]:
        if not any(tau.same_line(p, q) for p in polars):
            problems.append("the paper's polar %s is missing" % tau.vec_to_json(q))
    return problems


def check_mirror_L_facts(e, out):
    # the paper, with its corrections: r2 enters squared, (4, 1, 3) is the
    # only working triple of the side-pairing relator, s2 is parabolic
    problems = []
    if not all(out["in_gamma"].values()) or not all(out["preserves"].values()):
        problems.append("a mirror-L generator is not in Gamma or does not preserve L")
    if out["r2^2_trivial"] is not True or out["r2^3_trivial"] is not False:
        problems.append("r2 does not enter squared")
    if out["long_relator_triples"] != [[4, 1, 3]]:
        problems.append("relator triples %s, want [[4, 1, 3]]" % out["long_relator_triples"])
    if out["s2_projective_order"] is not None:
        problems.append("s2 has finite order")
    for n, vs in MIRROR_L_POLARS.items():
        for v in vs:
            if _real(tau.herm(v, v)) != n or not tau.is_zero(tau.herm(v, MIRROR_L_POLAR)):
                problems.append("paper polar %s is wrong" % tau.vec_to_json(v))
    return problems


def check_cusp_orbit(e, out):
    # the paper: the cusp of s2 is Gamma-equivalent to q_inf
    if out["found"] is not True:
        return ["no element maps q_inf to the cusp of s2"]
    g = _matrix(out["matrix"])
    if not tau.same_line(tau.matvec(g, Q_INF), e["target"]):
        return ["the element does not map q_inf to the cusp of s2"]
    return []


CHECKS = {name[len("check_"):]: f for name, f in globals().items() if name.startswith("check_")}


def check(expect, out):
    """Problems with one operation's output; a malformed output is a problem."""
    try:
        return CHECKS[expect["check"]](expect, out)
    except (KeyError, TypeError, ValueError, ArithmeticError) as e:
        return ["malformed output: %s: %s" % (type(e).__name__, e)]
