"""Seeded inputs for the three workloads.

`make_round(workload, seed)` returns the operations of one round of a
workload: a list of (op, expect) pairs.  `op` is what the
worker process receives (argv for the CLI, or a library call with its
arguments as JSON); `expect` stays in the parent and tells the checker
what the paper or the method says the answer must be.  The same
(workload, seed) always gives the same round.

The paper's matrices (the 14 side pairings, the cusp generators and the
presentation's torsion word table) are read from picard7 once; every
product, conjugate and orbit image is then computed with `tau`.
"""

import json
import random
from fractions import Fraction

import tau

# ---------------------------------------------------------------------------
# the paper's data
# ---------------------------------------------------------------------------

# The K-rational isolated fixed points used by the stabilizer queries, with
# the stabilizer row the paper's table gives for each: (<v,v> of the
# primitive representative, linear order, projective order, scalar order,
# 1-lines, 2-lines, sizes of the 2-line orbits).
FIXED_POINTS = {
    "(1-tau,0,-1)": ((tau.k(1, -1), tau.k(0), tau.k(-1)), (-1, 16, 8, 2, 2, 2, [2])),
    "(tau,1-tau,-tau)": ((tau.k(0, 1), tau.k(1, -1), tau.k(0, -1)), (-2, 16, 8, 2, 0, 4, [2, 2])),
    "(1,0,-1)": ((tau.k(1), tau.k(0), tau.k(-1)), (-2, 8, 4, 2, 1, 1, [1])),
    "(1+tau,1-tau,-tau)": ((tau.k(1, 1), tau.k(1, -1), tau.k(0, -1)), (-3, 12, 6, 2, 0, 3, [3])),
    "(1-tau,-1,-1+tau)": ((tau.k(1, -1), tau.k(-1), tau.k(-1, 1)), (-3, 12, 6, 2, 0, 3, [3])),
}

# The torsion word table rows the classify workload classifies, keyed by word,
# with the class data the paper gives: projective order, kind, and either
# the polar norm (reflections) or (<v,v> of the reduced fixed point or None
# when the point is not K-rational, linear order, projective order,
# 1-lines, 2-lines, 2-line orbit sizes).
CLASS_ROWS = {
    "b": (2, "reflection", 2),
    "(ba)^3": (2, "reflection", 1),
    "(ad^2)^2": (2, "isolated", (-1, 16, 8, 2, 2, [2])),
    "(d^-2 c^2)^2": (2, "isolated", (-2, 16, 8, 0, 4, [2, 2])),
    "(aba)^-1 (d^2c^-1a^-2d^3c^2a^-2) aba": (2, "isolated", (-2, 8, 4, 1, 1, [1])),
    "c^-1 d^2 c^-2 d": (3, "isolated", (-3, 12, 6, 0, 3, [3])),
    "c": (6, "isolated", (None, 12, 6, 1, 0, [])),
}
TOWER_ROWS = ("(ba)^2", "c", "a")

# mirror L: polar (1, -tau, 0) and the paper's polar vectors of the four
# reflections in its stabilizer (norms 2, 2, 2, 1)
MIRROR_L_POLAR = (tau.k(1), tau.k(0, -1), tau.k(0))
MIRROR_L_POLARS = {
    2: [
        (tau.k(1), tau.k(1), tau.k(1, -1)),
        (tau.k(1, -2), tau.k(0, 1), tau.k(2)),
        (tau.k(-1, 2), tau.k(0, 1), tau.k(2)),
    ],
    1: [(tau.k(0), tau.k(1), tau.k(1, -1))],
}
# the boundary fixed point of the parabolic s2 of mirror L
S2_FIXED = (tau.k(-1), tau.k(1), tau.k(1, -1))
Q_INF = (tau.k(1), tau.k(0), tau.k(0))

SIDE_PAIRINGS = tuple("A%d" % j for j in range(1, 15))
CUSP_LETTERS = ("T1", "T1^-1", "Ttau", "Ttau^-1", "Tv", "Tv^-1", "R")
QUERY_LENGTHS = (1, 2, 3, 4)
BASE_POINTS_PER_ROUND = 3
STABILIZER_WORD_LENGTH = 2
MIRROR_SEARCHES = ((2, 2), (1, 2))  # (norm, height) on mirror L
CONJUGATOR_LENGTH = 1

_PAPER = None


def paper():
    """Letters (name -> matrix) and the word table (word -> (matrix, order)),
    read once."""
    global _PAPER
    if _PAPER is None:
        from picard7.ford import GENERATORS
        from picard7.heisenberg import R, T1, TTAU, TV
        from picard7.hermitian import mat_to_json
        from picard7.presentation import torsion_word_rows

        def own(g):
            return tau.mat_from_json(mat_to_json(g.mat))

        letters = {"A%d" % j: own(g) for j, g in sorted(GENERATORS.items())}
        for name, c in (("T1", T1), ("Ttau", TTAU), ("Tv", TV)):
            letters[name] = own(c.to_matrix())
            letters[name + "^-1"] = tau.inverse_unitary(letters[name])
        letters["R"] = own(R.to_matrix())
        rows = {r["word"]: (own(r["elt"]), r["order"]) for r in torsion_word_rows()}
        _PAPER = (letters, rows)
    return _PAPER


def random_word(rng, length):
    """The matrix of a word of `length` side pairings with a cusp letter
    between each two (2 * length - 1 letters, freely reduced).  Each side
    pairing costs about one reduction step, which keeps a query's cost close
    to a function of its length."""
    letters, _ = paper()
    m = tau.identity()
    for i in range(length):
        if i:
            m = tau.matmul(m, letters[rng.choice(CUSP_LETTERS)])
        m = tau.matmul(m, letters[rng.choice(SIDE_PAIRINGS)])
    return m


def base_point(rng):
    """A K-rational point strictly inside Omega: (z, t) strictly inside the
    prism and height u >= 3, above every isometric sphere (the largest has
    Cygan radius sqrt(2)).  Returned as a primitive integral vector."""
    i = rng.randint(1, 5)
    j = rng.randint(1, 6 - i)  # a = i/8, b = j/8, a + b < 1
    z = (Fraction(i, 8), Fraction(j, 8))
    s = Fraction(rng.randint(1, 7), 4)  # t = s sqrt(7), 0 < s < 2
    u = Fraction(rng.randint(6, 12), 2)
    ti = (-s, 2 * s)  # i t = s (2 tau - 1)
    v1 = tau.add(tau.sub(ti, tau.k(tau.norm(z))), tau.k(-u))
    v = (tau.div(v1, tau.k(2)), z, tau.ONE)
    return tau.primitive(v)


def _rng(workload, seed):
    return random.Random("%s:%d" % (workload, seed))


def _queries(seed):
    rng = _rng("queries", seed)
    ops = []
    for _ in range(BASE_POINTS_PER_ROUND):
        p = base_point(rng)
        for n in QUERY_LENGTHS:
            m = random_word(rng, n)
            x = tau.matvec(m, p)
            ops.append((
                {"cli": ["ford", "reduce", "--point", _json_vec(x)]},
                {"check": "ford_reduce", "input": x, "base": p},
            ))
    for p, row in FIXED_POINTS.values():
        m = random_word(rng, STABILIZER_WORD_LENGTH)
        ops.append((
            {"cli": ["torsion", "stabilizer", "--point", _json_vec(tau.matvec(m, p))]},
            {"check": "stabilizer", "row": row},
        ))
    rng.shuffle(ops)
    return ops


def _classify(seed):
    rng = _rng("classify", seed)
    _, rows = paper()
    ops = [({"cli": ["cusp", "torsion"]}, {"check": "cusp_torsion"})]
    conjugates = []
    for name in sorted(rows):
        g, order = rows[name]
        # rows whose fixed point is not K-rational keep the paper's word: a
        # Ford sweep in a cyclotomic field costs seconds, and a conjugator
        # would move the round's time by a third from seed to seed
        w = random_word(rng, 0 if name in TOWER_ROWS else CONJUGATOR_LENGTH)
        h = tau.matmul(tau.matmul(w, g), tau.inverse_unitary(w))
        conjugates.append({"word": name, "order": order, "matrix": tau.mat_to_json(h)})
        if name in CLASS_ROWS:
            ops.append((
                {"lib": "classify", "matrix": tau.mat_to_json(h), "order": order},
                {"check": "classify", "matrix": h, "row": CLASS_ROWS[name], "word": name},
            ))
    for ideal in ("isqrt7", "tau"):
        ops.append((
            {"lib": "congruence", "ideal": ideal, "classes": conjugates},
            {"check": "congruence", "ideal": ideal, "classes": conjugates},
        ))
    ops.append(({"lib": "relators"}, {"check": "relators"}))
    ops.append(({"lib": "table_rows"}, {"check": "table_rows", "n_rows": len(rows)}))
    return ops


def _mirrors(seed):
    ops = [({"cli": ["mirror", "verify", "--which", "R"]}, {"check": "mirror_R"})]
    for norm, height in MIRROR_SEARCHES:
        ops.append((
            {"cli": ["mirror", "search", "--which", "L", "--norm", str(norm),
                     "--height", str(height)]},
            {"check": "mirror_search", "norm": norm, "height": height},
        ))
    ops.append(({"lib": "mirror_L_facts"}, {"check": "mirror_L_facts"}))
    ops.append(({"lib": "cusp_orbit", "target": tau.vec_to_json(S2_FIXED), "max_len": 5},
                {"check": "cusp_orbit", "target": S2_FIXED}))
    return ops


WORKLOADS = {"queries": _queries, "classify": _classify, "mirrors": _mirrors}


def make_round(workload, seed):
    return WORKLOADS[workload](seed)


def _json_vec(v):
    return json.dumps(tau.vec_to_json(v))
