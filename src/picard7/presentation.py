"""Two-generator presentation of the group and its torsion word tables."""

from functools import cache

from picard7.ring import ISQRT7, KNum, TAU, TAU_BAR
from picard7.hermitian import GroupElt, Mat, ProjPoint, is_in_gamma, sq_norm
from picard7.heisenberg import CuspElt, R, T1, TTAU, TV
from picard7.ford import GENERATORS, reduce_to_domain
from picard7.torsion import (
    _power_conjugate_witness,
    classify_elliptic,
    enumerate_torsion,
    projective_order,
    reflection_conjugacy,
)

A_MAT = Mat(
    [
        [-TAU - 2, ISQRT7, ISQRT7],
        [KNum(-1), KNum(1), KNum(0)],
        [TAU - 1, KNum(1), KNum(1)],
    ]
)
B_MAT = Mat(
    [
        [KNum(1), TAU_BAR, KNum(-1)],
        [KNum(0), KNum(-1), TAU],
        [KNum(0), KNum(0), KNum(1)],
    ]
)


def ab_matrices():
    """The generator pair (a, b) as exact group elements."""
    return GroupElt(A_MAT), GroupElt(B_MAT)


@cache
def abcd():
    """Generators a, b and the products c = ab, d = ba."""
    a, b = ab_matrices()
    return {"a": a, "b": b, "c": a * b, "d": b * a}


def relator_words():
    """The ten defining relators, as named closures over a, b, c, d."""
    g = abcd()
    a, b, c, d = g["a"], g["b"], g["c"], g["d"]
    ai, ci, di = a.inverse(), c.inverse(), d.inverse()
    return {
        "a^7": a ** 7,
        "b^2": b ** 2,
        "c^6": c ** 6,
        "(ad^2)^4": (a * d * d) ** 4,
        "(c^-2d^2)^4": (ci * ci * d * d) ** 4,
        "(cd^-1c^2d^-2)^3": (c * di * c * c * di * di) ** 3,
        "(cd^-2c^2d^-1)^3": (c * di * di * c * c * di) ** 3,
        "(d^2c^-1a^-2d^3c^2a^-2)^2": (d * d * ci * ai * ai * d ** 3 * c * c * ai * ai) ** 2,
        "c^-1ab": ci * a * b,
        "d^-1ba": di * b * a,
    }


def verify_relators() -> dict:
    """Each relator must evaluate to plus or minus the identity matrix."""
    a, b = ab_matrices()
    report = {
        "in_gamma": is_in_gamma(A_MAT) and is_in_gamma(B_MAT),
        "b_is_cusp_reflection": b == (TTAU * R).to_matrix(),
        "a_order": projective_order(a),
        "relators": {name: w.is_identity() for name, w in relator_words().items()},
    }
    report["all_pass"] = (
        report["in_gamma"]
        and report["b_is_cusp_reflection"]
        and report["a_order"] == 7
        and all(report["relators"].values())
    )
    return report


# printed representatives of the three isolated order-2 classes, used as
# cross-reference targets by the word table below
ORDER2_ROW_MATS = {
    1: GroupElt(Mat([[ISQRT7, KNum(0), KNum(4)], [KNum(0), KNum(1), KNum(0)], [KNum(2), KNum(0), -ISQRT7]])),
    2: GroupElt(Mat([[0, 0, 1], [0, 1, 0], [1, 0, 0]])),
    3: GroupElt(Mat([[-TAU_BAR, TAU, KNum(2)], [TAU, KNum(2), TAU_BAR], [KNum(2), TAU_BAR, -TAU]])),
}


@cache
def torsion_word_rows():
    """One row per torsion word: order, element, fixed-point data, other form."""
    g = abcd()
    a, b, c, d = g["a"], g["b"], g["c"], g["d"]
    ai, bi, ci, di = a.inverse(), b.inverse(), c.inverse(), d.inverse()
    t1, ttau, tv, r = T1.to_matrix(), TTAU.to_matrix(), TV.to_matrix(), R.to_matrix()
    t1i, i1 = t1.inverse(), GENERATORS[1]
    jj = r * i1
    a2 = GENERATORS[2]
    x = ai * b * a * b * a * b
    tb_inv = CuspElt(m=-1, n=1, eps=0, l=0).to_matrix()
    mid = d * d * ci * ai * ai * d ** 3 * c * c * ai * ai
    rows = [
        {
            "order": 2, "word": "b", "elt": b, "alt": [],
            "fixed": (KNum(1), -TAU, KNum(0)), "norm": 2,
            "other": ("Ttau R", (TTAU * R).to_matrix()),
        },
        {
            "order": 2, "word": "(ba)^3", "elt": (b * a) ** 3,
            "alt": [("d^3", d ** 3), ("a^-1 c^3 a", ai * c ** 3 * a)],
            "fixed": (TAU, KNum(0), KNum(1)), "norm": 1,
            "other": ("T1 I T1^-1 R T1 I T1^-1", t1 * i1 * t1i * r * t1 * i1 * t1i),
        },
        {
            "order": 2, "word": "(d^-2 c^2)^2", "elt": (di * di * c * c) ** 2,
            "alt": [("((aba)^-1 babab)^2", ((a * b * a).inverse() * b * a * b * a * b) ** 2)],
            "fixed": (TAU, KNum(1), TAU_BAR), "norm": -2,
            "other": ("order-2 class 3 representative", ORDER2_ROW_MATS[3]),
        },
        {
            "order": 2, "word": "(ad^2)^2", "elt": (a * d * d) ** 2,
            "alt": [("(ababa)^2", (a * b * a * b * a) ** 2)],
            "fixed": (TAU + 1, KNum(1), TAU_BAR), "norm": -1,
            "other": ("A2 (order-2 class 1 rep) A2^-1", a2 * ORDER2_ROW_MATS[1] * a2.inverse()),
        },
        {
            "order": 3, "word": "(ba)^2", "elt": (b * a) ** 2, "alt": [("d^2", d * d)],
            "fixed": None, "norm": None,
            "other": ("T1 (I T1^-1 R)^3", t1 * (i1 * t1i * r) ** 3),
        },
        {
            "order": 3, "word": "c^-1 d^2 c^-2 d", "elt": ci * d * d * ci * ci * d,
            "alt": [("[b, a^-1 babab]", b * x * bi * x.inverse())],
            "fixed": (3 + ISQRT7, KNum(1), TAU_BAR), "norm": -3,
            "other": ("Tv I (Ttau J) I Tv^-1", tv * i1 * (ttau * jj) * i1 * tv.inverse()),
        },
        {
            "order": 4, "word": "d^-2 c^2", "elt": di * di * c * c,
            "alt": [("(aba)^-1 babab", (a * b * a).inverse() * b * a * b * a * b)],
            "fixed": (TAU, KNum(1), TAU_BAR), "norm": -2,
            "other": ("I T1^-1 (I T1)^2 I T1^-1", i1 * t1i * (i1 * t1) ** 2 * i1 * t1i),
        },
        {
            # the five-letter word equals a d^2, not a d
            "order": 4, "word": "ababa", "elt": a * b * a * b * a,
            "alt": [("a d^2", a * d * d)],
            "fixed": (TAU + 1, KNum(1), TAU_BAR), "norm": -1,
            "other": (
                "T1 I (T1^-1 I)^2 T1 I R T1 I T1^-1",
                t1 * i1 * (t1i * i1) ** 2 * t1 * i1 * r * t1 * i1 * t1i,
            ),
        },
        {
            "order": 6, "word": "c", "elt": c, "alt": [("ab", a * b)],
            "fixed": None, "norm": None,
            "other": ("R T1 I R (T1 I)^2 T1^-2", r * t1 * i1 * r * (t1 * i1) ** 2 * t1i * t1i),
        },
        {
            "order": 7, "word": "a", "elt": a, "alt": [],
            "fixed": None, "norm": None,
            "other": ("T1 R T1 I R T1 I", t1 * r * t1 * i1 * r * t1 * i1),
        },
        {
            "order": 2, "word": "(aba)^-1 (d^2c^-1a^-2d^3c^2a^-2) aba",
            "elt": (a * b * a).inverse() * mid * (a * b * a), "alt": [],
            "fixed": (KNum(1), KNum(0), KNum(-1)), "norm": -2,
            "other": ("J = RI", jj),
        },
        {
            "order": 3, "word": "d^-2 c^2 d^-1 c", "elt": di * di * c * c * di * c,
            "alt": [("a^-1ba^-1bababa^-1bab", ai * b * ai * b * a * b * a * b * ai * b * a * b)],
            "fixed": (TAU + 1, TAU_BAR, -TAU), "norm": -3,
            "other": (
                "T1 I (Ttaubar^-1 J) I T1^-1",
                t1 * i1 * (tb_inv * jj) * i1 * t1i,
            ),
        },
    ]
    return rows


def verify_table_rows() -> dict:
    """Order, fixed-point, norm and alternate-form checks for every word row."""
    out = []
    for row in torsion_word_rows():
        g = row["elt"]
        rec = {
            "word": row["word"],
            "order_ok": projective_order(g) == row["order"],
            "alt_ok": all(g == alt for _, alt in row["alt"]),
            "other_ok": g == row["other"][1],
        }
        if row["fixed"] is not None:
            v = row["fixed"]
            p = ProjPoint(v)
            rec["fixed_ok"] = p.moved(g.ints) == p
            rec["norm_ok"] = sq_norm(v) == KNum(row["norm"])
        else:
            # the fixed point should not have coordinates in the base field
            _, pt, _ = classify_elliptic(g, row["order"])
            rec["fixed_ok"] = not pt.rational
            rec["norm_ok"] = True
        rec["row_ok"] = all(v for k, v in rec.items() if k != "word")
        out.append(rec)
    return {"rows": out, "all_pass": all(r["row_ok"] for r in out)}


def _orbit_witness(cls, g, n, reduced):
    """delta, k with delta g delta^-1 = cls.rep^k, or None when the fixed
    point of g, reduced into Omega as reduced = (shift, y), lies outside the
    orbit of cls.fixed."""
    shift, y = reduced
    t = cls.transports.get(y)
    if t is None:
        return None
    moved = shift * g * shift.inverse()
    wit = _power_conjugate_witness(cls.rep, t.inverse() * moved * t, n, cls.stab)
    if wit is None:
        return None
    s, k = wit
    delta = s.inverse() * t.inverse() * shift
    return delta, k


@cache
def coverage_report() -> dict:
    """Match every torsion class to a power of some word-table element.

    For each class the witness delta satisfies delta g delta^-1 = rep^k with
    g the table element and k coprime to the order.
    """
    classes = enumerate_torsion()
    # a row's classification serves every class of its order, and an
    # isolated fixed point's reduction every row that fixes it
    rows = []
    by_point = {}
    for row in torsion_word_rows():
        kind, pt, norm = classify_elliptic(row["elt"], row["order"])
        if kind == "isolated" and pt not in by_point:
            by_point[pt] = reduce_to_domain(pt)
        rows.append((row, kind, norm, by_point[pt] if kind == "isolated" else None))
    matches = {}
    for idx, cls in enumerate(classes):
        for row, kind, norm, reduced in rows:
            g, n = row["elt"], row["order"]
            if n != cls.proj_order:
                continue
            if cls.kind == "reflection":
                if kind != "reflection" or norm != cls.polar_norm:
                    continue
                delta = reflection_conjugacy(g, cls.rep)
                if delta is not None:
                    matches[idx] = {"word": row["word"], "delta": delta, "power": 1}
                    break
            else:
                if kind != "isolated":
                    continue
                wit = _orbit_witness(cls, g, n, reduced)
                if wit is not None:
                    delta, k = wit
                    matches[idx] = {"word": row["word"], "delta": delta, "power": k}
                    break
    return {
        "n_classes": len(classes),
        "matched": sorted(matches),
        "matches": matches,
        "all_covered": len(matches) == len(classes),
    }
