"""Reduction maps to matrix groups over prime fields and torsion certificates.

The image of Gamma modulo a prime ideal is closed once, as flat tuples of
nine residues.  A class's certificate row reads the order of its image x,
of -x and of x up to scalars off one list of the powers of x, and the
center decides one entry of x g and g x before it forms the products.
"""

from functools import cache

from picard7.hermitian import mat_ints
from picard7.heisenberg import R, T1, TV
from picard7.torsion import enumerate_torsion, orbit_walk


#: the identity matrix over a prime field, as its nine entries row by row
IDENTITY = (1, 0, 0, 0, 1, 0, 0, 0, 1)

#: the most elements an FpMatGroup closure may reach
CLOSURE_CAP = 100000


class ResidueMap:
    """Entry-wise reduction of integral matrices (their 18 ints) modulo a prime ideal.

    The quotient is F_7 for the ideal generated by i*sqrt(7) (tau maps to 4,
    the inverse of 2) and F_2 for the ideal generated by tau (tau maps to 0).
    A matrix over the quotient is one flat tuple of its nine entries, row
    by row: a closure holds one tuple per element.
    """

    def __init__(self, ideal: str):
        if ideal == "isqrt7":
            self.p, self.tau = 7, 4
        elif ideal == "tau":
            self.p, self.tau = 2, 0
        else:
            raise ValueError("unknown ideal tag: %r" % (ideal,))
        self.ideal = ideal
        if (self.tau * self.tau - self.tau + 2) % self.p:
            raise ArithmeticError("tau does not reduce to a root of x^2 - x + 2")

    def scalar(self, x) -> int:
        if x.d != 1:
            raise ValueError("entry is not integral")
        return (x.na + x.nb * self.tau) % self.p

    def __call__(self, t):
        p, tau = self.p, self.tau
        return tuple((a + b * tau) % p for a, b in zip(t[0::2], t[1::2]))

    def mul(self, x, y):
        x00, x01, x02, x10, x11, x12, x20, x21, x22 = x
        y00, y01, y02, y10, y11, y12, y20, y21, y22 = y
        p = self.p
        return (
            (x00 * y00 + x01 * y10 + x02 * y20) % p,
            (x00 * y01 + x01 * y11 + x02 * y21) % p,
            (x00 * y02 + x01 * y12 + x02 * y22) % p,
            (x10 * y00 + x11 * y10 + x12 * y20) % p,
            (x10 * y01 + x11 * y11 + x12 * y21) % p,
            (x10 * y02 + x11 * y12 + x12 * y22) % p,
            (x20 * y00 + x21 * y10 + x22 * y20) % p,
            (x20 * y01 + x21 * y11 + x22 * y21) % p,
            (x20 * y02 + x21 * y12 + x22 * y22) % p,
        )

    def commutes_at_00(self, x, g) -> bool:
        """Whether entry (0, 0) of x g and g x agree: the x_00 g_00 terms
        cancel, so it reads four products of residues."""
        return not (x[1] * g[3] + x[2] * g[6] - g[1] * x[3] - g[2] * x[6]) % self.p

    def is_scalar(self, x) -> bool:
        return x[1] == x[2] == x[3] == x[5] == x[6] == x[7] == 0 and x[0] == x[4] == x[8]


class FpMatGroup:
    """Closure of the reductions of integral matrices (18 ints each) over a prime field."""

    def __init__(self, gens, rm: ResidueMap):
        self.rm = rm
        self.gens = [rm(m) for m in gens]
        walk = orbit_walk([IDENTITY], self.gens, rm.mul, cap=CLOSURE_CAP)
        self.elements = frozenset(x for x, _, _ in walk)
        self.order = len(self.elements)
        self.scalars = sorted(x for x in self.elements if rm.is_scalar(x))
        self.projective_order = self.order // len(self.scalars)

    def center(self):
        """The elements that commute with each generator.  Entry (0, 0) of
        x g and g x is decided first, and only an x that passes it for g
        takes the two full products."""
        mul, at_00 = self.rm.mul, self.rm.commutes_at_00
        out = []
        for x in self.elements:
            for g in self.gens:
                if not at_00(x, g) or mul(x, g) != mul(g, x):
                    break
            else:
                out.append(x)
        return sorted(out)

    def element_orders(self, x):
        """(ord x, ord -x, the projective order of x), read off one list of
        the powers x^0, .., x^(n - 1), n = ord x.  (-x)^k = (-1)^k x^k, so
        ord -x is the least k <= 2n with x^(k mod n) = (-1)^k Id, and the
        projective order is the least k >= 1 with x^k scalar, or n."""
        rm = self.rm
        powers = [IDENTITY]
        y = x
        while y != IDENTITY:
            powers.append(y)
            y = rm.mul(y, x)
        n = len(powers)
        signs = (IDENTITY, tuple(-v % rm.p for v in IDENTITY))
        neg = next(k for k in range(1, 2 * n + 1) if powers[k % n] == signs[k % 2])
        proj = next((k for k in range(1, n) if rm.is_scalar(powers[k])), n)
        return n, neg, proj


@cache
def image_group(ideal: str) -> FpMatGroup:
    """The image of the lattice generators under reduction.

    Built from the printed generator matrices rather than their sign-canonical
    forms, so the image order counts the matrix group they actually generate.
    """
    from picard7.presentation import A_MAT, B_MAT

    rm = ResidueMap(ideal)
    return FpMatGroup([mat_ints(A_MAT), mat_ints(B_MAT)], rm)


def torsion_free_certificate(ideal: str, classes=None) -> dict:
    """Per-class order preservation plus the cusp check for the kernel.

    The kernel is torsion-free iff every torsion class keeps its projective
    order in the image, and has no cusp torsion iff the images of T1 R times
    the powers of Tv stay away from the scalars.
    """
    rm = ResidueMap(ideal)
    grp = image_group(ideal)
    if classes is None:
        classes = enumerate_torsion()
    rows = []
    for cls in classes:
        n, neg, proj = grp.element_orders(rm(cls.rep.ints))
        row = {
            "word": cls.word,
            "order": cls.proj_order,
            "image_order": n,
            "neg_image_order": neg,
            "projective_image_order": proj,
        }
        row["ok"] = row["projective_image_order"] == cls.proj_order
        rows.append(row)
    t1r = (T1 * R).to_matrix()
    tv = TV.to_matrix()
    # every vertical translation reduces trivially mod isqrt7, so the image
    # order of tv can be 1; the four products are still checked separately
    cusp = {"tv_image_order": grp.element_orders(rm(tv.ints))[0], "products_nontrivial": []}
    g = t1r
    for k in range(max(4, cusp["tv_image_order"])):
        cusp["products_nontrivial"].append(not rm.is_scalar(rm(g.ints)))
        g = g * tv
    report = {
        "ideal": ideal,
        "image_order": grp.order,
        "projective_image_order": grp.projective_order,
        "center_order": len(grp.center()),
        "classes": rows,
        "cusp": cusp,
        "torsion_free": all(r["ok"] for r in rows),
        "cusp_torsion_free": all(cusp["products_nontrivial"]),
    }
    return report
