"""Torsion in PU(2,1,O_7): conjugacy classes, cycle graphs and finite stabilizers.

The trace names an element's possible finite orders, and powers on its 18
ints confirm one.  An elliptic element either fixes a complex line
pointwise (a reflection: an involution whose axis, the simple eigenline
read off I - tr(g) g, is positive) or has an isolated fixed point (a
negative eigenvector: a cross product of two rows of g - lam I, formed on
the 18 ints of g and the ints of lam in K, K(zeta_3) or K(zeta_7) alike).
Candidates come from the sweeps gamma = alpha * A_j over the finite sets
T_jk of cusp translates whose spheres can meet; isolated fixed points are
moved into Omega and walked into orbits by side-pairing maps and cusp
overlaps, whose Schreier generators give the stabilizers, so that conjugacy
and stabilizers reduce to finite group computations.  A stabilizer is
closed once, on the canonical ints of its projective elements: the only
scalars of U(J, O_7) are +/-Id, so its linear group has twice as many
matrices.  Its reflections are read off each element's trace first, and a
polar is divided by the O_7 gcd of its entries on int pairs.  Inside a
walk or a finite group an element is its canonical 18 ints and a rational
point the six of its rep, and a step is an int product under the sign rule
(`canonical_ints`); a GroupElt, with its word, is built only to be printed.
"""

from collections import namedtuple
from functools import cache
from itertools import accumulate, repeat
from math import gcd
from operator import add, sub

from .ring import root_of_unity
from .hermitian import (
    ID_INTS,
    GroupElt,
    ProjPoint,
    _apply_ints,
    canonical_ints,
    ints_are_scalar,
    ints_inverse,
    ints_product,
    sq_norm_ints,
    word_str,
    _is_unitary_ints,
    _mul_ints,
)
from .heisenberg import (
    IDENTITY,
    R,
    T1,
    TTAU,
    act_prism,
    cusp_torsion_classes,
    overlaps_keeping,
    prism_coordinates,
    prism_grid,
    reduce_to_prism,
)
from .ford import (
    GENERATORS,
    INVERSE_PAIRS,
    enumerate_tjk,
    reduce_to_domain,
    spheres_at,
)


#: the projective orders an element of finite order can have, by its trace
#: a + b tau up to sign ((a, b) with its first nonzero int positive).  The
#: eigenvalues of g are the roots of x^3 - t x^2 + d conj(t) x - d over K
#: (t = tr g, d = det g = +/-1); for g of finite order they are, up to sign,
#: (1, 1, 1), (1, 1, -1), (1, i, -i), (1, w, w^2) or (-1, w, w^2) for w^3 = 1,
#: w != 1, or the three conjugates over K of a primitive seventh root of 1
#: (Goldman, Complex Hyperbolic Geometry, ch. 6)
_ORDERS_BY_TRACE = {(3, 0): (1,), (1, 0): (2, 4), (0, 0): (3,), (2, 0): (6,), (0, 1): (7,), (1, -1): (7,)}


def projective_order(g: GroupElt):
    """Smallest n >= 1 with g^n = +/-Id, or None if g has infinite order."""
    return _ints_order(g.ints)


def _ints_order(t):
    """projective_order of the matrix with the 18 ints t (either sign): a
    candidate order of the trace (`_ORDERS_BY_TRACE`) that powers confirm."""
    a, b = t[0] + t[8] + t[16], t[1] + t[9] + t[17]
    key = (a, b) if (a, b) >= (0, 0) else (-a, -b)
    return next((n for n in _ORDERS_BY_TRACE.get(key, ()) if _has_projective_order(t, n)), None)


def _ints_power(t, n: int):
    """The 18 ints of M^n, n >= 1, for M with the 18 ints t, by squaring."""
    out = None
    while n:
        if n & 1:
            out = t if out is None else ints_product(out, t)
        n >>= 1
        if n:
            t = ints_product(t, t)
    return out


def _has_projective_order(t, n: int) -> bool:
    """Whether the matrix g with the 18 ints t has projective order n, for
    an order n of the trace table: g^n = +/-Id, and g^(n/q) != +/-Id for
    each prime q dividing n, as every n' with g^n' = +/-Id divides n, and
    one that is not n divides some n/q.  The only scalars of U(J, O_7) are
    +/-Id."""
    return (ints_are_scalar(_ints_power(t, n))
            and not any(ints_are_scalar(_ints_power(t, n // q)) for q in (2, 3, 7) if n % q == 0))


# ---------------------------------------------------------------------------
# reflections and the reflection/isolated dichotomy
# ---------------------------------------------------------------------------


def make_reflection(v) -> GroupElt:
    """The complex reflection R_v(x) = x - 2 <x,v>/<v,v> v, for v in K^3 with <v,v> in {1,2}.

    On the primitive representative v of the polar, with n = <v, v>, entry
    (i, j) is delta_ij - (2/n) conj(v_(2-j)) v_i, as <e_j, v> = conj(v_(2-j)):
    2/n is an int, so are the 18 ints, and they are written directly.
    """
    polar = ProjPoint(v)
    nv = sq_norm_ints(polar.rep)
    if nv not in (1, 2):
        raise ValueError("polar norm not integral for this form")
    k = 2 if nv == 1 else 1
    v = list(zip(polar.rep[0::2], polar.rep[1::2]))
    t = []
    for i in range(3):
        for j in range(3):
            # conj(c + e tau) = (c + e) - e tau
            c, e = v[2 - j]
            x, y = _mul_ints(c + e, -e, *v[i])
            t += (int(i == j) - k * x, -k * y)
    if not _is_unitary_ints(t):
        raise ValueError("matrix is not in U(J, O_7)")
    return GroupElt.from_ints(tuple(t), word=(("R_" + "".join(str(x) for x in polar.coords), 1),))


def _eigenvectors(t, cross, lams, lift, mul):
    """For each lam of lams in turn, a vector spanning the kernel of
    g - lam I when it has rank 2, for g with the 18 ints t, or None when
    lam is no eigenvalue of g.

    Each lam lies in a field F that contains K (K, K(zeta_3) or K(zeta_7))
    and is given by its ints in F; lift takes a + b tau to F's ints, and
    mul multiplies them.  Each vector is three tuples of F's ints.

    For a cyclic (i, j, k), the bilinear cross product of rows i and j of
    g - lam I is v = g_i x g_j + lam (g_ik e_i + g_jk e_j - (g_ii + g_jj) e_k)
    + lam^2 e_k, a column of adj(g - lam I) whose coefficients are int
    pairs (Goldman, Complex Hyperbolic Geometry, ch. 6).  Two independent
    rows kill v, and row k does exactly when g - lam I is singular:
    products only, with no pivot and no division.  The coefficients of v
    and row k do not depend on lam or on F: cross keeps each triple's int
    pairs, formed at the first lam of any field that reaches it, and a
    caller that passes one dict for g to several fields forms them once.
    Each field lifts them once, and evaluates them at each candidate.
    """
    lifted = {}
    for lam in lams:
        lam2 = mul(lam, lam)
        for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            if k not in lifted:
                if k not in cross:
                    rows = [[t[6 * r + 2 * c:6 * r + 2 * c + 2] for c in range(3)] for r in range(3)]
                    gi, gj = rows[i], rows[j]
                    (p, q), (r, s) = gi[i], gj[j]
                    pairs = [None] * 3
                    # v_m = (g_i x g_j)_m + lam c, with (g_i x g_j)_m = g_ia g_jb - g_ib g_ja
                    for m, a, b, c in ((i, j, k, gi[k]), (j, k, i, gj[k]), (k, i, j, (-p - r, -q - s))):
                        x, y = _mul_ints(*gi[a], *gj[b])
                        z, w = _mul_ints(*gi[b], *gj[a])
                        pairs[m] = (x - z, y - w), c
                    cross[k] = pairs, rows[k]
                pairs, row = cross[k]
                lifted[k] = [(lift(*x), lift(*c)) for x, c in pairs], [lift(*c) for c in row]
            coeffs, row = lifted[k]
            v = [tuple(map(add, x, mul(lam, c))) for x, c in coeffs]
            v[k] = tuple(map(add, v[k], lam2))
            if any(map(any, v)):
                u = mul(lam, v[k])  # row k of g - lam I, applied to v
                for c, x in zip(row, v):
                    u = tuple(map(sub, u, mul(c, x)))
                yield None if any(u) else tuple(v)
                break
        else:
            raise ArithmeticError("g - lam I has rank below 2")


def _k_lift(a: int, b: int):
    """K's lift for `_eigenvectors`: a + b tau is its own int pair."""
    return a, b


def _k_mul(f, g):
    """K's mul for `_eigenvectors`, on int pairs."""
    return _mul_ints(*f, *g)


def _involution_axis(t):
    """The six ints of a nonzero column of I - tr(g) g if g^2 = I and g is
    not 1, else None, for g with the 18 ints t (either sign).

    That column spans the simple eigenline p of g, and g fixes the complex
    line p^perp pointwise exactly when <p, p> > 0.  Any element of Gamma may
    be passed; one of infinite order fails g^2 = I.

    The trace is read first.  An involution g other than +/-Id has the
    eigenvalues lam, lam, -lam with lam = +/-1, so its trace is lam: only a
    trace a + b tau with b = 0 and a = +/-1 takes the product g^2.
    """
    a, b = t[0] + t[8] + t[16], t[1] + t[9] + t[17]
    if b or a not in (1, -1):
        return None
    # A g other than 1 that has finite order, or fixes a complex line
    # pointwise, and has a repeated eigenvalue lam is an involution.  A
    # double root of a cubic over K lies in K, and |lam| = 1: lam is a root
    # of unity, or g keeps the form on a line that holds vectors of nonzero
    # norm.  So lam is an integral unit of K, lam = +-1.  det g = +-1 makes
    # the simple eigenvalue +-1 as well, and not lam, or g would be scalar:
    # g^2 = I.  (g^2 = -I would need the eigenvalues +-i, not in K.)
    # Conversely an involution g other than 1 has the eigenvalues lam, lam,
    # -lam with lam = tr g, and g' = lam g has trace 1: I - g' is twice the
    # projection onto its -1-eigenline p along the 1-eigenplane p^perp, so
    # its nonzero columns span p.  p^perp is indefinite, a complex line,
    # when <p, p> > 0, and definite, around the isolated fixed point p, when
    # <p, p> < 0 (Goldman, Complex Hyperbolic Geometry, 3.1).
    if ints_product(t, t) != ID_INTS:
        return None
    for j in range(3):
        col = tuple(x for i in range(3)
                    for x in (int(i == j) - a * t[6 * i + 2 * j], -a * t[6 * i + 2 * j + 1]))
        if any(col):
            return col


def reflection_polar(t):
    """(polar ProjPoint, polar norm) if the matrix g with the 18 ints t is a
    complex reflection, else None.

    A reflection of Gamma is an involution whose axis (`_involution_axis`)
    is positive: an int product and one int norm.
    """
    col = _involution_axis(t)
    if col is None or sq_norm_ints(col) <= 0:
        return None
    polar = ProjPoint.of_ints(col)
    return polar, sq_norm_ints(polar.rep)


def classify_elliptic(g: GroupElt, n: int):
    """("reflection", polar, <v,v>) or ("isolated", fixed point, <v,v> or None)."""
    if projective_order(g) != n:
        raise ValueError("stated order does not match the element")
    col = _involution_axis(g.ints)
    if col is not None:
        # a positive axis is the polar of the mirror, and a negative one the
        # isolated fixed point; a null one would lie in its own eigenplane
        sign = sq_norm_ints(col)
        if sign == 0:
            raise ArithmeticError("simple eigenvector of a finite-order element is null")
        p = ProjPoint.of_ints(col)
        return "reflection" if sign > 0 else "isolated", p, sq_norm_ints(p.rep)
    # of finite order and not an involution, so g has three simple
    # eigenvalues; K contains only the roots of unity +/-1, so any
    # K-rational eigenvector belongs to one of those
    # the cross products of g's rows, as int pairs, for both fields
    cross = {}
    for v in _eigenvectors(g.ints, cross, ((1, 0), (-1, 0)), _k_lift, _k_mul):
        if v is not None:
            v = v[0] + v[1] + v[2]
            if sq_norm_ints(v) < 0:
                pt = ProjPoint.of_ints(v)
                return "isolated", pt, sq_norm_ints(pt.rep)
    # fixed point outside K^3, so n is 3, 6 or 7.  g^n = e Id makes each
    # eigenvalue a root of x^n - e: e z^k for z a primitive n-th root of
    # unity, where k = 0 gives e, in K.  For n = 6, e = 1: the factors of
    # x^6 + 1 over K have degrees 2 and 4, which leaves no third eigenvalue
    e = _ints_power(g.ints, n)[0]
    tw, z = root_of_unity(n)
    # the candidates e z, e z^2, .., e z^(n - 1), as running products
    lams = accumulate(repeat(z, n - 2), tw.mul, initial=tw.mul(tw.lift(e, 0), z))
    for v in _eigenvectors(g.ints, cross, lams, tw.lift, tw.mul):
        # a vector with v3 = 0 has <v, v> = |v2|^2 >= 0; any other is a
        # tower point, whose sign is read off its rep's ints
        if v is not None and any(v[2]):
            p = ProjPoint.of_tower(v)
            if p.sq_norm_sign() < 0:
                return "isolated", p, None
    raise ValueError("no negative eigenvector found for an elliptic element")


# ---------------------------------------------------------------------------
# orbits: one breadth-first walk with back-pointers
# ---------------------------------------------------------------------------


class ClosureError(Exception):
    """Raised when an orbit or group closure exceeds its cap."""


def orbit_walk(starts, letters, act, depth=None, cap=None):
    """Breadth-first orbit of the starts under act(node, letter).

    Yields (node, parent, letter) the first time each node is reached: the
    starts first, with parent None, then act(parent, letter) level by level,
    in the order of the parents and then of the letters.  The pairs form a
    Schreier tree (Holt, Eick and O'Brien, Handbook of Computational Group
    Theory, ch. 4).  depth bounds the word length; reaching more than cap
    nodes raises ClosureError.
    """
    frontier = list(dict.fromkeys(starts))
    seen = set(frontier)
    for s in frontier:
        yield s, None, None
    level = 0
    while frontier and (depth is None or level < depth):
        new = []
        for p in frontier:
            for g in letters:
                q = act(p, g)
                if q not in seen:
                    if cap is not None and len(seen) >= cap:
                        raise ClosureError(f"orbit walk exceeded cap {cap}")
                    seen.add(q)
                    new.append(q)
                    yield q, p, g
        frontier = new
        level += 1


def walk_element(tree, node) -> GroupElt:
    """The element carrying its start to node in a tree {node: (parent, letter)}.

    Each step of the walk put its letter on the left, so the product reads
    the path from node back to the start: the last letter is leftmost, in
    the matrix and in the word.
    """
    g = GroupElt.identity()
    parent, letter = tree[node]
    while parent is not None:
        g = g * letter
        parent, letter = tree[parent]
    return g


# ---------------------------------------------------------------------------
# conjugacy of reflections: orbit search on polar vectors
# ---------------------------------------------------------------------------


def _search_alphabet():
    t1, ttau = T1.to_matrix(), TTAU.to_matrix()
    return (
        t1,
        t1.inverse(),
        ttau,
        ttau.inverse(),
        R.to_matrix(),
        GENERATORS[1],
        GENERATORS[2],
        GENERATORS[3],
    )


def moved_rep(v, g: GroupElt):
    """The six ints of g(p)'s rep for the six ints v of a rational point p's
    rep: one int product under the sign rule (see `ProjPoint.moved`)."""
    return canonical_ints(_apply_ints(g.ints, v))


@cache
def _orbit_ball(start, depth: int):
    """Schreier tree {rep: (parent, letter)} of the words of length <= depth,
    keyed on the six ints of each point's rep, with GroupElt letters.

    Built once per (start, depth): callers only read it, and the torsion
    enumeration and the coverage report search from the same polars."""
    walk = orbit_walk([start], _search_alphabet(), moved_rep, depth)
    return {q: (p, g) for q, p, g in walk}


#: total word length of the meet-in-the-middle conjugator search
CONJUGACY_SEARCH_LEN = 8


def reflection_conjugacy(g1: GroupElt, g2: GroupElt):
    """An exact conjugator with delta g1 delta^-1 = g2, or None.

    Conjugating a reflection transports its polar vector, so the search is a
    meet-in-the-middle orbit walk on the two polar points.  Every reflection
    of Gamma is an involution (see _involution_axis), so None is a proof of
    non-conjugacy only when the polar norms differ; a None from the bounded
    search proves nothing, so it only merges classes.  A rep's ints sort as
    its ProjPoint does, so the least common point is the same either way.
    """
    r1, r2 = reflection_polar(g1.ints), reflection_polar(g2.ints)
    if r1 is None or r2 is None:
        raise ValueError("both elements must be complex reflections")
    if r1[1] != r2[1]:
        return None
    half = (CONJUGACY_SEARCH_LEN + 1) // 2
    fwd = _orbit_ball(r1[0].rep, half)
    bwd = _orbit_ball(r2[0].rep, CONJUGACY_SEARCH_LEN - half)
    for p in sorted(p for p in fwd if p in bwd):
        delta = walk_element(bwd, p).inverse() * walk_element(fwd, p)
        if delta * g1 * delta.inverse() == g2:
            return delta
    return None


# ---------------------------------------------------------------------------
# cycle graph of isolated fixed points in Omega
# ---------------------------------------------------------------------------


#: one orbit of a cycle graph, walked from its base: transports[q], a
#: GroupElt with its word, carries the base to the vertex q, in the order
#: the walk found them, and gens are the Schreier generators of the base's
#: stabilizer, each distinct one once as its canonical ints
Orbit = namedtuple("Orbit", "transports gens")


def _image_moves(image: ProjPoint, x, grid):
    """(sides, overlaps), what `_moves` reads off a prism image: a point in
    Omega, with prism coordinates x and their grid, that `reduce_to_prism`
    leaves where it is.  sides holds (g, q, c, alpha, j, xs) for each Ford
    sphere alpha(I(A_j)) through the image: g the ints of c (alpha A_j)^-1,
    with c the cusp shift that brings (alpha A_j)^-1(image) back to the
    prism, xs the prism coordinates of that point and q = g(image).
    overlaps holds (o, o(image)) for the identity and each cusp overlap o
    that keeps the image in P.
    """
    sides = []
    for alpha, j, flag in spheres_at(image, x, grid):
        if flag != "boundary":
            raise ArithmeticError("graph vertices must lie in Omega")
        # (alpha A_j)^-1 = A_j^-1 alpha^-1
        g = ints_product(ints_inverse(GENERATORS[j].ints), alpha.inverse().ints)
        q = image.moved(g)
        xs = prism_coordinates(q.rep)
        c = reduce_to_prism(xs)
        sides.append((ints_product(c.ints, g), q.moved(c.ints), c, alpha, j, xs))
    overlaps = [(IDENTITY, image)] + [(o, image.moved(o.ints)) for o in overlaps_keeping(x, grid)]
    return sides, overlaps


def _moves(p: ProjPoint, x, images):
    """(t, q, c, side, xs) for the moves g at a vertex p in Omega with prism
    coordinates x: t the canonical ints of g and q = g(p).  First, for every
    Ford sphere alpha(I(A_j)) through p, side = (alpha, j) and g = c (alpha
    A_j)^-1, with c the cusp shift bringing the image back to the prism, and
    xs the image's prism coordinates; then, for every cusp overlap c keeping
    p inside the prism, side = None, g = c and xs = x.  q's coordinates are
    act_prism(c, xs), which the walk takes for a new vertex only, and
    `_move_element` builds g with its word for a new vertex only.

    The moves are read off p's prism image p^ = s(p), s = reduce_to_prism(x):
    images maps each prism image the walk has met to its `_image_moves`,
    derived at the first vertex that reached it, so a vertex that a cusp
    overlap relates to an earlier one takes no sweep, side reduction or
    overlap test of its own.  The spheres through p are s^-1 alpha^ for
    those through p^, and (s^-1 alpha^ A_j)^-1 = (alpha^ A_j)^-1 s, so a
    side move at p is g^ s for the side move g^ at p^, with the same image
    q.  The overlaps c != 1 with c(p) in P are the o s for o = 1 or an
    overlap keeping p^ in P, in normal-form order, and c(p) = o(p^).  The
    grid of x is taken once, and when s = 1 the sweep and the overlap test
    read it too, so a tower vertex brackets its a, b and s once.
    """
    grid = prism_grid(x)
    s = reduce_to_prism(x, grid)
    image = p if s == IDENTITY else p.moved(s.ints)
    if image not in images:
        if s == IDENTITY:
            images[image] = _image_moves(image, x, grid)
        else:
            xi = act_prism(s, x)
            images[image] = _image_moves(image, xi, prism_grid(xi))
    sides, overlaps = images[image]
    s_inv = s.inverse()
    for g, q, c, alpha, j, xs in sides:
        yield canonical_ints(ints_product(g, s.ints)), q, c, (s_inv * alpha, j), xs
    for c, q in sorted((o * s, q) for o, q in overlaps):
        if c != IDENTITY:
            yield c.ints, q, c, None, x


def _move_element(c, side) -> GroupElt:
    """The move of `_moves` with the cusp shift c and side (alpha, j) or
    None, as a GroupElt with its word."""
    g = c.to_matrix()
    if side is None:
        return g
    alpha, j = side
    return g * (alpha.to_matrix() * GENERATORS[j]).inverse()


def build_cycle_graph(points):
    """The Omega-orbits of the given points, as {base: Orbit}.

    Each given point that no earlier walk reached is the base of a
    breadth-first walk: vertices are expanded in the order they are found,
    and each vertex's moves in `_moves` order.  A vertex carries its prism
    coordinates: a base reads them off its vector, and a new vertex takes
    them from the move that found it.  The moves of each prism image are
    derived once per call, in a dict that `_moves` fills and that is gone
    when the call returns.  A new vertex q found from p gets the transport
    g t_p for the least (by canonical ints) move g from p to q, the one
    move built as a GroupElt with its word.  A move p -> q by g gives the
    Schreier generator sigma(p, g) = t_q^-1 g t_p of the base's stabilizer
    (Holt, Eick and O'Brien, Handbook of Computational Group Theory, ch. 4),
    and those of all moves generate it.  They are formed only at the
    vertices p^ that are the prism image s(p), s = reduce_to_prism, of some
    vertex p, which are the dict's keys: `reduce_to_prism` leaves its
    images where they are, so these are the vertices with s = 1.  At a
    vertex p with s != 1, s is an overlap move, so p^ is a vertex, and s^-1
    is an overlap move at p^: sigma(p, s) = sigma(p^, s^-1)^-1.  A side move
    g^ s at p gives sigma(p^, g^) sigma(p, s), and an overlap move o s gives
    sigma(p^, o) sigma(p, s), so the vertices with s != 1 add no generator.
    The move that found q gives the identity and is skipped; the others are
    int products, with t_q^-1 taken once per vertex, and each distinct one
    other than the identity is kept once, as its canonical ints, so that s
    and -s are one generator.
    """
    graph = {}
    images = {}
    for base in points:
        if any(base in orbit.transports for orbit in graph.values()):
            continue
        transports = {base: GroupElt.identity()}
        inverses = {base: ID_INTS}
        gens = {}
        found = [(base, prism_coordinates(base.rep))]
        for p, x in found:
            moves = list(_moves(p, x, images))
            least = {}
            for move in moves:
                t, q = move[:2]
                if q not in transports and (q not in least or t < least[q][0]):
                    least[q] = move
            tp = transports[p]
            for q, (_, _, c, side, xs) in least.items():
                transports[q] = tq = _move_element(c, side) * tp
                inverses[q] = ints_inverse(tq.ints)
                found.append((q, act_prism(c, xs)))
            if p not in images:
                continue
            for move in moves:
                t, q = move[:2]
                if least.get(q) is not move:
                    s = ints_product(inverses[q], ints_product(t, tp.ints))
                    if not ints_are_scalar(s):
                        gens[canonical_ints(s)] = None
        graph[base] = Orbit(transports, list(gens))
    return graph


# ---------------------------------------------------------------------------
# finite stabilizers
# ---------------------------------------------------------------------------

#: the most matrices a FiniteGroup closure may reach
CLOSURE_CAP = 10000


def _projective_product(x, y):
    """The canonical ints (`canonical_ints`) of the product of two matrices
    given by their 18 ints: one product in PU(J, O_7)."""
    return canonical_ints(ints_product(x, y))


class FiniteGroup:
    """Closure of a finite set of generators in U(J, O_7), with line data.

    The generators and the elements are canonical 18-int tuples
    (`canonical_ints`): the walk closes the projective group on them, and
    `elements` is the frozenset it yields.  The linear group is its
    preimage in U(J, O_7), whose only scalars are +/-Id: it has the two
    matrices +/-M for each element, so the walk stops at half the cap of
    matrices.  A GroupElt is in the group when its ints are.
    """

    def __init__(self, gens):
        walk = orbit_walk([ID_INTS], sorted(set(gens)), _projective_product, cap=CLOSURE_CAP // 2)
        self.elements = frozenset(a for a, _, _ in walk)
        if sum(1 for t in self.elements if ints_are_scalar(t)) != 1:
            raise ArithmeticError("the closure holds a scalar other than +/-Id")
        self.scalar_order = 2
        self.projective_order = len(self.elements)
        self.linear_order = 2 * self.projective_order
        self._analyze_reflections()

    def _analyze_reflections(self):
        polars = {}
        for t in self.elements:
            refl = reflection_polar(t)
            if refl is not None:
                polars[refl[0]] = refl[1]
        self.reflections = sorted(polars.items(), key=lambda t: (t[1], t[0]))
        self.one_lines = sum(1 for _, n in polars.items() if n == 1)
        self.two_lines = sum(1 for _, n in polars.items() if n == 2)
        self.two_line_orbits = self._orbit_sizes([p for p, n in polars.items() if n == 2])

    def _orbit_sizes(self, points):
        remaining = set(points)
        sizes = []
        for p in points:
            if p not in remaining:
                continue
            # the elements form a group, so the orbit is one sweep over them
            orbit = {p.moved(t) for t in self.elements}
            if not orbit <= remaining:
                raise ArithmeticError("reflection polars are not closed under the group")
            sizes.append(len(orbit))
            remaining -= orbit
        return sorted(sizes)

    def __contains__(self, g: GroupElt):
        return g.ints in self.elements

    def __repr__(self):
        return (
            f"FiniteGroup(linear={self.linear_order}, projective={self.projective_order}, "
            f"reflections={len(self.reflections)})"
        )


def stabilizer(point: ProjPoint, graph) -> FiniteGroup:
    """Stabilizer of a base of a cycle graph, closed from its Schreier generators."""
    if point not in graph:
        raise ValueError("point is not the base of an orbit of the graph")
    return FiniteGroup(graph[point].gens)


def point_stabilizer(x: ProjPoint):
    """(y, its stabilizer) for the point y of Omega that `reduce_to_domain`
    takes x to: the stabilizer closed from y's one-point cycle graph."""
    _, y = reduce_to_domain(x)
    return y, stabilizer(y, build_cycle_graph([y]))


# ---------------------------------------------------------------------------
# enumeration and deduplication of torsion classes
# ---------------------------------------------------------------------------


class TorsionClass:
    """A conjugacy class of torsion elements (reflections exactly; isolated
    classes up to powers, i.e. one class per fixed point orbit and order)."""

    def __init__(self, rep: GroupElt, proj_order: int, kind: str, polar=None, polar_norm=None,
                 fixed=None, fp_norm=None, members=None, stab=None, transports=None):
        self.rep = rep
        self.proj_order = proj_order
        self.kind = kind  # "reflection" | "isolated"
        self.polar = polar
        self.polar_norm = polar_norm
        self.fixed = fixed
        self.fp_norm = fp_norm
        self.members = [] if members is None else members
        # an isolated class keeps the stabilizer of its fixed point and the
        # transports of that point's orbit; a reflection class has neither
        self.stab = stab
        self.transports = transports
        self.stab_order, self.stab_linear_order, self.one_lines, self.two_lines, self.two_line_orbits = (
            (None,) * 5 if stab is None
            else (stab.projective_order, stab.linear_order, stab.one_lines, stab.two_lines,
                  stab.two_line_orbits)
        )

    @property
    def word(self):
        return word_str(self.rep.word)


def _torsion_candidates():
    """All finite-order gamma = alpha A_j over the T_jk sweeps, plus cusp torsion."""
    found = {}
    for g in cusp_torsion_classes():
        found[g] = projective_order(g)
    for j in sorted(GENERATORS):
        a = GENERATORS[j]
        for alpha in enumerate_tjk(j, INVERSE_PAIRS[j]):
            # the order is read off the 18 ints of alpha A_j, and the
            # word-carrying element is built for a hit only
            t = ints_product(alpha.ints, a.ints)
            n = _ints_order(t)
            if n is not None and n >= 2:
                found.setdefault(GroupElt.from_ints(t, alpha.word() + a.word), n)
    return found


def dedup_isolated(cands):
    """Merge isolated candidates [(GroupElt, order, fixed point)] into classes.

    Builds the cycle graph on the reduced fixed points; candidates of equal
    order whose points lie in one orbit merge only when an exact witness
    conjugates one into a power of the other inside the common stabilizer.
    Each orbit is based at its first reduced point, and a candidate at
    another of its points is carried there by that point's transport.

    `reduce_to_domain` starts with the prism shift c = reduce_to_prism, and
    each later step reads only the shifted point c(x), which the shift of
    its own first step leaves where it is.  So each prism image is reduced
    once, and a fixed point's element is that reduction's times its own c,
    with the same ints and word.
    """
    at_vertex = {}  # vertex ProjPoint -> list of (element fixing it, order)
    reduced = {}  # fixed point -> (shift, point in Omega); candidates share fixed points
    from_prism = {}  # prism image -> reduce_to_domain of it; fixed points share images
    for g, n, fixed in cands:
        if fixed not in reduced:
            c = reduce_to_prism(prism_coordinates(fixed.rep))
            image = fixed.moved(c.ints)
            if image not in from_prism:
                from_prism[image] = reduce_to_domain(image)
            shift, y = from_prism[image]
            reduced[fixed] = shift * c.to_matrix(), y
        shift, y = reduced[fixed]
        moved = shift * g * shift.inverse()
        elts = at_vertex.setdefault(y, [])
        if (moved, n) not in elts:
            elts.append((moved, n))
    graph = build_cycle_graph(list(at_vertex))
    classes = []
    for basept, orbit in graph.items():
        stab = stabilizer(basept, graph)
        # everything fixing a vertex of this orbit, moved to the base
        carried = []
        for y, elts in at_vertex.items():
            t = orbit.transports.get(y)
            if t is None:
                continue
            for g, n in elts:
                moved = t.inverse() * g * t
                if moved not in stab:
                    raise ArithmeticError("a candidate lies outside the stabilizer of its fixed point")
                carried.append((moved, n))
        merged = []  # (rep, order, members)
        for g, n in carried:
            placed = False
            for rep, rn, members in merged:
                if rn != n:
                    continue
                if _power_conjugate_witness(rep, g, n, stab) is not None:
                    members.append(g)
                    placed = True
                    break
            if not placed:
                merged.append((g, n, [g]))
        fp_norm = sq_norm_ints(basept.rep) if basept.rational else None
        for rep, n, members in merged:
            classes.append(
                TorsionClass(
                    rep=rep,
                    proj_order=n,
                    kind="isolated",
                    fixed=basept,
                    fp_norm=fp_norm,
                    members=members,
                    stab=stab,
                    transports=orbit.transports,
                )
            )
    classes.sort(key=lambda c: (c.proj_order, c.fp_norm is None, -(c.fp_norm or 0)))
    return classes


def _power_conjugate_witness(rep: GroupElt, g: GroupElt, n: int, stab: FiniteGroup):
    """s, k with s rep^k s^-1 = g (k coprime to n, s in the stabilizer), or None.
    The powers and conjugates are int products; only s becomes a GroupElt."""
    r, want = rep.ints, g.ints
    coprime = []
    p = r
    for k in range(1, n + 1):
        if gcd(k, n) == 1:
            coprime.append((k, p))
        p = ints_product(p, r)
    for s in sorted(stab.elements):
        si = ints_inverse(s)
        for k, p in coprime:
            if canonical_ints(ints_product(ints_product(s, p), si)) == want:
                return GroupElt.from_ints(s), k
    return None


@cache
def enumerate_torsion():
    """All torsion classes: reflections first, then isolated classes.

    Reflection classes merge on an exact conjugator transporting one polar
    vector to the other; isolated classes merge through the cycle graph.
    """
    cands = _torsion_candidates()
    reflections = []
    isolated = []
    for g, n in sorted(cands.items(), key=lambda t: (len(t[0].word or ()), t[0].ints)):
        kind, pt, norm = classify_elliptic(g, n)
        if kind == "reflection":
            reflections.append((g, n, pt, norm))
        else:
            isolated.append((g, n, pt))
    refl_classes = []
    for g, n, polar, norm in reflections:
        placed = False
        for cls in refl_classes:
            if cls.proj_order == n and cls.polar_norm == norm:
                if reflection_conjugacy(cls.rep, g) is not None:
                    cls.members.append(g)
                    placed = True
                    break
        if not placed:
            refl_classes.append(
                TorsionClass(
                    rep=g, proj_order=n, kind="reflection", polar=polar, polar_norm=norm,
                    members=[g],
                )
            )
    refl_classes.sort(key=lambda c: (c.proj_order, c.polar_norm))
    return refl_classes + dedup_isolated(isolated)
