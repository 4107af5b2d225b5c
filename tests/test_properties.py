import functools
import random
from fractions import Fraction

from picard7.ring import KNum
from picard7.hermitian import GroupElt, ProjPoint
from picard7.heisenberg import (
    CuspElt,
    IDENTITY,
    R,
    T1,
    TTAU,
    TV,
)
from picard7.ford import (
    GENERATORS,
    in_omega,
    reduce_to_domain,
)
from reference import act_horo, cygan_dist4, ford_side, from_zsu, lift, mat_apply, sphere_membership


def rand_knum(rng, span=6, den=3):
    return KNum(
        Fraction(rng.randint(-span, span), den), Fraction(rng.randint(-span, span), den)
    )


def rand_horo(rng, umax=6):
    return from_zsu(
        rand_knum(rng), Fraction(rng.randint(-12, 12), 4), Fraction(rng.randint(0, umax), 3)
    )


def rand_cusp(rng):
    return CuspElt(rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(0, 1), rng.randint(-3, 3))


def test_heisenberg_group_law_axioms():
    rng = random.Random(5)
    e = IDENTITY
    for _ in range(200):
        a, b, c = rand_cusp(rng), rand_cusp(rng), rand_cusp(rng)
        assert (a * b) * c == a * (b * c)
        assert e * a == a == a * e
        assert a * a.inverse() == e == a.inverse() * a
        # the action law on K-rational points with denominators 3 and 4,
        # on the boundary (u = 0) and above it (u > 0)
        for den in (3, 4):
            z = KNum(Fraction(rng.randint(-12, 12), den), Fraction(rng.randint(-12, 12), den))
            s = Fraction(rng.randint(-12, 12), den)
            for u in (0, Fraction(rng.randint(1, 12), den)):
                h = from_zsu(z, s, u)
                assert act_horo(a * b, h) == act_horo(a, act_horo(b, h))
                assert act_horo(a.inverse(), act_horo(a, h)) == h


def test_cygan_left_invariance():
    rng = random.Random(7)
    for _ in range(100):
        p, q = rand_horo(rng), rand_horo(rng)
        d = cygan_dist4(p, q)
        c = rand_cusp(rng)
        assert cygan_dist4(act_horo(c, p), act_horo(c, q)) == d


def test_ford_membership_agrees_with_sphere_inequality():
    rng = random.Random(11)
    for _ in range(60):
        h = rand_horo(rng)
        v = lift(h)
        for j in sorted(GENERATORS):
            assert ford_side(v, GENERATORS[j]) == sphere_membership(h, j)


def test_sphere_inversion_side_flip():
    # x inside I(g) iff g^-1 x is outside I(g^-1); boundary maps to boundary
    rng = random.Random(13)
    flip = {"inside": "outside", "outside": "inside", "boundary": "boundary"}
    elts = [GENERATORS[j] for j in sorted(GENERATORS)]
    elts += [T1.to_matrix() * GENERATORS[1], GENERATORS[2] * R.to_matrix()]
    for _ in range(40):
        v = lift(rand_horo(rng))
        for g in elts:
            gi = g.inverse()
            assert ford_side(mat_apply(gi.mat, v), gi) == flip[ford_side(v, g)]


BASE = from_zsu(KNum(Fraction(1, 5), Fraction(1, 7)), Fraction(1, 3), Fraction(5, 2))


@functools.cache
def round_trip_orbit():
    """(x0, xs): the base point of the round-trip check and its 500 seeded
    orbit images, under words of 1 to 3 side pairings and cusp letters."""
    rng = random.Random(17)
    x0 = ProjPoint(lift(BASE))
    alphabet = [GENERATORS[j] for j in sorted(GENERATORS)]
    alphabet += [c.to_matrix() for c in (T1, TTAU, TV, R)]
    alphabet += [g.inverse() for g in alphabet[14:]]
    xs = []
    for _ in range(500):
        w = GroupElt.identity()
        for _ in range(rng.randint(1, 3)):
            w = rng.choice(alphabet) * w
        xs.append(x0.apply(w))
    return x0, xs


@functools.cache
def _reduce_round_trips():
    """The round-trip check, run once per session: acceptance criterion 10
    calls it too.  A failure is an exception, which the cache does not store,
    so it fails every caller."""
    x0, xs = round_trip_orbit()
    g0, y0 = reduce_to_domain(x0)
    assert in_omega(y0)
    for x in xs:
        g, y = reduce_to_domain(x)
        # the reducing element maps the input to the output exactly, the
        # output lies in Omega, and a generic interior point has a unique
        # Omega-representative in its orbit
        assert x.apply(g) == y
        assert in_omega(y)
        assert y == y0


def test_reduce_round_trips_on_random_orbits():
    _reduce_round_trips()
