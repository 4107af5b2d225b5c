import functools
import math
import operator
import random
from fractions import Fraction

import mpmath
import pytest

from picard7.ring import (
    AlgNum,
    ISQRT7,
    KNum,
    ONE,
    TAU,
    TAU_BAR,
    ZERO,
    format_knum,
    o_gcd,
    o_gcd_many,
    parse_knum,
    zeta3_tower,
    zeta7_tower,
)
from reference import (
    alg_coeffs,
    alg_eq,
    alg_floor,
    alg_in_k,
    alg_inverse,
    alg_k_part,
    alg_key,
    alg_lift,
    alg_num,
    alg_pow,
    div,
    knum_trace,
    neg,
    o_divmod,
    rat,
    real_cmp,
    ref_parse_knum,
    sub,
    zeta_of,
)


def rand_knum(rng, den=1):
    return KNum(Fraction(rng.randint(-20, 20), den), Fraction(rng.randint(-20, 20), den))


def to_complex(x: KNum):
    # x = a + b tau = (a + b/2) + (b/2) sqrt(7) i
    re, im = x.a + x.b / 2, x.b / 2
    return mpmath.mpc(mpmath.mpf(re.numerator) / re.denominator,
                      mpmath.mpf(im.numerator) / im.denominator * mpmath.sqrt(7))


def test_tau_relations():
    assert TAU * TAU == KNum(-2, 1)  # tau^2 = tau - 2
    assert TAU.conj() == TAU_BAR == KNum(1, -1)
    assert TAU + TAU_BAR == ONE
    assert TAU * TAU_BAR == KNum(2)
    assert ISQRT7 == 2 * TAU - 1
    assert ISQRT7 * ISQRT7 == KNum(-7)


def test_norm_trace_values():
    assert TAU.norm() == 2
    assert ISQRT7.norm() == 7
    assert KNum(3, 1).norm() == 9 + 3 + 2
    assert knum_trace(TAU) == 1
    assert knum_trace(ISQRT7) == 0


def test_product_against_numeric_oracle():
    # (2 - tau)(1 + tau) = 2 + tau - tau^2 = 4 exactly
    p = (KNum(2) - TAU) * (KNum(1) + TAU)
    assert p == KNum(4)
    approx = to_complex(KNum(2) - TAU) * to_complex(KNum(1) + TAU)
    assert abs(approx - 4) < 1e-12


def test_field_axioms_random():
    rng = random.Random(7)
    for _ in range(200):
        x, y, z = rand_knum(rng), rand_knum(rng, 3), rand_knum(rng, 5)
        assert x * (y + z) == x * y + x * z
        assert (x * y) * z == x * (y * z)
        assert (x * y).conj() == x.conj() * y.conj()
        assert x.conj().conj() == x
        assert (x * y).norm() == x.norm() * y.norm()
        if not y.is_zero():
            assert (x / y) * y == x


def test_abs2_real_decomposition():
    rng = random.Random(11)
    for _ in range(50):
        x = rand_knum(rng, 2)
        assert x * x.conj() == KNum(x.norm())
        z = to_complex(x)
        assert abs(z.real - float(x.a + x.b / 2)) < 1e-12
        assert abs(z.imag - float(x.b / 2) * 7 ** 0.5) < 1e-10


def test_parse_format_roundtrip():
    cases = ["2", "-3/4", "1*tau", "-tau", "1/2+3*tau", "-1-1*tau", "5-7/3*tau"]
    for s in cases:
        x = parse_knum(s)
        assert parse_knum(format_knum(x)) == x
    assert parse_knum("tau") == TAU
    assert parse_knum("1/2 + 3*tau") == KNum(Fraction(1, 2), 3)
    with pytest.raises(ValueError):
        parse_knum("")
    with pytest.raises(ValueError):
        parse_knum("2+x")
    with pytest.raises(ValueError):
        parse_knum("1/0+tau")


@pytest.mark.parametrize("text", ["1 2", "tau tau", "1*", "1 tau tau", "1**tau", "+",
                                  "\u0661", "\uff13+\uff12*tau", "\u0662/\u0663", "1\u2003+\u2003tau"])
def test_parse_refuses_juxtaposed_terms_and_dangling_star(text):
    # every term after the first needs its sign, and '*' only joins a
    # coefficient to tau; digits and spaces are ASCII, so an Arabic-Indic
    # or fullwidth digit and an em space are refused, not read as 1, 3 + 2
    # tau or 2/3
    with pytest.raises(ValueError, match="bad K-number literal"):
        parse_knum(text)


def test_parse_on_ints_matches_the_fraction_parser():
    # the int parser reads the same values as the Fraction one, on seeded
    # literals with p/q coefficients, bare tau, signs and whitespace, and
    # refuses the same literals with the same messages
    rng = random.Random(71)

    def term(first):
        sign = rng.choice(["", "+", "-"] if first else ["+", "-"])
        coef = str(rng.randint(0, 40))
        if rng.random() < 0.5:
            coef += "/" + str(rng.randint(1, 12))
        body = rng.choice([coef, coef + "*tau", coef + " * tau", coef + "tau", "tau"])
        return rng.choice(["", " "]) + sign + rng.choice(["", " "]) + body

    literals = ["0", "tau", "-tau", "+tau", " 1/2 + 3*tau ", "4/6-8/12*tau", "0/5+0*tau"]
    literals += ["".join(term(i == 0) for i in range(rng.randint(1, 4))) for _ in range(300)]
    for text in literals:
        assert parse_knum(text) == ref_parse_knum(text), text
    for text in ["", "2+x", "1/0+tau", "1 2", "tau tau", "1*", "1/0", "tau+0/0*tau"]:
        with pytest.raises(ValueError) as got:
            parse_knum(text)
        with pytest.raises(ValueError) as want:
            ref_parse_knum(text)
        assert str(got.value) == str(want.value), text


def test_euclidean_division():
    rng = random.Random(3)
    for _ in range(300):
        x = KNum(rng.randint(-50, 50), rng.randint(-50, 50))
        y = KNum(rng.randint(-10, 10), rng.randint(-10, 10))
        if y.is_zero():
            continue
        q, r = o_divmod(x, y)
        assert q.is_integral()
        assert x == q * y + r
        assert r.norm() < y.norm()


def test_gcd_examples():
    assert o_gcd(ISQRT7, KNum(2)) == ONE
    assert o_gcd(2 * TAU, 4 * TAU) == 2 * TAU
    assert o_gcd(TAU, TAU_BAR) == ONE
    assert o_gcd(TAU * TAU_BAR, TAU) == TAU
    assert o_gcd_many([KNum(0), KNum(6), KNum(10), ISQRT7]) == ONE
    with pytest.raises(ValueError):
        o_gcd(ZERO, ZERO)


def test_sign_canonicalization():
    # a generator is the one of +/-x whose (a, b) is positive in the
    # lexicographic order
    assert o_gcd_many([KNum(1, -5)]) == KNum(1, -5)
    assert o_gcd_many([KNum(-1, 5)]) == KNum(1, -5)
    assert o_gcd_many([KNum(0, -1)]) == KNum(0, 1)
    assert o_gcd_many([KNum(0, 2)]) == KNum(0, 2)


# ---------------------------------------------------------------------------
# an independent reference: certified mpmath interval evaluation at
# zeta_n = exp(2*pi*i/n), as complex rectangles (re, im)
# ---------------------------------------------------------------------------


def _iv_knum(x: KNum):
    iv = mpmath.iv
    rat, im_rat = x.a + x.b / 2, x.b / 2
    re = iv.mpf(rat.numerator) / rat.denominator
    im = iv.mpf(im_rat.numerator) / im_rat.denominator * iv.sqrt(7)
    return re, im


def _iv_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _iv_at_zeta(p, n, prec):
    """Certified enclosure (re, im) of p(exp(2*pi*i/n)) for p in K[x], at prec bits."""
    old = mpmath.iv.prec
    mpmath.iv.prec = prec
    try:
        angle = 2 * mpmath.iv.pi / n
        z = (mpmath.iv.cos(angle), mpmath.iv.sin(angle))
        out = _iv_knum(p[-1])
        for c in reversed(p[:-1]):
            re, im = _iv_mul(out, z)
            cre, cim = _iv_knum(c)
            out = (re + cre, im + cim)
        return out
    finally:
        mpmath.iv.prec = old


def _iv_value(x: AlgNum, prec=128):
    """Certified enclosure (re, im) of an AlgNum, at prec bits."""
    return _iv_at_zeta(alg_coeffs(x), x.tower.n, prec)


def _strictly_between(lo: Fraction, re, hi: Fraction, prec=4096) -> bool:
    """lo < every point of the interval re < hi, certified at prec bits."""
    old = mpmath.iv.prec
    mpmath.iv.prec = prec
    try:
        return bool(mpmath.iv.mpf(lo.numerator) / lo.denominator < re
                    and re < mpmath.iv.mpf(hi.numerator) / hi.denominator)
    finally:
        mpmath.iv.prec = old


def test_zeta7_minpoly():
    m = list(zeta7_tower().minpoly)
    assert m == [KNum(-1), -TAU, 1 - TAU, ONE]
    mbar = [c.conj() for c in m]
    # m * conj(m) is the 7th cyclotomic polynomial
    prod = [ZERO] * 7
    for i, a in enumerate(m):
        for j, b in enumerate(mbar):
            prod[i + j] += a * b
    assert prod == [ONE] * 7
    # m, not its conjugate, vanishes at exp(2*pi*i/7)
    re, im = _iv_at_zeta(m, 7, 128)
    assert 0 in re and 0 in im
    re, im = _iv_at_zeta(mbar, 7, 128)
    assert 0 not in re or 0 not in im
    assert list(zeta3_tower().minpoly) == [ONE] * 3
    # the other roots of the minimal polynomials: zeta^2 and zeta^4
    assert _GENERIC["zeta3"].galois == (2,) and _GENERIC["zeta7"].galois == (2, 4)


def test_zeta3_arithmetic():
    tw = zeta3_tower()
    z = zeta_of(tw)
    assert (z * z + z + 1).is_zero()
    assert alg_eq(alg_pow(z, 3), 1)
    assert alg_eq(z.conj(), alg_inverse(z))
    assert alg_eq(z * z.conj(), 1)
    assert alg_eq(z.abs2(), 1)
    zeta6 = 1 + z
    assert alg_eq(alg_pow(zeta6, 6), 1)
    assert not alg_eq(alg_pow(zeta6, 3), 1)
    assert (alg_pow(zeta6, 3) + 1).is_zero()


def test_zeta7_arithmetic():
    tw = zeta7_tower()
    assert tw.degree == 3
    z = zeta_of(tw)
    assert alg_eq(alg_pow(z, 7), 1)
    assert not alg_eq(alg_pow(z, 3), 1)
    assert sum(c * alg_pow(z, i) for i, c in enumerate(tw.minpoly)).is_zero()
    assert alg_eq(z.conj() * z, 1)
    inv = alg_inverse(z)
    assert alg_eq(inv * z, 1)


def rand_algnum(rng, tw):
    return alg_num(tw, [rand_knum(rng, rng.randint(1, 4)) for _ in range(tw.degree)])


@pytest.mark.parametrize("tw", [zeta3_tower(), zeta7_tower()], ids=["zeta3", "zeta7"])
def test_algnum_in_k_hashes_like_knum(tw):
    # an AlgNum's value key (the tests' equality, `alg_key`) is its KNum
    # when it lies in K, so it equals and hashes like that KNum
    for x in (ZERO, ONE, TAU_BAR, KNum(Fraction(-2, 3), 5)):
        assert alg_eq(alg_lift(tw, x), x)
        assert len({alg_key(alg_lift(tw, x)), x}) == 1
    assert len({alg_key(zeta_of(tw)), alg_key(zeta_of(tw) * 1), ONE}) == 2
    # the other field: equal exactly in K, and never an error
    other = zeta7_tower() if tw is zeta3_tower() else zeta3_tower()
    assert len({alg_key(alg_lift(tw, TAU)), alg_key(alg_lift(other, TAU))}) == 1
    assert not alg_eq(zeta_of(tw), zeta_of(other))
    # arithmetic across the two fields is refused
    for op in (operator.add, operator.mul):
        with pytest.raises(ValueError, match="tower mismatch"):
            op(zeta_of(tw), zeta_of(other))


def _check_normal_form(x: AlgNum):
    """x is stored as ints over a positive denominator that share no factor."""
    assert type(x.ints) is tuple and len(x.ints) == {3: 4, 7: 6}[x.tower.n]
    assert all(type(a) is int for a in x.ints) and type(x.den) is int
    assert x.den > 0 and math.gcd(x.den, *x.ints) == 1


def test_algnum_constructor_takes_only_knums():
    for tw in (zeta3_tower(), zeta7_tower()):
        for coeffs in ([1, 2], [ONE, Fraction(1, 2)], [ONE, 0.5], [zeta_of(tw)]):
            with pytest.raises(TypeError, match="must be a KNum"):
                alg_num(tw, coeffs)
        # an element of K is built from its KNum, and equals it
        assert alg_eq(alg_num(tw, [KNum(2)]), 2)
        assert alg_eq(alg_num(tw, [KNum(Fraction(-1, 3))]), KNum(Fraction(-1, 3)))


@pytest.mark.parametrize("tw", [zeta3_tower(), zeta7_tower()], ids=["zeta3", "zeta7"])
def test_one_stored_form_per_element(tw):
    rng = random.Random(2200 + tw.n)
    z = zeta_of(tw)
    for _ in range(60):
        cs = [rand_knum(rng, rng.randint(1, 6)) for _ in range(tw.degree)]
        x, y = alg_num(tw, cs), rand_algnum(rng, tw)
        by_ops = alg_lift(tw, ZERO)
        for k, c in enumerate(cs):
            by_ops = by_ops + alg_lift(tw, c) * alg_pow(z, k)
        paths = [by_ops, x.conj().conj(), div(x * 6, 6), sub(x, y) + y, neg(neg(x))]
        if not y.is_zero():
            paths.append(y * alg_inverse(y) * x)
        for p in [x] + paths:
            _check_normal_form(p)
            assert (p.ints, p.den) == (x.ints, x.den) and hash(alg_key(p)) == hash(alg_key(x))
        assert alg_coeffs(x) == tuple(cs)
        # in_k and k_part round-trip a KNum, and an element of K keys like it
        k = rand_knum(rng, rng.randint(1, 9))
        for a in (alg_lift(tw, k), alg_num(tw, [k]), sub(k + z, z)):
            _check_normal_form(a)
            assert alg_in_k(a) and alg_k_part(a) == k and alg_eq(a, k) and hash(alg_key(a)) == hash(k)
        assert not alg_in_k(k + z)
        with pytest.raises(ValueError, match="not in K"):
            alg_k_part(k + z)


@pytest.mark.parametrize("tw", [zeta3_tower(), zeta7_tower()], ids=["zeta3", "zeta7"])
def test_int_operands_match_their_knums(tw):
    # an int operand is lifted straight into the field: every operation
    # that takes it, on either side, gives the element that the int's KNum
    # gives, in the same stored form, and so does the tests' equality.  An
    # AlgNum has no subtraction: n - x is refused
    rng = random.Random(2300 + tw.n)
    xs = [zeta_of(tw), alg_lift(tw, ZERO)] + [rand_algnum(rng, tw) for _ in range(8)]
    ops = (operator.add, operator.mul, lambda x, y: y + x, lambda x, y: y * x)
    for x in xs:
        for n in (-7, -1, 0, 1, 2, 5, 10**20):
            k = KNum(n)
            for op in ops:
                a, b = op(x, n), op(x, k)
                _check_normal_form(a)
                assert type(a) is AlgNum and (a.ints, a.den) == (b.ints, b.den)
            for y in (n, k):
                with pytest.raises(TypeError):
                    y - x
            assert alg_eq(x, n) == alg_eq(x, k)
    assert alg_eq(alg_lift(tw, 3), 3) and not alg_eq(alg_lift(tw, 3), 4)


@pytest.mark.parametrize("tw", [zeta3_tower(), zeta7_tower()], ids=["zeta3", "zeta7"])
def test_int_scalars_match_products_with_the_lifted_int(tw):
    # x * n is written on the ints, and x times the KNum 1/n (the tests'
    # quotient `div`) on the ints over n: the same stored form as the
    # product with the lifted int and with its inverse, and n = 0 divides by
    # zero
    rng = random.Random(2400 + tw.n)
    xs = [zeta_of(tw), alg_lift(tw, ZERO)] + [rand_algnum(rng, tw) for _ in range(8)]
    for x in xs:
        for n in (1, -1, 2, -3, 7, 12):
            m = alg_lift(tw, n)
            for got, want in ((x * n, x * m), (div(x, n), x * alg_inverse(m))):
                _check_normal_form(got)
                assert (got.ints, got.den) == (want.ints, want.den)
        with pytest.raises(ZeroDivisionError):
            div(x, 0)


@pytest.mark.parametrize("tw", [zeta3_tower(), zeta7_tower()], ids=["zeta3", "zeta7"])
def test_algnum_field_properties_random(tw):
    rng = random.Random(tw.n)
    for _ in range(40):
        x, y, z = (rand_algnum(rng, tw) for _ in range(3))
        assert alg_eq((x * y) * z, x * (y * z))
        assert alg_eq(x * (y + z), x * y + x * z)
        assert alg_eq(div(x, 2) * 2, x)
        assert alg_eq((x * KNum(Fraction(1, 3))) * 3, x)
        if not x.is_zero():
            assert alg_eq(x * alg_inverse(x), 1)
            assert alg_eq(div(y, x) * x, y)
        # conj is an involutive ring automorphism
        assert alg_eq(x.conj().conj(), x)
        assert alg_eq((x + y).conj(), x.conj() + y.conj())
        assert alg_eq((x * y).conj(), x.conj() * y.conj())
        assert alg_eq((x * TAU).conj(), x.conj() * TAU_BAR)
        # the certified enclosure of conj(x) meets the complex conjugate of x's
        re, im = _iv_value(x)
        cre, cim = _iv_value(x.conj())
        assert 0 in cre - re and 0 in cim + im


def test_real_sign_and_floor():
    tw = zeta7_tower()
    z = zeta_of(tw)
    c = z + z.conj()  # 2 cos(2 pi / 7) ~ 1.2469
    assert c.is_real()
    assert c.real_sign() == 1
    assert alg_floor(c) == 1
    assert alg_floor(c * c * c) == 1  # ~1.938
    assert alg_floor(c * c) == 1  # ~1.555
    assert neg(c).real_sign() == -1
    assert sub(c, c).real_sign() == 0
    # c is a root of x^3 + x^2 - 2x - 1, so c^3 + c^2 - 2c lies in K
    assert sub(c * c * c + c * c, 2 * c + 1).is_zero()
    assert alg_floor(sub(c * c * c + c * c, 2 * c)) == 1
    assert alg_floor(sub(c * c * c + c * c, 2 * c + KNum(Fraction(1, 2)))) == 0
    # mixed KNum/AlgNum comparisons, in both argument orders
    assert real_cmp(c, KNum(1)) == 1
    assert real_cmp(c, KNum(2)) == -1
    assert real_cmp(KNum(1), c) == -1
    assert real_cmp(KNum(2), c) == 1
    # cross-check against a 200-bit numeric oracle
    with mpmath.workprec(200):
        val = 2 * mpmath.cos(2 * mpmath.pi / 7)
        assert int(mpmath.floor(val)) == 1
        assert int(mpmath.floor(val ** 2)) == 1
        assert int(mpmath.floor(val ** 3)) == 1


def test_generic_tower_sqrt7():
    # sqrt(-7) of K is the quadratic Gauss sum of zeta_7
    w = zeta_of(zeta7_tower())
    g = sub(w + alg_pow(w, 2) + alg_pow(w, 4), alg_pow(w, 3) + alg_pow(w, 5) + alg_pow(w, 6))
    assert sub(g, ISQRT7).is_zero()
    assert (g * g + 7).is_zero()
    # sqrt(7) * sqrt(3) = -sqrt(-7) * sqrt(-3) is real in K(zeta_3)
    z = zeta_of(zeta3_tower())
    s = neg(ISQRT7 * (2 * z + 1))  # sqrt(21) ~ 4.583
    assert s.is_real()
    assert sub(s * s, 21).is_zero()
    assert alg_floor(s) == 4
    assert alg_floor(s * s) == 21
    assert real_cmp(s, KNum(4)) == 1
    assert real_cmp(s, KNum(5)) == -1
    assert real_cmp(KNum(5), s) == 1


def test_refinement_stability():
    # the K(zeta_7) brackets are Fractions about 2^-p wide that contain the
    # value, nest as the precision is raised, and give the same sign at
    # every precision; a rational is its own exact bracket
    eta1, eta2, eta3 = _etas()
    for x in (eta1, eta2, eta3, sub(eta1 * eta2, KNum(Fraction(1, 7)) * eta3)):
        re, _ = _iv_value(x, 2048)
        outer = None
        for p in (64, 128, 1024):
            lo, hi = x.enclosure(p)
            assert type(lo) is Fraction and type(hi) is Fraction
            assert _strictly_between(lo, re, hi) and hi - lo < Fraction(100, 2 ** p)
            assert outer is None or (outer[0] <= lo and hi <= outer[1])
            outer = lo, hi
    assert eta1.real_sign() == 1
    q = (eta1 + eta2 + eta3) * KNum(Fraction(2, 3))
    assert q.enclosure(64) == (Fraction(-2, 3), Fraction(-2, 3))


def test_knum_floor_and_rat():
    # a KNum in Q is its rational part; the reference reads it so, and
    # refuses an irrational one, as real_sign does
    assert rat(KNum(Fraction(5, 3))) == KNum(Fraction(5, 3)).a == Fraction(5, 3)
    with pytest.raises(ValueError):
        rat(TAU)
    with pytest.raises(ValueError):
        TAU.real_sign()


# ---------------------------------------------------------------------------
# KNum against a reference on pairs of Fractions
# ---------------------------------------------------------------------------


def _ref_mul(x, y):
    (a, b), (c, d) = x, y
    return (a * c - 2 * b * d, a * d + b * c + b * d)


def _ref_conj(x):
    return (x[0] + x[1], -x[1])


def _ref_norm(x):
    a, b = x
    return a * a + a * b + 2 * b * b


def _ref_div(x, y):
    n = _ref_norm(y)
    a, b = _ref_mul(x, _ref_conj(y))
    return (a / n, b / n)


def _ref_str(x):
    a, b = x
    if b == 0:
        return str(a)
    if a == 0:
        return f"{b}*tau"
    return f"{a}{'+' if b > 0 else ''}{b}*tau"


def _check_knum(x, ref):
    """x equals the Fraction pair ref, is in normal form, and hashes and prints like it."""
    a, b = Fraction(ref[0]), Fraction(ref[1])
    assert isinstance(x.a, Fraction) and isinstance(x.b, Fraction)
    assert (x.a, x.b) == (a, b)
    assert all(type(n) is int for n in (x.na, x.nb, x.d))
    assert x.d > 0 and math.gcd(x.na, x.nb, x.d) == 1
    assert x == KNum(a, b)
    # a rational hashes like its value, which it equals
    assert hash(x) == (hash(a) if b == 0 else hash((a, b)))
    assert repr(x) == f"KNum({a!r}, {b!r})"
    assert str(x) == _ref_str((a, b))


def test_rational_knum_hashes_like_its_value():
    assert len({KNum(1), 1}) == 1
    assert len({KNum(0), 0, ZERO}) == 1
    assert hash(KNum(-3)) == hash(-3)
    # a Fraction keeps its hash but does not compare equal to a KNum
    assert hash(KNum(Fraction(-5, 6))) == hash(Fraction(-5, 6))
    assert KNum(Fraction(1, 2)) != Fraction(1, 2) and KNum(1) != Fraction(1)
    assert {KNum(2): "two"}[2] == "two"
    assert len({alg_key(alg_lift(zeta3_tower(), KNum(Fraction(1, 2)))), KNum(Fraction(1, 2))}) == 1
    # the rest keep the hash of the pair of coordinates
    assert hash(KNum(Fraction(1, 2), 3)) == hash((Fraction(1, 2), Fraction(3)))
    assert len({TAU, KNum(0, 1), 1}) == 2


def test_knum_matches_fraction_pairs():
    rng = random.Random(20260)
    dens = (1, 1, 2, 3, 4, 6, 8, 9)
    for _ in range(300):
        x = rand_knum(rng, rng.choice(dens))
        y = rand_knum(rng, rng.choice(dens))
        c = rng.randint(-9, 9)
        px, py, pc = (x.a, x.b), (y.a, y.b), (Fraction(c), Fraction(0))
        _check_knum(x, px)
        _check_knum(x + y, (px[0] + py[0], px[1] + py[1]))
        _check_knum(x - y, (px[0] - py[0], px[1] - py[1]))
        _check_knum(x + c, (px[0] + c, px[1]))
        _check_knum(c - x, (c - px[0], -px[1]))
        _check_knum(-x, (-px[0], -px[1]))
        _check_knum(x * y, _ref_mul(px, py))
        _check_knum(c * x, _ref_mul(pc, px))
        _check_knum(x.conj(), _ref_conj(px))
        _check_knum(x * x.conj(), (_ref_norm(px), 0))
        assert x.norm() == _ref_norm(px) and knum_trace(x) == 2 * px[0] + px[1]
        if not y.is_zero():
            _check_knum(x / y, _ref_div(px, py))
        if c != 0:
            _check_knum(x / c, (px[0] / c, px[1] / c))
        if not x.is_zero():
            _check_knum(KNum(c) / x, _ref_div(pc, px))
        # the real sign, on the rational x.a
        r = KNum(px[0])
        assert r.real_sign() == (px[0] > 0) - (px[0] < 0)
        assert px[0].denominator != 1 or r == int(px[0])
        if px[1] != 0:
            with pytest.raises(ValueError):
                x.real_sign()


def test_euclid_on_random_pairs():
    rng = random.Random(1307)
    for _ in range(300):
        x = KNum(rng.randint(-400, 400), rng.randint(-400, 400))
        y = KNum(rng.randint(-60, 60), rng.randint(-60, 60))
        if y.is_zero():
            continue
        q, r = o_divmod(x, y)
        assert q.is_integral() and r.is_integral()
        assert x == q * y + r and r.norm() < y.norm()
        # a non-integral pair divides in the same way
        den = rng.randint(2, 9)
        q2, r2 = o_divmod(x / den, y)
        assert q2.is_integral() and x / den == q2 * y + r2 and r2.norm() < y.norm()
        # the gcd divides both, and every common factor divides the gcd
        h = KNum(rng.randint(-6, 6), rng.randint(-6, 6))
        if h.is_zero():
            continue
        g = o_gcd(h * x, h * y)
        assert (g.na, g.nb) > (0, 0)
        assert (h * x / g).is_integral() and (h * y / g).is_integral()
        assert (g / h).is_integral()
        assert o_gcd_many([h * x, KNum(0), h * y]) == g


# ---------------------------------------------------------------------------
# both fields against a generic powers-table path, and the signs and floors
# of both fields against certified mpmath intervals
# ---------------------------------------------------------------------------


class Tower:
    """The field K(zeta), zeta = exp(2*pi*i/n), on a generic path: the reference.

    `minpoly` is the monic minimal polynomial of zeta over K (low degree
    first), of degree d, and an element is the tuple of its K-coefficients
    in the power basis 1, zeta, ..., zeta^(d-1), as `alg_coeffs` gives
    them.  One table, `powers[k]` = zeta^k in the basis for k < n, folds
    every sum c_0 + c_1 zeta^g + c_2 zeta^(2g) + ... back into the basis
    (`fold`), as zeta^n = 1:

    - a product is the convolution of the two coefficient lists;
    - the complex conjugate of sum c_i zeta^i is sum conj(c_i) zeta^(-i);
    - the Galois conjugates over K are sum c_i zeta^(g*i) for the exponents
      g in `galois` (zeta^g is another root of the minimal polynomial), and
      the inverse of x is their product divided by the norm x * product,
      which lies in K.
    """

    def __init__(self, n: int, minpoly):
        self.n = n
        self.minpoly = tuple(minpoly)
        self.degree = d = len(self.minpoly) - 1
        powers = [tuple(ONE if i == k else ZERO for i in range(d)) for k in range(d)]
        while len(powers) < n:
            # zeta * zeta^(k-1), with zeta^d = -(m_0 + m_1 zeta + ... + m_(d-1) zeta^(d-1))
            prev = powers[-1]
            shifted = (ZERO,) + prev[:-1]
            powers.append(tuple(s - prev[-1] * m for s, m in zip(shifted, self.minpoly)))
        self.powers = tuple(powers)
        self.galois = tuple(g for g in range(2, n) if self.fold(self.minpoly, g) == (ZERO,) * d)

    def fold(self, coeffs, g: int = 1) -> tuple:
        """The element sum_k coeffs[k] * zeta^(g*k), for K-coefficients coeffs[k]."""
        out = [ZERO] * self.degree
        for k, c in enumerate(coeffs):
            for i, p in enumerate(self.powers[g * k % self.n]):
                out[i] = out[i] + c * p
        return tuple(out)

    def mul(self, x: tuple, y: tuple) -> tuple:
        slots = [ZERO] * (2 * self.degree - 1)
        for i, c in enumerate(x):
            for j, e in enumerate(y):
                slots[i + j] = slots[i + j] + c * e
        return self.fold(slots)

    def conj(self, x: tuple) -> tuple:
        return self.fold([c.conj() for c in x], -1)

    def inverse(self, x: tuple) -> tuple:
        adj = functools.reduce(self.mul, (self.fold(x, g) for g in self.galois))
        norm, *rest = self.mul(x, adj)
        assert rest == [ZERO] * (self.degree - 1), "the norm is not in K"
        return tuple(c / norm for c in adj)

    def is_real(self, x: tuple) -> bool:
        # KNums are in normal form, so equal elements have equal tuples
        return x == self.conj(x)


# each field on the generic path, by the test id of the field
_GENERIC = {
    "zeta3": Tower(3, zeta3_tower().minpoly),
    "zeta7": Tower(7, zeta7_tower().minpoly),
}
# sqrt(21) = -sqrt(-7) sqrt(-3), with sqrt(-3) = 2 zeta_3 + 1
_SQRT21 = neg(ISQRT7 * (2 * zeta_of(zeta3_tower()) + 1))


def _rand_zeta3(rng):
    return alg_num(zeta3_tower(), [rand_knum(rng, rng.randint(2, 9)) for _ in range(2)])


def _check_sign_and_floor(x):
    """real_sign and floor_real of a real x agree with a 4096-bit enclosure."""
    re, _ = _iv_value(x, 4096)
    sign, floor = x.real_sign(), alg_floor(x)
    if sign == 0:
        assert x.is_zero()
    else:
        assert (re > 0) if sign > 0 else (re < 0)
    if alg_in_k(x):
        assert floor == math.floor(rat(alg_k_part(x)))
    else:
        # x is irrational, so the enclosure lies strictly inside (floor, floor + 1)
        assert _strictly_between(Fraction(floor), re, Fraction(floor + 1))


@pytest.mark.parametrize("tw", [zeta3_tower(), zeta7_tower()], ids=["zeta3", "zeta7"])
def test_closed_forms_match_generic_path(tw):
    ref = _GENERIC[f"zeta{tw.n}"]
    rng = random.Random(2100 + tw.n)
    for _ in range(300):
        cx, cy = ([rand_knum(rng, rng.randint(2, 9)) for _ in range(tw.degree)] for _ in range(2))
        x, y = alg_num(tw, cx), alg_num(tw, cy)
        assert x.tower is tw and alg_coeffs(x) == tuple(cx) and alg_coeffs(y) == tuple(cy)
        assert alg_coeffs(x * y) == ref.mul(alg_coeffs(x), alg_coeffs(y))
        assert alg_coeffs(x.conj()) == ref.conj(alg_coeffs(x))
        assert alg_coeffs(alg_inverse(x)) == ref.inverse(alg_coeffs(x))
        for v in (x, x + x.conj(), sub(x, x.conj()), x * x.conj()):
            assert v.is_real() == ref.is_real(alg_coeffs(v))
    z = zeta_of(tw)
    special = [z, z * z, 1 + z, ISQRT7 * z] + ([_SQRT21] if tw.n == 3 else [z + z.conj()])
    for x in special:
        assert alg_coeffs(alg_inverse(x)) == ref.inverse(alg_coeffs(x))
        assert alg_coeffs(x.conj()) == ref.conj(alg_coeffs(x))


def test_zeta3_signs_and_floors_are_exact():
    rng = random.Random(2104)
    reals = []
    for _ in range(150):
        x = _rand_zeta3(rng)
        reals += [x + x.conj(), x * x.conj(), neg(x * x.conj())]
        r = KNum(Fraction(rng.randint(-400, 400), rng.randint(1, 9)))
        s = KNum(Fraction(rng.randint(-90, 90), rng.randint(1, 9)))
        reals.append(r + s * _SQRT21)
        # not real: both raise
        if not x.is_real():
            with pytest.raises(ValueError):
                x.real_sign()
            with pytest.raises(ValueError):
                alg_floor(x)
    # near cancellation: 55^2 = 3025 = 21 * 12^2 + 1, and its square, the
    # Pell unit (55 + 12 sqrt(21))^2 = 6049 + 1320 sqrt(21)
    small = [sub(55, 12 * _SQRT21), sub(6049, 1320 * _SQRT21)]
    assert alg_eq(small[0] * (55 + 12 * _SQRT21), 1)
    assert sub(small[0] * small[0], small[1]).is_zero()
    for e in small:
        for k in (0, 1, -1, 7):
            for scale in (1, KNum(Fraction(1, 3)), KNum(Fraction(7, 5))):
                reals += [k + e * scale, sub(k, e * scale)]
    reals += [alg_lift(zeta3_tower(), ZERO), alg_lift(zeta3_tower(), KNum(Fraction(-7, 3)))]
    for x in reals:
        assert x.is_real()
        _check_sign_and_floor(x)
    assert [e.real_sign() for e in small] == [1, 1]
    assert [neg(e).real_sign() for e in small] == [-1, -1]
    assert [alg_floor(e) for e in small] == [0, 0]
    assert [alg_floor(neg(e)) for e in small] == [-1, -1]
    assert alg_floor(sub(1, small[1])) == 0 and alg_floor(1 + small[1]) == 1
    assert alg_lift(zeta3_tower(), ZERO).real_sign() == 0
    for x in (zeta_of(zeta3_tower()), alg_lift(zeta3_tower(), ISQRT7)):
        with pytest.raises(ValueError):
            x.real_sign()
        with pytest.raises(ValueError):
            alg_floor(x)


# ---------------------------------------------------------------------------
# K(zeta_7) signs and floors on ints
# ---------------------------------------------------------------------------


def _etas():
    z = zeta_of(zeta7_tower())
    return [alg_pow(z, k) + alg_pow(z.conj(), k) for k in (1, 2, 3)]


def test_zeta7_floor_of_large_unit_power():
    # v = eta_3/eta_2 ~ 4.0489 is a unit whose other conjugates lie inside
    # (-1, 1), so v^30 ~ 1660226402802450520.99999... sits just below an
    # integer, far beyond the 53 bits of a float
    _, eta2, eta3 = _etas()
    v = div(eta3, eta2)
    assert alg_eq(v * div(eta2, eta3), 1)
    x = alg_pow(v, 30)
    assert alg_floor(x) == 1660226402802450520
    assert sub(x, 1660226402802450521).real_sign() == -1
    assert sub(x, 1660226402802450520).real_sign() == 1
    _check_sign_and_floor(x)


def test_zeta7_signs_and_floors_are_exact():
    tw = zeta7_tower()
    rng = random.Random(2107)
    eta1, eta2, eta3 = _etas()
    assert (eta1 + eta2 + eta3 + 1).is_zero()
    reals = []
    for _ in range(100):
        x = rand_algnum(rng, tw)
        reals += [x + x.conj(), x * x.conj(), neg(x * x.conj())]
        c = [KNum(Fraction(rng.randint(-400, 400), rng.randint(1, 9))) for _ in range(4)]
        reals.append(c[0] + c[1] * eta1 + c[2] * eta2 + c[3] * eta3)
        # not real: both raise
        if not x.is_real():
            with pytest.raises(ValueError):
                x.real_sign()
            with pytest.raises(ValueError):
                alg_floor(x)
    # near cancellation: the unit v and its powers, just off their floors
    v = div(eta3, eta2)
    for k in range(1, 25):
        w = alg_pow(v, k)
        n = math.floor(_iv_value(w, 512)[0].a)
        reals += [sub(w, n), sub(w, n + 1), alg_inverse(w), neg(alg_inverse(w)), sub(w, n) * KNum(Fraction(1, 3))]
    # rationals written in the eta_k, and zero
    for q in (KNum(Fraction(5, 3)), KNum(Fraction(-7, 2)), 0):
        reals.append(div(q * sub(1, eta1 + eta2 + eta3), 2))
    for x in reals:
        assert x.is_real()
        _check_sign_and_floor(x)
    for x in (zeta_of(tw), alg_lift(tw, ISQRT7), eta1 * ISQRT7):
        with pytest.raises(ValueError):
            x.real_sign()
        with pytest.raises(ValueError):
            alg_floor(x)
