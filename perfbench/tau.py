"""Exact arithmetic in K = Q(sqrt(-7)), kept apart from picard7.

A K-number is a pair (a, b) of Fractions meaning a + b*tau, with
tau = (1 + sqrt(-7))/2 and tau^2 = tau - 2.  Vectors are 3-tuples and
matrices 3-tuples of 3-tuples.  The benchmark builds its inputs and checks
the program's outputs with this module only, so a fault in picard7's own
arithmetic cannot hide itself.
"""

import re
from fractions import Fraction

ZERO = (Fraction(0), Fraction(0))
ONE = (Fraction(1), Fraction(0))
TAU = (Fraction(0), Fraction(1))

_NUM = re.compile(r"^[+-]?\d+(?:/\d+)?$")


def k(a, b=0):
    return (Fraction(a), Fraction(b))


def parse(s):
    """Parse the CLI's "a", "b*tau" or "a+b*tau" form; raise ValueError on
    anything else."""
    if not isinstance(s, str):
        raise ValueError("K-number must be a string, got %r" % (s,))
    a, b = s.replace(" ", ""), "0"
    if a.endswith("*tau"):
        body = a[: -len("*tau")]
        cut = max(body.rfind("+"), body.rfind("-"))
        a, b = (body[:cut], body[cut:]) if cut > 0 else ("0", body)
    if not _NUM.match(a) or not _NUM.match(b):
        raise ValueError("bad K-number %r" % s)
    return (Fraction(a), Fraction(b))


def fmt(x):
    a, b = x
    if b == 0:
        return str(a)
    if a == 0:
        return "%s*tau" % b
    return "%s%s%s*tau" % (a, "+" if b > 0 else "", b)


def add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def sub(x, y):
    return (x[0] - y[0], x[1] - y[1])


def mul(x, y):
    a, b = x
    c, d = y
    return (a * c - 2 * b * d, a * d + b * c + b * d)


def conj(x):
    a, b = x
    return (a + b, -b)


def norm(x):
    """N(a + b tau) = a^2 + ab + 2b^2."""
    a, b = x
    return a * a + a * b + 2 * b * b


def is_zero(x):
    return x[0] == 0 and x[1] == 0


def is_integral(x):
    return x[0].denominator == 1 and x[1].denominator == 1


def div(x, y):
    n = norm(y)
    if n == 0:
        raise ZeroDivisionError("division by zero in K")
    p = mul(x, conj(y))
    return (p[0] / n, p[1] / n)


def _floor_ceil(q):
    f = q.numerator // q.denominator
    return (f, f + 1) if q.denominator != 1 else (f,)


def o_gcd(x, y):
    """A gcd in O_7, which is norm-Euclidean: some rounding of x/y leaves a
    remainder of smaller norm."""
    while not is_zero(y):
        q = div(x, y)
        best = None
        for qa in _floor_ceil(q[0]):
            for qb in _floor_ceil(q[1]):
                r = sub(x, mul(y, k(qa, qb)))
                if best is None or norm(r) < norm(best):
                    best = r
        if norm(best) >= norm(y):
            raise ArithmeticError("Euclidean step did not shrink the norm")
        x, y = y, best
    return x


def is_primitive(v):
    """Integral, non-zero, and the gcd of the entries is a unit."""
    if not all(is_integral(x) for x in v) or all(is_zero(x) for x in v):
        return False
    g = ZERO
    for x in v:
        g = o_gcd(g, x) if not is_zero(g) else x
    return norm(g) == 1


def primitive(v):
    """A primitive integral vector on the same K-line as v."""
    den = 1
    for x in v:
        for q in x:
            den = den * q.denominator // _gcd_int(den, q.denominator)
    w = tuple((x[0] * den, x[1] * den) for x in v)
    g = ZERO
    for x in w:
        g = o_gcd(g, x) if not is_zero(g) else x
    return tuple(div(x, g) for x in w)


def _gcd_int(a, b):
    while b:
        a, b = b, a % b
    return a


def herm(v, w):
    """<v, w> = conj(w1) v3 + conj(w2) v2 + conj(w3) v1 (antidiagonal J)."""
    return add(add(mul(conj(w[0]), v[2]), mul(conj(w[1]), v[1])), mul(conj(w[2]), v[0]))


def matvec(m, v):
    return tuple(add(add(mul(r[0], v[0]), mul(r[1], v[1])), mul(r[2], v[2])) for r in m)


def matmul(m, n):
    return tuple(
        tuple(add(add(mul(m[i][0], n[0][j]), mul(m[i][1], n[1][j])), mul(m[i][2], n[2][j]))
              for j in range(3))
        for i in range(3)
    )


def identity():
    return tuple(tuple(ONE if i == j else ZERO for j in range(3)) for i in range(3))


def is_scalar(m):
    d = m[0][0]
    return all(m[i][j] == (d if i == j else ZERO) for i in range(3) for j in range(3))


def same_line(u, v):
    """u and v are non-zero and projectively equal: every 2x2 minor vanishes."""
    if all(is_zero(x) for x in u) or all(is_zero(x) for x in v):
        return False
    return all(mul(u[i], v[j]) == mul(u[j], v[i]) for i in range(3) for j in range(i + 1, 3))


def in_unitary_group(m):
    """Entries in O_7 and m* J m = J, checked as <m e_i, m e_j> = J_ij."""
    if not all(is_integral(x) for r in m for x in r):
        return False
    cols = [tuple(m[i][j] for i in range(3)) for j in range(3)]
    for i in range(3):
        for j in range(3):
            want = ONE if i + j == 2 else ZERO
            if herm(cols[i], cols[j]) != want:
                return False
    return True


def projective_order(m, cap=24):
    """Least n >= 1 with m^n scalar, or None if there is none up to cap."""
    p = m
    for n in range(1, cap + 1):
        if is_scalar(p):
            return n
        p = matmul(p, m)
    return None


def inverse_unitary(m):
    """Inverse of an element of U(J): J m* J."""
    return tuple(tuple(conj(m[2 - j][2 - i]) for j in range(3)) for i in range(3))


def vec_from_json(data):
    if not isinstance(data, list) or len(data) != 3:
        raise ValueError("expected a vector of three K-numbers, got %r" % (data,))
    return tuple(parse(x) for x in data)


def mat_from_json(data):
    if not isinstance(data, list) or len(data) != 3:
        raise ValueError("expected a 3x3 matrix, got %r" % (data,))
    return tuple(vec_from_json(r) for r in data)


def vec_to_json(v):
    return [fmt(x) for x in v]


def mat_to_json(m):
    return [vec_to_json(r) for r in m]
