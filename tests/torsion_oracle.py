"""The Lutz-Nagell torsion search, kept as the oracle for `curves.torsion`.

It factors the discriminant and tries every y with y^2 | 2^8 3^12 disc on
the scaled model Y^2 = X^3 - 27 c4 X - 54 c6, computing every order by
Fraction additions.  Slow (over 100 ms on large-parameter curves) and
refused when `factor` gives up, but independent of the q-adic lift.

`long_model_count` is the oracle for `curves.count_points`: the long-model
enumeration with a quadratic-character table that it replaced.
"""

from fractions import Fraction
from math import gcd, lcm

from iwasawa.curves import (
    TorsionGroup,
    WeierstrassCurve,
    _integer_cubic_roots,
    count_points,
    ec_add,
    ec_mul,
)
from iwasawa.padics import factor, is_prime


def long_model_count(E: WeierstrassCurve, p: int) -> int:
    """|E~(F_p)|: every (x, y) for p = 2, else z^2 = 4x^3 + b2 x^2 + 2 b4 x + b6
    counted with a quadratic-character table over all x in F_p."""
    if p == 2:
        return 1 + sum(1 for x in range(2) for y in range(2)
                       if (y * y + E.a1 * x * y + E.a3 * y
                           - (x ** 3 + E.a2 * x * x + E.a4 * x + E.a6)) % 2 == 0)
    chi = bytearray(p)
    for t in range(1, (p + 1) // 2):
        chi[t * t % p] = 1
    b2, b4, b6 = E.b2 % p, E.b4 % p, E.b6 % p
    total = p + 1
    for x in range(p):
        g = (((4 * x + b2) * x + 2 * b4) * x + b6) % p
        if g == 0:
            continue
        total += 1 if chi[g] else -1
    return total


def point_order(E: WeierstrassCurve, P, bound=16):
    """Exact order of P if <= bound, else None (infinite or large)."""
    a = tuple(Fraction(v) for v in E.ainvs())
    P = None if P is None else (Fraction(P[0]), Fraction(P[1]))
    acc = P
    for k in range(1, bound + 1):
        if acc is None:
            return k
        acc = ec_add(a, acc, P)
    return None


def lutz_nagell_torsion(E: WeierstrassCurve) -> TorsionGroup:
    bound = 0
    p, used = 5, 0
    while used < 3:
        if is_prime(p) and E.disc % p:
            bound = gcd(bound, count_points(E, p))
            used += 1
        p += 2
    if bound == 1:
        return TorsionGroup((), ())
    A, B = E.short_model()
    # Lutz-Nagell: y^2 divides 4A^3 + 27B^2 = -2^8 3^12 disc(E)
    fact = factor(E.disc)
    fact[2] = fact.get(2, 0) + 8
    fact[3] = fact.get(3, 0) + 12
    pts = {None}
    for y in _square_divisors(fact):
        for x in _integer_cubic_roots(A, B - y * y):
            for yy in {y, -y}:
                P = E.from_short_point((x, yy))
                k = point_order(E, P, bound=12)
                if k is not None and bound % k == 0:
                    pts.add(P)
    order = len(pts)
    if order == 1:
        return TorsionGroup((), ())
    exponent = lcm(*(point_order(E, P, bound=12) for P in pts if P is not None))
    gen = next(P for P in pts if P is not None and point_order(E, P, 12) == exponent)
    if exponent == order:
        return TorsionGroup((order,), (gen,))
    if order != 2 * exponent:
        raise ArithmeticError("torsion outside the cyclic/2x2m shapes")
    a = tuple(Fraction(v) for v in E.ainvs())
    half = {ec_mul(a, k, gen) for k in range(exponent)}
    other = next(P for P in pts if P is not None and P not in half
                 and point_order(E, P, 12) == 2)
    return TorsionGroup((2, exponent), (other, gen))


def _square_divisors(fact):
    """All y >= 0 with y^2 dividing the factored integer, plus y = 0."""
    base = [1]
    for q, e in fact.items():
        base = [b * q ** i for b in base for i in range(e // 2 + 1)]
    return sorted({0, 1, *base})
