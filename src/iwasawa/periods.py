"""Real periods by the arithmetic-geometric mean (Cremona and Thongjunthug,
J. Number Theory 133, 2013) in integer fixed point at scale 2^W: roots
from `curves._cubic_root_floors`, isqrt for square roots and the AGM,
and pi by Machin's formula.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

from .curves import WeierstrassCurve, _cubic_root_bound, _cubic_root_floors

#: real_period is within a relative 2^-PERIOD_BITS of the true period
PERIOD_BITS = 128


def real_period(E: WeierstrassCurve) -> Fraction:
    """Total real period of E(R) for the given (assumed minimal) model,
    within a relative 2^-PERIOD_BITS.

    On Y^2 = X^3 + A X + B (X = 36 x + 3 b2) it is 12 pi / AGM(a, b):
    with two components (disc > 0), a = sqrt(e1 - e3), b = sqrt(e1 - e2)
    for the roots e1 > e2 > e3; with one, a = 2 sqrt(M), b = sqrt(2M + 3 e1)
    for the real root e1 and M = sqrt(3 e1^2 + A) = |e1 - e2|, and for
    e1 < 0 the cancelling 2M + 3 e1 is (4A^3 + 27B^2) / (M^4 (2M - 3 e1)).
    Roots lie below R = `_cubic_root_bound(A, B)` < 2^k, so an integer
    discriminant keeps root gaps above 2^(-2k-2) and b^2 above 2^(-5k-7);
    each floor, isqrt and AGM step errs by under 2^-W, and W = PERIOD_BITS
    + 3k + 16 keeps the quotient well inside the bound.
    """
    A, B = E.short_model()
    W = PERIOD_BITS + 3 * _cubic_root_bound(A, B).bit_length() + 16
    roots = _cubic_root_floors(A << 2 * W, B << 3 * W)
    if len(roots) == 3:
        e1, e2, e3 = roots
        a, b = isqrt((e1 - e3) << W), isqrt((e1 - e2) << W)
    else:
        (e1,) = roots
        m = isqrt(3 * e1 * e1 + (A << 2 * W))
        if e1 >= 0:
            s = (2 * m + 3 * e1) << W
        else:
            s = ((4 * A ** 3 + 27 * B * B) << 7 * W) // (m ** 4 * (2 * m - 3 * e1))
        a, b = 2 * isqrt(m << W), isqrt(s)
    while a != b:  # the AGM, each mean rounded down: a - b shrinks to 0
        a, b = (a + b) >> 1, isqrt(a * b)
    return Fraction(12 * _pi(W), a)


def _pi(W):
    """pi * 2^W within 2 units, as 16 atan(1/5) - 4 atan(1/239) (Machin)
    with every series term truncated at bits(W) + 8 guard bits."""
    guard = W.bit_length() + 8
    total = 0
    for c, x in ((16, 5), (-4, 239)):
        term, n = (1 << (W + guard)) // x, 1
        while term:
            total += c * (term // n)
            term, n, c = term // (x * x), n + 2, -c
    return total >> guard
