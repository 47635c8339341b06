import random
import time
from fractions import Fraction

import pytest

from iwasawa.curves import WeierstrassCurve, ec_add, group_law, on_curve
from iwasawa.nfpoints import (
    NumberField,
    galois_apply,
    nf_ainvs,
    trace_to_subfield,
    verify_paper_points,
)


def test_field_arithmetic_sqrt2():
    K = NumberField([-2, 0, 1])
    x = K.gen()
    assert x * x == 2
    assert x.inverse() == K([0, Fraction(1, 2)])
    assert x * x.inverse() == 1


def test_gen_is_x_in_degree_one():
    # in Q[x]/(x - 2) the generator x is 2, and x -> x is an involution there
    K = NumberField([-2, 1])
    assert K.gen() == 2 and K.gen() * K.gen() == 4
    E11 = WeierstrassCurve(0, -1, 1, -10, -20)
    P = (K([5]), K([5]))
    assert trace_to_subfield(E11, K, P, K.gen()) == group_law(nf_ainvs(E11, K), P, Q=P)


def test_cubic_reduction():
    K = NumberField([1, -3, 0, 1])
    b = K.gen()
    assert b * b * b == 3 * b - 1


def test_inverse_via_euclid_random():
    rng = random.Random(8)
    K = NumberField([1, -3, 0, 1])
    for _ in range(20):
        a = K([Fraction(rng.randrange(-9, 10), rng.randrange(1, 5)) for _ in range(3)])
        if a.is_zero():
            continue
        assert a * a.inverse() == 1


def test_irreducibility_screen():
    with pytest.raises(ValueError):
        NumberField([1, 2, 1])        # (x+1)^2
    with pytest.raises(ValueError):
        NumberField([-1, 0, 0, 1])    # x^3 - 1
    with pytest.raises(ValueError):
        NumberField([4, 0, -5, 0, 1])  # (x^2-1)(x^2-4)
    NumberField([2, 0, -4, 0, 1])      # irreducible quartic is accepted


def _has_quadratic_factor_by_search(g):
    """The former quartic test: every a in a range as wide as the coefficients."""
    c0 = g[0]
    divisors = [d for d in range(1, abs(c0) + 1) if c0 % d == 0]
    for b in divisors:
        for bb in (b, -b):
            dd = c0 // bb
            # (x^2 + a x + bb)(x^2 + c x + dd): match coefficients
            for a in range(-abs(g[3]) - abs(g[1]) - abs(bb) - abs(dd) - 2,
                           abs(g[3]) + abs(g[1]) + abs(bb) + abs(dd) + 3):
                c = g[3] - a
                if bb + dd + a * c == g[2] and a * dd + c * bb == g[1]:
                    return True
    return False


def _has_rational_root(g):
    return any(sum(c * x ** i for i, c in enumerate(g)) == 0
               for d in range(1, abs(g[0]) + 1) if g[0] % d == 0 for x in (d, -d))


def _accepted(g):
    try:
        NumberField(g)
    except ValueError:
        return False
    return True


def test_quartic_screen_matches_the_search_oracle():
    rng = random.Random(1414)
    reducible = 0
    for i in range(1500):
        if i % 2:  # a product of two monic quadratics, b and e nonzero
            a, c = rng.randint(-20, 20), rng.randint(-20, 20)
            b, e = rng.choice([-1, 1]) * rng.randint(1, 20), rng.choice([-1, 1]) * rng.randint(1, 20)
            if i % 10 == 1:
                c, e = a, b  # a square, the b = e branch
            g = [b * e, a * e + c * b, b + e + a * c, a + c, 1]
        else:
            g = [rng.choice([-1, 1]) * rng.randint(1, 60)] + [rng.randint(-30, 30) for _ in range(3)] + [1]
        want = not (_has_rational_root(g) or _has_quadratic_factor_by_search(g))
        assert _accepted(g) == want, g
        reducible += not want
    assert reducible > 750


def test_quartic_screen_does_not_scale_with_the_coefficients():
    t0 = time.perf_counter()
    NumberField([2, 10 ** 12, 0, 0, 1])  # Eisenstein at 2
    a, b, c, e = 1, 1, 10 ** 6, 10 ** 12  # (x^2 + x + 1)(x^2 + 10^6 x + 10^12)
    with pytest.raises(ValueError):
        NumberField([b * e, a * e + c * b, b + e + a * c, a + c, 1])
    assert time.perf_counter() - t0 < 1


def test_group_law_over_cubic_field():
    K = NumberField([1, -3, 0, 1])
    beta = K.gen()
    E34 = WeierstrassCurve(1, 0, 0, -3, 1)
    P = (beta, -beta)
    a = nf_ainvs(E34, K)
    assert on_curve(a, P)
    twoP = group_law(a, P, n=2)
    assert on_curve(a, twoP)
    assert group_law(a, P, Q=twoP) == group_law(a, P, n=3)


def test_division_point_identity():
    K = NumberField([1, -3, 0, 1])
    beta = K.gen()
    E306 = WeierstrassCurve(1, -1, 0, -927, 11097)
    Q = (-6 * beta * beta + 9 * beta + 15, 15 * beta * beta - 48 * beta + 9)
    assert group_law(nf_ainvs(E306, K), Q, n=3) == (K([9]), K([54]))


def test_off_curve_rejected():
    K = NumberField([1, -3, 0, 1])
    E34 = WeierstrassCurve(1, 0, 0, -3, 1)
    with pytest.raises(ValueError):
        group_law(nf_ainvs(E34, K), (K.gen(), K.gen()), n=2)


def test_galois_substitution():
    K = NumberField([-2, 0, 1])
    P = (K([0]), K([0, 7]))
    img = galois_apply(K, P, [0, -1])
    assert img == (K([0]), K([0, -7]))
    assert galois_apply(K, P, [0, 1]) == P
    with pytest.raises(ValueError):
        galois_apply(K, P, [1, 1])  # x + 1 is not an automorphism


def test_galois_fixes_subfield_generator():
    K = NumberField([2, 0, -4, 0, 1])
    a = K.gen()
    h = -a
    sqrt2 = a * a - 2
    assert sqrt2.substitute(h) == sqrt2


def test_galois_commutes_with_group_law():
    K = NumberField([1, -3, 0, 1])
    beta = K.gen()
    E34 = WeierstrassCurve(1, 0, 0, -3, 1)
    a = nf_ainvs(E34, K)
    # an order-3 automorphism: beta -> beta^2 - 2 (the other cyclotomic root)
    h = beta * beta - 2
    P = (beta, -beta)
    Q = ec_add(a, P, P)
    for X, Y in ((P, Q), (Q, Q), (P, P)):
        lhs = galois_apply(K, ec_add(a, X, Y), h)
        rhs = ec_add(a, galois_apply(K, X, h), galois_apply(K, Y, h))
        assert lhs == rhs


def test_trace_is_fixed_by_sigma():
    K = NumberField([1, -3, 0, 1])
    beta = K.gen()
    E34 = WeierstrassCurve(1, 0, 0, -3, 1)
    # beta -> 2 - beta^2... find the involution among the conjugates: the
    # Galois group here is cyclic of order 3, so use the quartic field
    K4 = NumberField([2, 0, -4, 0, 1])
    alpha = K4.gen()
    E = WeierstrassCurve(0, 1, 0, -1840, 25088)
    sqrt2 = alpha * alpha - 2
    P = (16 * (10 + 9 * sqrt2), 16 * (123 + 78 * sqrt2) * alpha)
    tr = trace_to_subfield(E, K4, P, -alpha)
    # sigma fixes the trace
    assert tr is None or galois_apply(K4, tr, -alpha) == tr


def test_trace_of_rational_point_doubles():
    K = NumberField([-2, 0, 1])
    E34 = WeierstrassCurve(1, 0, 0, -3, 1)
    P = (K([0]), K([1]))  # the order-6 generator of the rational torsion
    assert on_curve(nf_ainvs(E34, K), P)
    tr = trace_to_subfield(E34, K, P, [0, -1])
    assert tr == group_law(nf_ainvs(E34, K), P, n=2)


def test_sigma_must_be_involution():
    K = NumberField([1, -3, 0, 1])
    beta = K.gen()
    E34 = WeierstrassCurve(1, 0, 0, -3, 1)
    with pytest.raises(ValueError):
        trace_to_subfield(E34, K, (beta, -beta), beta * beta - 2)  # order 3


def test_associativity_random_triples():
    K = NumberField([1, -3, 0, 1])
    beta = K.gen()
    E34 = WeierstrassCurve(1, 0, 0, -3, 1)
    a = nf_ainvs(E34, K)
    pts = [None, (beta, -beta)]
    for _ in range(4):
        pts.append(ec_add(a, pts[-1], pts[1]))
    rng = random.Random(3)
    for _ in range(20):
        P, Q, R = (rng.choice(pts) for _ in range(3))
        assert ec_add(a, ec_add(a, P, Q), R) == ec_add(a, P, ec_add(a, Q, R))


def test_verify_paper_points_all_pass():
    results = verify_paper_points()
    assert len(results) == 6
    assert all(ok for _, ok in results)
