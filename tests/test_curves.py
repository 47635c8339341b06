import random
import time
from fractions import Fraction
from math import isqrt

import pytest

from iwasawa import selmer
from iwasawa.curves import (
    SingularCurveError,
    WeierstrassCurve,
    _integer_cubic_roots,
    _root_weights,
    ap_count,
    classify_at_p,
    count_points,
    ec_add,
    group_law,
    on_curve,
    quadratic_twist,
    torsion,
)
from iwasawa.dataset import dataset_load
from iwasawa.padics import is_prime, valuation
from iwasawa.tate import tate_local
from torsion_oracle import long_model_count, point_order

E11 = WeierstrassCurve(0, -1, 1, -10, -20)
E32 = WeierstrassCurve(0, 0, 0, 4, 0)
E34 = WeierstrassCurve(1, 0, 0, -3, 1)
E195 = WeierstrassCurve(1, 0, 0, -115, 392)
E306 = WeierstrassCurve(1, -1, 0, -927, 11097)


def test_invariants_conductor_11():
    assert E11.disc == -(11 ** 5)
    assert E11.ord_j(11) == -5


def test_invariants_32():
    assert E32.c6 == 0
    assert E32.j == 1728


def test_invariants_34():
    assert valuation(E34.disc, 2) > 0 and valuation(E34.disc, 17) > 0


def test_singular_rejected():
    with pytest.raises(SingularCurveError):
        WeierstrassCurve(0, 0, 0, 0, 0)


def test_b8_identity_random():
    rng = random.Random(1)
    for _ in range(40):
        try:
            E = WeierstrassCurve(*(rng.randrange(-6, 7) for _ in range(5)))
        except SingularCurveError:
            continue
        assert 4 * E.b8 == E.b2 * E.b6 - E.b4 ** 2
        assert E.c4 ** 3 - E.c6 ** 2 == 1728 * E.disc


def test_invariant_identities_random():
    # c4^3 - c6^2 = 1728 disc and 4 b8 = b2 b6 - b4^2 hold as polynomial
    # identities, so WeierstrassCurve does not check them on construction
    rng = random.Random(160)
    for k in range(200):
        h = (10, 10 ** 6, 10 ** 160)[k % 3]
        try:
            E = WeierstrassCurve(*(rng.randint(-h, h) for _ in range(5)))
        except SingularCurveError:
            continue
        assert E.c4 ** 3 - E.c6 ** 2 == 1728 * E.disc
        assert 4 * E.b8 == E.b2 * E.b6 - E.b4 ** 2


def test_ap_paper_values():
    assert ap_count(WeierstrassCurve(0, 1, 0, -7, 5), 5) == 2
    assert ap_count(E34, 3) == -2
    assert 31 + 1 - ap_count(E195, 31) == 40
    assert ap_count(WeierstrassCurve(1, 1, 1, -8, 6), 37) == 8


def test_ap_bad_reduction_rejected():
    with pytest.raises(ValueError):
        ap_count(E11, 11)


@pytest.mark.parametrize("call", [ap_count, classify_at_p])
def test_a_non_prime_is_refused_in_the_one_prime_refusal(call):
    with pytest.raises(ValueError, match="^4 is not prime$"):
        call(E11, 4)


def test_hasse_bound_random_sweep():
    # spec property: 100 random curves x primes <= 97
    rng = random.Random(9)
    primes = [p for p in range(5, 98) if is_prime(p)]
    done = 0
    while done < 100:
        try:
            E = WeierstrassCurve(*(rng.randrange(-5, 6) for _ in range(5)))
        except SingularCurveError:
            continue
        p = rng.choice(primes)
        if E.disc % p == 0:
            continue
        npts = count_points(E, p)
        ap = p + 1 - npts
        assert ap * ap < 4 * p
        assert npts == p + 1 - ap
        done += 1


def test_count_small_primes_directly():
    # oracle: brute force over all (x, y) including p = 2, 3
    rng = random.Random(4)
    for p in (2, 3, 5, 7):
        for _ in range(10):
            try:
                E = WeierstrassCurve(*(rng.randrange(0, p) for _ in range(5)))
            except SingularCurveError:
                continue
            brute = 1 + sum(1 for x in range(p) for y in range(p)
                            if (y * y + E.a1 * x * y + E.a3 * y
                                - (x ** 3 + E.a2 * x * x + E.a4 * x + E.a6)) % p == 0)
            assert count_points(E, p) == brute


PRIMES_BELOW_2000 = [p for p in range(2, 2000) if is_prime(p)]


def test_count_points_matches_long_model_on_dataset():
    for entry in dataset_load():
        E = entry.curve()
        for p in PRIMES_BELOW_2000:
            if E.disc % p:
                assert count_points(E, p) == long_model_count(E, p), (entry.label, p)


def test_count_points_matches_long_model_on_random_curves():
    # a third are u-scaled models with odd a1 and a3, not minimal at u = 3 or 5
    rng = random.Random(300)
    primes = [p for p in PRIMES_BELOW_2000 if p < 500]
    done = 0
    while done < 300:
        if done % 3:
            a = [rng.randint(-10 ** 6, 10 ** 6) for _ in range(5)]
        else:
            u = rng.choice((3, 5))
            a = [rng.randrange(-9, 10, 2), rng.randint(-9, 9), rng.randrange(-9, 10, 2),
                 rng.randint(-9, 9), rng.randint(-9, 9)]
            a = [ai * u ** i for ai, i in zip(a, (1, 2, 3, 4, 6))]
        try:
            E = WeierstrassCurve(*a)
        except SingularCurveError:
            continue
        good = [p for p in primes if E.disc % p]
        for p in rng.sample(good, 5):
            assert count_points(E, p) == long_model_count(E, p), (a, p)
        done += 1


def test_count_points_matches_long_model_at_large_primes():
    rng = random.Random(5)
    curves = [entry.curve() for entry in dataset_load()]
    primes = [99991]
    while len(primes) < 10:
        p = rng.randrange(2 * 10 ** 4, 10 ** 5)
        if is_prime(p):
            primes.append(p)
    for k, p in enumerate(primes):
        E = curves[k % len(curves)]
        assert count_points(E, p) == long_model_count(E, p), (E, p)


def test_count_points_matches_long_model_at_j_0_and_1728():
    # A = 0 (j = 0) or B = 0 (j = 1728) on the short model, for every p
    curves = [WeierstrassCurve(*a) for a in ((0, 0, 0, 0, 1), (0, 0, 0, 0, -432), (0, 0, 1, 0, 0),
                                             (0, 0, 1, 0, -7), (0, 0, 0, 1, 0), (0, 0, 0, -11, 0),
                                             (0, 0, 0, 4, 0))]
    for E in curves:
        for p in (q for q in PRIMES_BELOW_2000 if q < 300):
            if E.disc % p:
                assert count_points(E, p) == long_model_count(E, p), (E, p)


def test_count_points_every_short_model_mod_small_primes():
    for p in (5, 7, 11):
        for A in range(p):
            for B in range(p):
                if (4 * A ** 3 + 27 * B ** 2) % p:
                    E = WeierstrassCurve(0, 0, 0, A, B)
                    assert count_points(E, p) == long_model_count(E, p), (A, B, p)


def test_count_points_refuses_past_the_bound():
    # 99991, the largest prime it counts, is in the large-prime test above
    with pytest.raises(ValueError, match="exceeds the naive counting bound"):
        count_points(E11, 100003)
    with pytest.raises(ValueError, match="exceeds the naive counting bound"):
        tate_local(E11, 100003)


def test_count_points_refuses_a_non_prime_modulus():
    # each once answered: 4 -> 4, 9 -> 10, 1 -> 2, 0 -> 1, -7 -> 1 points
    for m in (4, 9, 1, 0, -7, 10 ** 5):
        with pytest.raises(ValueError, match=f"^{m} is not prime$"):
            count_points(E11, m)
    assert count_points(E11, 5) == 5  # a refusal leaves the kept table usable


def test_kept_table_across_interleaved_primes_and_curves():
    # p1, p2, p1, ...: every count at a prime whose table was just evicted,
    # or just kept, equals the long-model oracle on several curves each
    rng = random.Random(13)
    curves = [entry.curve() for entry in dataset_load()]
    primes = [5, 7, 1009, 99991]
    while len(primes) < 8:
        p = rng.randrange(5, 10 ** 5)
        if is_prime(p):
            primes.append(p)
    oracle = {}
    for p1, p2 in zip(primes, primes[1:] + primes[:1]):
        for p in (p1, p2, p1):
            for k in rng.sample(range(len(curves)), 3):
                E = curves[k]
                if E.disc % p:
                    if (k, p) not in oracle:
                        oracle[k, p] = long_model_count(E, p)
                    assert count_points(E, p) == oracle[k, p], (E, p)


def test_kept_table_is_one_immutable_slot():
    for p in (5, 7, 11, 1009, 4001, 99991):
        count_points(E11, p)
    assert _root_weights.cache_info().currsize == 1
    w = _root_weights(99991)
    assert isinstance(w, bytes) and len(w) == 2 * 99991
    assert w[0] == w[99991] == 1 and w[1] == w[4] == 2


def test_good_sweep_row_builds_the_table_once():
    A = selmer.GlobalAssumptions(sel_vp=0)
    for p in (7, 1009):  # p = 7 fills the curve's memo (torsion, bad primes)
        _root_weights.cache_clear()
        assert tate_local(E11, p).kind == "good"
        selmer.euler_char(E11, p, A)
        selmer.criterion_vanishing(E11, p, A)
        selmer.criterion_infinite(E11, p, A)
    info = _root_weights.cache_info()
    assert (info.misses, info.hits) == (1, 3)


def test_classification():
    assert classify_at_p(E11, 5) == ("ordinary", True)
    assert classify_at_p(E32, 3) == ("supersingular", False)
    assert classify_at_p(WeierstrassCurve(0, 1, 1, -12, -21), 3) == ("ordinary", True)


def test_torsion_paper_values():
    assert torsion(E11).describe() == "Z/5"
    assert torsion(E32).describe() == "Z/4"
    assert torsion(E34).describe() == "Z/6"
    assert torsion(E195).describe() == "Z/2 x Z/4"


def test_torsion_generators_have_exact_orders():
    for E in (E11, E32, E34, E195):
        T = torsion(E)
        for gen, inv in zip(reversed(T.generators), reversed(T.invariants)):
            assert point_order(E, gen, 14) == inv


def _over_q(E):
    return tuple(Fraction(v) for v in E.ainvs())


def test_group_law_identity_and_negation():
    P = (Fraction(5), Fraction(5))
    assert group_law(_over_q(E11), P, None) == P
    assert group_law(_over_q(E11), P, n=1) == P
    assert group_law(_over_q(E11), P, n=0) is None
    assert group_law(_over_q(E11), P, n=-1) == (5, -6)


def test_group_law_torsion_order_five():
    P = (Fraction(5), Fraction(5))  # a 5-torsion point on the conductor-11 curve
    a = _over_q(E11)
    assert group_law(a, P, n=5) is None
    assert group_law(a, P, n=4) == group_law(a, group_law(a, P, n=2), group_law(a, P, n=2))


def test_point_off_curve_rejected():
    P, off = (Fraction(5), Fraction(5)), (Fraction(1), Fraction(1))
    for call in (lambda: group_law(_over_q(E11), off, n=2),
                 lambda: group_law(_over_q(E11), P, off),
                 lambda: group_law(_over_q(E11), off, P)):
        with pytest.raises(ValueError, match=r"^\(Fraction\(1, 1\), Fraction\(1, 1\)\) is not on"):
            call()


def test_306_rank_one_bookkeeping():
    # P = (9, 54) generates the free part; 6P is a large honest rational point
    a = _over_q(E306)
    P6 = group_law(a, (Fraction(9), Fraction(54)), n=6)
    assert P6 is not None
    assert on_curve(a, P6)
    assert torsion(E306).describe() == "Z/6"


def test_associativity_random():
    rng = random.Random(12)
    a = tuple(Fraction(v) for v in E11.ainvs())
    pts = [None, (Fraction(5), Fraction(5))]
    pts.append(ec_add(a, pts[1], pts[1]))
    pts.append(ec_add(a, pts[2], pts[1]))
    for _ in range(30):
        P, Q, R = (rng.choice(pts) for _ in range(3))
        assert ec_add(a, ec_add(a, P, Q), R) == ec_add(a, P, ec_add(a, Q, R))


def test_twist_preserves_j():
    for d in (-1, -2, 5, -7):
        assert quadratic_twist(E11, d).j == E11.j


def test_twist_by_one_isomorphic():
    t = quadratic_twist(E11, 1)
    assert t.j == E11.j
    # same square class of -c4/c6 at odd primes
    from iwasawa.tate import is_square_in_Qell
    for ell in (3, 5, 7, 13):
        assert (is_square_in_Qell(Fraction(-t.c4, t.c6), ell)
                == is_square_in_Qell(Fraction(-E11.c4, E11.c6), ell))


def test_double_twist_square_class():
    tt = quadratic_twist(quadratic_twist(E11, -1), -1)
    from iwasawa.tate import is_square_in_Qell
    assert tt.j == E11.j
    for ell in (3, 5, 7, 11, 13):
        assert (is_square_in_Qell(Fraction(-tt.c4, tt.c6), ell)
                == is_square_in_Qell(Fraction(-E11.c4, E11.c6), ell))


def test_twist_rejects_non_squarefree():
    with pytest.raises(ValueError):
        quadratic_twist(E11, 12)
    with pytest.raises(ValueError):
        quadratic_twist(E11, 0)


# -- exact integer roots of x^3 + A x + C ----------------------------------


def _depressed(r1, r2):
    """(A, C) of (x - r1)(x - r2)(x + r1 + r2), whose roots sum to zero."""
    r3 = -r1 - r2
    return r1 * r2 + r1 * r3 + r2 * r3, -r1 * r2 * r3


def _quadratic_integer_roots(b, c):
    """Integer roots of x^2 + b x + c, by isqrt of the discriminant."""
    d = b * b - 4 * c
    if d < 0 or isqrt(d) ** 2 != d:
        return set()
    return {x for x in ((-b + isqrt(d)) // 2, (-b - isqrt(d)) // 2) if x * x + b * x + c == 0}


def test_cubic_roots_three_by_construction():
    rng = random.Random(31)
    for _ in range(300):
        mag = 10 ** rng.choice((1, 3, 12, 40, 100, 133))
        r1, r2 = rng.randint(-mag, mag), rng.randint(-mag, mag)
        A, C = _depressed(r1, r2)
        assert _integer_cubic_roots(A, C) == {r1, r2, -r1 - r2}


def test_cubic_roots_near_equal():
    rng = random.Random(32)
    for _ in range(150):
        r = rng.randint(-10 ** rng.choice((2, 20, 130)), 10 ** 130)
        gap = rng.randint(0, 4)
        A, C = _depressed(r, r + gap)
        assert _integer_cubic_roots(A, C) == {r, r + gap, -2 * r - gap}
    # the close pair near 10^12 that a float root finder merges
    A, C = _depressed(10 ** 12, 10 ** 12 + 2)
    assert _integer_cubic_roots(A, C) == {10 ** 12, 10 ** 12 + 2, -2 * 10 ** 12 - 2}


def test_cubic_roots_one_integer_root():
    # (x - r)(x^2 + r x + c) = x^3 + (c - r^2) x - r c
    rng = random.Random(33)
    for _ in range(400):
        mag = 10 ** rng.choice((1, 4, 30, 130))
        r, c = rng.randint(-mag, mag), rng.randint(-mag * mag, mag * mag)
        if rng.random() < 0.3:
            c = r * r // 4 + rng.randint(1, mag)  # one real root only
        want = {r} | _quadratic_integer_roots(r, c)
        assert _integer_cubic_roots(c - r * r, -r * c) == want


def test_cubic_roots_constant_term_zero():
    for A in range(-200, 201):
        want = {0} | ({isqrt(-A), -isqrt(-A)} if A <= 0 and isqrt(-A) ** 2 == -A else set())
        assert _integer_cubic_roots(A, 0) == want
    assert _integer_cubic_roots(-(10 ** 400), 0) == {0, 10 ** 200, -(10 ** 200)}


def test_cubic_roots_exhaustive_small():
    for A in range(-25, 26):
        for C in range(-25, 26):
            want = {x for x in range(-30, 31) if x ** 3 + A * x + C == 0}
            assert _integer_cubic_roots(A, C) == want


# -- regressions of the float root finder and trial division ---------------


def test_torsion_with_large_close_two_torsion():
    # y^2 = (x - a)(x - a - 2)(x + 2a + 2): three rational 2-torsion points
    a = (2 ** 31 - 2) // 3
    A, C = _depressed(a, a + 2)
    T = torsion(WeierstrassCurve(0, 0, 0, A, C))
    assert len(T.invariants) == 2 and T.invariants[0] == 2
    assert T.invariants[1] % 2 == 0


def test_torsion_with_big_prime_discriminant_finishes():
    # the discriminant has a 21-digit prime factor
    start = time.perf_counter()
    assert torsion(WeierstrassCurve(0, 0, 1, -7, 10 ** 12 + 39)).describe() == "trivial"
    assert time.perf_counter() - start < 2.0


def test_twist_squarefree_check_on_large_d():
    assert quadratic_twist(E11, 10 ** 12 + 39).j == E11.j
    with pytest.raises(ValueError):
        quadratic_twist(E11, -(1009 ** 2) * 3)
