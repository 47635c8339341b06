import random
from fractions import Fraction

import pytest

from iwasawa import padics
from iwasawa.curves import WeierstrassCurve, count_points
from iwasawa.forge import deuring_search
from iwasawa.lambda_algebra import LambdaElement
from iwasawa.padics import (
    FactorizationError,
    PadicNumber,
    PrimeMismatchError,
    centered,
    factor,
    is_prime,
    iwasawa_log,
    legendre,
    padic_pow,
    unit_decompose,
    valuation,
)
from iwasawa.tate import tate_local
import padic_oracles
from padic_oracles import padic_exp

E11 = WeierstrassCurve(0, -1, 1, -10, -20)


def test_arithmetic_matches_the_earlier_operators():
    # + - * / ** neg _truncate_abs == and log, reflected int and rational
    # operands, zeros, p = 2 and negative valuations, in (v, u, n) or the
    # exception: 2,000 seeded pairs here, 20,000 in CI (tests/padic_oracles.py)
    assert padic_oracles.run(29, 2000) == []


NOT_AN_INT = {
    "require_prime(3.0)": lambda: padics.require_prime(3.0),
    "require_prime(Fraction(3))": lambda: padics.require_prime(Fraction(3)),
    "PadicNumber(3.0, 0, 1, 5)": lambda: PadicNumber(3.0, 0, 1, 5),
    "PadicNumber.zero(3.0, 5)": lambda: PadicNumber.zero(3.0, 5),
    "PadicNumber.from_rational(3.0, 1)": lambda: PadicNumber.from_rational(3.0, 1),
    "LambdaElement(3.0, [3, 1])": lambda: LambdaElement(3.0, [3, 1]),
    "tate_local(E11, 11.0)": lambda: tate_local(E11, 11.0),
    "tate_local(E11, 5.0)": lambda: tate_local(E11, 5.0),
    "count_points(E11, 3.0)": lambda: count_points(E11, 3.0),
    # a run at 7 must not let 7.0 through the cached root weights
    "count_points(E11, 7.0)": lambda: count_points(E11, 7) and count_points(E11, 7.0),
    "deuring_search(7.0, 1)": lambda: deuring_search(7.0, 1),
}


@pytest.mark.parametrize("call", NOT_AN_INT.values(), ids=NOT_AN_INT)
def test_a_prime_that_is_not_an_int_is_refused_where_it_enters(call):
    with pytest.raises(ValueError, match=r"^\d+(\.0)? is not prime$"):
        call()


def test_inverse_pair():
    x = PadicNumber.from_rational(5, 5)
    y = PadicNumber.from_rational(5, Fraction(1, 5))
    prod = x * y
    assert prod == 1 and prod.v == 0


def test_integer_square():
    a = PadicNumber.from_rational(3, 4)
    sq = a * a
    assert sq.v == 0
    assert sq.u % 27 == 16


def test_sum_valuation():
    # exact integer oracle: 10 + 15 = 25 = 5^2
    s = PadicNumber.from_rational(5, 10) + PadicNumber.from_rational(5, 15)
    assert s.v == 2 and s == 25


def test_prime_mismatch():
    with pytest.raises(PrimeMismatchError):
        PadicNumber.from_rational(3, 1) + PadicNumber.from_rational(5, 1)


def test_division_by_zero():
    z = PadicNumber.zero(5, 10)
    with pytest.raises(ZeroDivisionError):
        PadicNumber.from_rational(5, 1) / z


def test_cancellation_goes_to_zero_at_precision():
    x = PadicNumber.from_rational(7, 12345)
    assert (x - x).is_zero


def test_teichmuller_by_fixed_point():
    # oracle: iterate a -> a^5 on the residue directly
    x = PadicNumber.from_rational(5, 2)
    t, principal = unit_decompose(x)
    assert t.v == 0 and t.u % 5 == 2
    assert t ** 4 == 1
    assert t * principal == x
    a, mod = 2, 5 ** 30
    for _ in range(40):
        a = pow(a, 5, mod)
    assert t.abs_prec == 30 and t.u == a


def test_teichmuller_identity_and_minus_one():
    t, pr = unit_decompose(PadicNumber.from_rational(3, 1))
    assert t == 1 and pr == 1
    t2, pr2 = unit_decompose(PadicNumber.from_rational(2, -1))
    assert t2 == -1 and pr2 == 1


def test_log_of_p_is_zero():
    assert iwasawa_log(PadicNumber.from_rational(5, 5)).is_zero


def test_log_kills_teichmuller():
    x = PadicNumber.from_rational(5, 7)
    t, _ = unit_decompose(x)
    assert iwasawa_log(t).is_zero


def test_log_exp_roundtrip():
    # oracle: exp is an internal series evaluated independently of log
    for p, a in ((3, 4), (5, 7), (7, 10), (2, 97)):
        x = PadicNumber.from_rational(p, a)
        _, principal = unit_decompose(x)
        assert padic_exp(iwasawa_log(x)) == principal


def test_log_against_exact_series():
    # freeze: log_3(4) = log(1+3) computed with exact rationals
    acc = Fraction(0)
    for k in range(1, 80):
        acc += Fraction((-1) ** (k + 1) * 3 ** k, k)
    v = valuation(acc.numerator, 3)
    unit = (acc.numerator // 3 ** v) * pow(acc.denominator, -1, 3 ** 29) % 3 ** 29
    got = iwasawa_log(PadicNumber.from_rational(3, 4))
    assert got.v == v == 1
    assert (got.u - unit) % 3 ** 28 == 0


def test_log_multiplicative_random():
    rng = random.Random(2)
    for p in (2, 3, 5, 7):
        for _ in range(6):
            a = rng.randrange(2, 10 ** 5)
            b = rng.randrange(2, 10 ** 5)
            if a % p == 0 or b % p == 0:
                continue
            x = PadicNumber.from_rational(p, a)
            y = PadicNumber.from_rational(p, b)
            assert iwasawa_log(x * y) == iwasawa_log(x) + iwasawa_log(y)


def test_log_power_rule():
    x = PadicNumber.from_rational(5, 3)
    lx = iwasawa_log(x)
    for k in range(1, 11):
        assert iwasawa_log(x ** k) == k * lx


def test_teichmuller_multiplicative_random():
    rng = random.Random(5)
    for p in (3, 5, 7):
        for _ in range(8):
            a, b = rng.randrange(1, p ** 6), rng.randrange(1, p ** 6)
            if a % p == 0 or b % p == 0:
                continue
            x = PadicNumber.from_rational(p, a)
            y = PadicNumber.from_rational(p, b)
            tx, _ = unit_decompose(x)
            ty, _ = unit_decompose(y)
            txy, _ = unit_decompose(x * y)
            assert txy == tx * ty


def test_valuation_rules_random():
    rng = random.Random(11)
    for _ in range(60):
        p = rng.choice((2, 3, 5))
        a = Fraction(rng.randrange(-300, 300) or 1, rng.randrange(1, 60))
        b = Fraction(rng.randrange(-300, 300) or 1, rng.randrange(1, 60))
        x = PadicNumber.from_rational(p, a)
        y = PadicNumber.from_rational(p, b)
        assert (x * y).valuation() == x.v + y.v
        s = x + y
        if not s.is_zero:
            assert s.v >= min(x.v, y.v)
            if x.v != y.v:
                assert s.v == min(x.v, y.v)


def test_padic_pow_matches_integer_power():
    kappa = PadicNumber.from_rational(5, 6)
    for k in (1, 2, 3, 7):
        assert padic_pow(kappa, PadicNumber.from_rational(5, k)) == 6 ** k
    kappa2 = PadicNumber.from_rational(2, 5)
    assert padic_pow(kappa2, PadicNumber.from_rational(2, 3)) == 125


def test_padic_pow_is_exp_of_t_log_x():
    # one modular power against the exponential series of the oracle, in
    # (v, n, u): value and precision both
    rng = random.Random(22)
    for i in range(160):
        p = rng.choice((2, 3, 5, 7))
        q = 2 if p == 2 else 1
        n = rng.randrange(q + 1, 20)
        x = PadicNumber(p, 0, 1 + p ** q * rng.randrange(p ** (n - q)), n)
        if i % 10 == 0:
            t = PadicNumber.zero(p, rng.randrange(0, 6))
        else:
            tn = rng.randrange(1, 20)
            u = rng.randrange(1, p ** tn)
            t = PadicNumber(p, rng.randrange(0, 5), u + (u % p == 0), tn)
        want = padic_exp(t * iwasawa_log(x))
        got = padic_pow(x, t)
        assert (got.v, got.n, got.u) == (want.v, want.n, want.u), (x, t)


def test_padic_pow_refuses_outside_its_domain():
    with pytest.raises(ValueError, match="^x\\^t needs t in Z_p, got valuation -1$"):
        padic_pow(PadicNumber.from_rational(5, 6), PadicNumber.from_rational(5, Fraction(1, 5)))
    for p, x in ((5, 2), (2, 3)):  # 3 = 1 + 2 is no principal unit of Z_2
        with pytest.raises(ValueError, match="^x\\^t needs a principal unit x$"):
            padic_pow(PadicNumber.from_rational(p, x), PadicNumber.from_rational(p, 3))


def test_centered_picks_the_residue_in_the_half_open_interval():
    for m in (2, 3, 9, 10, 3 ** 5, 2 ** 7):
        h = m // 2
        assert centered(h, m) == h and centered(h + 1, m) == h + 1 - m
        assert centered(-h, m) == (h if m % 2 == 0 else -h)  # -m/2 itself is left out
        for x in range(-2 * m, 2 * m):
            c = centered(x, m)
            assert (c - x) % m == 0 and -m < 2 * c <= m, (x, m)


# -- the integer kernel: valuation, Legendre symbol, factor ----------------


def test_valuation_of_ints_and_fractions():
    assert valuation(0, 5) is None
    assert valuation(Fraction(0), 5) is None
    assert valuation(-250, 5) == 3
    assert valuation(Fraction(3, 50), 5) == -2
    assert valuation(Fraction(75, 2), 5) == 2
    assert valuation(7, 2) == 0


def test_valuation_rejects_base_below_two():
    for p in (1, 0, -3):
        with pytest.raises(ValueError):
            valuation(5, p)


def test_legendre_against_squares():
    # reference: the set of nonzero squares mod p
    for p in (3, 5, 7, 11, 13, 101):
        squares = {x * x % p for x in range(1, p)}
        for a in range(-p, 2 * p):
            want = 0 if a % p == 0 else (1 if a % p in squares else -1)
            assert legendre(a, p) == want


def _next_prime(n):
    while not is_prime(n):
        n += 1
    return n


def test_factor_reassembles_seeded_integers():
    # n <= 10^40: small and medium primes, then one 20-digit prime or the
    # square of one (rho alone would need ~10^10 steps on the square)
    rng = random.Random(404)
    big = [_next_prime(rng.randrange(10 ** 19, 10 ** 20)) for _ in range(6)]
    for trial in range(150):
        n = (1, rng.choice(big), rng.choice(big) ** 2)[trial % 3]
        while True:
            q = _next_prime(rng.choice((rng.randrange(2, 10 ** 3), rng.randrange(2, 10 ** 8))))
            if n * q > 10 ** 40 or rng.random() < 0.15:
                break
            n *= q
        if trial % 7 == 0:
            n = -n
        fact = factor(n)
        assert list(fact) == sorted(fact)
        back = 1
        for q, e in fact.items():
            assert e >= 1 and is_prime(q)
            # a second opinion: Fermat tests to bases is_prime does not use
            assert q < 60 or all(pow(b, q - 1, q) == 1 for b in (43, 47, 53, 59))
            back *= q ** e
        assert back == abs(n)


def test_is_prime_is_false_for_anything_but_an_int():
    assert not any(is_prime(m) for m in (3.0, 7.0, Fraction(7), True, "7", None))


def test_is_prime_matches_a_sieve():
    n = 10 ** 5
    sieve = bytearray([1]) * n
    sieve[0] = sieve[1] = 0
    for q in range(2, 317):
        if sieve[q]:
            sieve[q * q::q] = bytes(len(range(q * q, n, q)))
    assert [m for m in range(n) if is_prime(m)] == [m for m in range(n) if sieve[m]]


def test_is_prime_at_psi_12():
    # psi_12: the least strong pseudoprime to every prime base up to 37
    psi_12, q1, q2 = 318665857834031151167461, 399165290221, 798330580441
    assert psi_12 == q1 * q2 and is_prime(q1) and is_prime(q2)
    assert not is_prime(psi_12)
    assert factor(psi_12) == {q1: 1, q2: 1}


def test_factor_small_cases():
    assert factor(1) == {}
    assert factor(-12) == {2: 2, 3: 1}
    assert factor(1009 ** 3 * 2003 ** 5) == {1009: 3, 2003: 5}
    big = _next_prime(10 ** 20)
    assert factor(2 * big ** 3) == {2: 1, big: 3}
    with pytest.raises(ValueError):
        factor(0)


def test_factor_gives_up_with_a_named_error(monkeypatch):
    n = 1000003 * 1000033
    assert factor(n) == {1000003: 1, 1000033: 1}
    monkeypatch.setattr(padics, "RHO_BUDGET", 8)
    with pytest.raises(FactorizationError):
        factor(n)
    assert issubclass(FactorizationError, ArithmeticError)
