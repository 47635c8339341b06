import random
from fractions import Fraction

import pytest

from iwasawa import lambda_algebra as la
from iwasawa.cli import main
from iwasawa.lambda_algebra import (
    INDETERMINATE,
    LambdaElement,
    LambdaModulePresentation,
    ZeroAtPrecision,
    associates_check,
    char_ideal,
    evaluate_Lp,
    fe_solve,
    growth_fit,
    involution,
    max_pn_cap,
    min_generators,
    mod_p_shape,
    mu_lambda,
    one,
    poly_resultant,
    quotient_order,
    smith_normal_form,
    theta,
    theta_poly_int,
    weierstrass_prepare,
)
from iwasawa.padics import PadicNumber, PrecisionError, valuation


def el(p, coeffs, n=30, k=40):
    return LambdaElement(p, coeffs, n, k)


# -- invariants ------------------------------------------------------------

def test_mu_lambda_examples():
    assert mu_lambda(el(5, [5])) == (1, 0)
    assert mu_lambda(el(3, [3, 3, 1])) == (0, 2)
    assert mu_lambda(el(3, [1])) == (0, 0)


def test_zero_detection():
    with pytest.raises(ZeroAtPrecision):
        mu_lambda(el(3, [3 ** 30, 0]))


def test_mu_lambda_additive_random():
    rng = random.Random(3)
    for _ in range(60):
        p = rng.choice((2, 3, 5))
        f = el(p, [rng.randrange(-40, 40) for _ in range(rng.randrange(1, 6))], 20, 24)
        g = el(p, [rng.randrange(-40, 40) for _ in range(rng.randrange(1, 6))], 20, 24)
        try:
            mf, lf = mu_lambda(f)
            mg, lg = mu_lambda(g)
        except ZeroAtPrecision:
            continue
        assert mu_lambda(f * g) == (mf + mg, lf + lg)


# -- preparation -----------------------------------------------------------

def test_prepare_already_distinguished():
    mu, d, u = weierstrass_prepare(el(3, [3, 3, 1]))
    assert mu == 0 and d.coeffs == (3, 3, 1)
    assert all(c == 0 for c in (u - one(3)).coeffs[:u.t_prec - 1])


def test_prepare_with_p_content():
    mu, d, u = weierstrass_prepare(el(2, [4, 2]))
    assert mu == 1 and d.coeffs == (2, 1)


def test_prepare_degree_three():
    f = el(3, [3, 3, 0, 1])
    mu, d, u = weierstrass_prepare(f)
    assert mu == 0 and d.degree == 3
    assert [c % 3 for c in d.coeffs] == [0, 0, 0, 1]
    recon = d.as_element(40) * u
    assert recon.truncate(coeff_prec=d.coeff_prec, t_prec=8) == f.truncate(
        coeff_prec=d.coeff_prec, t_prec=8)


def test_prepare_constructed_roundtrip_random():
    rng = random.Random(17)
    for _ in range(50):
        p = rng.choice((2, 3, 5))
        lam, mu = rng.randrange(0, 3), rng.randrange(0, 3)
        d = [p * rng.randrange(0, 25) for _ in range(lam)] + [1]
        u = [rng.choice(range(1, p)) if p > 2 else 1] + [rng.randrange(-9, 9) for _ in range(4)]
        f = (p ** mu) * (el(p, d, 22, 30) * el(p, u, 22, 30))
        mu2, d2, _ = weierstrass_prepare(f)
        assert mu2 == mu
        assert len(d2.coeffs) == lam + 1
        mod = p ** d2.coeff_prec
        assert all((a - b) % mod == 0 for a, b in zip(d2.coeffs, d))


# -- theta, quotient orders, growth -----------------------------------------

def test_theta_small():
    assert theta(0, 3).coeffs[:3] == (0, 1, 0)
    assert theta(1, 3).coeffs[:5] == (0, 3, 3, 1, 0)
    assert theta(1, 2).coeffs[:4] == (0, 2, 1, 0)


def test_theta_divisibility():
    t1 = theta(1, 3, 20, 30)
    t2 = theta(2, 3, 20, 30)
    # theta_2 / theta_1 stays in the ring: check theta_1 | theta_2 via
    # exact polynomial division
    a = [Fraction(c) for c in theta_poly_int(2, 3)]
    b = [Fraction(c) for c in theta_poly_int(1, 3)]
    while len(a) >= len(b):
        f = a[-1] / b[-1]
        off = len(a) - len(b)
        for i in range(len(b)):
            a[off + i] -= f * b[i]
        a.pop()
        while a and a[-1] == 0:
            a.pop()
    assert not a  # exact divisibility


def test_quotient_order_resultant_oracle():
    # T - 3 at p=3: v_3(theta_n(3)) = v_3(4^(3^n) - 1) = n + 1
    f = el(3, [-3, 1])
    for n in range(0, 3):
        free, e = quotient_order(f, n)
        assert free == 0
        assert e == valuation(4 ** (3 ** n) - 1, 3) == n + 1


def test_quotient_order_free_part():
    # theta_1 = T * (T^2+3T+3), so the quotient by (f, theta_1) is free of rank 2
    assert quotient_order(el(3, [3, 3, 1]), 1) == (2, 0)
    assert quotient_order(el(3, [3]), 0) == (0, 1)


def test_growth_fits():
    g = growth_fit(el(3, [-3, 1]), 3)
    assert (g.lam, g.mu, g.nu, g.n0, g.lambda0) == (1, 0, 1, 0, 0)
    g2 = growth_fit(el(3, [-9, 3]), 3)
    assert (g2.lam, g2.mu, g2.nu, g2.lambda0) == (1, 1, 1, 0)
    assert g2.e_values == (2, 5, 12, 31)  # n + 3^n + 1
    g3 = growth_fit(el(3, [3, 3, 1]), 3)
    assert (g3.lam, g3.mu, g3.nu, g3.n0, g3.lambda0) == (0, 0, 0, 1, 2)


def test_growth_law_consistency_random():
    rng = random.Random(23)
    for _ in range(12):
        p = rng.choice((2, 3))
        coeffs = [rng.randrange(-9, 9) for _ in range(rng.randrange(1, 4))]
        f = el(p, coeffs, 24, 30)
        try:
            mu_f, lam_f = mu_lambda(f)
        except ZeroAtPrecision:
            continue
        if lam_f > 3 or mu_f > 3:
            continue
        n_max = 3 if p == 3 else 4
        try:
            g = growth_fit(f, n_max)
        except ArithmeticError:
            continue
        assert g.mu == mu_f
        assert g.lam == lam_f - g.lambda0
        for n in range(g.n0, n_max + 1):
            assert g.e_values[n] == g.lam * n + g.mu * p ** n + g.nu


def test_smith_normal_form_basics():
    assert smith_normal_form([[2, 0], [0, 3]]) == [1, 6]
    assert smith_normal_form([[1, 0], [0, 0]]) == [1, 0]
    assert smith_normal_form([[4, 6], [6, 9]]) == [1, 0]  # det 0, gcd 1


def test_resultant_against_sylvester_values():
    # Res(T-3, theta_1) = theta_1(3) = 63 for p = 3
    r = poly_resultant([Fraction(-3), Fraction(1)],
                       [Fraction(c) for c in theta_poly_int(1, 3)])
    assert abs(r) == 63


# -- involution and associates ------------------------------------------------

def test_involution_of_T():
    it = involution(el(3, [0, 1]))
    assert it.lift_coeffs()[:5] == [0, -1, 1, -1, 1]


def test_involution_is_involutive():
    rng = random.Random(31)
    for _ in range(20):
        p = rng.choice((2, 3, 5))
        f = el(p, [rng.randrange(-20, 20) for _ in range(4)], 25, 30)
        assert involution(involution(f)) == f


def test_associates_under_involution():
    assert associates_check(el(3, [3, 3, 1]), involution(el(3, [3, 3, 1]))) is True
    assert associates_check(el(2, [2, 1]), involution(el(2, [2, 1]))) is True
    assert associates_check(el(5, [5]), involution(el(5, [5]))) is True
    assert associates_check(el(3, [-3, 1]), involution(el(3, [-3, 1]))) is False


def test_mod_p_shape():
    assert mod_p_shape(el(3, [3, 3, 1])) == 2
    assert mod_p_shape(el(7, [1, 7])) == 0
    assert mod_p_shape(el(2, [2, 1])) == 1
    with pytest.raises(ValueError):
        mod_p_shape(el(5, [5]))


# -- evaluation and functional equation ----------------------------------------

def test_evaluate_Lp():
    kappa = PadicNumber.from_rational(5, 6)
    T = el(5, [0, 1])
    assert evaluate_Lp(T, 1, kappa).is_zero
    v = evaluate_Lp(T, 2, kappa)
    assert v == 5 and v.valuation() == 1
    assert evaluate_Lp(el(5, [5]), 3, kappa) == 5


def test_evaluate_Lp_rejects_bad_kappa():
    with pytest.raises(ValueError):
        evaluate_Lp(el(5, [0, 1]), 2, PadicNumber.from_rational(5, 26))  # 1 + 25


def test_fe_solutions():
    w, c = fe_solve(el(5, [0, 1]))
    assert w == -1 and c == -1
    w, c = fe_solve(el(3, [3, 3, 1]))
    assert w == 1 and c == -2
    w, c = fe_solve(one(3))
    assert w == 1 and c.is_zero
    w, c = fe_solve(el(2, [2, 1]))
    assert w == 1 and c == -1


def test_fe_no_solution():
    assert fe_solve(el(3, [-3, 1])) is None


# -- presentations ---------------------------------------------------------------

def test_char_ideal_diagonal():
    p5 = el(5, [5])
    T5 = el(5, [0, 1])
    z = el(5, [])
    det = char_ideal(LambdaModulePresentation(5, ((p5, z), (z, T5))))
    assert mu_lambda(det) == (1, 1)
    det2 = char_ideal(LambdaModulePresentation(3, ((el(3, [3, 3, 1]),),)))
    assert det2 == el(3, [3, 3, 1])


def test_char_ideal_triangular():
    T3 = el(3, [0, 1])
    det = char_ideal(LambdaModulePresentation(
        3, ((T3, el(3, [3])), (el(3, []), T3))))
    assert det == el(3, [0, 0, 1])


def test_char_ideal_zero_det():
    z = el(3, [])
    T3 = el(3, [0, 1])
    with pytest.raises(ZeroAtPrecision):
        char_ideal(LambdaModulePresentation(3, ((T3, T3), (T3, T3))))


def test_min_generators():
    p5 = el(5, [5])
    z = el(5, [])
    i5 = one(5)
    assert min_generators(LambdaModulePresentation(5, ((p5, z), (z, p5)))) == 2
    assert min_generators(LambdaModulePresentation(3, ((el(3, [3, 3, 1]),),))) == 1
    assert min_generators(LambdaModulePresentation(5, ((i5, z), (z, i5)))) == 0


def test_min_generators_bounded_by_invariants():
    # diagonal presentations with distinguished/p-power entries
    rng = random.Random(41)
    for _ in range(20):
        p = rng.choice((2, 3, 5))
        entries = []
        for _ in range(rng.randrange(1, 4)):
            lam = rng.randrange(0, 3)
            d = [p * rng.randrange(0, 9) for _ in range(lam)] + [1]
            entries.append(p ** rng.randrange(0, 3) * el(p, d, 20, 24))
        r = len(entries)
        z = el(p, [], 20, 24)
        mat = tuple(tuple(entries[i] if i == j else z for j in range(r)) for i in range(r))
        pres = LambdaModulePresentation(p, mat)
        det = char_ideal(pres)
        mu, lam = mu_lambda(det)
        assert min_generators(pres) <= mu + lam


def test_text_roundtrip():
    f = LambdaElement.from_text("p=3 N=30 K=40 coeffs=[3,3,1]")
    assert f.to_text() == "p=3 N=30 K=40 coeffs=[3,3,1]"
    assert f == el(3, [3, 3, 1])


def test_associates_indeterminate_when_t_precision_too_low():
    f = el(3, [0] * 10 + [1], 30, 12)  # lambda = 10 against K = 12
    assert associates_check(f, involution(f)) is INDETERMINATE


def test_theta_truncation_flagged():
    with pytest.warns(UserWarning, match="truncated"):
        theta(3, 3, 20, 20)  # degree 27 against K = 20


def test_quotient_order_respects_size_cap(monkeypatch):
    monkeypatch.setenv("IWASAWA_MAX_PN", "8")
    with pytest.raises(ValueError, match="exceeds"):
        quotient_order(el(3, [-3, 1]), 2)
    monkeypatch.setenv("IWASAWA_MAX_PN", "9")
    assert quotient_order(el(3, [-3, 1]), 2) == (0, 3)


def test_max_pn_cap_names_the_variable(monkeypatch):
    for bad in ("abc", "0", "-3", "1.5"):
        monkeypatch.setenv("IWASAWA_MAX_PN", bad)
        with pytest.raises(ValueError, match="IWASAWA_MAX_PN"):
            max_pn_cap()
    monkeypatch.setenv("IWASAWA_MAX_PN", "1")
    assert max_pn_cap() == 1


def test_cli_reports_bad_max_pn(monkeypatch, capsys):
    monkeypatch.setenv("IWASAWA_MAX_PN", "abc")
    assert main(["growth", "p=3 coeffs=[-3,1]", "--n-max", "2"]) == 1
    assert "IWASAWA_MAX_PN" in capsys.readouterr().err


# -- differential tests for the layer-quotient kernels ----------------------------

def _sylvester_resultant(a, b):
    """det of the Sylvester matrix of a, b (ascending, nonzero leading terms)."""
    da, db = len(a) - 1, len(b) - 1
    size = da + db
    rows = [[Fraction(0)] * i + [Fraction(c) for c in reversed(a)] + [Fraction(0)] * (db - 1 - i)
            for i in range(db)]
    rows += [[Fraction(0)] * i + [Fraction(c) for c in reversed(b)] + [Fraction(0)] * (da - 1 - i)
             for i in range(da)]
    det = Fraction(1)
    for col in range(size):
        piv = next((i for i in range(col, size) if rows[i][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            det = -det
        det *= rows[col][col]
        for i in range(col + 1, size):
            f = rows[i][col] / rows[col][col]
            if f:
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[col])]
    return det


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _nonzero_top(rng, lo, hi):
    c = 0
    while c == 0:
        c = rng.randrange(lo, hi)
    return c


def _resultant_cases():
    rng = random.Random(97)
    cases = []
    for k in range(40):
        da, db = rng.randrange(0, 7), rng.randrange(0, 7)
        a = [rng.randrange(-30, 31) for _ in range(da)] + [_nonzero_top(rng, -7, 8)]
        b = [rng.randrange(-30, 31) for _ in range(db)] + [_nonzero_top(rng, -7, 8)]
        if k % 5 == 0:  # shared factor: the resultant is zero
            common = [rng.randrange(-4, 5), _nonzero_top(rng, -3, 4)]
            a, b = _poly_mul(a, common), _poly_mul(b, common)
        if k % 4 == 1:
            a = [Fraction(c, rng.randrange(1, 9)) for c in a]
        if k % 4 == 2:
            b = [Fraction(c, rng.randrange(1, 9)) for c in b]
        cases.append((a, b))
    cases += [([5], [7]), ([-2], [1, 0, 3]), ([0, 3, -1], [Fraction(-1, 2)]),
              (theta_poly_int(1, 3), [-3, 1]), ([-3, 1], theta_poly_int(2, 3))]
    return cases


def test_resultant_matches_sylvester_determinant():
    cases = _resultant_cases()
    kinds = {"zero": 0, "constant": 0, "deg_a<deg_b": 0, "deg_a>deg_b": 0, "fraction": 0,
             "non_monic": 0}
    for a, b in cases:
        ref = _sylvester_resultant(a, b)
        got = poly_resultant(a, b)
        assert isinstance(got, Fraction)
        assert got == ref, (a, b)
        kinds["zero"] += ref == 0
        kinds["constant"] += min(len(a), len(b)) == 1
        kinds["deg_a<deg_b"] += len(a) < len(b)
        kinds["deg_a>deg_b"] += len(a) > len(b)
        kinds["fraction"] += any(isinstance(c, Fraction) for c in a + b)
        kinds["non_monic"] += abs(a[-1]) != 1 or abs(b[-1]) != 1
    assert all(kinds.values()), kinds


def test_resultant_of_zero_polynomial():
    assert poly_resultant([0, 0], [1, 2]) == 0
    assert poly_resultant([3], []) == 0


def _horner_of_companion(coeffs, modulus):
    """f(C) by Horner's rule on the companion matrix C of monic `modulus`."""
    m = len(modulus) - 1
    # row t of C holds C[t][t-1] = 1 and C[t][m-1] = -modulus[t]
    nz = [[] for _ in range(m)]
    for t in range(m):
        if t:
            nz[t].append((t - 1, 1))
        nz[t].append((m - 1, -modulus[t]))
    acc = [[0] * m for _ in range(m)]
    for c in reversed(coeffs):
        out = [[0] * m for _ in range(m)]
        for i in range(m):
            for t, x in enumerate(acc[i]):
                if x:
                    for j, y in nz[t]:
                        out[i][j] += x * y
            out[i][i] += c
        acc = out
    return acc


@pytest.mark.parametrize("p,n", [(p, n) for p in (2, 3, 5) for n in range(4)])
def test_mult_matrix_matches_horner(p, n):
    rng = random.Random(100 * p + n)
    th = theta_poly_int(n, p)
    for _ in range(3):
        coeffs = [rng.randrange(-p ** 12, p ** 12) for _ in range(rng.randrange(1, 12))]
        assert la._mult_matrix(coeffs, th) == _horner_of_companion(coeffs, th)


def test_quotient_order_refuses_at_precision_limit():
    # T - 3 at N = 2: v_3(theta_2(3)) = 3 leaves a divisor past 3^2
    with pytest.raises(PrecisionError):
        quotient_order(LambdaElement(3, [-3, 1], 2, 10), 2)


def test_exact_rank_runs_only_when_the_smith_form_has_a_defect(monkeypatch):
    def refuse(matrix):
        raise RuntimeError("exact rank requested")
    monkeypatch.setattr(la, "_bareiss_rank", refuse)
    assert quotient_order(el(3, [-3, 1]), 1) == (0, 2)
    with pytest.raises(RuntimeError, match="exact rank"):
        quotient_order(el(3, [3, 3, 1]), 1)


def _dense_growth_series(rng, p, lam, mu):
    """p^mu * d * u mod (p^30, T^40): d Eisenstein of degree lam, u a 40-term unit."""
    mod = p ** 30
    d = [p * rng.randrange(p * p) for _ in range(lam)] + [1]
    d[0] = p * rng.choice([x for x in range(1, p * p) if x % p])
    u = [rng.randrange(mod) for _ in range(40)]
    u[0] = rng.choice([x for x in range(1, p * p) if x % p])
    return [(p ** mu * c) % mod for c in _poly_mul(d, u)[:40]]


@pytest.mark.parametrize("n_max,lam,mu", [(6, 3, 1), (7, 3, 0), (7, 5, 1)])
def test_growth_fit_dense_large_layers(n_max, lam, mu):
    # p^n_max = 64 and 128; an Eisenstein d of degree 3 or 5 shares no
    # factor with any theta_n (those factors have degree 2^k), so lambda0 = 0
    f = LambdaElement(2, _dense_growth_series(random.Random(n_max * 10 + lam), 2, lam, mu), 30, 40)
    g = growth_fit(f, n_max)
    assert (g.lam, g.mu, g.lambda0) == (lam, mu, 0)
    assert set(g.free_ranks) == {0}
