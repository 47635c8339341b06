import json
import os
import random
import subprocess
import sys
import textwrap
import time
from fractions import Fraction
from pathlib import Path

import pytest

from iwasawa import lambda_algebra as la
from iwasawa.cli import _small_lift, main
from iwasawa.lambda_algebra import (
    INDETERMINATE,
    LambdaElement,
    LambdaModulePresentation,
    TPrecisionError,
    ZeroAtPrecision,
    associates_check,
    char_ideal,
    evaluate_Lp,
    fe_solve,
    growth_fit,
    involution,
    min_generators,
    mod_p_shape,
    mu_lambda,
    one,
    poly_resultant,
    quotient_order,
    theta,
    theta_poly_int,
    weierstrass_prepare,
)
from iwasawa.padics import CertificateError, PadicNumber, PrecisionError, valuation
from padic_oracles import involution as composed_involution
from padic_oracles import int_power, series_inverse
from padic_oracles import min_generators as eliminated_min_generators


def _series_refusal(argv, capsys):
    """The last stderr line when the CLI refuses the series text of argv before
    dispatch: exit 1 and nothing on stdout."""
    with pytest.raises(SystemExit) as stop:
        main(argv)
    out, err = capsys.readouterr()
    assert stop.value.code == 1 and out == ""
    return err.splitlines()[-1]


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


def _unit_series(rng, p, n, k):
    cs = [rng.randrange(p ** n) for _ in range(k)]
    cs[0] = rng.choice([x for x in range(1, p * p) if x % p])
    return el(p, cs, n, k)


@pytest.mark.parametrize("p", (2, 3, 5, 7))
@pytest.mark.parametrize("k", (1, 2, 40))
def test_divide_matches_the_newton_inverse_oracle(p, k):
    rng = random.Random(10 * k + p)
    for n in (1, 5, 30):
        for _ in range(4):
            b = _unit_series(rng, p, n, k)
            a = el(p, [rng.randrange(p ** n) for _ in range(k)], n, k)
            inv = series_inverse(b)
            assert la._divide(one(p, n, k), b).coeffs == inv.coeffs
            got = la._divide(a, b)
            assert (got.coeff_prec, got.t_prec, got.coeffs) == (n, k, (a * inv).coeffs)
        non_unit = el(p, [p] + [1] * (k - 1), n, k)
        for divide in (lambda: la._divide(a, non_unit), lambda: series_inverse(non_unit)):
            with pytest.raises(ValueError):
                divide()


@pytest.mark.parametrize("p", (2, 3, 5, 7))
@pytest.mark.parametrize("k", (1, 2, 40))
def test_binomials_match_binary_powering(p, k):
    for n in (1, 5, 30):
        one_plus_t = el(p, [1, 1], n, k)
        for c in list(range(-50, 51)) + [(1 << 24) + 5]:
            want = int_power(one_plus_t, abs(c))
            if c < 0:
                want = series_inverse(want)
            assert el(p, la._binomials(c, k), n, k).coeffs == want.coeffs, c


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


def test_negative_layers_are_refused():
    for call in (lambda: theta_poly_int(-1, 3), lambda: quotient_order(el(3, [-3, 1]), -1),
                 lambda: theta(-1, 3)):
        with pytest.raises(ValueError, match="n must be >= 0"):
            call()


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


@pytest.mark.parametrize("p", (2, 3, 5, 7))
@pytest.mark.parametrize("k", (1, 2, 3, 10, 40))
def test_involution_matches_the_composition_oracle(p, k):
    rng = random.Random(100 * k + p)
    for n in (1, 5, 30):
        f = el(p, [rng.randrange(p ** n) for _ in range(k)], n, k)
        if k < 2:
            for iota in (involution, composed_involution):
                with pytest.raises(TPrecisionError):
                    iota(f)
            continue
        got, want = involution(f), composed_involution(f)
        assert (got.p, got.coeff_prec, got.coeffs) == (want.p, want.coeff_prec, want.coeffs)
        assert involution(got).coeffs == f.coeffs


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


def test_evaluate_Lp_refuses_s_outside_Z_p():
    # s - 1 = -4/5 has valuation -1, so kappa^(s-1) is not defined
    with pytest.raises(ValueError, match="^x\\^t needs t in Z_p, got valuation -1$"):
        evaluate_Lp(el(5, [0, 1]), PadicNumber.from_rational(5, Fraction(1, 5)),
                    PadicNumber.from_rational(5, 6))


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


def test_fe_solve_answers_a_non_integer_exponent_at_reduced_precision():
    # f = (1+T)^(-1/4) (3+T) iota(3+T) has iota(f) = (1+T)^(1/2) f.  No small
    # integer lift of c = 1/2 passes the exact check, so the derivative
    # relation answers, at the precision 3^18 of the prepared polynomials
    mod = 3 ** 30
    coeffs, b = [], Fraction(1)
    for k in range(40):
        coeffs.append(b.numerator * pow(b.denominator, -1, mod) % mod)
        b *= (Fraction(-1, 4) - k) / (k + 1)
    g = el(3, [3, 1])
    w, c = fe_solve(el(3, coeffs) * g * involution(g))
    assert w == 1
    assert c.abs_prec == 18 and c.residue(18) == pow(2, -1, 3 ** 18)


def _fe_with_both_checks(text):
    """`iwasawa fe`'s JSON as it reads when associates_check runs on every input."""
    f = LambdaElement.from_text(text, 30, 40)
    res = fe_solve(f)
    payload = {"f": f.to_text(), "verdict": "indeterminate"}
    if res is not INDETERMINATE:
        sym = associates_check(f, involution(f))
        payload = ({"f": f.to_text(), "verdict": "no solution", "iota_associate": sym}
                   if res is None else
                   {"f": f.to_text(), "w": res[0], "c": _small_lift(res[1]), "iota_associate": sym})
    return json.loads(json.dumps(payload, default=str))


def _fe_json(capsys, text):
    assert main(["--format", "json", "fe", text]) == 0
    return json.loads(capsys.readouterr().out)


def _fe_inputs(n, seed):
    """n seeded series: half random, half g * iota(g) * T^e * (1+T)^k, which solve."""
    rng = random.Random(seed)
    out = []
    for i in range(n):
        p = rng.choice((2, 3, 5, 7))
        g = el(p, [rng.randint(-p * p, p * p) for _ in range(rng.randint(1, 4))] + [1])
        if i % 2:
            g = g * involution(g)
            for factor in [el(p, [0, 1])] * rng.randint(0, 1) + [el(p, [1, 1])] * rng.randint(0, 2):
                g = g * factor
        out.append(g.to_text())
    return out


FE_EDGES = ("p=3 coeffs=[3,3,1]", "p=3 coeffs=[-3,1]",
            "p=3 K=40 coeffs=[" + ",".join(["0"] * 25 + ["1"]) + "]")


def test_fe_output_as_with_both_checks(capsys):
    verdicts = []
    for text in _fe_inputs(64, seed=9) + list(FE_EDGES):
        got = _fe_json(capsys, text)
        assert got == _fe_with_both_checks(text), text
        verdicts.append(got.get("verdict", "solved"))
    assert verdicts[-3:] == ["solved", "no solution", "indeterminate"]
    assert verdicts.count("solved") >= 30 and verdicts.count("no solution") >= 10


def test_fe_prepares_twice_when_solved(monkeypatch, capsys):
    calls = []
    real = la.weierstrass_prepare
    monkeypatch.setattr(la, "weierstrass_prepare", lambda f: calls.append(f) or real(f))
    for text in _fe_inputs(10, seed=9)[1::2] + [FE_EDGES[0]]:
        calls.clear()
        assert "w" in _fe_json(capsys, text)
        assert len(calls) == 2
    calls.clear()
    assert _fe_json(capsys, FE_EDGES[1])["iota_associate"] is False and len(calls) == 4


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


def test_min_generators_matches_the_elimination_oracle():
    rng = random.Random(43)
    ranks = set()
    for _ in range(300):
        p = rng.choice((2, 3, 5, 7))
        r = rng.randint(1, 4)
        # rows are combinations of a few basis rows mod p, so the rank mod p is often low
        basis = [[rng.randrange(p ** 3) for _ in range(r)] for _ in range(rng.randint(0, r))]
        rows = []
        for _ in range(r):
            cs = [rng.randrange(p) for _ in basis]
            rows.append([sum(c * b[j] for c, b in zip(cs, basis)) + p * rng.randrange(9)
                         for j in range(r)])
        pres = LambdaModulePresentation(
            p, tuple(tuple(el(p, [x, rng.randrange(9)], 3, 4) for x in row) for row in rows))
        ranks.add(min_generators(pres))
        assert min_generators(pres) == eliminated_min_generators(pres)
    assert ranks == {0, 1, 2, 3, 4}


def test_t_precision_below_one_is_refused(capsys):
    for k in (0, -1):
        with pytest.raises(TPrecisionError):
            LambdaElement(3, [-3, 1, 5], 30, k)
    last = _series_refusal(["growth", "p=3 K=-1 coeffs=[-3,1,5]", "--n-max", "2"], capsys)
    assert last == "iwasawa: error: argument f: T-precision below one term"


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
    monkeypatch.setattr(la, "MAX_LAYER_PN", 8)
    with pytest.raises(ValueError, match="exceeds the configured bound 8"):
        quotient_order(el(3, [-3, 1]), 2)
    monkeypatch.setattr(la, "MAX_LAYER_PN", 9)
    assert quotient_order(el(3, [-3, 1]), 2) == (0, 3)


# -- certificates: a wrong answer raises CertificateError, also under python -O ----

_BREAK_CERTIFICATES = textwrap.dedent("""
    from iwasawa import lambda_algebra as la

    real_resultant, real_divide = la.poly_resultant, la._weierstrass_divide

    def tripled_resultant(a, b):
        return 3 * real_resultant(a, b)

    def skewed_divide(h, g, lam):
        q, r = real_divide(h, g, lam)   # the prepared unit comes out divided by 1 + T
        return q * la.LambdaElement(q.p, [1, 1], q.coeff_prec, q.t_prec), r
""")

_UNDER_O = _BREAK_CERTIFICATES + textwrap.dedent("""
    import contextlib, io
    from iwasawa.cli import main

    def expect(what, call):
        try:
            call()
        except la.CertificateError as e:
            print(what, e)

    def cli(argv):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            print(argv[0], "exit", main(argv), err.getvalue().strip())

    assert False, "asserts must be off"
    la.poly_resultant = tripled_resultant
    expect("snf:", lambda: la.quotient_order(la.LambdaElement(3, [-3, 1], 30, 40), 1))
    cli(["growth", "p=3 coeffs=[-3,1]", "--n-max", "2"])
    la._weierstrass_divide = skewed_divide
    expect("prepare:", lambda: la.weierstrass_prepare(la.LambdaElement(3, [3, 3, 1], 30, 40)))
    cli(["fe", "p=3 coeffs=[3,3,1]"])
""")


def test_broken_certificates_raise_and_the_cli_reports_them(monkeypatch, capsys):
    ns = {}
    exec(_BREAK_CERTIFICATES, ns)
    monkeypatch.setattr(la, "poly_resultant", ns["tripled_resultant"])
    with pytest.raises(CertificateError, match="SNF and resultant"):
        quotient_order(el(3, [-3, 1]), 1)
    assert main(["growth", "p=3 coeffs=[-3,1]", "--n-max", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: SNF and resultant torsion orders disagree\n"
    monkeypatch.undo()
    monkeypatch.setattr(la, "_weierstrass_divide", ns["skewed_divide"])
    with pytest.raises(CertificateError, match="reconstruction"):
        weierstrass_prepare(el(3, [3, 3, 1]))
    assert main(["fe", "p=3 coeffs=[3,3,1]"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: preparation reconstruction failed\n"


def test_broken_certificates_raise_under_python_O():
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run([sys.executable, "-O", "-c", _UNDER_O], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "snf: SNF and resultant torsion orders disagree",
        "growth exit 1 error: SNF and resultant torsion orders disagree",
        "prepare: preparation reconstruction failed",
        "fe exit 1 error: preparation reconstruction failed"]


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


# -- growth layers from the Newton polygon ------------------------------------------

def _shaped_series(rng, p, shape, n, k):
    """p^mu * d * u mod (p^n, T^k) for one shape of the Newton-polygon tests."""
    mod = p ** n
    lam, mu = rng.randint(1, 4), rng.randint(0, 2 if shape in ("mu", "unit") else 0)
    d = [p * rng.randrange(1, p ** 3) for _ in range(lam)] + [1]
    if shape == "tie":  # one segment of slope 1/lam, a tie wherever phi(p^k) = lam
        lam = rng.choice([x for x in (1, 2, 4, 6) if x % (p - 1) == 0])
        d = [p * rng.choice([x for x in range(1, p * p) if x % p])] + [0] * (lam - 1) + [1]
    elif shape == "const":
        d[0] = p ** rng.randint(2, 5) * rng.choice([1, -1])
    elif shape == "unit":
        d = [1]
    elif shape == "free":  # T or omega_1 = Phi_p(1 + T) divides f, a polynomial below T^k
        d = _poly_mul([0, 1], d) if rng.random() < 0.5 else \
            _poly_mul(theta_poly_int(1, p)[1:], [rng.randrange(p * p) * p, 1])
        return LambdaElement(p, [p ** mu * c for c in _poly_mul(d, [rng.choice((1, -1)), p])], n, k)
    u = [rng.randrange(mod) for _ in range(k)]
    while u[0] % p == 0:
        u[0] = rng.randrange(mod)
    return LambdaElement(p, [p ** mu * c for c in _poly_mul(d, u)[:k]], n, k)


def _fit_or_error(f, n_max):
    try:
        return growth_fit(f, n_max)
    except (ArithmeticError, ValueError) as e:
        return type(e), str(e)


def _at_precision(f, n):
    """f's lift, read as the exact series, at coefficient precision p^n."""
    return LambdaElement(f.p, f.lift_coeffs(), n, f.t_prec)


SHAPES = ["tie", "const", "mu", "small_n", "free", "unit"]


@pytest.mark.parametrize("shape", SHAPES)
def test_newton_layers_match_the_layer_matrices(shape, monkeypatch):
    rng = random.Random(sum(map(ord, shape)))
    ties = []
    real_resultant = la._int_resultant
    decided = past_n = 0
    for _ in range(30):
        p = rng.choice((2, 3, 5, 7))
        n_max = {2: 4, 3: 3, 5: 2, 7: 2}[p]
        f = _shaped_series(rng, p, shape, rng.randint(2, 6) if shape == "small_n" else 30,
                           rng.randint(12, 40))
        with monkeypatch.context() as m:
            m.setattr(la, "_int_resultant", lambda a, b: ties.append(a) or real_resultant(a, b))
            law = la._polygon_law(f)
        with monkeypatch.context() as m:
            m.setattr(la, "_polygon_law", lambda f: None)
            by_matrices = _fit_or_error(f, n_max)
        fit = _fit_or_error(f, n_max)
        if law is None or isinstance(by_matrices, la.GrowthParams):
            assert fit == by_matrices, f
        if law is None:
            continue
        decided += 1
        # the law needs no divisor below p^N: where the matrix at N stops, it is
        # compared at 4N on the same lift
        g = fit if isinstance(fit, la.GrowthParams) else \
            growth_fit(_at_precision(f, 4 * f.coeff_prec), n_max)
        for n, e in enumerate(g.e_values):
            try:
                assert quotient_order(f, n) == (0, e), f
            except PrecisionError:
                past_n += 1
                assert quotient_order(_at_precision(f, 4 * f.coeff_prec), n) == (0, e), f
    assert decided == 0 if shape == "free" else decided >= 25
    assert past_n > 0 or shape != "small_n"
    assert ties or shape != "tie"


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_growth_fit_matches_every_layer_matrix_up_to_the_cap(p):
    # every layer with p^n <= MAX_LAYER_PN, for units, ties and dense series alike
    rng = random.Random(p)
    n_max = max(n for n in range(8) if p ** n <= la.MAX_LAYER_PN)
    for shape in ("tie", "unit", "const", "mu"):
        f = _shaped_series(rng, p, shape, 30, 12)
        g = growth_fit(f, n_max)
        assert [quotient_order(f, n) for n in range(n_max + 1)] == \
            list(zip(g.free_ranks, g.e_values)), f


def test_growth_fit_answers_alike_at_N_and_2N():
    rng = random.Random(2024)
    answered = 0
    for _ in range(120):
        shape = rng.choice(SHAPES)
        p = rng.choice((2, 3, 5, 7))
        f = _shaped_series(rng, p, shape, rng.randint(2, 6) if shape == "small_n" else 30,
                           rng.randint(12, 40))
        n_max = rng.randint(2, {2: 9, 3: 5, 5: 3, 7: 3}[p])
        fit = _fit_or_error(f, n_max)
        if isinstance(fit, la.GrowthParams):
            answered += 1
            assert growth_fit(_at_precision(f, 2 * f.coeff_prec), n_max) == fit, f
    assert answered >= 80


def test_newton_layers_decide_a_tie_by_the_small_resultant():
    # T - 2 at p = 2: the slope-1 segment ties phi(2) = 1, and f(-2) = -4
    assert la._polygon_law(el(2, [-2, 1])) == [1, 2]
    assert la._polygon_law(el(3, [3, 3, 1])) is None  # omega_1 itself: a free part
    assert la._polygon_law(el(3, [0, 3, 1])) is None  # T | f
    assert la._polygon_law(el(3, [1, 3])) == [0]  # a unit: k* = 1
    # layer 2 is cyclic of order p^3 = p^N: past its matrix, but not past the hull
    assert la._polygon_law(el(3, [-3, 1], 3, 10)) == [1]
    assert growth_fit(el(3, [-3, 1], 3, 10), 4).e_values == (1, 2, 3, 4, 5)
    with pytest.raises(PrecisionError):
        quotient_order(el(3, [-3, 1], 3, 10), 2)


def test_a_tie_is_trusted_only_below_phi_times_N():
    # p = 2, N = 4: one segment (2, 1) ties phi(4) = 2 at k = 2, where
    # omega_2 = T^2 + 2T + 2 and r = v_2(Res(omega_2, f mod omega_2)) = 2 v_2(f(i - 1))
    below = el(2, [-6, -2, 1, -2], 4, 10)  # r = 7 = 2N - 1
    assert la._polygon_law(below) == [1, 1, 7]
    assert growth_fit(below, 3).e_values == (1, 2, 9, 11)
    assert growth_fit(_at_precision(below, 8), 3).e_values == (1, 2, 9, 11)
    at = el(2, [-6, 6, 1, -2], 4, 10)  # r = 8 = 2N: the matrices decide, and refuse
    assert la._polygon_law(at) is None
    with pytest.raises(PrecisionError, match="precision limit"):
        growth_fit(at, 3)
    assert la._polygon_law(_at_precision(at, 5)) == [1, 1, 8]


@pytest.mark.parametrize("n_max", [3, 8])
def test_growth_law_past_the_last_tie_in_closed_form(n_max, capsys):
    # one segment (4, 1) at p = 2: v = 1, 1, 2, then a tie at k = 3 (v_3 = 6), and
    # v_k = 4 from k* = 4 on, so nu = 10 - 4 * 3 and n0 = 3, above n_max - 1 at n_max = 3
    g = growth_fit(el(2, [2, 0, 0, 0, 1]), n_max)
    assert (g.lam, g.mu, g.nu, g.n0, g.lambda0) == (4, 0, -2, 3, 0)
    assert g.e_values == (1, 2, 4, 10, 14, 18, 22, 26, 30)[:n_max + 1]
    argv = ["--format", "json", "growth", "p=2 coeffs=[2,0,0,0,1]", "--n-max", str(n_max)]
    assert main(argv) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["lambda"], out["nu"], out["n0"]) == (4, -2, 3)


def test_growth_law_of_a_unit_needs_no_matrix_past_layer_one(monkeypatch):
    calls = []
    real = la.quotient_order
    monkeypatch.setattr(la, "quotient_order", lambda f, n: calls.append(n) or real(f, n))
    assert growth_fit(LambdaElement.from_text("p=3 coeffs=[1,3]"), 5).e_values == (0,) * 6
    g = growth_fit(LambdaElement.from_text("p=3 coeffs=[3,3]"), 5)
    assert g.e_values == tuple(3 ** n for n in range(6))
    assert (g.lam, g.mu, g.nu, g.n0, g.lambda0) == (0, 1, 0, 0, 0)
    assert calls == [1, 1]


def test_quotient_order_refuses_a_huge_layer_before_forming_p_to_the_n():
    # p^n was formed first: n = 10^6 hit the int-to-string limit, n = 10^7 took 2.6 s
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"^n = 1000000000: p\^n = 3\^1000000000 exceeds"):
        quotient_order(el(3, [-3, 1]), 10 ** 9)
    assert time.perf_counter() - start < 0.1


def test_growth_fit_answers_above_the_layer_matrix_bound(capsys):
    # p^n = 1024 is past MAX_LAYER_PN = 128; only layer 1 is built as a matrix
    g = growth_fit(el(2, [-2, 1]), 10)
    assert g.e_values == (1, 3) + tuple(range(4, 13))
    assert (g.lam, g.mu, g.nu, g.n0, g.lambda0) == (1, 0, 2, 1, 0)
    assert main(["--format", "json", "growth", "p=2 coeffs=[-2,1]", "--n-max", "10"]) == 0
    assert json.loads(capsys.readouterr().out)["e_values"][10] == 12
    with pytest.raises(ValueError, match="^n = 8: p\\^n = 2\\^8 exceeds the configured bound 128$"):
        quotient_order(el(2, [-2, 1]), 8)


@pytest.mark.parametrize("coeffs", [[-3, 1], [9], [-9, 3], [0, 1]])
def test_growth_fit_work_stays_bounded_for_a_large_n_max(coeffs, capsys):
    # n_max >= N with p^n_max past MAX_LAYER_PN is refused before any layer is formed
    start = time.perf_counter()
    with pytest.raises(ValueError, match="^n_max = 1000000000 reaches N = 30 and p\\^n_max "
                                         "exceeds the layer-matrix bound 128$"):
        growth_fit(el(3, coeffs), 10 ** 9)
    assert time.perf_counter() - start < 2.0
    text = f"p=3 coeffs=[{','.join(map(str, coeffs))}]"
    assert main(["growth", text, "--n-max", str(10 ** 9)]) == 1
    assert capsys.readouterr().err.startswith("error: n_max = 1000000000 reaches N = 30")


def test_the_n_max_bound_needs_both_n_max_at_N_and_p_n_past_the_cap():
    assert growth_fit(el(2, [-2, 1], 5, 10), 7).e_values[7] == 9  # 2^7 = 128 <= the cap
    with pytest.raises(ValueError, match="n_max = 8 reaches N = 5"):
        growth_fit(el(2, [-2, 1], 5, 10), 8)
    assert growth_fit(el(3, [-3, 1], 30, 40), 29).e_values[29] == 30  # n_max = N - 1
    with pytest.raises(ValueError, match="n_max = 30 reaches N = 30"):
        growth_fit(el(3, [-3, 1], 30, 40), 30)


_BREAK_NEWTON = textwrap.dedent("""
    from iwasawa import lambda_algebra as la

    real_law = la._polygon_law

    def shifted_law(f):
        v = real_law(f)
        return [v[0] + 1] + v[1:]
""")

_NEWTON_UNDER_O = _BREAK_NEWTON + textwrap.dedent("""
    import contextlib, io
    from iwasawa.cli import main

    assert False, "asserts must be off"
    la._polygon_law = shifted_law
    try:
        la.growth_fit(la.LambdaElement(3, [-3, 1], 30, 40), 3)
    except la.CertificateError as e:
        print("fit:", e)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        print("growth exit", main(["growth", "p=3 coeffs=[-3,1]"]), err.getvalue().strip())
""")


def test_newton_layers_are_certified_by_layer_one(monkeypatch, capsys):
    ns = {}
    exec(_BREAK_NEWTON, ns)
    monkeypatch.setattr(la, "_polygon_law", ns["shifted_law"])
    for text in ("p=3 coeffs=[-3,1]", "p=3 coeffs=[3,3]"):  # lambda = 1, and a unit
        with pytest.raises(CertificateError, match="Newton polygon and layer matrix disagree"):
            growth_fit(LambdaElement.from_text(text), 3)
        assert main(["growth", text]) == 1
        assert capsys.readouterr().err == "error: Newton polygon and layer matrix disagree\n"


def test_newton_layers_are_certified_under_python_O():
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run([sys.executable, "-O", "-c", _NEWTON_UNDER_O], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "fit: Newton polygon and layer matrix disagree",
        "growth exit 1 error: Newton polygon and layer matrix disagree"]


@pytest.mark.parametrize("argv, text, k", [
    ([], "p=3 K=2 coeffs=[-3,0,1]", 2),  # once read as -3: lambda = 0, mu = 1
    (["--t-precision", "1"], "p=3 coeffs=[-3,1]", 1),
])
@pytest.mark.parametrize("command", ["growth", "fe"])
def test_series_text_refuses_a_term_past_K(argv, text, k, command, capsys):
    message = f"coeffs has a nonzero term at or past T^K, K = {k}"
    with pytest.raises(ValueError) as err:
        LambdaElement.from_text(text, t_prec=k)
    assert str(err.value) == message
    last = _series_refusal(argv + [command, text], capsys)
    assert last == f"iwasawa: error: argument f: {message}"
    # zeros past K state nothing, so they pass
    zeros = LambdaElement.from_text("p=3 K=2 coeffs=[-3,1,0,0]")
    assert zeros.to_text() == "p=3 N=30 K=2 coeffs=[-3,1]"


def test_growth_of_a_zero_series_is_refused(capsys):
    assert main(["growth", "p=3 N=2 coeffs=[9,0,18]"]) == 1
    assert capsys.readouterr().err == "error: element vanishes mod (p^N, T^K)\n"


@pytest.mark.parametrize("text", ["p=3 coeffs=[-3,1", "p=3 coeffs=-3,1]", "p=3 coeffs=]-3,1["])
def test_series_text_needs_both_brackets(text, capsys):
    with pytest.raises(ValueError, match=r"coeffs=\[\.\.\.\]"):
        LambdaElement.from_text(text)
    last = _series_refusal(["growth", text], capsys)
    assert last == "iwasawa: error: argument f: need coeffs=[...] with both brackets"


@pytest.mark.parametrize("text, message", [
    ("p=3 tag=[9] coeffs=[-3,1]", "series text field 'tag=[9]' is not p=, N=, K= or coeffs="),
    ("p=3 coeffs=[-3,1] p=5", "series text gives p= twice"),
    ("p=3 N=x coeffs=[1]", "series text field N must be an integer, got 'x'"),
    ("p=3 coeffs=[1,y]", "series text field coeffs must be an integer, got 'y'"),
])
def test_series_text_refuses_a_stray_repeated_or_non_integer_field(text, message, capsys):
    with pytest.raises(ValueError) as err:
        LambdaElement.from_text(text)
    assert str(err.value) == message
    assert _series_refusal(["growth", text], capsys) == f"iwasawa: error: argument f: {message}"


def test_series_text_takes_the_coefficients_from_their_own_field():
    f = LambdaElement.from_text("K=12 coeffs=[ -3 , 1 ]  p=3 N=20")
    assert f.to_text() == "p=3 N=20 K=12 coeffs=[-3,1]"
    with pytest.raises(ValueError, match=r"need p=\.\.\. and coeffs=\[\.\.\.\]"):
        LambdaElement.from_text("N=3 coeffs=[1]")
