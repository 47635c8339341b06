import os
import random
import subprocess
import sys
import textwrap
import time
from fractions import Fraction
from pathlib import Path

import pytest

from iwasawa import tate
from iwasawa.cli import main
from iwasawa.curves import (
    CertificateError,
    SingularCurveError,
    WeierstrassCurve,
    quadratic_twist,
    torsion,
)
from iwasawa.dataset import dataset_load, lookup
from iwasawa.padics import FactorizationError, factor, is_prime, legendre, valuation
from iwasawa.tate import (
    LocalData,
    _cubic_shape,
    _singular_point,
    bad_primes,
    conductor,
    is_square_in_Qell,
    j_expansion_coeff,
    tate_local,
    tate_period,
)
from padic_oracles import tate_period as padic_tate_period
from torsion_oracle import lutz_nagell_torsion

CURVES = {
    "11a": (0, -1, 1, -10, -20),
    "32a": (0, 0, 0, 4, 0),
    "768d1": (0, 1, 0, -7, 5),
    "768d3": (0, 1, 0, -647, -6555),
    "67a1": (0, 1, 1, -12, -21),
    "915a1": (0, -1, 1, -460, -11577),
    "34a1": (1, 0, 0, -3, 1),
    "306b3": (1, -1, 0, -927, 11097),
    "195a2": (1, 0, 0, -115, 392),
    "1225e1": (1, 1, 1, -8, 6),
    "1225e2": (1, 1, 1, -208083, -36621194),
    "58a": (1, -1, 0, -1, 1),
    "406d1": (1, 1, 0, -2124, -60592),
    "15a3": (1, 1, 1, -5, 2),
}
E = {k: WeierstrassCurve(*v) for k, v in CURVES.items()}

EXPECTED_LOCAL = {
    ("11a", 11): ("multiplicative_split", 5),
    ("32a", 2): ("additive", 4),
    ("34a1", 2): ("multiplicative_split", 6),
    ("34a1", 17): ("multiplicative_nonsplit", 1),
    ("915a1", 3): ("multiplicative_nonsplit", 1),
    ("915a1", 5): ("multiplicative_split", 7),
    ("915a1", 61): ("multiplicative_nonsplit", 1),
    ("768d1", 2): ("additive", 2),
    ("768d1", 3): ("multiplicative_split", 1),
    ("768d3", 2): ("additive", 2),
    ("768d3", 3): ("multiplicative_split", 5),
    ("195a2", 3): ("multiplicative_split", 8),
    ("195a2", 5): ("multiplicative_split", 2),
    ("195a2", 13): ("multiplicative_split", 2),
    ("406d1", 2): ("multiplicative_nonsplit", 2),
    ("406d1", 7): ("multiplicative_split", 5),
    ("406d1", 29): ("multiplicative_nonsplit", 2),
    ("67a1", 67): ("multiplicative_split", 1),
    ("15a3", 3): ("multiplicative_nonsplit", 2),
    ("15a3", 5): ("multiplicative_split", 2),
}


@pytest.mark.parametrize("key", sorted(EXPECTED_LOCAL))
def test_local_data(key):
    lbl, ell = key
    kind, c = EXPECTED_LOCAL[key]
    loc = tate_local(E[lbl], ell)
    assert (loc.kind, loc.tamagawa) == (kind, c)


CONDUCTORS = {"11a": 11, "32a": 32, "768d1": 768, "768d3": 768, "67a1": 67,
              "915a1": 915, "34a1": 34, "306b3": 306, "195a2": 195,
              "1225e1": 1225, "1225e2": 1225, "58a": 58, "406d1": 406, "15a3": 15}


@pytest.mark.parametrize("lbl", sorted(CONDUCTORS))
def test_conductors(lbl):
    assert conductor(E[lbl]) == CONDUCTORS[lbl]


def test_ord_j_conductor_11():
    assert tate_local(E["11a"], 11).ord_j == -5


def test_tamagawa_vs_ordj_consistency():
    for (lbl, ell) in EXPECTED_LOCAL:
        loc = tate_local(E[lbl], ell)
        if loc.kind == "multiplicative_split":
            assert loc.tamagawa == -loc.ord_j
        elif loc.kind == "multiplicative_nonsplit":
            assert loc.tamagawa == (1 if loc.ord_j % 2 else 2)
        elif loc.kind == "additive":
            assert loc.tamagawa <= 4


def test_good_prime_reports_trace():
    loc = tate_local(E["11a"], 7)
    assert loc.kind == "good" and loc.a_ell == -2
    assert loc.ordinary and not loc.anomalous


def test_model_invariance_under_translations():
    rng = random.Random(6)
    for lbl in ("34a1", "768d3", "195a2", "32a"):
        base = E[lbl]
        for _ in range(4):
            moved = base.transform(r=rng.randrange(-4, 5), s=rng.randrange(-3, 4),
                                   t=rng.randrange(-4, 5))
            for ell in bad_primes(base):
                a = tate_local(base, ell)
                b = tate_local(moved, ell)
                assert (a.kind, a.tamagawa, a.kodaira, a.ord_disc_min, a.ord_j) == \
                       (b.kind, b.tamagawa, b.kodaira, b.ord_disc_min, b.ord_j)


def test_minimalization_of_scaled_models():
    # scaling a_i by u^i leaves all local data unchanged (forces the
    # non-minimal restart branch)
    for lbl, u in (("11a", 2), ("34a1", 3), ("195a2", 2)):
        base = E[lbl]
        scaled = WeierstrassCurve(*(a * u ** i for a, i in zip(base.ainvs(), (1, 2, 3, 4, 6))))
        for ell in bad_primes(base) + [u]:
            a = tate_local(base, ell)
            b = tate_local(scaled, ell)
            assert (a.kind, a.tamagawa, a.ord_disc_min) == (b.kind, b.tamagawa, b.ord_disc_min)


def test_tame_additive_types_by_construction():
    # y^2 = x^3 + 25 a x + 125 b over ell = 5 has type I_n* with
    # n = v5(4a^3 + 27b^2); conductor exponent 2 (tame)
    for a, b in ((3, 1), (3, 36), (3, 11)):
        Ec = WeierstrassCurve(0, 0, 0, 25 * a, 125 * b)
        n = valuation(4 * a ** 3 + 27 * b ** 2, 5)
        loc = tate_local(Ec, 5)
        assert loc.kodaira == (f"I{n}*" if n else "I0*")
        assert loc.conductor_exponent == 2
        assert loc.tamagawa in (1, 2, 4)


@pytest.mark.parametrize("ell", [5, 7])
def test_every_unstarred_and_starred_tame_type_has_f_two(ell):
    # y^2 = x^3 + ell^k (disc -432 ell^2k) and y^2 = x^3 + ell^k x (disc
    # -64 ell^3k) walk through the additive types with v(disc_min) < 12;
    # Ogg's formula v = f + m - 1 with f = 2 pins each component count m
    cases = [((0, 0, 0, 0, ell ** k), kod, 2 * k)
             for k, kod in zip(range(1, 6), ("II", "IV", "I0*", "IV*", "II*"))]
    cases += [((0, 0, 0, ell ** k, 0), kod, 3 * k)
              for k, kod in zip(range(1, 4), ("III", "I0*", "III*"))]
    for ainvs, kodaira, v in cases:
        loc = tate_local(WeierstrassCurve(*ainvs), ell)
        assert (loc.kind, loc.kodaira, loc.ord_disc_min, loc.conductor_exponent) == (
            "additive", kodaira, v, 2), ainvs


def test_tame_conductor_is_certified(monkeypatch):
    # one component too few makes Ogg's f = 3 at ell = 5, which tameness refuses
    monkeypatch.setitem(tate._COMPONENTS, "IV*", 6)
    with pytest.raises(CertificateError, match="^additive type IV\\* at 5 with f = 3 and c = 3$"):
        tate_local(WeierstrassCurve(0, 0, 0, 0, 5 ** 4), 5)


def test_point_map_to_minimal_model():
    base = E["15a3"]
    scaled = WeierstrassCurve(*(a * 2 ** i for a, i in zip(base.ainvs(), (1, 2, 3, 4, 6))))
    loc = tate_local(scaled, 2)
    assert loc.minimal_ainvs == base.ainvs()
    P = (Fraction(3, 4) * 4, Fraction(-7, 8) * 8)  # (3/4,-7/8) scaled up
    assert loc.map_point(P) == (Fraction(3, 4), Fraction(-7, 8))


def test_square_class_decisions():
    assert is_square_in_Qell(Fraction(4), 3)
    assert not is_square_in_Qell(Fraction(3), 3)
    assert is_square_in_Qell(Fraction(9), 2)  # 9 = 1 mod 8
    assert not is_square_in_Qell(Fraction(5), 2)
    assert not is_square_in_Qell(Fraction(2), 2)
    assert is_square_in_Qell(Fraction(1, 4), 2)


def test_j_expansion_coefficients():
    # frozen from the modular-function expansion
    assert j_expansion_coeff(-1) == 1
    assert j_expansion_coeff(0) == 744
    assert j_expansion_coeff(1) == 196884
    assert j_expansion_coeff(2) == 21493760
    assert j_expansion_coeff(3) == 864299970
    assert j_expansion_coeff(10) == 22567393309593600


def test_j_expansion_coeff_refuses_outside_the_expansion_and_the_cap():
    # j has no q^n term below n = -1; past the cap the table costs O(24 n^2)
    j_expansion_coeff(1)  # fills the table, whose tail once answered for n < -1
    for n in (-2, -5, tate._J_CAP + 1, 1600):
        with pytest.raises(ValueError, match=f"^j_expansion_coeff needs -1 <= n <= 400, got n = {n}$"):
            j_expansion_coeff(n)
    assert j_expansion_coeff(tate._J_CAP) > 0


def test_tate_period_conductor_11():
    q = tate_period(E["11a"], 11, digits=10)
    assert q.valuation() == 5
    # residual check: j(q) = j to >= 10 digits is asserted internally, and
    # re-substituting through the public coefficients agrees
    from iwasawa.padics import PadicNumber
    jE = PadicNumber.from_rational(11, E["11a"].j, 22)
    jval = q.inverse()
    power = PadicNumber.from_rational(11, 1, 22)
    for nn in range(4):
        jval = jval + j_expansion_coeff(nn) * power
        power = power * q
    diff = jval - jE
    assert diff.is_zero or diff.valuation() >= 10


def test_tate_period_at_two():
    q = tate_period(E["34a1"], 2, digits=12)
    assert q.valuation() == -tate_local(E["34a1"], 2).ord_j


def test_tate_period_rejects_potentially_good():
    with pytest.raises(ValueError):
        tate_period(E["32a"], 2)


def _period_or_refusal(period, curve, ell, digits):
    try:
        q = period(curve, ell, digits)
    except ValueError as e:
        return "refused", str(e)
    return q.v, q.u, q.n


def test_tate_period_matches_the_padic_oracle():
    # every dataset curve and 150 seeded random ones, at every prime of
    # the discriminant: a period where ord(j) < 0, the same refusal elsewhere
    rng = random.Random(2026)
    curves = list(E.values())
    while len(curves) < len(E) + 150:
        try:
            curves.append(WeierstrassCurve(*(rng.randint(-10, 10) for _ in range(5))))
        except SingularCurveError:
            pass
    periods = 0
    for curve in curves:
        for ell in factor(curve.disc):
            for digits in (12, 16, 30):
                got = _period_or_refusal(tate_period, curve, ell, digits)
                assert got == _period_or_refusal(padic_tate_period, curve, ell, digits), \
                    (curve.ainvs(), ell, digits)
                periods += got[0] != "refused"
    assert periods > 900
    too_long = _period_or_refusal(tate_period, E["11a"], 11, 2000)
    assert too_long[0] == "refused"
    assert too_long == _period_or_refusal(padic_tate_period, E["11a"], 11, 2000)


_CORRUPT_UNDER_O = textwrap.dedent("""
    from iwasawa import tate
    from iwasawa.curves import CertificateError, WeierstrassCurve

    assert False, "asserts must be off"
    E11 = WeierstrassCurve(0, -1, 1, -10, -20)
    tate.tate_period(E11, 11, digits=10)  # fills the q-expansion table
    tate._J_COEFFS[2] += 1                # c_1 = 196884 becomes 196885
    try:
        tate.tate_period(E11, 11, digits=10)
    except CertificateError as e:
        print("refused:", e)
""")


def test_tate_period_certificate_raises_under_python_O():
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run([sys.executable, "-O", "-c", _CORRUPT_UNDER_O], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("refused: Tate period at 11 fails re-substitution")


def test_conductor_exponent_additive_at_least_two():
    for lbl, ell in (("32a", 2), ("768d1", 2), ("1225e1", 5), ("1225e1", 7),
                     ("306b3", 3), ("1225e2", 5), ("1225e2", 7)):
        assert tate_local(E[lbl], ell).conductor_exponent >= 2


def _singular_point_by_search(E, ell):
    """Every (x, y) in F_ell^2 where the reduction and both partials vanish."""
    a1, a2, a3, a4, a6 = E.ainvs()
    return [(x, y) for x in range(ell) for y in range(ell)
            if (y * y + a1 * x * y + a3 * y - (x ** 3 + a2 * x * x + a4 * x + a6)) % ell == 0
            and (a1 * y - (3 * x * x + 2 * a2 * x + a4)) % ell == 0
            and (2 * y + a1 * x + a3) % ell == 0]


def test_singular_point_closed_form_against_search():
    rng = random.Random(77)
    checked = 0
    for ell in (q for q in range(5, 50) if is_prime(q)):
        for _ in range(25):
            head = [rng.randint(-10 ** 6, 10 ** 6) for _ in range(4)]
            for a6 in range(ell):  # pick the a6 residues that make ell | disc
                try:
                    E = WeierstrassCurve(*head, a6 + ell * rng.randint(-10 ** 6, 10 ** 6))
                except SingularCurveError:
                    continue
                if E.disc % ell == 0:
                    assert [_singular_point(E, ell)] == _singular_point_by_search(E, ell)
                    checked += 1
    assert checked > 300


def test_bad_primes_with_two_large_prime_factors():
    # disc = 64 (10000019 * 20000003)^3; trial division to 10^6 gave up here
    E = WeierstrassCurve(0, 0, 0, -10000019 * 20000003, 0)
    assert bad_primes(E) == [2, 10000019, 20000003]
    assert conductor(E) == 2 ** valuation(conductor(E), 2) * (10000019 * 20000003) ** 2


def _scaled(a, u):
    return [ai * u ** i for ai, i in zip(a, (1, 2, 3, 4, 6))]


def test_bad_primes_valuation_rule_matches_tate_algorithm():
    # at ell >= 5, bad_primes decides from valuations; Tate's algorithm,
    # here at every ell <= 10^5 dividing disc, is the oracle: the dataset,
    # its extras and small curves u-scaled (not minimal) or twisted (additive)
    curves = [e.curve() for e in dataset_load() + [lookup("15a3")]]
    rng = random.Random(13)
    while len(curves) < 400:
        u, d = rng.choice((1, 5, 7, 11, 13, 35)), rng.choice((1, 1, 5, 7, -11, 13))
        try:
            E1 = WeierstrassCurve(*_scaled([rng.randint(-30, 30) for _ in range(5)], u))
        except SingularCurveError:
            continue
        curves.append(E1 if d == 1 else quadratic_twist(E1, d))
    kinds = {"good": 0, "bad": 0}
    for E1 in curves:
        for ell in factor(E1.disc):
            if 5 <= ell <= 10 ** 5:
                good = tate_local(E1, ell).kind == "good"
                assert (ell not in bad_primes(E1)) == good, (E1, ell)
                kinds["good" if good else "bad"] += 1
    assert kinds["good"] >= 200 and kinds["bad"] >= 800


def test_bad_primes_of_a_model_scaled_past_the_counting_bound():
    # good at 100003, where count_points refuses: decided without a count
    E1 = WeierstrassCurve(*_scaled(CURVES["11a"], 100003))
    assert bad_primes(E1) == [11]
    assert conductor(E1) == 11


def _cubic_shape_by_search(c0, c1, c2, ell):
    """The scan oracle: every root of P over F_ell, with its multiplicity
    read off the low coefficients of P(T + x)."""
    mults = {}
    for x in range(ell):
        if (c0 + x * (c1 + x * (c2 + x))) % ell == 0:
            d1, d2 = (c1 + 2 * c2 * x + 3 * x * x) % ell, (c2 + 3 * x) % ell
            mults[x] = 3 if d1 == d2 == 0 else (2 if d1 == 0 else 1)
    for x, m in mults.items():
        if m > 1:
            return m, x
    return 1, len(mults)


@pytest.mark.parametrize("ell", [2, 3, 5, 7, 11, 13])
def test_cubic_shape_against_search_on_every_cubic(ell):
    for c0 in range(ell):
        for c1 in range(ell):
            for c2 in range(ell):
                assert _cubic_shape(c0, c1, c2, ell) == _cubic_shape_by_search(c0, c1, c2, ell)


@pytest.mark.parametrize("d", [10000019, 10 ** 12 + 39])
def test_additive_at_a_large_twisting_prime(d):
    # the twist of 11a by d is I0* at d: c = 1 + the roots of the cubic
    # mod d; scanning F_d took seconds at 10^7 and never ended at 10^12
    start = time.perf_counter()
    loc = tate_local(quadratic_twist(E["11a"], d), d)
    assert time.perf_counter() - start < 2.0
    assert (loc.kind, loc.kodaira, loc.conductor_exponent) == ("additive", "I0*", 2)
    # the cubic's discriminant is -11^5 times a square: one root exactly
    # when -11 is a nonresidue mod d, else none or three
    assert loc.tamagawa in ((2,) if legendre(-11, d) == -1 else (1, 4))


# -- local data kept on the curve object ----------------------------------


def _random_curves(n, seed):
    """n seeded nonsingular curves, |a_i| <= h with h drawn from 10..10^4."""
    rng = random.Random(seed)
    out = []
    while len(out) < n:
        h = 10 ** rng.randint(1, 4)
        try:
            out.append(WeierstrassCurve(*(rng.randint(-h, h) for _ in range(5))))
        except SingularCurveError:
            pass
    return out


def test_memoized_local_data_matches_fresh_curves(monkeypatch):
    factored = {}

    def factor_once(n):  # the fresh curves below refactor the same discriminants
        if n not in factored:
            factored[n] = factor(n)
        return factored[n]
    monkeypatch.setattr(tate, "factor", factor_once)
    dataset = [e.curve() for e in dataset_load() + [lookup("15a3")]]
    checked = 0
    for E1 in dataset + _random_curves(200, seed=10):
        a = E1.ainvs()
        try:
            bad = bad_primes(WeierstrassCurve(*a))
        except FactorizationError:
            continue
        good, p = [], 2
        while len(good) < 10:
            if is_prime(p) and p not in bad:
                good.append(p)
            p += 1
        for _ in range(3):
            assert torsion(E1) == torsion(WeierstrassCurve(*a))
            assert bad_primes(E1) == bad_primes(WeierstrassCurve(*a)) == bad
            assert conductor(E1) == conductor(WeierstrassCurve(*a))
            for ell in bad + good:
                assert tate_local(E1, ell) == tate_local(WeierstrassCurve(*a), ell)
        assert torsion(E1) == lutz_nagell_torsion(WeierstrassCurve(*a))
        checked += 1
    assert checked >= len(dataset) + 195


def test_memo_holds_only_torsion_bad_primes_and_their_local_data():
    E915 = WeierstrassCurve(*CURVES["915a1"])
    assert E915._memo is None
    torsion(E915)
    bad = bad_primes(E915)
    for ell in (q for q in range(2, 2000) if is_prime(q)):
        tate_local(E915, ell)
    assert set(E915._memo) == {"torsion", "bad_primes", *bad} and bad == [3, 5, 61]
    assert all(isinstance(E915._memo[ell], LocalData) and E915._memo[ell].kind != "good"
               for ell in bad)


def test_bad_primes_hands_out_a_new_list():
    E915 = WeierstrassCurve(*CURVES["915a1"])
    got = bad_primes(E915)
    got.append(7)
    got.remove(3)
    assert bad_primes(E915) == [3, 5, 61]
    assert bad_primes(E915) is not bad_primes(E915)


def test_tables_runs_tate_algorithm_once_per_curve_and_prime(monkeypatch, capsys):
    runs = []
    real = tate._tate_algorithm
    monkeypatch.setattr(tate, "_tate_algorithm", lambda E, ell: runs.append(ell) or real(E, ell))
    main(["--format", "json", "tables"])
    capsys.readouterr()
    assert 0 < len(runs) <= 43


_CORRUPT_TYPE_II_UNDER_O = textwrap.dedent("""
    from iwasawa import tate
    from iwasawa.curves import CertificateError, WeierstrassCurve

    assert False, "asserts must be off"
    E = WeierstrassCurve(0, 0, 0, 0, 5)
    tate._COMPONENTS["II"] = 2    # conductor exponent at 5 becomes 2 + 1 - 2 = 1
    try:
        print("answered:", tate.tate_local(E, 5))
    except CertificateError as e:
        print("refused:", e)
    print("memo:", E._memo)
""")


def test_tate_checks_raise_under_python_O_and_keep_nothing():
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run([sys.executable, "-O", "-c", _CORRUPT_TYPE_II_UNDER_O], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "refused: additive type II at 5 with f = 1 and c = 1", "memo: None"]


_BREAK_HASSE_UNDER_O = textwrap.dedent("""
    from iwasawa import tate
    from iwasawa.curves import CertificateError, WeierstrassCurve

    assert False, "asserts must be off"
    tate.count_points = lambda E, p: 0    # a_7 = 8, and 8^2 >= 4 * 7
    try:
        print("answered:", tate.tate_local(WeierstrassCurve(0, -1, 1, -10, -20), 7))
    except CertificateError as e:
        print("refused:", e)
""")


def test_good_prime_count_is_hasse_checked(monkeypatch):
    monkeypatch.setattr(tate, "count_points", lambda E, p: 0)
    with pytest.raises(CertificateError, match="a_7 = 8 violates the Hasse bound"):
        tate_local(WeierstrassCurve(*CURVES["11a"]), 7)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run([sys.executable, "-O", "-c", _BREAK_HASSE_UNDER_O], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["refused: a_7 = 8 violates the Hasse bound"]
