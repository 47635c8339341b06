import json
import random
import time
from fractions import Fraction

import pytest

from iwasawa.cli import main
from iwasawa.curves import WeierstrassCurve, point_arith, torsion
from iwasawa.mu import (
    IsogenyEdge,
    KernelClass,
    KernelGraphError,
    _quadruple_coords,
    classify_two_torsion,
    dual_composition_is_doubling,
    kramer_m1,
    kramer_m4,
    kramer_m4_minimal_disc,
    mu_lower_bound,
    mu_zero_certificate,
    velu_2isogeny,
    _rational_two_torsion_points,
)
from iwasawa.tate import bad_primes, tate_local

E15A3 = WeierstrassCurve(1, 1, 1, -5, 2)
E195A2 = WeierstrassCurve(1, 0, 0, -115, 392)


def test_classify_15a3_points():
    assert classify_two_torsion(E15A3, (Fraction(3, 4), Fraction(-7, 8))) == (True, False)
    assert classify_two_torsion(E15A3, (-3, 1)) == (False, True)
    assert classify_two_torsion(E15A3, (1, -1)) == (False, False)


def test_classify_rejects_non_two_torsion():
    with pytest.raises(ValueError):
        classify_two_torsion(WeierstrassCurve(0, -1, 1, -10, -20), (5, 5))


def test_classify_rejects_bad_reduction_at_two():
    with pytest.raises(ValueError):  # additive at 2
        classify_two_torsion(WeierstrassCurve(0, 0, 0, 4, 0), (0, 0))


def test_xor_law_full_two_torsion():
    # with full rational 2-torsion and positive discriminant exactly one
    # point is odd (the strict minimum is unique)
    for E in (E15A3, E195A2, WeierstrassCurve(0, 0, 0, -1, 0).transform()):
        if E.disc < 0:
            continue
        try:
            flags = [classify_two_torsion(E, P)[1] for P in _rational_two_torsion_points(E)]
        except ValueError:
            continue
        if len(flags) == 3:
            assert sum(flags) == 1


def test_velu_quotient_and_dual():
    cod, phi = velu_2isogeny(E15A3, (1, -1))
    assert cod.disc != 0
    T = torsion(E15A3)
    samples = [T.generators[-1], point_arith(E15A3, T.generators[-1], n=3), None]
    assert dual_composition_is_doubling(E15A3, (1, -1), samples)


def test_velu_dual_on_rank_one_curve():
    # 195a2 has full 2-torsion and big honest points via its Z/2 x Z/4 torsion
    pts = _rational_two_torsion_points(E195A2)
    T = torsion(E195A2)
    samples = list(T.generators) + [point_arith(E195A2, T.generators[-1], n=3)]
    for P in pts:
        assert dual_composition_is_doubling(E195A2, P, samples)


def test_velu_rejects_identity():
    with pytest.raises(ValueError):
        velu_2isogeny(E15A3, None)


def test_mu_lower_bound_base_case_195():
    v = mu_lower_bound("195a2", 2, [], curves={"195a2": E195A2})
    assert v.lower_bound >= 1


def test_mu_lower_bound_declared_edges():
    edges = [IsogenyEdge("768d3", "768d1", 5, KernelClass(5, True, True, "input"))]
    assert mu_lower_bound("768d3", 5, edges).lower_bound == 1
    assert mu_lower_bound("curve-with-nothing", 5, []).lower_bound == 0


def test_mu_lower_bound_propagation_chain():
    edges = [IsogenyEdge("a", "b", 2, KernelClass(2, True, True, "input")),
             IsogenyEdge("b", "c", 4, KernelClass(4, True, True, "input")),
             IsogenyEdge("b", "d", 2, KernelClass(2, False, True, "input"))]
    assert mu_lower_bound("a", 2, edges).lower_bound == 3
    assert mu_lower_bound("b", 2, edges).lower_bound == 2


def test_mu_lower_bound_monotone_in_edges():
    e1 = [IsogenyEdge("a", "b", 2, KernelClass(2, True, True, "input"))]
    e2 = e1 + [IsogenyEdge("b", "c", 2, KernelClass(2, True, True, "input"))]
    assert (mu_lower_bound("a", 2, e1).lower_bound
            <= mu_lower_bound("a", 2, e2).lower_bound)


def test_mu_zero_certificates():
    c1 = mu_zero_certificate(E15A3, 2, KernelClass(2, True, False, "computed"))
    c2 = mu_zero_certificate(E15A3, 2, KernelClass(2, False, True, "computed"))
    c3 = mu_zero_certificate(E195A2, 2, KernelClass(2, True, True, "computed"))
    assert c1.zero_certified and c2.zero_certified and not c3.zero_certified
    with pytest.raises(ValueError):
        mu_zero_certificate(E15A3, 2, KernelClass(4, True, False))


def test_kramer_m1_instance():
    E, P = kramer_m1(-2, 1)
    assert E.ainvs() == (1, 2, 0, -4, -9)
    assert P == (Fraction(-9, 4), Fraction(9, 8))
    assert E.disc == 289
    assert classify_two_torsion(E, P) == (True, True)


def test_kramer_m1_constraints():
    with pytest.raises(ValueError):
        kramer_m1(1, 1)        # (4a-1)^2 = 9 < 64
    with pytest.raises(ValueError):
        kramer_m1(2, 49)       # gcd(7, 49) > 1
    with pytest.raises(ValueError):
        kramer_m1(3, 1)        # both nonnegative


def test_kramer_m1_sweep_always_ramified_and_odd():
    # 50 valid parameter pairs with b odd (good ordinary reduction at 2)
    rng = random.Random(15)
    produced = 0
    seen = set()
    while produced < 50:
        a = rng.randrange(-12, 13)
        b = rng.choice([x for x in range(-15, 16, 2) if x])
        key = (a, b)
        if key in seen:
            continue
        seen.add(key)
        try:
            E, P = kramer_m1(a, b)
        except ValueError:
            continue
        loc2 = tate_local(E, 2)
        assert loc2.kind == "good" and loc2.ordinary
        assert classify_two_torsion(E, P) == (True, True)
        produced += 1


def test_kramer_m4_instance():
    E = kramer_m4(1, 5)
    assert point_arith(E, (623, 0), n=2) is None
    target = kramer_m4_minimal_disc(1, 5)
    assert target < 0 and E.disc < 0
    ratio = Fraction(E.disc) / target
    assert ratio.denominator == 1
    r = round(abs(ratio.numerator) ** (1 / 12))
    assert r ** 12 == ratio.numerator  # off by an exact 12th power
    # the minimal discriminant from Tate's algorithm matches the formula
    md = 1
    for ell in bad_primes(E):
        md *= ell ** tate_local(E, ell).ord_disc_min
    assert md == abs(target)


def test_kramer_m4_constraints():
    with pytest.raises(ValueError):
        kramer_m4(1, 3)   # 1 != 3 mod 4
    with pytest.raises(ValueError):
        kramer_m4(3, 3)   # not distinct
    with pytest.raises(ValueError):
        kramer_m4(2, 5)   # even
    with pytest.raises(ValueError):
        kramer_m4(3, 9)   # gcd > 1


def test_kramer_identities_on_seeded_parameters():
    """What kramer_m1 and kramer_m4 used to assert on every call: the
    discriminant b (m^2 - 64 b)^2 and the given point of order 2."""
    rng = random.Random(1982)
    m1 = m4 = 0
    while m1 < 60:
        a, b = rng.randint(-10 ** 6, 10 ** 6), rng.randint(-10 ** 6, 10 ** 6)
        try:
            E, P = kramer_m1(a, b)
        except ValueError:
            continue
        m = 4 * a - 1
        assert E.disc == b * (m * m - 64 * b) ** 2
        assert point_arith(E, P, n=2) is None
        m1 += 1
    while m4 < 30:
        c, d = 2 * rng.randint(0, 200) + 1, 2 * rng.randint(0, 200) + 1
        try:
            E = kramer_m4(c, d)
        except ValueError:
            continue
        assert point_arith(E, (d ** 4 - 2 * c ** 4, 0), n=2) is None
        m4 += 1


def test_velu_kernel_x_is_integral_on_the_quadrupled_model():
    """velu_2isogeny shifts by X0 = 4 x(P) without checking it is an
    integer; it is, for rational 2-torsion, also where x(P) is not."""
    rng = random.Random(1983)
    checked = fractional = 0
    while checked < 100:
        mag = 10 ** rng.choice((2, 9, 30))
        u1 = 4 * rng.randint(-mag, mag) + 3
        k2 = 2 * rng.randint(-mag, mag)
        k3 = 4 * rng.randint(-mag, mag) - k2
        if len({u1, 4 * k2, 4 * k3}) < 3:
            continue
        E, pts = _full_two_torsion_curve(u1, k2, k3)
        E = E.transform(r=rng.randint(-50, 50), s=rng.randint(-3, 3), t=rng.randint(-50, 50))
        for P in _rational_two_torsion_points(E):
            assert _quadruple_coords(E, P)[0].denominator == 1
            assert velu_2isogeny(E, P)[1]._shift == 4 * P[0]
            fractional += P[0].denominator > 1
        checked += 1
    assert fractional == checked  # the point at x = u1/4 on each curve


def _complete_graph(n, p=5):
    labels = [f"c{i}" for i in range(n)]
    return [IsogenyEdge(a, b, p, KernelClass(p, True, True))
            for a in labels for b in labels if a != b]


def test_mu_lower_bound_refuses_more_than_an_isogeny_class():
    t0 = time.perf_counter()
    assert mu_lower_bound("c0", 5, _complete_graph(8)).lower_bound == 8
    for n in (9, 12):
        with pytest.raises(KernelGraphError, match="more than 8 curves are reachable from c0"):
            mu_lower_bound("c0", 5, _complete_graph(n))
    assert time.perf_counter() - t0 < 5
    # what c0 cannot reach does not count
    edges = _complete_graph(8) + [IsogenyEdge("x", "c0", 5, KernelClass(5, True, True))]
    assert mu_lower_bound("c0", 5, edges).lower_bound == 8


def test_cli_mu_bound_refuses_a_nine_curve_graph(tmp_path, capsys):
    labels = ["768d3", "768d1"] + [f"c{i}" for i in range(7)]  # with the dataset edge
    edges = [{"from": a, "to": b, "degree": 5,
              "kernel": {"order": 5, "ramified": True, "odd": True}}
             for a in labels for b in labels if a != b]
    path = tmp_path / "edges.json"
    path.write_text(json.dumps(edges))
    assert main(["mu-bound", "--curve", "768d3", "--p", "5", "--edges", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: more than 8 curves are reachable from 768d3")


def test_contradictory_kernel_graph_rejected():
    edges = [IsogenyEdge("a", "b", 2, KernelClass(2, True, True, "input")),
             IsogenyEdge("a", "b", 2, KernelClass(2, False, True, "input"))]
    with pytest.raises(KernelGraphError):
        mu_lower_bound("a", 2, edges)


def _full_two_torsion_curve(u1, k2, k3):
    """y^2 + xy = x^3 + a2 x^2 + a4 x + a6 with 2-torsion x = u/4 for
    u = u1, 4 k2, 4 k3 (u1 = 3 mod 4, k2 even, k2 + k3 = 0 mod 4); a1 = 1
    makes the reduction at 2 good ordinary or multiplicative."""
    us = (u1, 4 * k2, 4 * k3)
    e2 = us[0] * us[1] + us[0] * us[2] + us[1] * us[2]
    E = WeierstrassCurve(1, -(1 + sum(us)) // 4, 0, e2 // 16, -(us[0] * us[1] * us[2]) // 64)
    return E, [(Fraction(u, 4), Fraction(-u, 8)) for u in us]


def test_odd_flag_against_fraction_sort():
    rng = random.Random(55)
    checked = 0
    while checked < 200:
        mag = 10 ** rng.choice((2, 6, 40))
        u1 = 4 * rng.randint(-mag, mag) + 3
        k2 = 2 * rng.randint(-mag, mag)
        k3 = 4 * rng.randint(-mag, mag) - k2
        if len({u1, 4 * k2, 4 * k3}) < 3:
            continue
        E, pts = _full_two_torsion_curve(u1, k2, k3)
        assert E.disc > 0
        assert _rational_two_torsion_points(E) == sorted(pts)
        least = min(P[0] for P in pts)
        for P in pts:
            assert classify_two_torsion(E, P)[1] == (P[0] == least)
        checked += 1


def test_rational_two_torsion_close_and_huge():
    # three points near 7 * 10^8 with gap 2; float roots found one of them
    a = (2 ** 31 - 2) // 3
    r3 = -2 * a - 2
    E = WeierstrassCurve(0, 0, 0, a * (a + 2) + (2 * a + 2) * r3, -a * (a + 2) * r3)
    assert [P[0] for P in _rational_two_torsion_points(E)] == [r3, a, a + 2]
    # y^2 = (x - 10^160)(x^2 - 10^320 - 2): float conversion overflowed
    big = WeierstrassCurve(0, -10 ** 160, 0, -(10 ** 320 + 2), 10 ** 160 * (10 ** 320 + 2))
    assert _rational_two_torsion_points(big) == [(10 ** 160, 0)]


@pytest.mark.parametrize("p", [4, 1, -2])
def test_mu_lower_bound_refuses_a_non_prime(p, capsys):
    # each used to answer a lower bound of 0; the CLI's --p now refuses it
    # before the library sees it, naming the flag
    with pytest.raises(ValueError, match=f"^{p} is not prime$"):
        mu_lower_bound("11a", p, [])
    with pytest.raises(SystemExit) as stop:
        main(["mu-bound", "--curve", "11a", "--p", str(p)])
    assert stop.value.code == 1
    assert capsys.readouterr().err.endswith(
        f"iwasawa mu-bound: error: argument --p: must be a prime, got '{p}'\n")
