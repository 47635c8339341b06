import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from iwasawa import tate
from iwasawa.curves import CertificateError, WeierstrassCurve, classify_at_p
from iwasawa.selmer import (
    EulerCharError,
    GlobalAssumptions,
    SupersingularAtP,
    corank_parity,
    criterion_infinite,
    criterion_vanishing,
    density_screen,
    euler_char,
    isogeny_euler_consistency,
    local_kernels,
    twist_lambda,
)

E = {
    "11a": WeierstrassCurve(0, -1, 1, -10, -20),
    "32a": WeierstrassCurve(0, 0, 0, 4, 0),
    "768d1": WeierstrassCurve(0, 1, 0, -7, 5),
    "768d3": WeierstrassCurve(0, 1, 0, -647, -6555),
    "67a1": WeierstrassCurve(0, 1, 1, -12, -21),
    "915a1": WeierstrassCurve(0, -1, 1, -460, -11577),
    "34a1": WeierstrassCurve(1, 0, 0, -3, 1),
    "195a2": WeierstrassCurve(1, 0, 0, -115, 392),
    "406d1": WeierstrassCurve(1, 1, 0, -2124, -60592),
    "1225e1": WeierstrassCurve(1, 1, 1, -8, 6),
    "1225e2": WeierstrassCurve(1, 1, 1, -208083, -36621194),
    "15a3": WeierstrassCurve(1, 1, 1, -5, 2),
}
TRIVIAL = GlobalAssumptions(sel_vp=0)


def test_euler_char_conductor_11():
    rep = euler_char(E["11a"], 5, TRIVIAL)
    assert rep.total == 1
    assert rep.contribution("at-p") == 2       # anomalous square
    assert rep.contribution("tamagawa 11") == 1
    assert rep.contribution("torsion") == -2


@pytest.mark.parametrize("lbl,p,total", [
    ("768d1", 5, 0), ("768d3", 5, 1), ("67a1", 3, 2), ("406d1", 5, 1),
    ("915a1", 7, 1), ("915a1", 43, 2), ("34a1", 3, 1), ("195a2", 2, 3),
    ("15a3", 2, 0),
])
def test_euler_char_values(lbl, p, total):
    assert euler_char(E[lbl], p, TRIVIAL).total == total


def test_euler_char_model_invariance():
    moved = E["11a"].transform(r=3, s=-1, t=2)
    assert euler_char(moved, 5, TRIVIAL).total == 1
    moved2 = E["195a2"].transform(r=-2, s=1, t=0)
    assert euler_char(moved2, 2, TRIVIAL).total == 3


def test_euler_char_refusals():
    with pytest.raises(SupersingularAtP):
        euler_char(E["32a"], 3, TRIVIAL)
    with pytest.raises(EulerCharError):
        euler_char(E["11a"], 5, GlobalAssumptions(sel_finite=False))
    with pytest.raises(EulerCharError):  # additive at p
        euler_char(E["768d1"], 2, TRIVIAL)
    with pytest.raises(EulerCharError, match="positive declared rank"):
        euler_char(E["11a"], 5, GlobalAssumptions(rank=1))


@pytest.mark.parametrize("field", ["sel_vp", "rank"])
def test_global_assumptions_refuse_a_negative_count(field):
    # a rank of -1 once passed euler_char and was reported as a positive rank
    with pytest.raises(ValueError, match=f"^{field} must be non-negative, got -1$"):
        GlobalAssumptions(**{field: -1})
    assert getattr(GlobalAssumptions(**{field: 0}), field) == 0


def test_euler_char_split_multiplicative_at_p():
    # 11a at p = 11 is split multiplicative: the at-p factor comes from
    # the Tate period logarithm, and c_11 = 5 contributes v_11(5) = 0
    rep = euler_char(E["11a"], 11, TRIVIAL)
    assert rep.contribution("tamagawa 11") == 0
    assert any(pl == "tamagawa 11" for pl, _, _ in rep.entries)
    assert any("split multiplicative" in note for _, _, note in rep.entries)


def test_1225_parity_contradiction():
    res = isogeny_euler_consistency(E["1225e1"], E["1225e2"], 37, TRIVIAL, mu_shift=1)
    assert res.contradiction
    assert res.totals[0] % 2 == 0 and res.totals[1] % 2 == 0


def test_local_kernels():
    k34 = local_kernels(E["34a1"], 3)
    assert k34[2] == 3 and k34[17] == 1
    assert k34[3] == 9  # |E~(F_3)_3|^2 at the anomalous prime
    k11 = local_kernels(E["11a"], 5)
    assert k11[5] == 25 and k11[11] == 5  # the 5-part of c_11 = 5
    # nonsplit multiplicative at p odd has trivial kernel
    k915 = local_kernels(E["915a1"], 3)
    assert k915[3] == 1
    # 34a1 is split at 2 with c_2 = 6, and 306b3 nonsplit at 2 with c_2 = 2:
    # p's kernel is its at-p entry plus v_p(c_p), and p comes last
    assert list(local_kernels(E["34a1"], 2).items()) == [(17, 1), (2, 8)]
    assert list(local_kernels(WeierstrassCurve(1, -1, 0, -927, 11097), 2).items()) == [
        (3, 2), (17, 1), (2, 4)]


def test_local_kernels_refuse_as_the_ledger_does():
    with pytest.raises(SupersingularAtP, match="^supersingular at 2: positive corank regime$"):
        local_kernels(E["11a"], 2)
    with pytest.raises(EulerCharError, match="^additive reduction at 2: outside the formula's scope$"):
        local_kernels(E["32a"], 2)


def test_criterion_vanishing():
    assert criterion_vanishing(E["11a"], 7, TRIVIAL).holds
    rep5 = criterion_vanishing(E["11a"], 5, TRIVIAL)
    assert not rep5.holds
    assert not rep5.conditions[0][1]  # anomalous clause fails
    rep768 = criterion_vanishing(E["768d3"], 5, TRIVIAL)
    assert not rep768.holds
    assert any("c_3" in name and not ok for name, ok, _ in rep768.conditions)


def test_criterion_infinite():
    r = criterion_infinite(E["915a1"], 7, TRIVIAL)
    assert r.holds and "(iii)" in r.conclusion and "c_5" in r.conclusion
    r67 = criterion_infinite(E["67a1"], 3, TRIVIAL)
    assert r67.holds and "(ii)" in r67.conclusion
    assert not criterion_infinite(E["11a"], 7, TRIVIAL).holds
    with pytest.raises(EulerCharError):  # 5-torsion present
        criterion_infinite(E["11a"], 5, TRIVIAL)


def test_vanishing_excludes_infinitude():
    # mutual exclusion on the shared clauses, with trivial Selmer input
    for lbl, p in (("11a", 7), ("11a", 13), ("34a1", 5), ("915a1", 11)):
        try:
            v = criterion_vanishing(E[lbl], p, TRIVIAL)
            i = criterion_infinite(E[lbl], p, TRIVIAL)
        except EulerCharError:
            continue
        if v.holds:
            assert not i.holds


def test_corank_parity():
    r = corank_parity(E["67a1"], 3, lambda_E=2, sel_corank=0)
    assert r.consistent and r.corank_lower_bound == 0 and r.injectivity
    r32 = corank_parity(E["32a"], 3)
    assert r32.corank_lower_bound == 1 and not r32.injectivity
    assert corank_parity(E["67a1"], 3, lambda_E=1, sel_corank=0).consistent is False


def test_density_screen():
    assert density_screen(E["32a"], 13).excluded
    assert not classify_at_p(E["32a"], 13)[1]
    r = density_screen(E["11a"], 7, declared_torsion_order=5)
    assert r.excluded
    assert not density_screen(E["67a1"], 3).excluded


_BREAK_SCREEN_UNDER_O = textwrap.dedent("""
    from iwasawa import tate
    from iwasawa.curves import CertificateError, WeierstrassCurve
    from iwasawa.selmer import density_screen

    assert False, "asserts must be off"
    tate.count_points = lambda E, p: 13    # a_13 = 1: anomalous despite 2-torsion
    try:
        print("answered:", density_screen(WeierstrassCurve(0, 0, 0, 4, 0), 13))
    except CertificateError as e:
        print("refused:", e)
""")


def test_density_screen_cross_check_holds_under_python_O(monkeypatch):
    monkeypatch.setattr(tate, "count_points", lambda E, p: 13)
    with pytest.raises(CertificateError, match="the point count is anomalous"):
        density_screen(E["32a"], 13)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run([sys.executable, "-O", "-c", _BREAK_SCREEN_UNDER_O], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "refused: screen excludes anomalous reduction at 13, but the point count is anomalous"]


def test_twist_lambda_values():
    assert twist_lambda(0, -2) == 1
    assert twist_lambda(1, -1) == 2
    assert twist_lambda(10, -3624233) == 21


def test_twist_lambda_parity_matches_epsilon():
    for lam, d in ((0, -2), (1, -1), (10, -3624233), (3, -7), (2, -11)):
        out = twist_lambda(lam, d)
        assert out % 2 == (out - 2 * lam)  # epsilon in {0, 1}


def test_twist_lambda_domain():
    with pytest.raises(ValueError):
        twist_lambda(0, 3)
    with pytest.raises(ValueError):
        twist_lambda(0, -10)
