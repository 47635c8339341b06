import json
import random
import tracemalloc
from math import isqrt
from pathlib import Path
from types import SimpleNamespace

import pytest

from iwasawa import forge
from iwasawa.curves import SingularCurveError, WeierstrassCurve, count_points
from iwasawa.forge import (
    ForgeError,
    ForgeSpec,
    _combine,
    _root_counts_fitting,
    crt_assemble,
    deuring_search,
    forge_verify,
    irreducibility_witness,
    tate_local_model,
)
from iwasawa.padics import is_prime
from iwasawa.tate import _cubic_shape, tate_local

import deuring_oracle


def test_deuring_examples():
    a = deuring_search(5, 2, seed=0)
    assert count_points(WeierstrassCurve(*a), 5) == 4
    a7 = deuring_search(7, 1, seed=0)
    assert count_points(WeierstrassCurve(*a7), 7) == 7
    with pytest.raises(ValueError):
        deuring_search(5, 5)
    for composite in (1, 9, 15):
        with pytest.raises(ValueError, match="not prime"):
            deuring_search(composite, 0)


def test_deuring_answers_pinned():
    # (p, a*, seed, A, B), found when count_points was the long-model loop
    # kept as `long_model_count`: the seeded draws and the counts are the
    # same, so the answers must be too
    pins = json.loads((Path(__file__).parent / "deuring_pins.json").read_text())
    assert len(pins) == 200
    for p, a, seed, A, B in pins:
        assert deuring_search(p, a, seed) == (0, 0, 0, A, B), (p, a, seed)


def test_deuring_deterministic_and_correct():
    rng = random.Random(0)
    for _ in range(10):
        p = rng.choice([5, 7, 11, 13, 17, 23])
        amax = 1
        while amax * amax < 4 * p:
            amax += 1
        a = rng.randrange(-(amax - 1), amax)
        first = deuring_search(p, a, seed=3)
        again = deuring_search(p, a, seed=3)
        assert first == again
        assert count_points(WeierstrassCurve(*first), p) == 1 + p - a


def test_deuring_small_primes_pinned():
    # in-order search for p <= 60: these answers must never change
    assert deuring_search(5, 2, seed=0) == (0, 0, 0, 1, 0)
    assert deuring_search(23, -5, seed=3) == (0, 0, 0, 1, 4)
    assert deuring_search(53, 7, seed=1) == (0, 0, 0, 4, 11)
    assert deuring_search(59, -13, seed=2) == (0, 0, 0, 1, 16)
    assert deuring_search(59, 0, seed=9) == (0, 0, 0, 0, 1)


def test_deuring_lazy_draws_both_branches(monkeypatch):
    # p > 60: seeded draws, returned directly or as the quadratic twist
    # of a draw with the opposite trace
    counted = []

    def spy(E, p):
        counted.append(E.ainvs())
        return count_points(E, p)

    monkeypatch.setattr(forge, "count_points", spy)
    rng = random.Random(42)
    branches = set()
    for i in range(24):
        p = (61, 211, 1009, 2003)[i % 4]
        amax = 2 * int(p ** 0.5)
        a = 0 if i % 6 == 0 else rng.choice((1, -1)) * rng.randrange(1, amax)
        del counted[:]
        first = deuring_search(p, a, seed=i)
        branches.add("direct" if counted[-1] == first else "twist")
        assert deuring_search(p, a, seed=i) == first
        assert all(0 <= x < p for x in first)
        assert count_points(WeierstrassCurve(*first), p) == 1 + p - a
    assert branches == {"direct", "twist"}


def test_deuring_memory_is_linear():
    tracemalloc.start()
    try:
        deuring_search(211, 11, seed=5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20   # a p^2 candidate list would take about 3 MB


def test_two_torsion_screen_is_sound_on_every_short_curve():
    # every nonsingular y^2 = x^3 + Ax + B over F_p, 5 <= p <= 61: the root
    # count is exact, and the screen accepts the curve's own point count
    for p in (q for q in range(5, 62) if is_prime(q)):
        for A in range(p):
            for B in range(p):
                if (4 * A ** 3 + 27 * B * B) % p == 0:
                    continue
                roots = sum(1 for x in range(p) if (x * x * x + A * x + B) % p == 0)
                assert _cubic_shape(B, A, 0, p) == (1, roots), (A, B, p)
                n = count_points(WeierstrassCurve(0, 0, 0, A, B), p)
                assert roots in _root_counts_fitting(n), (A, B, p)
                assert _root_counts_fitting(2 * p + 2 - n) == _root_counts_fitting(n)


def test_deuring_screen_matches_the_unscreened_oracle(monkeypatch):
    # the screen only skips draws that cannot count right, so the first draw
    # that does is the same, and the screened search counts no more often
    counts = {"screened": 0, "oracle": 0}

    def spy(side):
        def counted(E, p):
            counts[side] += 1
            return count_points(E, p)
        return counted

    monkeypatch.setattr(forge, "count_points", spy("screened"))
    monkeypatch.setattr(deuring_oracle, "count_points", spy("oracle"))
    rng = random.Random(20)
    primes = [p for p in range(5, 1600) if is_prime(p)]
    totals = {"screened": 0, "oracle": 0}
    for _ in range(320):
        p = rng.choice(primes)
        a = rng.randrange(-isqrt(4 * p - 1), isqrt(4 * p - 1) + 1)
        seed = rng.randrange(10 ** 6)
        counts.update(screened=0, oracle=0)
        assert deuring_search(p, a, seed) == deuring_oracle.deuring_search(p, a, seed), (p, a, seed)
        assert counts["screened"] <= counts["oracle"], (p, a, seed)
        for side in totals:
            totals[side] += counts[side]
    assert totals["screened"] < totals["oracle"]


def test_deuring_cap_raises_forge_error(monkeypatch):
    # for p >= 5 every nonsingular draw reaches the 2-torsion screen once and
    # counts toward the cap, screened out or not; the 40 p + 1-th ends the
    # search.  p = 3 enumerates long models and never screens
    shapes = []
    monkeypatch.setattr(forge, "count_points", lambda E, p: 0)
    monkeypatch.setattr(forge, "_cubic_shape", lambda *a: shapes.append(a) or _cubic_shape(*a))
    for p in (3, 59, 61, 211):
        shapes.clear()
        with pytest.raises(ForgeError):
            deuring_search(p, 1)
        assert len(shapes) == (0 if p == 3 else 40 * p + 1)
        assert all((4 * A ** 3 + 27 * B * B) % p for B, A, _, _ in shapes)


def test_tate_local_model_mismatch_raises(monkeypatch):
    fake = SimpleNamespace(kind="good", tamagawa=1, ord_j=0)
    monkeypatch.setattr(forge, "tate_local", lambda E, ell: fake)
    with pytest.raises(ForgeError, match="multiplicative_split"):
        tate_local_model(11, 1, 5)


def test_combine_without_nonsingular_lift_raises(monkeypatch):
    def singular(*ainvs):
        raise SingularCurveError("singular")

    monkeypatch.setattr(forge, "WeierstrassCurve", singular)
    with pytest.raises(ForgeError, match="nonsingular lift"):
        _combine({5: ((0, 0, 0, 1, 0), 1)})


def test_irreducibility_witness_q3():
    r, ainvs = irreducibility_witness(3)
    assert (r, ainvs) == (7, (0, 0, 0, 1, 0))   # a_7 = 0, t^2+7 = t^2+1 mod 3
    assert count_points(WeierstrassCurve(*ainvs), 7) == 8


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_irreducibility_witness_certifies(q):
    r, ainvs = irreducibility_witness(q)
    E = WeierstrassCurve(*ainvs)
    assert is_prime(r) and r != q
    ar = r + 1 - count_points(E, r)
    if q == 2:
        assert ar % 2 == 1
    else:
        assert ar == 0
        # t^2 + r irreducible mod q: no root over F_q
        assert all((t * t + r) % q for t in range(q))
        # equivalently the discriminant -4r is a nonsquare
        assert pow(-4 * r % q, (q - 1) // 2, q) == q - 1


WITNESS_AVOIDS = ((), (5, 7), (5, 7, 11, 13, 17, 19, 23))
WITNESS_PINS = {
    2: [(5, (0, 0, 0, 1, 1)), (11, (0, 0, 0, 1, 4)), (29, (0, 0, 0, 1, 4))],
    3: [(7, (0, 0, 0, 1, 0)), (13, (0, 0, 0, 1, 4)), (31, (0, 0, 0, 1, 0))],
    5: [(7, (0, 0, 0, 1, 0)), (13, (0, 0, 0, 1, 4)), (37, (0, 0, 0, 1, 5))],
    7: [(11, (0, 0, 0, 0, 1)), (11, (0, 0, 0, 0, 1)), (29, (0, 0, 0, 0, 1))],
    11: [(5, (0, 0, 0, 0, 1)), (23, (0, 0, 0, 0, 1)), (31, (0, 0, 0, 1, 0))],
    13: [(5, (0, 0, 0, 0, 1)), (11, (0, 0, 0, 0, 1)), (31, (0, 0, 0, 1, 0))],
    17: [(5, (0, 0, 0, 0, 1)), (11, (0, 0, 0, 0, 1)), (29, (0, 0, 0, 0, 1))],
}


@pytest.mark.parametrize("q", sorted(WITNESS_PINS))
def test_irreducibility_witness_pins(q):
    assert [irreducibility_witness(q, set(a)) for a in WITNESS_AVOIDS] == WITNESS_PINS[q]


def test_a_rootless_cubic_has_odd_trace():
    # why the q = 2 witness needs no point count: no root means no 2-torsion point
    primes = [r for r in range(5, 301) if is_prime(r)]
    for i, r in enumerate(primes):
        got, (_, _, _, c, d) = irreducibility_witness(2, avoid=set(primes[:i]))
        assert got == r
        assert all((x ** 3 + c * x + d) % r for x in range(r)), r
        assert (r + 1 - count_points(WeierstrassCurve(0, 0, 0, c, d), r)) % 2 == 1, r


def test_tate_local_model_split():
    E = tate_local_model(11, 1, 5)
    loc = tate_local(E, 11)
    assert loc.kind == "multiplicative_split" and loc.tamagawa == 5
    assert loc.ord_j == -5


def test_tate_local_model_nonsplit():
    for ell, c in ((3, 1), (3, 2), (2, 1), (2, 2), (7, 2)):
        E = tate_local_model(ell, -1, c)
        loc = tate_local(E, ell)
        assert loc.kind == "multiplicative_nonsplit" and loc.tamagawa == c
    with pytest.raises(ValueError):
        tate_local_model(3, -1, 3)


def test_forge_verify_on_known_curves():
    E11 = WeierstrassCurve(0, -1, 1, -10, -20)
    ledger, _ = forge_verify(E11, ForgeSpec(mult=((11, 1, 5),)))
    assert all(e[3] for e in ledger)
    # rational 2-torsion means E[2] can never be certified irreducible
    E32 = WeierstrassCurve(0, 0, 0, 4, 0)
    ledger32, _ = forge_verify(E32, ForgeSpec(irreducible=(2,)))
    assert not ledger32[0][3]
    assert "not certified" in ledger32[0][2]
    # empty spec passes trivially
    empty, _ = forge_verify(E11, ForgeSpec())
    assert empty == ()


def test_spec_validation():
    with pytest.raises(ValueError):
        ForgeSpec(good=((5, 2),), mult=((5, 1, 1),))
    with pytest.raises(ValueError):
        ForgeSpec(good=((5, 5),))
    with pytest.raises(ValueError):
        ForgeSpec(mult=((3, -1, 3),))
    with pytest.raises(ValueError):
        ForgeSpec(mult=((3, 2, 1),))


@pytest.mark.parametrize("fields, name, prime", [
    ({"good": ((61, 3), (61, 5))}, "P", 61),
    ({"good": ((61, 3), (61, 3))}, "P", 61),
    ({"mult": ((3, 1, 2), (5, 1, 1), (3, -1, 1))}, "L", 3),
    ({"irreducible": (2, 5, 2)}, "Q", 2),
], ids=["P-two-traces", "P-same-trace", "L", "Q"])
def test_spec_refuses_a_prime_listed_twice(fields, name, prime):
    # each clause of a prime would be searched and checked on its own, so
    # two traces at one prime cannot both hold and the ledger fails
    with pytest.raises(ValueError, match=f"^{name} lists the prime {prime} more than once$"):
        ForgeSpec(**fields)


def test_crt_roundtrip_seeded_sweep():
    # spec-level property: 20 seeded random valid specs with primes <= 50
    rng = random.Random(1234)
    primes = [p for p in range(2, 51) if is_prime(p)]
    done = 0
    while done < 20:
        pool = rng.sample(primes, 4)
        good = []
        mult = []
        irred = []
        if rng.random() < 0.8:
            p = pool[0]
            amax = 1
            while amax * amax < 4 * p:
                amax += 1
            good.append((p, rng.randrange(-(amax - 1), amax)))
        if rng.random() < 0.9:
            a_star = rng.choice((1, -1))
            c = rng.randrange(1, 3) if a_star == -1 else rng.randrange(1, 6)
            mult.append((pool[1], a_star, c))
        if rng.random() < 0.5:
            irred.append(rng.choice((2, 3, 5, 7)))
        spec = ForgeSpec(good=tuple(good), mult=tuple(mult), irreducible=tuple(irred))
        res = crt_assemble(spec, seed=done)
        assert res.ok, (spec, res.ledger)
        done += 1


def test_from_dict_roundtrip():
    d = {"P": [[5, 2]], "L": [[3, 1, 2]], "Q": [7]}
    spec = ForgeSpec.from_dict(d)
    assert spec.to_dict() == d
