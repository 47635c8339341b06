"""`curves.torsion` (one good prime, lifted q-adically) against the
Lutz-Nagell search in `torsion_oracle`, on curves built to carry every
torsion group in Mazur's list.

    PYTHONPATH=src python tests/test_torsion.py 1200    # the long comparison, with counts
"""

import ast
import os
import random
import subprocess
import sys
import textwrap
from collections import Counter
from fractions import Fraction
from pathlib import Path

from iwasawa import curves
from iwasawa.curves import SingularCurveError, WeierstrassCurve, torsion
from iwasawa.dataset import dataset_extras, dataset_load
from iwasawa.padics import FactorizationError
from torsion_oracle import lutz_nagell_torsion, point_order

# Kubert's parametrizations of the Tate normal form
# y^2 + (1 - c) x y - b y = x^3 - b x^2, with (0, 0) of the named order


def _n10(t):
    d = t * t / (t - (t - 1) ** 2)
    c = t * (d - 1)
    return c * d, c


def _n12(t):
    m = (3 * t - 3 * t * t - 1) / (t - 1)
    f = m / (1 - t)
    d = m + t
    c = f * (d - 1)
    return c * d, c


def _n2x8(t):
    d = t * (8 * t + 2) / (8 * t * t - 1)
    c = (2 * d - 1) * (d - 1) / d
    return c * d, c


def _n2x6(t):
    c = (10 - 2 * t) / (t * t - 9)
    return c + c * c, c


KUBERT = {
    (4,): lambda t: (t, 0),
    (5,): lambda t: (t, t),
    (6,): lambda t: (t + t * t, t),
    (7,): lambda t: (t ** 3 - t * t, t * t - t),
    (8,): lambda t: ((2 * t - 1) * (t - 1), (2 * t - 1) * (t - 1) / t),
    (9,): lambda t: (t * t * (t - 1) * (t * t - t + 1), t * t * (t - 1)),
    (10,): _n10,
    (12,): _n12,
    (2, 4): lambda t: (t * t - Fraction(1, 16), 0),
    (2, 6): _n2x6,
    (2, 8): _n2x8,
}

#: one small member of each rare family, listed so every run covers them
RARE = {
    (12,): [Fraction(2, 3), Fraction(2), Fraction(3, 2)],
    (2, 8): [Fraction(-1, 3), Fraction(1, 2)],
}


def tate_normal(b, c):
    """The integral model u-scaled from the Tate normal form with (b, c)."""
    b, c = Fraction(b), Fraction(c)
    u = b.denominator * c.denominator
    a1, a2, a3 = (1 - c) * u, -b * u * u, -b * u ** 3
    return WeierstrassCurve(int(a1), int(a2), int(a3), 0, 0)


def _shifted(E, rng):
    """E under a small integral change x = x' + r, y = y' + s x' + t."""
    return E.transform(1, rng.randint(-3, 3), rng.randint(-1, 1), rng.randint(-3, 3))


def family_curves(n, seed, height=6, cap=10 ** 6):
    """n seeded curves: Kubert families at t = num/den with |num| and
    2 den at most height, the RARE members, and the shapes Z/2, Z/3 and
    Z/2 x Z/2 (and what they specialise to), each under a small random
    change of coordinates.  Family members with an a-invariant above cap
    are drawn again: the oracle's time grows with the discriminant."""
    rng = random.Random(seed)
    out = []
    shapes = list(KUBERT) + ["2", "3", "2x2", "any"]
    for shape, ts in RARE.items():
        out += [_shifted(tate_normal(*KUBERT[shape](t)), rng) for t in ts]
    while len(out) < n:
        shape = shapes[len(out) % len(shapes)]
        try:
            if shape == "any":
                E = WeierstrassCurve(*(rng.randint(-9, 9) for _ in range(5)))
            elif shape == "2":
                r = rng.randint(-9, 9)
                a2, a4 = rng.randint(-9, 9), rng.randint(-20, 20)
                # (x - r)(x^2 + (a2 + r) x + a4 + r a2 + r^2)
                E = WeierstrassCurve(0, a2, 0, a4, -r * (a4 + r * (a2 + r)))
            elif shape == "3":
                E = WeierstrassCurve(rng.randint(-5, 5), 0, rng.randint(1, 9), 0, 0)
            elif shape == "2x2":
                r1, r2, r3 = (rng.randint(-12, 12) for _ in range(3))
                E = WeierstrassCurve(0, -(r1 + r2 + r3), 0, r1 * r2 + r1 * r3 + r2 * r3,
                                     -r1 * r2 * r3)
            else:
                t = Fraction(rng.randint(-height, height), rng.randint(1, height // 2))
                E = tate_normal(*KUBERT[shape](t))
                if max(map(abs, E.ainvs())) > cap:
                    continue
            out.append(_shifted(E, rng))
        except (SingularCurveError, ZeroDivisionError):
            continue
    return out


def compare(curves_):
    """(agree, disagreements, refused by the oracle, Counter of shapes)."""
    agree, bad, refused, shapes = 0, [], 0, Counter()
    for E in curves_:
        T = torsion(E)
        shapes[T.describe()] += 1
        try:
            want = lutz_nagell_torsion(E)
        except FactorizationError:
            refused += 1
            continue
        if T == want:
            agree += 1
        else:
            bad.append((E.ainvs(), T, want))
    return agree, bad, refused, shapes


MAZUR_SHAPES = {"trivial", *(f"Z/{n}" for n in (2, 3, 4, 5, 6, 7, 8, 9, 10, 12)),
                *(f"Z/2 x Z/{n}" for n in (2, 4, 6, 8))}


def test_lift_matches_lutz_nagell_on_every_mazur_shape():
    agree, bad, refused, shapes = compare(family_curves(150, seed=6))
    assert bad == [] and refused == 0 and agree == 150
    assert set(shapes) == MAZUR_SHAPES


def test_lift_matches_lutz_nagell_on_the_dataset():
    for entry in dataset_load() + dataset_extras():
        E = entry.curve()
        assert torsion(E) == lutz_nagell_torsion(E)


def test_generators_have_the_stated_orders():
    for E in family_curves(40, seed=7):
        T = torsion(E)
        for gen, inv in zip(T.generators, T.invariants):
            assert point_order(E, gen, 12) == inv


# -- torsion never factors ------------------------------------------------


def _refuse(n):
    raise FactorizationError(f"factor({n}) called")


def _depressed(r1, r2):
    r3 = -r1 - r2
    return r1 * r2 + r1 * r3 + r2 * r3, -r1 * r2 * r3


def test_torsion_never_factors(monkeypatch):
    monkeypatch.setattr(curves, "factor", _refuse)
    for entry in dataset_load() + dataset_extras():
        assert torsion(entry.curve()).describe() == entry.annotations["torsion"]
    assert torsion(WeierstrassCurve(0, 0, 1, -7, 10 ** 12 + 39)).describe() == "trivial"
    a = (2 ** 31 - 2) // 3  # 715827882
    A, C = _depressed(a, a + 2)
    T = torsion(WeierstrassCurve(0, 0, 0, A, C))
    assert T.describe() == "Z/2 x Z/2"
    assert {P[0] for P in T.generators} <= {a, a + 2, -2 * a - 2}
    # y^2 = (x - 10^160)(x^2 - 10^320 - 2), which factor() refuses
    b = 10 ** 320 + 2
    T = torsion(WeierstrassCurve(0, -10 ** 160, 0, -b, 10 ** 160 * b))
    assert T.invariants == (2,) and T.generators == ((10 ** 160, 0),)


# -- certificates kept under python -O ------------------------------------

_UNDER_O = textwrap.dedent("""
    from iwasawa import curves, tate
    from iwasawa.curves import CertificateError, WeierstrassCurve

    assert False, "asserts must be off"

    def expect(what, call):
        try:
            call()
        except CertificateError:
            print(what)

    E11 = WeierstrassCurve(0, -1, 1, -10, -20)
    real = curves._lifted_torsion

    def one_too_many(E, bound):      # |T| = 6 against the bound 5
        pts, orders = real(E, bound)
        orders["extra"] = 5
        return pts | {"extra"}, orders

    curves._lifted_torsion = one_too_many
    expect("divides", lambda: curves.torsion(E11))

    def eight_of_order_two(E, bound):  # |T| = 8 with exponent 2
        pts = {None, *range(7)}
        return pts, {k: 2 for k in range(7)}

    curves._lifted_torsion = eight_of_order_two
    expect("shape", lambda: curves.torsion(WeierstrassCurve(1, 0, 0, -115, 392)))
    curves._lifted_torsion = real

    tate.count_points = lambda E, p: 0    # a_7 = 8, and 8^2 >= 4 * 7
    expect("hasse", lambda: curves.ap_count(E11, 7))
""")


def test_certificates_raise_under_python_O():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-O", "-c", _UNDER_O], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["divides", "shape", "hasse"]


def test_no_module_gains_a_bare_assert():
    """No `assert` statement and no AssertionError anywhere in the library."""
    src = Path(curves.__file__).resolve().parent
    for path in src.glob("*.py"):
        tree = ast.parse(path.read_text())
        found = [node.lineno for node in ast.walk(tree)
                 if isinstance(node, ast.Assert)
                 or isinstance(node, ast.Name) and node.id == "AssertionError"]
        assert not found, (path.name, found)


if __name__ == "__main__":
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 1200
    agree, bad, refused, shapes = compare(family_curves(n, seed=2026, height=10, cap=10 ** 8))
    print(f"{n} curves: {agree} agree, {len(bad)} differ, {refused} refused by the oracle")
    print(dict(sorted(shapes.items())))
    for row in bad:
        print(row)
