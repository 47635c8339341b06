import time
from fractions import Fraction

from iwasawa.curves import WeierstrassCurve
from iwasawa.periods import PERIOD_BITS, real_period

E34 = WeierstrassCurve(1, 0, 0, -3, 1)
E11 = WeierstrassCurve(0, -1, 1, -10, -20)
E1225A = WeierstrassCurve(1, 1, 1, -8, 6)
E1225B = WeierstrassCurve(1, 1, 1, -208083, -36621194)
E49 = WeierstrassCurve(49, -17, -33, -27, 29)

# frozen oracles: adaptive quadrature of dx/sqrt(4x^3 + b2 x^2 + 2 b4 x + b6)
# from the largest real root, computed once at 50 digits and agreeing
# with a 50-digit AGM on independently found roots
REFERENCES = (
    (E11, Fraction("1.269209304279553421688794616754547305219")),
    (E34, Fraction("4.495663326313703553206746851766571063737")),
    (E49, Fraction("0.925738891389546214493575919287760901258")),
)


def test_period_34a1():
    assert abs(real_period(E34) - Fraction("4.4956")) < Fraction(5, 10 ** 4)


def test_period_1225_pair_and_ratio():
    o1 = real_period(E1225A)
    o2 = real_period(E1225B)
    assert abs(o1 - Fraction("4.1353")) < Fraction(5, 10 ** 4)
    assert abs(o2 - Fraction("0.11176")) < Fraction(5, 10 ** 5)
    assert abs(o1 / o2 - 37) < Fraction(1, 10 ** 30)


def test_period_conductor_11_against_quadrature():
    # the complex-pair branch on both signs of the real root (11a: e1 > 0,
    # E49: e1 < 0, where the float path lost 7e-10 to cancellation),
    # and the two-component branch (34a1)
    for E, want in REFERENCES:
        got = real_period(E)
        assert isinstance(got, Fraction)
        assert abs(got - want) < want / 2 ** PERIOD_BITS + Fraction(1, 10 ** 39)


def test_period_model_invariance():
    for E in (E34, E11, E1225A, E49):
        assert real_period(E) == real_period(E.transform(r=1))
        assert real_period(E) == real_period(E.transform(r=-3, s=2, t=1))


def test_two_component_doubling():
    # disc > 0 means two real components; the total is twice one loop
    assert E34.disc > 0
    assert E1225A.disc < 0


def test_periods_of_curves_the_float_path_refused():
    # three real roots a, a + 2, -2a - 2 (the float AGM did not converge),
    # and y^2 = (x - 10^160)(x^2 - 10^320 - 2), two roots 10^-160 apart
    # (a float overflow); both are twice pi / AGM(sqrt(e1 - e3), sqrt(e1 - e2))
    a = (2 ** 31 - 2) // 3
    b = 10 ** 320 + 2
    for E, lead in ((WeierstrassCurve(0, 0, 0, -3 * a * a - 6 * a - 4, 2 * a * (a + 1) * (a + 2)),
                     Fraction("0.0010171135519662227923")),
                    (WeierstrassCurve(0, -10 ** 160, 0, -b, 10 ** 160 * b),
                     Fraction("1.0469323521670367165e-77"))):
        start = time.perf_counter()
        got = real_period(E)
        assert time.perf_counter() - start < 2.0
        assert abs(got - lead) < lead * Fraction(1, 10 ** 19)
