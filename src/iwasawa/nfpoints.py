"""Exact arithmetic in Q[x]/(g) and the elliptic group law over it.

Used to verify point identities over the small cyclotomic layers: the
cube-root layer Q(zeta_9 + zeta_9^-1) for the conductor-34/306 checks
and Q(sqrt(2 + sqrt 2)) for the conductor-195 trace-kernel point.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from math import isqrt

from .curves import WeierstrassCurve, ec_add, ec_mul, on_curve
from .padics import _poly_mod, _poly_mul, _strip, factor


class NumberField:
    """Q[x]/(g) for a monic integer polynomial g, irreducibility checked
    by rational-root (deg <= 3) plus quadratic factors solved from g (deg 4)."""

    def __init__(self, gen_poly):
        g = [int(c) for c in gen_poly]
        if not g or g[-1] != 1:
            raise ValueError("minimal polynomial must be monic (ascending coefficients)")
        self.g = tuple(g)
        self.degree = len(g) - 1
        if self.degree < 1:
            raise ValueError("degree must be >= 1")
        if self.degree <= 4 and not self._irreducible():
            raise ValueError("reducible minimal polynomial")

    def _irreducible(self):
        g = self.g
        d = self.degree
        if d == 1:
            return True
        # rational root test (monic: integer roots divide the constant term)
        c0 = g[0]
        if c0 == 0:
            return False
        divisors = [1]
        for q, e in factor(c0).items():
            divisors = [b * q ** i for b in divisors for i in range(e + 1)]
        for r in divisors:
            for x in (r, -r):
                if sum(c * x ** i for i, c in enumerate(g)) == 0:
                    return False
        if d <= 3:
            return True
        # degree 4: exclude monic integer quadratic factors (Gauss).  If g is
        # (x^2 + a x + b)(x^2 + (g3 - a) x + e) with b e = g0, then a (e - b) =
        # g1 - g3 b and b + e + a (g3 - a) = g2; b = e leaves a^2 - g3 a + g2 - 2b = 0.
        _, g1, g2, g3, _ = g
        for b in [s * d for d in divisors for s in (1, -1)]:
            e = c0 // b
            if b != e:
                a, r = divmod(g1 - g3 * b, e - b)
                if r == 0 and b + e + a * (g3 - a) == g2:
                    return False
            elif g1 == g3 * b:
                disc = g3 * g3 - 4 * (g2 - 2 * b)  # a square has g3's parity
                if disc >= 0 and isqrt(disc) ** 2 == disc:
                    return False
        return True

    def __call__(self, coeffs):
        return NumberFieldElement(self, coeffs)

    def gen(self):
        return self([0, 1] + [0] * (self.degree - 2)) if self.degree > 1 else self([0])

    def __eq__(self, other):
        return isinstance(other, NumberField) and self.g == other.g

    def __hash__(self):
        return hash(self.g)

    def __repr__(self):
        return f"NumberField({list(self.g)})"


class NumberFieldElement:
    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        self.field = field
        self.coeffs = tuple(Fraction(c) for c in _poly_mod(coeffs, field.g))

    def _coerce(self, other):
        if isinstance(other, NumberFieldElement):
            if other.field != self.field:
                raise ValueError("field mismatch")
            return other
        if isinstance(other, (int, Fraction)):
            return NumberFieldElement(self.field, [other])
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return NumberFieldElement(self.field, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return NumberFieldElement(self.field, [-a for a in self.coeffs])

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return NumberFieldElement(self.field, _poly_mul(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def inverse(self):
        """Extended Euclid in Q[x] against the minimal polynomial."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        r0 = [Fraction(c) for c in self.field.g]
        r1 = _strip(self.coeffs)
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while r1:
            q, r = _poly_divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, [x - y for x, y in zip_longest(s0, _poly_mul(q, s1), fillvalue=0)]
        if len(r0) != 1:
            raise ZeroDivisionError("element is a zero divisor (reducible modulus)")
        inv_lead = 1 / r0[0]
        return NumberFieldElement(self.field, [c * inv_lead for c in s0])

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.field.g, self.coeffs))

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def substitute(self, h):
        """Evaluate the coefficient polynomial at another element."""
        acc = NumberFieldElement(self.field, [0])
        for c in reversed(self.coeffs):
            acc = acc * h + c
        return acc

    def __repr__(self):
        return f"NF{list(self.coeffs)}"


def _poly_divmod(a, b):
    """(quotient, remainder) over Q for a, b without trailing zeros, b nonzero."""
    a = list(a)
    q = [Fraction(0)] * max(1, len(a) - len(b) + 1)
    while len(a) >= len(b):
        f = a[-1] / b[-1]
        off = len(a) - len(b)
        q[off] = f
        for i in range(len(b)):
            a[off + i] -= f * b[i]
        a = _strip(a)
    return q, a


# -- curve points over a number field ------------------------------------


def nf_ainvs(E, K):
    if isinstance(E, WeierstrassCurve):
        E = E.ainvs()
    return tuple(K([a]) for a in E)


def ec_group_law_nf(E, K, P, Q=None, n=None):
    """Chord-tangent arithmetic with NumberFieldElement coordinates."""
    a = nf_ainvs(E, K)
    if not on_curve(a, P):
        raise ValueError("P is not on the curve over this field")
    if n is not None:
        return ec_mul(a, n, P)
    if not on_curve(a, Q):
        raise ValueError("Q is not on the curve over this field")
    return ec_add(a, P, Q)


def galois_apply(K, P, h):
    """Apply the automorphism x -> h(x) coordinatewise; h must satisfy
    g(h) = 0 mod g."""
    h = h if isinstance(h, NumberFieldElement) else K(h)
    acc = K([0])
    power = K([1])
    for c in K.g:
        acc = acc + c * power
        power = power * h
    if not acc.is_zero():
        raise ValueError("h does not define an automorphism (g(h) != 0)")
    if P is None:
        return None
    return (P[0].substitute(h), P[1].substitute(h))


def trace_to_subfield(E, K, P, h):
    """P + sigma(P) for an involution sigma: x -> h(x)."""
    h = h if isinstance(h, NumberFieldElement) else K(h)
    hh = h.substitute(h)
    if hh != K.gen():
        raise ValueError("sigma is not an involution")
    return ec_group_law_nf(E, K, P, Q=galois_apply(K, P, h))


# -- embedded verification scenarios --------------------------------------


def verify_paper_points():
    """The number-field point identities from the worked examples, exactly."""
    results = []

    # cubic layer: beta a root of x^3 - 3x + 1 (= zeta_9 + 1/zeta_9)
    K3 = NumberField([1, -3, 0, 1])
    beta = K3.gen()

    E34 = WeierstrassCurve(1, 0, 0, -3, 1)
    P = (beta, -beta)
    ok = on_curve(nf_ainvs(E34, K3), P)
    results.append(("34a1 beta point on curve", ok))

    E306 = WeierstrassCurve(1, -1, 0, -927, 11097)
    Q = (-6 * beta * beta + 9 * beta + 15, 15 * beta * beta - 48 * beta + 9)
    try:
        trip = ec_group_law_nf(E306, K3, Q, n=3)
        ok = trip == (K3([9]), K3([54]))
    except ValueError:
        ok = False
    results.append(("306b3 division by 3: 3Q = (9, 54)", ok))

    # quartic layer: alpha = sqrt(2 + sqrt 2), minimal polynomial x^4 - 4x^2 + 2
    K4 = NumberField([2, 0, -4, 0, 1])
    alpha = K4.gen()
    sqrt2 = alpha * alpha - 2

    # the conductor-195 short model y^2 = (x-1)(x-2)(16x+49)
    def on_short(x, y):
        return y * y == (x - 1) * (x - 2) * (16 * x + 49)

    Pf = (K4([0]), 7 * sqrt2)
    results.append(("195a2 short-model point (0, 7 sqrt 2)", on_short(*Pf)))

    xq = 10 + 9 * sqrt2
    yq = (123 + 78 * sqrt2) * alpha
    results.append(("195a2 K-point on short model", on_short(xq, yq)))

    # trace to Q(sqrt 2): sigma sends alpha -> -alpha; on y^2 = f(x) the
    # conjugate is (x, -y), so the trace vanishes
    sig = -alpha
    a_short = _short_195_ainvs(K4)
    QK = short_195_point(K4, xq, yq)
    sQ = short_195_point(K4, xq.substitute(sig), yq.substitute(sig))
    ok = on_curve(a_short, QK) and on_curve(a_short, sQ) and ec_add(a_short, QK, sQ) is None
    results.append(("195a2 trace of the K-point vanishes", ok))

    # the F-point (0, 7 sqrt 2) traces to O under Gal(Q(sqrt 2)/Q)
    K2 = NumberField([-2, 0, 1])
    s2 = K2.gen()
    P2 = short_195_point(K2, K2([0]), 7 * s2)
    sP = short_195_point(K2, K2([0]), (7 * s2).substitute(-s2))
    trP = ec_add(_short_195_ainvs(K2), P2, sP)
    results.append(("195a2 trace of (0, 7 sqrt 2) vanishes", trP is None))
    return results


def _short_195_ainvs(K):
    """The conductor-195 short model as a monic long model over K.

    y^2 = (x-1)(x-2)(16x+49) = 16x^3 + x^2 - 115x + 98 becomes, under
    (X, W) = (16x, 16y), the model W^2 = X^3 + X^2 - 1840 X + 25088.
    """
    return (K([0]), K([1]), K([0]), K([-1840]), K([25088]))


def short_195_point(K, x, y):
    """Map a point of y^2 = (x-1)(x-2)(16x+49) to the monic model."""
    return (16 * x, 16 * y)
