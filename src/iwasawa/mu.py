"""mu-invariant bounds from Galois-invariant kernels that are ramified
at p and odd, with 2-isogeny propagation and Kramer's explicit families.

For p = 2 the two classifying flags of a rational 2-torsion point are
computable: "ramified at 2" means the point sits in the kernel of
reduction on the 2-minimal model (negative x-valuation there), and
"odd" means it generates the minus-part at the real place (the point
with strictly minimal x among the real 2-torsion points, automatic when
the discriminant is negative).  Odd-degree kernels are input data.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .curves import WeierstrassCurve, _integer_cubic_roots, group_law
from .padics import require_prime, valuation
from .tate import tate_local


@dataclass(frozen=True)
class KernelClass:
    order: int
    ramified_at_p: bool
    odd: bool
    provenance: str = "input"   # "computed" only for rational 2-torsion kernels

    def __post_init__(self):
        if self.order < 2:
            raise ValueError("kernel order must be a positive prime power > 1")
        if self.provenance not in ("computed", "input"):
            raise ValueError("provenance is 'computed' or 'input'")


@dataclass(frozen=True)
class IsogenyEdge:
    source: str
    target: str
    degree: int
    kernel: KernelClass

    def __post_init__(self):
        if self.degree != self.kernel.order:
            raise ValueError("cyclic isogeny degree must equal its kernel order")


@dataclass(frozen=True)
class MuVerdict:
    lower_bound: int
    zero_certified: bool
    rule: str

    def __post_init__(self):
        if self.zero_certified and self.lower_bound != 0:
            raise ValueError("a zero certificate contradicts a positive lower bound")


def classify_two_torsion(E: WeierstrassCurve, P) -> tuple:
    """(ramified_at_2, odd) for a rational point of exact order 2.

    Needs good ordinary or multiplicative reduction at 2.  Ramified:
    x(P) has negative 2-valuation on the 2-minimal model.  Odd: P is the
    unique real 2-torsion point (disc < 0), or the one with strictly
    minimal x-coordinate (disc > 0).
    """
    P = _order_two_point(E, P)
    loc2 = tate_local(E, 2)
    if loc2.kind == "additive" or (loc2.kind == "good" and loc2.supersingular):
        raise ValueError("classifier needs good-ordinary or multiplicative reduction at 2")
    xmin, _ = loc2.map_point(P)
    ramified = xmin != 0 and valuation(xmin, 2) < 0
    if E.disc < 0:
        return ramified, True  # the single real 2-torsion point spans the minus part
    # three real roots of h(X) = X^3 + A X + B on the scaled model X = 36 x + 3 b2;
    # the least one is the only root with X < 0 and h'(X) = 3 X^2 + A > 0
    A, _ = E.short_model()
    X = 36 * P[0] + 3 * E.b2
    return ramified, X < 0 and 3 * X * X + A > 0


def _order_two_point(E, P):
    """P with Fraction coordinates, refused (ValueError) unless it is a
    rational point of exact order 2 on E; the identity None is refused first."""
    if P is None:
        raise ValueError("the identity is not a point of exact order 2")
    P = (Fraction(P[0]), Fraction(P[1]))
    if group_law(tuple(Fraction(v) for v in E.ainvs()), P, n=2) is not None:
        raise ValueError(f"{P} is not a point of exact order 2")
    return P


# -- 2-isogenies --------------------------------------------------------------


@dataclass(frozen=True)
class TwoIsogeny:
    domain: WeierstrassCurve
    codomain: WeierstrassCurve
    kernel_x: Fraction       # x of the kernel point on the domain
    _shift: int              # X-translation used on the scaled model
    a: int                   # the translated scaled domain is y^2 = x (x^2 + a x + b)
    b: int

    def push(self, P):
        """Image of a rational point under the isogeny."""
        if P is None:
            return None
        x4, y8 = _quadruple_coords(self.domain, P)
        x4 -= self._shift
        if x4 == 0 and y8 == 0:
            return None
        xi = (y8 * y8) / (x4 * x4)
        yi = y8 * (x4 * x4 - self.b) / (x4 * x4)
        return (xi, yi)


def _quadruple_coords(E, P):
    """(X, Y) on Y^2 = X^3 + b2 X^2 + 8 b4 X + 16 b6 for P on E."""
    x, y = Fraction(P[0]), Fraction(P[1])
    return 4 * x, 4 * (2 * y + E.a1 * x + E.a3)


def velu_2isogeny(E: WeierstrassCurve, P):
    """Quotient by a rational 2-torsion point: returns (codomain, isogeny).

    The kernel point is moved to (0,0) on the integral model
    Y^2 = X^3 + b2 X^2 + 8 b4 X + 16 b6; the image curve of
    y^2 = x(x^2+ax+b) is y^2 = x(x^2 - 2ax + (a^2-4b)).
    """
    P = _order_two_point(E, P)
    # X0 = 4x(P) is a rational root of X^3 + b2 X^2 + 8 b4 X + 16 b6, so an integer
    X0, _ = _quadruple_coords(E, P)
    sh = int(X0)
    a = 3 * sh + E.b2
    b = 3 * sh * sh + 2 * E.b2 * sh + 8 * E.b4
    cod = WeierstrassCurve(0, -2 * a, 0, a * a - 4 * b, 0)
    return cod, TwoIsogeny(E, cod, Fraction(P[0]), sh, a, b)


# -- propagation --------------------------------------------------------------


class KernelGraphError(ValueError):
    pass


def mu_lower_bound(label: str, p: int, edges, curves: dict | None = None) -> MuVerdict:
    """Largest certified p^m with a ramified-at-p, odd invariant kernel.

    Chains the propagation rule: a ramified+odd kernel of an isogeny
    E -> E' composed with a ramified+odd invariant subgroup on E' pulls
    back to one of the product order on E.  For p = 2 each curve also
    contributes its own classified rational 2-torsion as a base case.
    The walk tries every simple path, so a graph with more curves
    reachable from `label` than an isogeny class over Q holds is refused,
    and so is a p that is not prime.
    """
    require_prime(p)
    by_pair = {}
    adj = {}
    for e in edges:
        key = (e.source, e.target)
        prev = by_pair.get(key)
        if prev is not None and (prev.kernel.ramified_at_p, prev.kernel.odd) != (
                e.kernel.ramified_at_p, e.kernel.odd) and prev.degree == e.degree:
            raise KernelGraphError(f"contradictory classifications on {key}")
        by_pair[key] = e
        adj.setdefault(e.source, []).append(e)
    reach = [label]
    for node in reach:  # breadth first: the list grows as it is read
        reach += {e.target for e in adj.get(node, [])}.difference(reach)
        if len(reach) > 8:  # at most 8 curves are isogenous over Q (Kenku, JNT 15, 1982)
            raise KernelGraphError(f"more than 8 curves are reachable from {label}: "
                                   "more than an isogeny class over Q holds")

    def base(node):
        best = 0
        if curves and node in curves and p == 2:
            E = curves[node]
            for x in _rational_two_torsion_points(E):
                try:
                    ram, odd = classify_two_torsion(E, x)
                except ValueError:
                    continue
                if ram and odd:
                    best = max(best, 1)
        return best

    seen = set()

    def walk(node):
        if node in seen:
            return 0
        seen.add(node)
        best = base(node)
        for e in adj.get(node, []):
            k = e.kernel
            if k.ramified_at_p and k.odd:
                step = _log_order(k.order, p)
                best = max(best, step + max(walk(e.target), 0))
        seen.discard(node)
        return best

    m = walk(label)
    return MuVerdict(m, False, "ramified-odd kernel lower bound")


def _log_order(order, p):
    m = valuation(order, p)
    if order != p ** m:
        raise KernelGraphError("kernel order is not a p-power")
    return m


def _rational_two_torsion_points(E):
    """Rational points of order 2, ascending in x: integer roots X of the
    scaled model's cubic, mapped back by x = (X - 3 b2) / 36."""
    return [E.from_short_point((X, 0)) for X in sorted(_integer_cubic_roots(*E.short_model()))]


def mu_zero_certificate(E: WeierstrassCurve, p: int, kernel: KernelClass) -> MuVerdict:
    """Vanishing certificate: a prime-order invariant kernel that is
    ramified XOR odd kills the mu-invariant (and forces cotorsion)."""
    if kernel.order != p:
        raise ValueError("certificate needs a kernel of prime order p")
    certified = kernel.ramified_at_p != kernel.odd
    rule = ("ramified-xor-odd vanishing certificate" if certified
            else "flags do not separate: no certificate")
    return MuVerdict(0, certified, rule)


# -- Kramer families -----------------------------------------------------------


def kramer_m1(a: int, b: int):
    """The order-2 ramified+odd family: y^2 + xy = x^3 - a x^2 - 4b x + (4a-1)b
    with kernel generator ((4a-1)/4, (1-4a)/8); constraints gcd(4a-1, b) = 1,
    (4a-1)^2 > 64 b, and a or b negative.  Returns (curve, generator)."""
    m = 4 * a - 1
    if gcd(m, b) != 1:
        raise ValueError("needs gcd(4a-1, b) = 1")
    if m * m <= 64 * b:
        raise ValueError("needs (4a-1)^2 > 64 b")
    if a >= 0 and b >= 0:
        raise ValueError("needs a or b negative")
    E = WeierstrassCurve(1, -a, 0, -4 * b, m * b)
    return E, (Fraction(m, 4), Fraction(-m, 8))


def kramer_m4(c: int, d: int) -> WeierstrassCurve:
    """The order-16 family: y^2 = (x + 2c^4 - d^4)(x^2 + 4(cd)^4 - 4c^8)
    for distinct odd positive c = d mod 4, coprime.  The model is not
    minimal; its minimal discriminant is (c^4 - d^4) c^4 d^16 / 16."""
    if c == d or c <= 0 or d <= 0 or c % 2 == 0 or d % 2 == 0:
        raise ValueError("c, d must be distinct odd positive integers")
    if (c - d) % 4:
        raise ValueError("needs c = d (mod 4)")
    if gcd(c, d) != 1:
        raise ValueError("needs gcd(c, d) = 1")
    u = 2 * c ** 4 - d ** 4
    w = 4 * (c * d) ** 4 - 4 * c ** 8
    return WeierstrassCurve(0, u, 0, w, u * w)
