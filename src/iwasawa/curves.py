"""Elliptic curves over Q: invariants, group law, counting, torsion, twists.

Everything is exact: curve coefficients are arbitrary-precision integers
and points have Fraction coordinates.  The chord-tangent group law is
written generically so the same code runs over Q and over number fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, lcm

from .padics import CertificateError, centered, factor, is_prime, valuation


class SingularCurveError(ValueError):
    pass


class WeierstrassCurve:
    """Integral long Weierstrass model [a1, a2, a3, a4, a6].

    `_memo` (None until first used) keeps what `torsion`, `tate.bad_primes`
    and `tate.tate_local` computed for this object: the torsion group, the
    bad-prime tuple and the LocalData of bad primes, never of good ones.
    """

    __slots__ = ("a1", "a2", "a3", "a4", "a6", "b2", "b4", "b6", "b8",
                 "c4", "c6", "disc", "_memo")

    def __init__(self, a1, a2, a3, a4, a6):
        for a in (a1, a2, a3, a4, a6):
            if not isinstance(a, int):
                raise TypeError("a-invariants must be integers")
        self.a1, self.a2, self.a3, self.a4, self.a6 = a1, a2, a3, a4, a6
        self.b2 = a1 * a1 + 4 * a2
        self.b4 = 2 * a4 + a1 * a3
        self.b6 = a3 * a3 + 4 * a6
        self.b8 = (self.b2 * self.b6 - self.b4 ** 2) // 4
        self.c4 = self.b2 ** 2 - 24 * self.b4
        self.c6 = -self.b2 ** 3 + 36 * self.b2 * self.b4 - 216 * self.b6
        self.disc = (-self.b2 ** 2 * self.b8 - 8 * self.b4 ** 3
                     - 27 * self.b6 ** 2 + 9 * self.b2 * self.b4 * self.b6)
        if self.disc == 0:
            raise SingularCurveError(f"singular model {self.ainvs()}")
        self._memo = None

    def _recall(self, key):
        """The value `_remember` kept under key, or None."""
        return self._memo.get(key) if self._memo else None

    def _remember(self, key, value):
        if self._memo is None:
            self._memo = {}
        self._memo[key] = value
        return value

    def ainvs(self):
        return (self.a1, self.a2, self.a3, self.a4, self.a6)

    @property
    def j(self) -> Fraction:
        return Fraction(self.c4 ** 3, self.disc)

    def ord_j(self, ell):
        """ell-adic valuation of j; None means j = 0 (infinite valuation)."""
        if self.c4 == 0:
            return None
        return 3 * valuation(self.c4, ell) - valuation(self.disc, ell)

    def transform(self, u=1, r=0, s=0, t=0):
        """Coordinate change x = u^2 x' + r, y = u^3 y' + s u^2 x' + t.

        u may be a Fraction as long as the new model is integral.
        """
        a1, a2, a3, a4, a6 = self.ainvs()
        b1 = Fraction(a1 + 2 * s, 1) / u
        b2_ = Fraction(a2 - s * a1 + 3 * r - s * s, 1) / u ** 2
        b3 = Fraction(a3 + r * a1 + 2 * t, 1) / u ** 3
        b4_ = Fraction(a4 - s * a3 + 2 * r * a2 - (t + r * s) * a1 + 3 * r * r - 2 * s * t, 1) / u ** 4
        b6_ = Fraction(a6 + r * a4 + r * r * a2 + r ** 3 - t * a3 - t * t - r * t * a1, 1) / u ** 6
        new = []
        for x in (b1, b2_, b3, b4_, b6_):
            if x.denominator != 1:
                raise ValueError("transformation does not preserve integrality")
            new.append(x.numerator)
        return WeierstrassCurve(*new)

    def __eq__(self, other):
        return isinstance(other, WeierstrassCurve) and self.ainvs() == other.ainvs()

    def __hash__(self):
        return hash(self.ainvs())

    def __repr__(self):
        return f"WeierstrassCurve{self.ainvs()}"

    def short_model(self):
        """(A, B) with y^2 = x^3 + Ax + B isomorphic to this curve over Q."""
        return -27 * self.c4, -54 * self.c6

    def from_short_point(self, P):
        if P is None:
            return None
        X, Y = P
        x = Fraction(X - 3 * self.b2, 36)
        y = (Fraction(Y, 108) - self.a1 * x - self.a3) / 2
        return (x, y)


# -- generic chord-tangent group law -------------------------------------
# ainvs entries and point coordinates may live in any field (Fractions,
# number-field elements); the identity is None.


def on_curve(ainvs, P) -> bool:
    if P is None:
        return True
    a1, a2, a3, a4, a6 = ainvs
    x, y = P
    return y * y + a1 * x * y + a3 * y == ((x + a2) * x + a4) * x + a6


def ec_neg(ainvs, P):
    if P is None:
        return None
    a1, _, a3, _, _ = ainvs
    x, y = P
    return (x, -y - a1 * x - a3)


def ec_add(ainvs, P, Q):
    a1, a2, a3, a4, a6 = ainvs
    if P is None:
        return Q
    if Q is None:
        return P
    x1, y1 = P
    x2, y2 = Q
    if x1 == x2:
        if y1 + y2 + a1 * x2 + a3 == 0:
            return None
        lam = (3 * x1 * x1 + 2 * a2 * x1 + a4 - a1 * y1) / (2 * y1 + a1 * x1 + a3)
    else:
        lam = (y2 - y1) / (x2 - x1)
    nu = y1 - lam * x1
    x3 = lam * lam + a1 * lam - a2 - x1 - x2
    y3 = -(lam + a1) * x3 - nu - a3
    return (x3, y3)


def ec_mul(ainvs, n, P):
    if n < 0:
        return ec_mul(ainvs, -n, ec_neg(ainvs, P))
    acc = None
    base = P
    while n:
        if n & 1:
            acc = ec_add(ainvs, acc, base)
        n >>= 1
        if n:
            base = ec_add(ainvs, base, base)
    return acc


def point_arith(E: WeierstrassCurve, P, Q=None, n=None):
    """Add two points or compute a scalar multiple, with on-curve checks."""
    a = tuple(Fraction(v) for v in E.ainvs())
    P = _frac_point(P)
    if not on_curve(a, P):
        raise ValueError(f"{P} is not on {E}")
    if n is not None:
        return ec_mul(a, n, P)
    Q = _frac_point(Q)
    if not on_curve(a, Q):
        raise ValueError(f"{Q} is not on {E}")
    return ec_add(a, P, Q)


def _frac_point(P):
    if P is None:
        return None
    return (Fraction(P[0]), Fraction(P[1]))


# -- point counting over F_p ---------------------------------------------

AP_COUNT_BOUND = 10 ** 5


def count_points(E: WeierstrassCurve, p: int) -> int:
    """|E~(F_p)| by enumeration, refused (ValueError) above AP_COUNT_BOUND.

    p = 2, 3: every (x, y) on the long model.  p >= 5: X = 36x + 3b2 gives
    108^2 z^2 = h(X) = X^3 + A X + B with A = -27c4, B = -54c6 mod p, and
    36, 108 are units, so the count is 1 + sum over X of w[h(X)], where
    w[t] = 1 + chi(t) counts the roots of z^2 = t.  X and -X share
    u = X^3 + A X: h(+-X) = B +- u, which lies in (-p, 2p), so w is stored
    twice over, indexed without a reduction and kept for the last p.  p = 1009
    takes about 0.14 ms and p = 89989 about 15 ms, or 0.20 and 20 ms when w
    is built (`_root_weights`; 2 vCPUs, Intel Xeon, CPython 3.11).
    """
    if p > AP_COUNT_BOUND:
        raise ValueError(f"p = {p} exceeds the naive counting bound {AP_COUNT_BOUND}")
    if p <= 3:
        a1, a2, a3, a4, a6 = E.ainvs()
        return 1 + sum(1 for x in range(p) for y in range(p)
                       if (y * y + a1 * x * y + a3 * y
                           - (x ** 3 + a2 * x * x + a4 * x + a6)) % p == 0)
    A, B = -27 * E.c4 % p, -54 * E.c6 % p
    w = _root_weights(p)
    total = 1 + w[B]
    for X in range(1, (p + 1) // 2):
        u = (X * X + A) * X % p
        total += w[B + u] + w[B - u]
    return total


@lru_cache(maxsize=1)
def _root_weights(p: int) -> bytes:
    """w[t] = 1 + chi(t) mod p, twice over; one slot, as counts come in runs at one p."""
    w = bytearray(p)
    for t in range(1, (p + 1) // 2):
        w[t * t % p] = 2
    w[0] = 1
    return bytes(w * 2)


def ap_count(E: WeierstrassCurve, p: int) -> int:
    """Trace of Frobenius a_p = p + 1 - |E~(F_p)| at a good prime."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    from .tate import tate_local  # local import: tate needs curves
    loc = tate_local(E, p)
    if loc.kind != "good":
        raise ValueError(f"bad reduction at {p}")
    return loc.a_ell  # tate._finish checked the Hasse bound


def classify_at_p(E: WeierstrassCurve, p: int):
    """(reduction, anomalous) at a good prime: supersingular iff a_p = 0 mod p,
    anomalous iff a_p = 1 mod p (equivalently p divides |E~(F_p)|)."""
    ap = ap_count(E, p)
    kind = "supersingular" if ap % p == 0 else "ordinary"
    return kind, ap % p == 1


# -- torsion --------------------------------------------------------------


@dataclass(frozen=True)
class TorsionGroup:
    invariants: tuple      # () for trivial, (n,), or (2, 2m)
    generators: tuple      # matching points (Fraction pairs)

    @property
    def order(self):
        o = 1
        for n in self.invariants:
            o *= n
        return o

    def describe(self):
        if not self.invariants:
            return "trivial"
        return " x ".join(f"Z/{n}" for n in self.invariants)


def torsion(E: WeierstrassCurve) -> TorsionGroup:
    """Exact rational torsion (`_torsion_group`), once per curve object."""
    T = E._recall("torsion")
    return E._remember("torsion", _torsion_group(E)) if T is None else T


def _torsion_group(E):
    """Exact rational torsion by lifting the points of one good prime.

    The order divides the gcd B of |E~(F_p)| over three good primes >= 5
    (torsion injects there).  Reduction mod the least prime q >= 5 with
    q not dividing B disc is injective on torsion and keeps each order
    (Silverman, AEC VII.3.1), so every torsion point reduces to a point
    of E~(F_q) whose order d divides B and is on Mazur's list; see
    `_lifted_torsion` for how each is lifted and certified.  Nothing is
    factored.
    """
    bound = 0
    p, used = 5, 0
    while used < 3:
        if is_prime(p) and E.disc % p:
            bound = gcd(bound, count_points(E, p))
            used += 1
        p += 2
    if bound == 1:
        return TorsionGroup((), ())
    pts, orders = _lifted_torsion(E, bound)
    order = len(pts)
    if order == 1:
        return TorsionGroup((), ())
    if bound % order:
        raise CertificateError(f"|T| = {order} does not divide the reduction bound {bound}")
    exponent = lcm(*orders.values())
    gen = next(P for P in pts if P is not None and orders[P] == exponent)
    if exponent == order:
        return TorsionGroup((order,), (gen,))
    if order != 2 * exponent:
        raise CertificateError(f"torsion of order {order} and exponent {exponent} "
                               "is outside the cyclic/2x2m shapes")
    a = tuple(Fraction(v) for v in E.ainvs())
    half, acc = {None}, gen
    while acc is not None:
        half.add(acc)
        acc = ec_add(a, acc, gen)
    other = next(P for P in pts if P is not None and P not in half and orders[P] == 2)
    return TorsionGroup((2, exponent), (other, gen))


def _lifted_torsion(E, bound):
    """(pts, orders): the rational torsion points of E, None included, and
    the order of each, from the points of E~(F_q) lifted q-adically.

    On Y^2 = X^3 + A X + B' every torsion point is integral, with Y = 0
    or Y^2 <= |4A^3 + 27B'^2| (Lutz-Nagell), so |X| < R, the root bound
    of X^3 + A X + (B' - Y^2).  The x-coordinate of a point of order d
    is a simple root mod q of f_d (`_division_value`) because q does not
    divide d disc; Newton's method lifts it to the one root of f_d in Z_q
    above it, modulo q^k > 2R.  The symmetric residue X is kept when
    X^3 + A X + B' = Y^2 exactly and [d]P = O over Q.  Points go into
    the set by |Y| ascending, then X from the largest, then {Y, -Y}:
    that fixes the set's iteration order, hence torsion()'s generators.
    """
    A, B = E.short_model()
    q = 5
    while not is_prime(q) or bound * E.disc % q == 0:
        q += 2
    R = _cubic_root_bound(A, abs(B) + abs(4 * A ** 3 + 27 * B * B))
    m = q
    while m <= 2 * R:
        m *= q
    a = tuple(Fraction(v) for v in E.ainvs())
    found = {}  # Y >= 0 -> {X: d}
    for xbar, d in _orders_mod_q(A % q, B % q, q, bound):
        X = centered(_hensel_root(d, xbar, A, B, q, m), m)
        rhs = (X * X + A) * X + B
        Y = isqrt(rhs) if rhs >= 0 else -1
        if Y * Y == rhs and ec_mul(a, d, E.from_short_point((X, Y))) is None:
            found.setdefault(Y, {})[X] = d
    pts, orders = {None}, {}
    for Y in sorted(found):
        for X in set(sorted(found[Y], reverse=True)):  # inserted largest first
            for y in {Y, -Y}:
                P = E.from_short_point((X, y))
                pts.add(P)
                orders[P] = found[Y][X]
    return pts, orders


#: orders of the rational torsion points of elliptic curves over Q (Mazur)
MAZUR_ORDERS = frozenset((2, 3, 4, 5, 6, 7, 8, 9, 10, 12))


def _orders_mod_q(A, B, q, bound):
    """[(x, d)]: one point per x of y^2 = x^3 + A x + B over F_q whose
    order d divides bound and is on Mazur's list."""
    root = {y * y % q: y for y in range((q + 1) // 2)}
    limit = min(bound, 12)
    out = []
    for x in range(q):
        y = root.get((x * x * x + A * x + B) % q)
        if y is None:
            continue
        acc, d = (x, y), 1
        while acc is not None and d < limit:  # acc = [d](x, y)
            acc, d = _add_mod_q(acc, (x, y), A, q), d + 1
        if acc is None and d in MAZUR_ORDERS and bound % d == 0:
            out.append((x, d))
    return out


def _add_mod_q(P, Q, A, q):
    """P + Q on y^2 = x^3 + A x + B over F_q, for affine P and Q."""
    (x1, y1), (x2, y2) = P, Q
    if x1 != x2:
        lam = (y2 - y1) * pow(x2 - x1, -1, q)
    elif (y1 + y2) % q:
        lam = (3 * x1 * x1 + A) * pow(2 * y1, -1, q)
    else:
        return None
    x3 = (lam * lam - x1 - x2) % q
    return x3, (lam * (x1 - x3) - y1) % q


def _hensel_root(d, x, A, B, q, m):
    """The root of f_d in Z_q congruent to x mod q, reduced mod m = q^k."""
    mod = q
    while mod < m:
        mod = min(mod * mod, m)
        f, df = _division_value(d, x, A, B, mod)
        x = (x - f * pow(df, -1, mod)) % mod
    return x


def _division_value(d, x, A, B, m):
    """(f_d(x), f_d'(x)) mod m on y^2 = x^3 + A x + B.

    f_d is the d-division polynomial psi_d for odd d and psi_d / 2y for
    even d, both polynomials in x; for d = 2 it is the cubic.  The
    standard recursion runs on pairs (value, derivative), with
    W^2 = (2y)^4 = 16 (x^3 + A x + B)^2 where an odd psi_n needs it.
    """
    def mul(u, v):
        return u[0] * v[0] % m, (u[0] * v[1] + u[1] * v[0]) % m

    def sub(u, v):
        return (u[0] - v[0]) % m, (u[1] - v[1]) % m

    x2 = x * x
    cubic = ((x2 + A) * x + B, 3 * x2 + A)
    if d == 2:
        return cubic[0] % m, cubic[1] % m
    w2 = mul((16 * cubic[0], 16 * cubic[1]), cubic)
    f = [(0, 0), (1, 0), (1, 0),
         ((3 * x2 + 6 * A) * x2 + 12 * B * x - A * A, 12 * (x2 + A) * x + 12 * B),
         (2 * ((((x2 + 5 * A) * x + 20 * B) * x - 5 * A * A) * x2 - 4 * A * B * x
               - 8 * B * B - A ** 3),
          2 * ((6 * x2 + 20 * A) * x2 * x + 60 * B * x2 - 10 * A * A * x - 4 * A * B))]
    for n in range(5, d + 1):
        k = n // 2
        if n % 2:
            s = mul(f[k + 2], mul(f[k], mul(f[k], f[k])))
            t = mul(f[k - 1], mul(f[k + 1], mul(f[k + 1], f[k + 1])))
            if k % 2:
                t = mul(w2, t)
            else:
                s = mul(w2, s)
            f.append(sub(s, t))
        else:
            f.append(mul(f[k], sub(mul(f[k + 2], mul(f[k - 1], f[k - 1])),
                                   mul(f[k - 2], mul(f[k + 1], f[k + 1])))))
    return f[d][0] % m, f[d][1] % m


def _integer_cubic_roots(A, C):
    """Integer roots of x^3 + A x + C: the root floors where it vanishes."""
    return {x for x in _cubic_root_floors(A, C) if (x * x + A) * x + C == 0}


def _cubic_root_floors(A, C):
    """[floor(r) for each real root r of f = x^3 + A x + C], largest first
    and a repeated root once; `_cubic_root_floors(A << 2W, C << 3W)` gives
    the roots to 2^-W.  All roots lie in (-R, R), R = `_cubic_root_bound`.
    For A < 0, f is strictly monotone on [-R, -s-1], [-s, s] and [s+1, R],
    s = isqrt(-A // 3), split at its critical points +-sqrt(-A/3).  Each
    piece with a root r gives floor(r) as its least x with sign * f(x) > 0,
    less one (its end when there is none).  D = 4A^3 + 27C^2 < 0 puts a
    root in all three; D > 0 one, on the side of -C; D = 0 adds the middle.
    """
    R = _cubic_root_bound(A, C)
    if A < 0:
        s = isqrt(-A // 3)
        right, middle, left = (s + 1, R, 1), (-s, s, -1), (-R, -s - 1, 1)
        D = 4 * A ** 3 + 27 * C * C
        if D < 0:
            pieces = (right, middle, left)
        elif D == 0:
            pieces = (right, middle) if C < 0 else (middle, left)
        else:
            pieces = (right,) if C < 0 else (left,)
    else:
        pieces = ((-R, R, 1),)
    floors = []
    for lo, hi, sign in pieces:
        hi += 1
        while lo < hi:  # least x in [lo, hi] with sign * f(x) > 0, else hi
            mid = (lo + hi) >> 1
            if sign * ((mid * mid + A) * mid + C) > 0:
                hi = mid
            else:
                lo = mid + 1
        floors.append(lo - 1)
    return floors


def _cubic_root_bound(A, C):
    """R = max(isqrt(2|A|), 2^ceil(bits(2|C|)/3)) + 1: every real root of
    x^3 + A x + C has |x| < R, since beyond that |x|^3 > |A x| + |C|."""
    return max(isqrt(2 * abs(A)), 1 << -(-(2 * abs(C)).bit_length() // 3)) + 1


# -- twists ----------------------------------------------------------------


def quadratic_twist(E: WeierstrassCurve, d: int) -> WeierstrassCurve:
    """Twist by a squarefree nonzero integer: y^2 = x^3 + A d^2 x + B d^3."""
    if d == 0:
        raise ValueError("d must be nonzero")
    if any(e > 1 for e in factor(d).values()):
        raise ValueError(f"{d} is not squarefree")
    A, B = E.short_model()
    return WeierstrassCurve(0, 0, 0, A * d * d, B * d ** 3)
