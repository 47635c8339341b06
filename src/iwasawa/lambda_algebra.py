"""Arithmetic in the truncated Iwasawa algebra Z_p[[T]] mod (p^N, T^K).

Elements carry their own precision pair.  The module invariants mu and
lambda, Weierstrass preparation, the (1+T)^(p^n) - 1 layer elements,
torsion orders of one-relation quotients (by integer Smith normal form),
the growth-law fit, the gamma -> gamma^(-1) involution, and presentation
determinants all live here.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .padics import (
    CertificateError,
    PadicNumber,
    PrecisionError,
    _ilog,
    _normalize,
    _poly_mod,
    _strip,
    centered,
    padic_pow,
    require_prime,
    valuation,
)

DEFAULT_COEFF_PREC = 30
DEFAULT_T_PREC = 40

#: the largest p^n whose p^n x p^n layer matrix quotient_order builds
MAX_LAYER_PN = 128

#: verdict value for equality questions the precision cannot settle
INDETERMINATE = "indeterminate"


class ZeroAtPrecision(ArithmeticError):
    """The element is indistinguishable from zero mod (p^N, T^K)."""


class TPrecisionError(ArithmeticError):
    """T-truncation too short for the requested operation."""


class LambdaElement:
    """Power series sum c_i T^i with c_i known modulo p^coeff_prec."""

    __slots__ = ("p", "coeff_prec", "coeffs")

    def __init__(self, p, coeffs, coeff_prec=DEFAULT_COEFF_PREC, t_prec=None):
        require_prime(p)
        if coeff_prec < 1:
            raise PrecisionError("coefficient precision below one digit")
        mod = p ** coeff_prec
        cs = [c % mod for c in coeffs]
        if t_prec is not None:
            if t_prec < 1:
                raise TPrecisionError("T-precision below one term")
            cs = cs[:t_prec] + [0] * (t_prec - len(cs))
        self.p = p
        self.coeff_prec = coeff_prec
        self.coeffs = tuple(cs)

    @property
    def t_prec(self):
        return len(self.coeffs)

    # -- basic ring structure ------------------------------------------

    def _align(self, other):
        if not isinstance(other, LambdaElement):
            raise TypeError("expected a LambdaElement")
        if other.p != self.p:
            raise ValueError("prime mismatch")
        n = min(self.coeff_prec, other.coeff_prec)
        k = min(self.t_prec, other.t_prec)
        return n, k

    def __add__(self, other):
        n, k = self._align(other)
        return LambdaElement(self.p, [a + b for a, b in zip(self.coeffs, other.coeffs)], n, k)

    def __sub__(self, other):
        n, k = self._align(other)
        return LambdaElement(self.p, [a - b for a, b in zip(self.coeffs, other.coeffs)], n, k)

    def __neg__(self):
        return LambdaElement(self.p, [-a for a in self.coeffs], self.coeff_prec, self.t_prec)

    def __mul__(self, other):
        if isinstance(other, int):
            return LambdaElement(self.p, [other * a for a in self.coeffs], self.coeff_prec, self.t_prec)
        n, k = self._align(other)
        return LambdaElement(self.p, _product(self.coeffs, other.coeffs, self.p ** n, k), n, k)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, LambdaElement):
            return NotImplemented
        n, k = self._align(other)
        mod = self.p ** n
        return all((a - b) % mod == 0 for a, b in zip(self.coeffs[:k], other.coeffs[:k]))

    def __hash__(self):
        raise TypeError("precision-carrying values are unhashable")

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def truncate(self, coeff_prec=None, t_prec=None):
        n = self.coeff_prec if coeff_prec is None else min(coeff_prec, self.coeff_prec)
        k = self.t_prec if t_prec is None else min(t_prec, self.t_prec)
        return LambdaElement(self.p, self.coeffs[:k], n, k)

    def lift_coeffs(self):
        """Symmetric integer representatives, which recover small exact inputs."""
        mod = self.p ** self.coeff_prec
        return [centered(c, mod) for c in self.coeffs]

    # -- text form -----------------------------------------------------

    def to_text(self):
        lifts = self.lift_coeffs()
        while len(lifts) > 1 and lifts[-1] == 0:
            lifts.pop()
        return (f"p={self.p} N={self.coeff_prec} K={self.t_prec} "
                f"coeffs=[{','.join(str(c) for c in lifts)}]")

    @classmethod
    def from_text(cls, text, coeff_prec=DEFAULT_COEFF_PREC, t_prec=DEFAULT_T_PREC):
        """Parse `p=3 N=30 K=40 coeffs=[3,3,1]` (N, K optional): space-separated
        key=value fields, each key at most once; spaces may stand inside the brackets."""
        fields = {}
        # a token runs to the next space outside brackets
        for tok in re.findall(r"(?:\[[^\]]*\]?|[^\s\[])+", text):
            key, eq, val = tok.partition("=")
            if not eq or key not in ("p", "N", "K", "coeffs"):
                raise ValueError(f"series text field {tok!r} is not p=, N=, K= or coeffs=")
            if key in fields:
                raise ValueError(f"series text gives {key}= twice")
            fields[key] = val
        if "p" not in fields or "coeffs" not in fields:
            raise ValueError("need p=... and coeffs=[...]")
        inner = fields["coeffs"]
        if inner[:1] != "[" or inner[-1:] != "]":
            raise ValueError("need coeffs=[...] with both brackets")
        coeffs = [_int_field("coeffs", c) for c in inner[1:-1].replace(",", " ").split()]
        f = cls(_int_field("p", fields["p"]), coeffs, _int_field("N", fields.get("N", coeff_prec)),
                _int_field("K", fields.get("K", t_prec)))
        if any(coeffs[f.t_prec:]):
            raise ValueError(f"coeffs has a nonzero term at or past T^K, K = {f.t_prec}")
        return f

    def __repr__(self):
        terms = []
        for i, c in enumerate(self.lift_coeffs()):
            if c:
                terms.append(f"{c}*T^{i}" if i else str(c))
            if len(terms) > 6:
                terms.append("...")
                break
        body = " + ".join(terms) if terms else "0"
        return f"<{body} mod ({self.p}^{self.coeff_prec}, T^{self.t_prec})>"


def _int_field(key, val):
    try:
        return int(val)
    except ValueError:
        raise ValueError(f"series text field {key} must be an integer, got {val!r}") from None


# -- mu, lambda and preparation ----------------------------------------


def mu_lambda(f: LambdaElement):
    """(mu, lambda): p-power content and first unit-coefficient index."""
    vals = [valuation(c, f.p) for c in f.coeffs]
    mu = min((v for v in vals if v is not None), default=None)
    if mu is None:
        raise ZeroAtPrecision("element vanishes mod (p^N, T^K)")
    return mu, vals.index(mu)


# The kernels below take and return coefficient lists (ascending) and
# check nothing; LambdaElement checks p once, where a series enters.


def _product(a, b, mod, k):
    """The first k coefficients of a * b, reduced mod `mod`."""
    out = [0] * k
    for i, x in enumerate(a[:k]):
        if x:
            for j, y in enumerate(b[:k - i]):
                if y:
                    out[i + j] = (out[i + j] + x * y) % mod
    return out


def _quotient(a, b, p, mod, k):
    """The first k coefficients of a / b mod `mod` = p^N for a unit series b,
    one at a time: q_m = b_0^(-1) * (a_m - sum_{i=1..m} b_i q_(m-i)); a has
    at least k coefficients, and no product is formed."""
    if not b or b[0] % p == 0:
        raise ValueError("divisor is not a unit series")
    inv0 = pow(b[0], -1, mod)
    bs = b[1:k]
    q = []
    for m in range(k):
        q.append((a[m] - sum(map(mul, bs, reversed(q)))) * inv0 % mod)
    return q


@dataclass(frozen=True)
class DistinguishedPoly:
    """Monic polynomial with nonleading coefficients divisible by p."""

    p: int
    coeffs: tuple  # ascending, exact residues mod p^coeff_prec, last == 1
    coeff_prec: int

    def __post_init__(self):
        if not self.coeffs or self.coeffs[-1] != 1:
            raise ValueError("not monic")
        for c in self.coeffs[:-1]:
            if c % self.p != 0:
                raise ValueError("nonleading coefficient not divisible by p")

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def as_element(self, t_prec):
        return LambdaElement(self.p, list(self.coeffs), self.coeff_prec, t_prec)


def _weierstrass_quotient(g, lam, p, n):
    """q with q*g = T^lam - r, deg r < lam, mod (p^n, T^len(g)), for g with
    mu(g) = 0 and lambda(g) = lam.

    With tau dropping the first lam terms, glow = g below T^lam and gbar =
    tau(g), q is the fixed point of q -> (1 - tau(glow*q)) / gbar.  The first
    sweep from q = 0 gives q mod p; glow sits in pZ_p[T], so each further
    sweep fixes one more digit, and n sweeps reach it (the reconstruction
    check in weierstrass_prepare is the backstop).
    """
    k, mod = len(g), p ** n
    glow, gbar = g[:lam], g[lam:] + [0] * lam
    q = [0] * k
    for _ in range(n):
        h = [-c for c in _product(glow, q, mod, k)[lam:]] + [0] * lam
        h[0] += 1
        q, prev = _quotient(h, gbar, p, mod, k), q
        if q == prev:
            break
    return q


def weierstrass_prepare(f: LambdaElement):
    """Factor f = p^mu * d * u with d distinguished monic and u a unit.

    Returns (mu, DistinguishedPoly, unit).  A T-truncated input only pins
    the factors to d's surviving precision N' = min(N - mu, (K-2L)//L)
    for L = lambda(f) >= 1 (T^K perturbations of f move the remainder by
    p^(K/L)); d is returned at that honest precision.  The unit's high-T
    coefficients degrade gradually; the reconstruction is checked against
    the per-index profile before returning.
    """
    mu, lam = mu_lambda(f)
    p, k = f.p, f.t_prec
    n = f.coeff_prec - mu
    if n < 1:
        raise PrecisionError("p-power content exhausts the coefficient precision")
    g = [c // p ** mu for c in f.coeffs]
    if lam == 0:
        return mu, DistinguishedPoly(p, (1,), n), LambdaElement(p, g, n, k)
    if 2 * lam >= k:
        raise TPrecisionError(f"lambda = {lam} too large for T-precision {k}")
    n_d = min(n, (k - 2 * lam) // lam)
    if n_d < 1:
        raise TPrecisionError("T-precision too low to certify one digit of the factors")
    q = _weierstrass_quotient(g, lam, p, n)
    # d = T^lam - r is q*g below T^lam, and 1 at T^lam
    dist = DistinguishedPoly(p, tuple(_product(q, g, p ** n_d, lam)) + (1,), n_d)
    unit = _quotient([1] + [0] * (k - 1), q, p, p ** n, k)
    recon = _product(dist.coeffs, unit, p ** n_d, k)
    for i in range(k):
        allow = max(1, min(n_d, (k - lam - i) // lam - 1))
        if (recon[i] - g[i]) % p ** allow:
            raise CertificateError("preparation reconstruction failed")
    return mu, dist, LambdaElement(p, unit, n, k)


def associates_check(f: LambdaElement, g: LambdaElement):
    """True if (f) = (g) as ideals; may return INDETERMINATE on precision loss."""
    if f.is_zero() or g.is_zero():
        raise ZeroAtPrecision("associates_check needs nonzero inputs")
    pair = _prepared_pair(f, g)
    return pair if pair is INDETERMINATE else pair is not None


def _prepared_pair(f: LambdaElement, g: LambdaElement):
    """Weierstrass preparations of f and g compared: INDETERMINATE when the
    precision runs out, None when mu or d differ at their joint precision
    n (so (f) != (g)), else (n, d_f, u_f, u_g)."""
    try:
        mu_f, d_f, u_f = weierstrass_prepare(f)
        mu_g, d_g, u_g = weierstrass_prepare(g)
    except (PrecisionError, TPrecisionError):
        return INDETERMINATE
    n = min(d_f.coeff_prec, d_g.coeff_prec)
    if (mu_f != mu_g or d_f.degree != d_g.degree
            or any((a - b) % f.p ** n for a, b in zip(d_f.coeffs, d_g.coeffs))):
        return None
    return n, d_f, u_f, u_g


# -- layer elements and quotient orders ---------------------------------


def theta_poly_int(n: int, p: int):
    """Exact integer coefficients of (1 + T)^(p^n) - 1, ascending."""
    if n < 0:
        raise ValueError("n must be >= 0")
    m = p ** n
    return [0] + _binomials(m, m + 1)[1:]


def _binomials(c: int, count: int):
    """[C(c, 0), ..., C(c, count - 1)], the coefficients of (1 + T)^c.

    Each C(c, i) = C(c, i - 1) * (c - i + 1) / i is an exact integer for
    every integer c, negative c included.
    """
    out = [1]
    for i in range(1, count):
        out.append(out[-1] * (c - i + 1) // i)
    return out


def quotient_order(f: LambdaElement, n: int):
    """Torsion order exponent of (Lambda/(f)) / theta_n: returns (free_rank, e_n).

    Works on the exact p^n x p^n matrix of multiplication by f on
    Z[T]/(theta_n), built column by column in O(p^(2n)).  Its Smith
    normal form over Z/p^N gives the valuations of the elementary
    divisors (e_n is their sum) and a defect, the number of dimensions
    that vanish mod p^N.  Defect 0 means det f(C) != 0, so the Z_p-free
    rank is 0; otherwise the free rank is the exact rank defect, computed
    independently by fraction-free elimination over Z, and a mismatch
    (a divisor at the precision limit) raises PrecisionError.  When the
    quotient is finite the total is cross-checked against
    v_p(Res(f, theta_n)).
    """
    if f.is_zero():
        raise ZeroAtPrecision("quotient of the zero ideal")
    p = f.p
    if n > _ilog(MAX_LAYER_PN, p):  # before p^n is formed: n may be huge
        raise ValueError(f"n = {n}: p^n = {p}^{n} exceeds the configured bound {MAX_LAYER_PN}")
    m = p ** n
    th = theta_poly_int(n, p)
    fc = f.lift_coeffs()
    mat = _mult_matrix(fc, th)
    vals, defect = smith_p_valuations(mat, p, f.coeff_prec)
    free_rank = m - _bareiss_rank(mat) if defect else 0
    if defect != free_rank:
        raise PrecisionError("elementary divisor valuation at precision limit")
    e_n = sum(vals)
    if free_rank == 0:
        if valuation(poly_resultant(fc, th), p) != e_n:
            raise CertificateError("SNF and resultant torsion orders disagree")
    return free_rank, e_n


def _mult_matrix(coeffs, modulus):
    """Matrix of multiplication by sum coeffs[i] T^i on Z[T]/(modulus).

    `modulus` is monic of degree m; entry [i][j] is the T^i coefficient
    of T^j * f mod modulus, so this is f(C) for the companion matrix C.
    """
    m = len(modulus) - 1
    col = _poly_mod(coeffs, modulus)
    cols = [col]
    for _ in range(m - 1):
        # times T: shift up, then fold the T^m coefficient back in
        c = col[-1]
        col = [0] + col[:-1]
        if c:
            col = [x - c * t for x, t in zip(col, modulus)]
        cols.append(col)
    return [list(row) for row in zip(*cols)]


def smith_p_valuations(matrix, p, prec):
    """p-valuations of the elementary divisors of a square matrix, over Z/p^prec.

    Returns (valuations, defect): pivots of minimal valuation keep all
    entries reduced, so there is no coefficient blowup; dimensions whose
    entries all vanish mod p^prec are counted in the defect.  The pivot
    is the first entry of least valuation in row-major order.  No entry
    left after a pivot of valuation v has valuation below v, so the scan
    stops at the first entry of valuation v (at the first unit, to begin
    with), and an entry is skipped unless it is nonzero mod p^(current
    least valuation).  Row elimination leaves the pivot column zero below
    the pivot, so column elimination would change only the pivot row:
    each step just drops the pivot row and column.
    """
    mod = p ** prec
    block = [[x % mod for x in row] for row in matrix]
    size = len(block)
    vals = []
    floor = 0
    while block:
        piv = None
        pv, ppv = prec, mod
        for i, row in enumerate(block):
            for j, x in enumerate(row):
                if x % ppv:
                    pv, piv = valuation(x, p), (i, j)
                    ppv = p ** pv
                    if pv == floor:
                        break
            if pv == floor:
                break
        if piv is None:
            break
        i0, j0 = piv
        block[0], block[i0] = block[i0], block[0]
        for row in block:
            row[0], row[j0] = row[j0], row[0]
        head = block[0]
        inv_u = pow(head[0] // ppv, -1, mod)
        prow = [x * inv_u % mod for x in head[1:]]
        rest = []
        for row in block[1:]:
            fct = row[0] // ppv
            rest.append([(a - fct * b) % mod for a, b in zip(row[1:], prow)] if fct else row[1:])
        block = rest
        vals.append(pv)
        floor = pv
    return sorted(vals), size - len(vals)


def _bareiss_rank(matrix):
    """Exact rank over Q by fraction-free Gaussian elimination."""
    m = [row[:] for row in matrix]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    prev = 1
    r = 0
    for col in range(cols):
        piv = next((i for i in range(r, rows) if m[i][col]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, rows):
            for j in range(col + 1, cols):
                m[i][j] = (m[r][col] * m[i][j] - m[i][col] * m[r][j]) // prev
            m[i][col] = 0
        prev = m[r][col]
        r += 1
        if r == rows:
            break
    return r


def poly_resultant(a, b):
    """Resultant of two polynomials over Q (ascending coefficient lists).

    Coefficients may be int or Fraction; the result is an exact Fraction.
    Each input is scaled to a primitive integer polynomial (its rational
    content comes back as content^(degree of the other)), and the
    integer resultant comes from the sub-resultant PRS (Cohen, *A Course
    in Computational Algebraic Number Theory*, Alg. 3.3.7), whose
    divisions are exact.  A zero input gives 0; two constants give 1.
    """
    a = _strip(a)
    b = _strip(b)
    if not a or not b:
        return Fraction(0)
    ca, a = _primitive(a)
    cb, b = _primitive(b)
    da, db = len(a) - 1, len(b) - 1
    return ca ** db * cb ** da * _int_resultant(a, b)


def _primitive(c):
    """(content, primitive integer polynomial) with c = content * primitive."""
    c = [Fraction(x) for x in c]
    den = lcm(*(x.denominator for x in c))
    ints = [x.numerator * (den // x.denominator) for x in c]
    g = gcd(*ints)
    if ints[-1] < 0:
        g = -g
    return Fraction(g, den), [x // g for x in ints]


def _int_resultant(a, b):
    """Res(a, b) for nonzero integer polynomials, by the sub-resultant PRS."""
    da, db = len(a) - 1, len(b) - 1
    if db == 0:
        return b[0] ** da
    if da == 0:
        return a[0] ** db
    s = 1
    if da < db:
        a, b, da, db = b, a, db, da
        if da % 2 and db % 2:
            s = -1
    g = h = 1
    while True:
        delta = da - db
        if da % 2 and db % 2:
            s = -s
        r = _pseudo_rem(a, b)
        if not r:
            return 0
        a, da = b, db
        div = g * h ** delta
        b = [x // div for x in r]
        db = len(b) - 1
        g = a[-1]
        if delta:
            h = g ** delta // h ** (delta - 1)
        if db == 0:
            return s * b[0] ** da // h ** (da - 1)


def _pseudo_rem(a, b):
    """lc(b)^(deg a - deg b + 1) * a mod b, over Z (b nonconstant)."""
    a = list(a)
    lb = b[-1]
    db = len(b) - 1
    for _ in range(len(a) - db):
        c = a.pop()
        off = len(a) - db
        a = [lb * x for x in a[:off]] + [lb * x - c * y for x, y in zip(a[off:], b)]
    return _strip(a)


rational_val = valuation  # importable name kept for callers


# -- growth law ---------------------------------------------------------


@dataclass(frozen=True)
class GrowthParams:
    lam: int
    mu: int
    nu: int
    n0: int
    lambda0: int
    e_values: tuple
    free_ranks: tuple


class StabilizationError(ArithmeticError):
    def __init__(self, message, e_values, free_ranks):
        super().__init__(message)
        self.e_values = e_values
        self.free_ranks = free_ranks


def growth_fit(f: LambdaElement, n_max: int) -> GrowthParams:
    """Fit e_n = lam*n + mu*p^n + nu on the layer quotients of Lambda/(f), n <= n_max.

    lam = lambda(f) - lambda0 (the stabilized free rank), mu = mu(f).  From
    _polygon_law the law is closed-form (lambda0 = 0, n0 may pass n_max - 1) and
    layer 1 is checked by its matrix; else each layer is a quotient_order, and the
    law must hold from n0 <= n_max - 1.  n_max >= N with p^n_max > MAX_LAYER_PN is refused."""
    if n_max < 2:
        raise ValueError("need n_max >= 2")
    p = f.p
    if n_max >= f.coeff_prec and n_max > _ilog(MAX_LAYER_PN, p):  # p^n_max > MAX_LAYER_PN
        raise ValueError(f"n_max = {n_max} reaches N = {f.coeff_prec} and p^n_max exceeds "
                         f"the layer-matrix bound {MAX_LAYER_PN}")
    mu, lam_f = mu_lambda(f)
    v = _polygon_law(f)
    if v is None:
        data = [quotient_order(f, n) for n in range(n_max + 1)]
    else:
        data = [(0, mu * p ** n + sum(v[:n + 1]) + lam_f * max(0, n + 1 - len(v)))
                for n in range(max(n_max, len(v) - 1) + 1)]
        if quotient_order(f, 1) != data[1]:
            raise CertificateError("Newton polygon and layer matrix disagree")
    free_ranks, e_values = (tuple(col) for col in zip(*data))
    top, lambda0 = len(data) - 1, free_ranks[-1]
    if free_ranks[-2] != lambda0:
        raise StabilizationError("free rank still moving at n_max", e_values, free_ranks)
    lam = lam_f - lambda0
    nu = e_values[-1] - lam * top - mu * p ** top
    law = [(lambda0, lam * n + mu * p ** n + nu) for n in range(top)]
    n0 = max((n + 1 for n in range(top) if (free_ranks[n], e_values[n]) != law[n]), default=0)
    if v is None and n0 > n_max - 1:
        raise StabilizationError("growth law not visible below n_max", e_values, free_ranks)
    return GrowthParams(lam, mu, nu, n0, lambda0, e_values[:n_max + 1], free_ranks[:n_max + 1])


def _polygon_law(f: LambdaElement):
    """[v_0, ..., v_(k*-1)]: e_n = mu p^n + v_0 + ... + v_n, v_k = lambda for k >= k*.

    e_n sums v_p(f(zeta - 1)) over zeta^(p^n) = 1 (Washington, *Introduction to
    Cyclotomic Fields*, 7.1 and 13.3).  On the lower hull of (i, v_p(c_i) - mu),
    i <= lambda, of f's lift, v_0 = v_p(c_0) - mu, and a segment of length l and
    drop d adds min(l, d * phi) to v_k, phi = phi(p^k), as its roots meet each
    zeta - 1 at valuation min(d/l, 1/phi); k* is the least k with d * phi > l on
    every segment (1 for a unit, which has none).  Exact at any N: if c_0 != 0
    mod p^N (else T | f: None), the convex hull from (0, v_0) to (lambda, 0) lies
    at height <= v_0 < N - mu, and a coefficient 0 mod p^N, whatever its true
    value, at height >= N - mu, above it; so each v_k with d * phi != l is exact.
    A tie d * phi = l (k < k*) takes v_k = r - mu * phi, r = v_p(Res(omega_k,
    f mod omega_k)) = phi * v_p(f(zeta - 1)), omega_k = Phi_(p^k)(1 + T); the p^N
    error moves f(zeta - 1) by valuation >= N, so r is trusted below phi * N, and
    the matrices decide past it (None).  A T^K tail adds valuation >= K/phi there;
    like the matrices, a tie takes the lift below T^K as the exact series."""
    p, c = f.p, f.lift_coeffs()
    mu, lam = mu_lambda(f)
    if c[0] == 0:
        return None
    hull = []
    for pt in ((i, valuation(c[i], p) - mu) for i in range(lam + 1) if c[i]):
        # drop a last point on or above the chord from the one before it to pt
        while len(hull) > 1 and ((hull[-1][0] - hull[-2][0]) * (pt[1] - hull[-2][1])
                                 <= (hull[-1][1] - hull[-2][1]) * (pt[0] - hull[-2][0])):
            hull.pop()
        hull.append(pt)
    segs = [(b[0] - a[0], a[1] - b[1]) for a, b in zip(hull, hull[1:])]  # (length, drop)
    v = [hull[0][1]]
    for k in range(1, lam + 2):  # phi(p^(lam + 1)) > lam, so k* <= lam + 1
        phi = p ** (k - 1) * (p - 1)
        if all(drop * phi > length for length, drop in segs):
            return v
        if all(drop * phi != length for length, drop in segs):
            v.append(sum(min(length, drop * phi) for length, drop in segs))
            continue
        omega = [sum(col) for col in zip(*(_binomials(j * p ** (k - 1), phi + 1)
                                           for j in range(p)))]
        rem = _strip(_poly_mod(c, omega))
        r = valuation(_int_resultant(omega, rem), p) if rem else None
        if r is None or r >= phi * f.coeff_prec:
            return None
        v.append(r - mu * phi)


# -- involution and functional equation ---------------------------------


def involution(f: LambdaElement) -> LambdaElement:
    """f((1+T)^(-1) - 1), the effect of inverting the group generator.

    Since (1+T)^(-1) - 1 = -T / (1+T), the image of sum c_i T^i has
    constant term c_0 and T^m coefficient
    (-1)^m sum_{i=1..m} C(m-1, i-1) c_i, read off a rolling Pascal row
    in O(K^2) integer operations.
    """
    if f.t_prec < 2:
        raise TPrecisionError("need T-precision >= 2")
    c = f.coeffs
    out, row = [c[0]], [1]  # row[i - 1] = C(m-1, i-1)
    for m in range(1, f.t_prec):
        s = sum(b * ci for b, ci in zip(row, c[1:]))
        out.append(-s if m & 1 else s)
        row = [1] + [a + b for a, b in zip(row, row[1:])] + [1]
    return LambdaElement(f.p, out, f.coeff_prec, f.t_prec)


def evaluate_Lp(f: LambdaElement, s, kappa_gamma: PadicNumber) -> PadicNumber:
    """Evaluate f at T = kappa(gamma)^(s-1) - 1 (p-adic L-value bookkeeping)."""
    p = f.p
    q_val = 2 if p == 2 else 1
    if kappa_gamma.p != p:
        raise ValueError("prime mismatch")
    disp = kappa_gamma - 1
    if disp.is_zero or disp.v != q_val:
        raise ValueError("kappa(gamma) must topologically generate the principal units")
    if not isinstance(s, PadicNumber):
        s = PadicNumber.from_rational(p, s, kappa_gamma.n)
    tval = padic_pow(kappa_gamma, s - 1) - 1
    acc = PadicNumber.zero(p, f.coeff_prec)
    for c in reversed(f.coeffs):
        acc = acc * tval + _normalize(p, 0, c, f.coeff_prec)
    if not tval.is_zero:
        acc = acc._truncate_abs(f.t_prec * tval.v)
    return acc


def fe_solve(f: LambdaElement):
    """Solve iota(f) = w * (1+T)^c * f for w in {+1,-1} and c in Z_p.

    Returns (w, c) with c a PadicNumber, None if no solution exists, or
    INDETERMINATE when the precision cannot certify either way.  This is
    the algebra form of the p-adic functional equation, where
    c = log_p<N> / log_p kappa(gamma).

    Candidates come from the prepared unit parts (reduced precision);
    the candidate exponent's symmetric lift is then certified exactly in
    the full truncated ring, with (1+T)^c from its binomial coefficients.
    """
    return _fe_solve(f)[0]


def _fe_solve(f: LambdaElement):
    """(fe_solve(f), associates_check(f, iota(f))), from one preparation pair."""
    if f.is_zero():
        raise ZeroAtPrecision("fe_solve needs nonzero input")
    g = involution(f)
    pair = _prepared_pair(f, g)
    if pair is INDETERMINATE or pair is None:
        return pair, pair or False  # INDETERMINATE, or None: (f) != (iota f)
    n_cert, d_f, u_f, u_g = pair
    p, k, mod = f.p, f.t_prec, f.p ** n_cert
    ratio = _quotient(u_g.coeffs, u_f.coeffs, p, mod, k)
    if ratio[0] not in (1, mod - 1):
        return None, True
    w = 1 if ratio[0] == 1 else -1
    x = [w * c for c in ratio]
    c_res = x[1] % mod if k > 1 else 0
    c_lift = centered(c_res, mod)
    # exact certification: iota(f) == w * (1+T)^c * f
    w_pow = LambdaElement(p, [w * b for b in _binomials(c_lift, k)], f.coeff_prec, k)
    if g == w_pow * f:
        return (w, _normalize(p, 0, c_lift, f.coeff_prec)), True
    # fallback: derivative relation (i+1) X_{i+1} = (c-i) X_i at reduced precision
    i_hon = max(2, k - d_f.degree * (n_cert + 1))
    for i in range(min(i_hon, k) - 1):
        if ((i + 1) * x[i + 1] - (c_res - i) * x[i]) % mod:
            return None, True
    return (w, _normalize(p, 0, c_res, n_cert)), True


# -- presentations -------------------------------------------------------


@dataclass(frozen=True)
class LambdaModulePresentation:
    """X = Lambda^r / (row span of a square matrix of LambdaElements)."""

    p: int
    matrix: tuple  # tuple of tuples of LambdaElement

    def __post_init__(self):
        r = len(self.matrix)
        for row in self.matrix:
            if len(row) != r:
                raise ValueError("presentation matrix must be square")
            for entry in row:
                if entry.p != self.p:
                    raise ValueError("prime mismatch in presentation")

    @property
    def rank(self):
        return len(self.matrix)


def char_ideal(pres: LambdaModulePresentation) -> LambdaElement:
    """Presentation determinant, a generator of the characteristic ideal."""
    det = _det(pres.matrix)
    if det.is_zero():
        raise ZeroAtPrecision("determinant vanishes at precision: module not torsion")
    return det


def _det(matrix):
    r = len(matrix)
    if r == 1:
        return matrix[0][0]
    first = matrix[0]
    acc = None
    for j in range(r):
        minor = tuple(tuple(row[t] for t in range(r) if t != j) for row in matrix[1:])
        term = first[j] * _det(minor)
        if j % 2:
            term = -term
        acc = term if acc is None else acc + term
    return acc


def min_generators(pres: LambdaModulePresentation) -> int:
    """dim over F_p of X/(p, T)X: the rank defect mod p of the constant terms."""
    consts = [[entry.coeffs[0] for entry in row] for row in pres.matrix]
    return smith_p_valuations(consts, pres.p, 1)[1]
