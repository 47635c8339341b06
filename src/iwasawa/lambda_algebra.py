"""Arithmetic in the truncated Iwasawa algebra Z_p[[T]] mod (p^N, T^K).

Elements carry their own precision pair.  The module invariants mu and
lambda, Weierstrass preparation, the (1+T)^(p^n) - 1 layer elements,
torsion orders of one-relation quotients (by integer Smith normal form),
the growth-law fit, the gamma -> gamma^(-1) involution, and presentation
determinants all live here.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .padics import (
    PadicNumber,
    PrecisionError,
    is_prime,
    padic_pow,
    valuation,
)

DEFAULT_COEFF_PREC = 30
DEFAULT_T_PREC = 40

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
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if coeff_prec < 1:
            raise PrecisionError("coefficient precision below one digit")
        mod = p ** coeff_prec
        cs = [c % mod for c in coeffs]
        if t_prec is not None:
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
        mod = self.p ** n
        out = [0] * k
        for i, a in enumerate(self.coeffs[:k]):
            if a == 0:
                continue
            for j in range(k - i):
                b = other.coeffs[j]
                if b:
                    out[i + j] = (out[i + j] + a * b) % mod
        return LambdaElement(self.p, out, n, k)

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

    def lift_coeffs(self, symmetric=True):
        """Integer representatives; symmetric lift recovers small exact inputs."""
        mod = self.p ** self.coeff_prec
        if not symmetric:
            return list(self.coeffs)
        return [c - mod if c > mod // 2 else c for c in self.coeffs]

    # -- text form -----------------------------------------------------

    def to_text(self):
        lifts = self.lift_coeffs()
        while len(lifts) > 1 and lifts[-1] == 0:
            lifts.pop()
        return (f"p={self.p} N={self.coeff_prec} K={self.t_prec} "
                f"coeffs=[{','.join(str(c) for c in lifts)}]")

    @classmethod
    def from_text(cls, text, coeff_prec=DEFAULT_COEFF_PREC, t_prec=DEFAULT_T_PREC):
        """Parse `p=3 N=30 K=40 coeffs=[3,3,1]` (N, K optional)."""
        fields = {}
        for tok in text.replace(",", " ,").split():
            if "=" in tok:
                key, _, val = tok.partition("=")
                fields[key.strip()] = val.strip()
        if "p" not in fields or "coeffs" not in fields:
            raise ValueError("need p=... and coeffs=[...]")
        p = int(fields["p"])
        n = int(fields.get("N", coeff_prec))
        k = int(fields.get("K", t_prec))
        inner = text[text.index("[") + 1:text.index("]")]
        coeffs = [int(c) for c in inner.replace(",", " ").split()] if inner.strip() else []
        return cls(p, coeffs, n, k)

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


def one(p, coeff_prec=DEFAULT_COEFF_PREC, t_prec=DEFAULT_T_PREC):
    return LambdaElement(p, [1], coeff_prec, t_prec)


# -- mu, lambda and preparation ----------------------------------------


def mu_lambda(f: LambdaElement):
    """(mu, lambda): p-power content and first unit-coefficient index."""
    mu = None
    for c in f.coeffs:
        v = valuation(c, f.p)
        if v is not None and (mu is None or v < mu):
            mu = v
            if mu == 0:
                break
    if mu is None:
        raise ZeroAtPrecision("element vanishes mod (p^N, T^K)")
    for i, c in enumerate(f.coeffs):
        if valuation(c, f.p) == mu:
            return mu, i
    raise AssertionError("unreachable")


def is_unit(f: LambdaElement) -> bool:
    try:
        return mu_lambda(f) == (0, 0)
    except ZeroAtPrecision:
        return False


def series_inverse(f: LambdaElement) -> LambdaElement:
    """Inverse of a unit series by Newton doubling; exact in the truncated ring."""
    if not is_unit(f):
        raise ValueError("series_inverse needs a unit")
    p, n, k = f.p, f.coeff_prec, f.t_prec
    mod = p ** n
    inv0 = pow(f.coeffs[0], -1, mod)
    x = LambdaElement(p, [inv0], n, k)
    two = LambdaElement(p, [2], n, k)
    m = 1
    while m < k:
        x = x * (two - f * x)
        m *= 2
    return x


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


def _weierstrass_divide(h: LambdaElement, g: LambdaElement, lam: int):
    """h = q*g + r with deg r < lam, for g with mu(g) = 0, lambda(g) = lam.

    The low coefficients of g sit in pZ_p, so each sweep divides the
    high-degree residual by another power of p; coeff_prec sweeps kill it.
    """
    p, n, k = g.p, min(g.coeff_prec, h.coeff_prec), min(g.t_prec, h.t_prec)
    g = g.truncate(n, k)
    h = h.truncate(n, k)
    glow = LambdaElement(p, g.coeffs[:lam], n, k)
    gbar_inv = series_inverse(LambdaElement(p, g.coeffs[lam:], n, k))
    tau_h = LambdaElement(p, h.coeffs[lam:], n, k)
    # q is the unique fixed point of q -> gbar^(-1) tau(h - glow*q); each
    # sweep multiplies the correction by another factor in pZ_p
    q = gbar_inv * tau_h
    for _ in range(n + 1):
        corr = LambdaElement(p, (glow * q).coeffs[lam:], n, k)
        q_new = gbar_inv * (tau_h - corr)
        if q_new == q:
            break
        q = q_new
    else:
        raise AssertionError("weierstrass division failed to stabilize")
    rem = h - q * g
    r = LambdaElement(p, rem.coeffs[:lam], n, k)
    return q, r


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
    g = LambdaElement(p, [c // p ** mu for c in f.coeffs], n, k)
    if lam == 0:
        return mu, DistinguishedPoly(p, (1,), n), g
    if 2 * lam >= k:
        raise TPrecisionError(f"lambda = {lam} too large for T-precision {k}")
    n_d = min(n, (k - 2 * lam) // lam)
    if n_d < 1:
        raise TPrecisionError("T-precision too low to certify one digit of the factors")
    q, r = _weierstrass_divide(_monomial(p, lam, n, k), g, lam)
    d_el = _monomial(p, lam, n_d, k) - r.truncate(coeff_prec=n_d)
    dist = DistinguishedPoly(p, tuple(d_el.coeffs[: lam + 1]), n_d)
    unit = series_inverse(q)
    recon = dist.as_element(k).truncate(coeff_prec=n) * unit
    for i in range(k):
        allow = max(1, min(n_d, (k - lam - i) // lam - 1))
        if (recon.coeffs[i] - g.coeffs[i]) % p ** allow:
            raise AssertionError("preparation reconstruction failed")
    return mu, dist, unit


def _monomial(p, i, n, k):
    c = [0] * (i + 1)
    c[i] = 1
    return LambdaElement(p, c, n, k)


def associates_check(f: LambdaElement, g: LambdaElement):
    """True if (f) = (g) as ideals; may return INDETERMINATE on precision loss."""
    if f.is_zero() or g.is_zero():
        raise ZeroAtPrecision("associates_check needs nonzero inputs")
    try:
        mu_f, d_f, _ = weierstrass_prepare(f)
        mu_g, d_g, _ = weierstrass_prepare(g)
    except (PrecisionError, TPrecisionError):
        return INDETERMINATE
    if mu_f != mu_g or d_f.degree != d_g.degree:
        return False
    n = min(d_f.coeff_prec, d_g.coeff_prec)
    mod = f.p ** n
    return all((a - b) % mod == 0 for a, b in zip(d_f.coeffs, d_g.coeffs))


def mod_p_shape(f: LambdaElement) -> int:
    """For mu(f) = 0 the reduction mod p is (unit series) * T^lambda; returns lambda."""
    mu, lam = mu_lambda(f)
    if mu > 0:
        raise ValueError(f"mu(f) = {mu} > 0: no clean shape mod p")
    p = f.p
    if any(c % p for c in f.coeffs[:lam]) or f.coeffs[lam] % p == 0:
        raise AssertionError("reduction mod p is not T^lambda * unit")
    return lam


# -- layer elements and quotient orders ---------------------------------


def theta(n: int, p: int, coeff_prec=DEFAULT_COEFF_PREC, t_prec=DEFAULT_T_PREC):
    """(1 + T)^(p^n) - 1, truncated.  theta(0) = T."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if p ** n >= t_prec:
        import warnings
        warnings.warn(f"theta_{n} has degree {p ** n} >= T-precision {t_prec}: truncated",
                      stacklevel=2)
    return LambdaElement(p, theta_poly_int(n, p)[:t_prec], coeff_prec, t_prec)


def theta_poly_int(n: int, p: int):
    """Exact integer coefficients of (1 + T)^(p^n) - 1, ascending."""
    m = p ** n
    coeffs = [0] * (m + 1)
    b = 1
    for k in range(1, m + 1):
        b = b * (m - k + 1) // k
        coeffs[k] = b
    return coeffs


def smith_normal_form(matrix):
    """Elementary divisors of an integer matrix (exact, in-place on a copy)."""
    m = [row[:] for row in matrix]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    divisors = []
    top = 0
    while top < min(rows, cols):
        # pivot: smallest nonzero entry in the remaining block
        piv = None
        for i in range(top, rows):
            for j in range(top, cols):
                if m[i][j] and (piv is None or abs(m[i][j]) < abs(m[piv[0]][piv[1]])):
                    piv = (i, j)
        if piv is None:
            break
        i0, j0 = piv
        m[top], m[i0] = m[i0], m[top]
        for row in m:
            row[top], row[j0] = row[j0], row[top]
        while True:
            reduced = False
            for i in range(top + 1, rows):
                if m[i][top]:
                    f = m[i][top] // m[top][top]
                    for j in range(top, cols):
                        m[i][j] -= f * m[top][j]
                    if m[i][top]:
                        m[top], m[i] = m[i], m[top]
                        reduced = True
            for j in range(top + 1, cols):
                if m[top][j]:
                    f = m[top][j] // m[top][top]
                    for i in range(top, rows):
                        m[i][j] -= f * m[i][top]
                    if m[top][j]:
                        for i in range(top, rows):
                            m[i][top], m[i][j] = m[i][j], m[i][top]
                        reduced = True
            if not reduced:
                break
        divisors.append(abs(m[top][top]))
        top += 1
    divisors += [0] * (min(rows, cols) - len(divisors))
    # enforce the divisibility chain (valuations are all we consume downstream,
    # but the chain keeps the output canonical)
    from math import gcd
    for i in range(len(divisors)):
        for j in range(i + 1, len(divisors)):
            a, b = divisors[i], divisors[j]
            if a and b and b % a:
                g = gcd(a, b)
                divisors[i], divisors[j] = g, a * b // g
    nz = sorted(d for d in divisors if d)
    return nz + [0] * divisors.count(0)


def max_pn_cap():
    """The p^n bound on layer matrices: `IWASAWA_MAX_PN`, default 128."""
    raw = os.environ.get("IWASAWA_MAX_PN", "128")
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError(f"IWASAWA_MAX_PN must be a positive integer, got {raw!r}")
    return cap


def quotient_order(f: LambdaElement, n: int, cap=None):
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
    m = p ** n
    cap = max_pn_cap() if cap is None else cap
    if m > cap:
        raise ValueError(f"p^n = {m} exceeds the configured bound {cap}")
    th = theta_poly_int(n, p)
    fc = f.lift_coeffs()
    mat = _mult_matrix(fc, th)
    vals, defect = smith_p_valuations(mat, p, f.coeff_prec)
    free_rank = m - _bareiss_rank(mat) if defect else 0
    if defect != free_rank:
        raise PrecisionError("elementary divisor valuation at precision limit")
    e_n = sum(vals)
    if free_rank == 0:
        if rational_val(poly_resultant(fc, th), p) != e_n:
            raise AssertionError("SNF and resultant torsion orders disagree")
    return free_rank, e_n


def _mult_matrix(coeffs, modulus):
    """Matrix of multiplication by sum coeffs[i] T^i on Z[T]/(modulus).

    `modulus` is monic of degree m; entry [i][j] is the T^i coefficient
    of T^j * f mod modulus, so this is f(C) for the companion matrix C.
    """
    m = len(modulus) - 1
    col = list(coeffs)
    # f mod modulus: clear the top coefficient with one multiple of modulus
    for top in range(len(col) - 1, m - 1, -1):
        c = col.pop()
        if c:
            for i in range(m):
                col[top - m + i] -= c * modulus[i]
    col += [0] * (m - len(col))
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


def rational_val(x: Fraction, p: int):
    if x == 0:
        return None
    return valuation(x.numerator, p) - valuation(x.denominator, p)


def _strip(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


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


def growth_fit(f: LambdaElement, n_max: int, cap=None) -> GrowthParams:
    """Fit e_n = lam*n + mu*p^n + nu on the layer quotients of Lambda/(f).

    lambda0 is the stabilized free rank; the fitted lam equals
    lambda(f) - lambda0 and mu equals mu(f), both asserted.
    """
    if n_max < 2:
        raise ValueError("need n_max >= 2")
    p = f.p
    data = [quotient_order(f, n, cap) for n in range(n_max + 1)]
    free_ranks = tuple(d[0] for d in data)
    e_values = tuple(d[1] for d in data)
    lambda0 = free_ranks[-1]
    if free_ranks[-2] != lambda0:
        raise StabilizationError("free rank still moving at n_max", e_values, free_ranks)
    mu_f, lam_f = mu_lambda(f)
    lam = lam_f - lambda0
    mu = mu_f
    nu = e_values[-1] - lam * n_max - mu * p ** n_max
    n0 = None
    for n in range(n_max, -1, -1):
        if free_ranks[n] != lambda0 or e_values[n] != lam * n + mu * p ** n + nu:
            break
        n0 = n
    if n0 is None or n0 > n_max - 1:
        raise StabilizationError("growth law not visible below n_max", e_values, free_ranks)
    return GrowthParams(lam, mu, nu, n0, lambda0, e_values, free_ranks)


# -- involution and functional equation ---------------------------------


def involution(f: LambdaElement) -> LambdaElement:
    """f((1+T)^(-1) - 1), the effect of inverting the group generator."""
    if f.t_prec < 2:
        raise TPrecisionError("need T-precision >= 2")
    p, n, k = f.p, f.coeff_prec, f.t_prec
    s = LambdaElement(p, [0] + [(-1) ** j for j in range(1, k)], n, k)
    return compose(f, s)


def compose(f: LambdaElement, s: LambdaElement) -> LambdaElement:
    """f(s(T)) for s with zero constant term."""
    if s.coeffs[0] != 0:
        raise ValueError("composition needs s(0) = 0")
    n, k = f._align(s)
    p = f.p
    acc = LambdaElement(p, [], n, k)
    for c in reversed(f.coeffs[:k]):
        acc = acc * s + LambdaElement(p, [c], n, k)
    return acc


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
    t = s - 1
    if t.is_zero:
        tval = PadicNumber.zero(p, t.abs_prec + q_val)
    else:
        tval = padic_pow(kappa_gamma, t) - 1
    acc = PadicNumber.zero(p, f.coeff_prec)
    for c in reversed(f.coeffs):
        acc = acc * tval + _coeff_padic(p, c, f.coeff_prec)
    if not tval.is_zero:
        acc = acc._truncate_abs(min(acc.abs_prec, f.t_prec * tval.v))
    return acc


def _coeff_padic(p, residue, n):
    """A residue mod p^n as a PadicNumber with absolute precision n."""
    if residue % p ** n == 0:
        return PadicNumber.zero(p, n)
    v = valuation(residue, p)
    u = (residue // p ** v) % p ** (n - v)
    return PadicNumber(p, v, u, n - v, _checked=True)


def fe_solve(f: LambdaElement):
    """Solve iota(f) = w * (1+T)^c * f for w in {+1,-1} and c in Z_p.

    Returns (w, c) with c a PadicNumber, None if no solution exists, or
    INDETERMINATE when the precision cannot certify either way.  This is
    the algebra form of the p-adic functional equation, where
    c = log_p<N> / log_p kappa(gamma).

    Candidates come from the prepared unit parts (reduced precision);
    when the candidate exponent lifts to a small integer, the identity is
    re-certified exactly in the full truncated ring.
    """
    if f.is_zero():
        raise ZeroAtPrecision("fe_solve needs nonzero input")
    g = involution(f)
    try:
        mu_f, d_f, u_f = weierstrass_prepare(f)
        mu_g, d_g, u_g = weierstrass_prepare(g)
    except (PrecisionError, TPrecisionError):
        return INDETERMINATE
    n_cert = min(d_f.coeff_prec, d_g.coeff_prec)
    if mu_f != mu_g or any((a - b) % f.p ** n_cert for a, b in zip(d_f.coeffs, d_g.coeffs)):
        return None
    p = f.p
    ratio = u_g * series_inverse(u_f)
    mod = p ** n_cert
    w0 = ratio.coeffs[0] % mod
    if w0 == 1:
        w = 1
    elif w0 == mod - 1:
        w = -1
    else:
        return None
    x = ratio if w == 1 else -ratio
    c_res = x.coeffs[1] % mod if x.t_prec > 1 else 0
    c_lift = c_res - mod if c_res > mod // 2 else c_res
    if abs(c_lift) <= 1 << 24:
        # exact certification: iota(f)*(1+T)^(-c) == w*f via integer powers
        onepT = LambdaElement(p, [1, 1], f.coeff_prec, f.t_prec)
        pw = _int_power(onepT, abs(c_lift))
        lhs, rhs = (g, pw * f) if c_lift >= 0 else (pw * g, f)
        if lhs == (rhs if w == 1 else -rhs):
            return w, _coeff_padic(p, c_lift % p ** f.coeff_prec, f.coeff_prec)
    # fallback: derivative relation (k+1) X_{k+1} = (c-k) X_k at reduced precision
    k_hon = max(2, x.t_prec - d_f.degree * (n_cert + 1))
    for k in range(min(k_hon, x.t_prec) - 1):
        if ((k + 1) * x.coeffs[k + 1] - (c_res - k) * x.coeffs[k]) % mod:
            return None
    return w, _coeff_padic(p, c_res, n_cert)


def _int_power(x: LambdaElement, k: int) -> LambdaElement:
    acc = one(x.p, x.coeff_prec, x.t_prec)
    base = x
    while k:
        if k & 1:
            acc = acc * base
        base = base * base
        k >>= 1
    return acc


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
    """dim over F_p of X/(p, T)X: rank r minus F_p-rank of the constant terms."""
    p = pres.p
    r = pres.rank
    rows = [[row[j].coeffs[0] % p for j in range(r)] for row in pres.matrix]
    rank = 0
    col = 0
    while col < r and rank < r:
        piv = next((i for i in range(rank, r) if rows[i][col] % p), None)
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        for i in range(r):
            if i != rank and rows[i][col]:
                fct = rows[i][col] * inv % p
                rows[i] = [(a - fct * b) % p for a, b in zip(rows[i], rows[rank])]
        rank += 1
        col += 1
    return r - rank
