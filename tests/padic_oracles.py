"""Earlier forms of the PadicNumber operators, `iwasawa_log`, `tate_period`,
`involution`, series division, (1+T)^c, `min_generators`, the p-adic
exponential and Weierstrass preparation, kept as the oracles the library
versions are tested against.

    PYTHONPATH=src python tests/padic_oracles.py --count 20000 --seed 1
    PYTHONPATH=src python tests/padic_oracles.py --preparation --count 2500 --seed 1

`ParentPadic` is a PadicNumber whose +, *, negation, powers, truncation,
==, inverse, zero, from_rational and coercion are the earlier ones: a zero
case per operator, truncation through `with_precision` and powers by
squaring, each result built with type(self), so through the checking
constructor and never through `padics._normalize`.
`iwasawa_log` sums the log series on it with guard digits, and
`coeff_padic` reads a residue mod p^n by hand.  `run` compares them with
the library on seeded operand pairs, in (v, u, n) or in the exception's
type and message; pytest does not collect this file, tests/test_padics.py
imports it, and as a script it prints each breach and exits 1 if there is
any.  `tate_period` iterates q <- 1 / (j - sum c_n q^n) on ParentPadic
objects and re-substitutes through the same q-expansion; `involution`
composes f with (1+T)^(-1) - 1 by Horner's rule, one truncated product per
coefficient; `series_inverse` doubles by Newton's step x <- x(2 - fx) and
`int_power` powers by squaring, both on truncated products;
`min_generators` eliminates over F_p by hand; `padic_exp` sums the
exponential series on ParentPadic, so exp(t log x) checks `padic_pow`.
`weierstrass_prepare` divides T^lambda by f / p^mu on LambdaElement
objects (`weierstrass_divide`, `divide`, and products by the earlier
`__mul__` loop), and `fe_solve` and `associates_check` run on it;
`run_preparation` compares the three with the library on seeded series,
answers and refusals alike.  All are slow but share no shortcut with `src/`.
"""

import argparse
import random
import sys
from fractions import Fraction

from iwasawa import lambda_algebra as la
from iwasawa import padics
from iwasawa.lambda_algebra import (
    INDETERMINATE,
    DistinguishedPoly,
    LambdaElement,
    TPrecisionError,
    ZeroAtPrecision,
)
from iwasawa.padics import (
    CertificateError,
    PadicNumber,
    PrecisionError,
    PrimeMismatchError,
    _ilog,
)
from iwasawa.tate import _J_CAP, _extend_j_coeffs, j_expansion_coeff


class ParentPadic(PadicNumber):
    """PadicNumber with the earlier operators, closed under them."""

    __slots__ = ()
    __hash__ = PadicNumber.__hash__

    @classmethod
    def zero(cls, p, abs_prec):
        return cls(p, abs_prec, 0, 0)

    @classmethod
    def from_rational(cls, p, x, digits=padics.DEFAULT_DIGITS):
        x = Fraction(x)
        if x == 0:
            return cls.zero(p, digits)
        vn = padics.valuation(x.numerator, p)
        vd = padics.valuation(x.denominator, p)
        num = x.numerator // p ** vn
        den = x.denominator // p ** vd
        mod = p ** digits
        return cls(p, vn - vd, num * pow(den, -1, mod) % mod, digits)

    def _coerce(self, other):
        if isinstance(other, PadicNumber):
            if other.p != self.p:
                raise PrimeMismatchError(f"primes differ: {self.p} vs {other.p}")
            return other
        if isinstance(other, (int, Fraction)):
            return self.from_rational(self.p, other, max(self.n, 1) + max(self.v, 0) + 2)
        return NotImplemented

    def inverse(self):
        if self.is_zero:
            raise ZeroDivisionError("inverse of (indistinguishable-from-)zero")
        return type(self)(self.p, -self.v, pow(self.u, -1, self.p ** self.n), self.n)

    def with_precision(self, n):
        """Truncate (never extend) to n significant digits."""
        if self.is_zero:
            return self
        if n >= self.n:
            return self
        if n < 1:
            raise PrecisionError("fewer than one significant digit")
        return type(self)(self.p, self.v, self.u % self.p ** n, n)

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        p = self.p
        if self.is_zero and other.is_zero:
            return type(self).zero(p, min(self.abs_prec, other.abs_prec))
        if self.is_zero:
            return other._truncate_abs(self.abs_prec)
        if other.is_zero:
            return self._truncate_abs(other.abs_prec)
        a = min(self.abs_prec, other.abs_prec)
        v0 = min(self.v, other.v)
        if a <= v0:
            return type(self).zero(p, a)
        mod = p ** (a - v0)
        s = (p ** (self.v - v0) * self.u + p ** (other.v - v0) * other.u) % mod
        if s == 0:
            return type(self).zero(p, a)
        w = padics.valuation(s, p)
        return type(self)(p, v0 + w, (s // p ** w) % p ** (a - v0 - w), a - v0 - w)

    __radd__ = __add__

    def __neg__(self):
        if self.is_zero:
            return self
        return type(self)(self.p, self.v, (-self.u) % self.p ** self.n, self.n)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        p = self.p
        if self.is_zero or other.is_zero:
            # p^v * O(p^a) = O(p^(v+a))
            if self.is_zero and other.is_zero:
                a = min(self.abs_prec + other.v, other.abs_prec + self.v)
            elif self.is_zero:
                a = self.abs_prec + other.v
            else:
                a = other.abs_prec + self.v
            return type(self).zero(p, a)
        n = min(self.n, other.n)
        return type(self)(p, self.v + other.v, self.u * other.u % p ** n, n)

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        result = type(self)(self.p, 0, 1, self.n if not self.is_zero else 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def _truncate_abs(self, a):
        """Truncate to absolute precision O(p^a)."""
        if a >= self.abs_prec:
            return self
        if self.is_zero or a <= self.v:
            return type(self).zero(self.p, a)
        return self.with_precision(a - self.v)

    def __eq__(self, other):
        """Equality at the joint precision."""
        if isinstance(other, (int, Fraction)):
            other = type(self).from_rational(self.p, other, self.n + max(self.v, 0) + 1)
        if not isinstance(other, PadicNumber):
            return NotImplemented
        return (self - other).is_zero


def iwasawa_log(x):
    """log_p with log_p(p) = 0: the series log(1 + t) on the principal part,
    the unit part over its Teichmuller (odd p) or sign (p = 2) part."""
    if x.is_zero:
        raise ValueError("log of (indistinguishable-from-)zero")
    p, n = x.p, x.n
    if p == 2 and n < 2:
        raise PrecisionError("p = 2 needs at least 2 digits to see the sign")
    torsion = (1 if x.u % 4 == 1 else -1) if p == 2 else pow(x.u, p ** (n - 1), p ** n)
    return _log_one_plus(ParentPadic(p, 0, x.u, n) / ParentPadic(p, 0, torsion, n) - 1)


def _log_one_plus(t):
    p, cls = t.p, type(t)
    if t.is_zero:
        return cls.zero(p, t.abs_prec)
    if t.v < 1 or (p == 2 and t.v < 2):
        raise ValueError("log series needs a principal unit argument")
    target = t.abs_prec
    # guard digits absorb the /k losses; v(t^k/k) >= k*v(t) - log_p(k)
    guard = 2
    while p ** guard < target + guard:
        guard += 1
    # the unit part is an exact residue, so more digits only re-label it;
    # the result is truncated back to the honest target
    work = cls(p, t.v, t.u, target + guard - t.v)
    acc = cls.zero(p, target + guard)
    power = work
    k = 1
    while k * t.v - _ilog(k, p) < target:
        term = power / cls.from_rational(p, k, work.n)
        acc = acc + (term if k % 2 else -term)
        power = power * work
        k += 1
    result = acc._truncate_abs(target)
    if not result.is_zero and result.n < 1:
        raise PrecisionError("log lost all significant digits")
    return result


def coeff_padic(p, residue, n):
    """A residue mod p^n as a ParentPadic with absolute precision n."""
    if residue % p ** n == 0:
        return ParentPadic.zero(p, n)
    v = padics.valuation(residue, p)
    u = (residue // p ** v) % p ** (n - v)
    return ParentPadic(p, v, u, n - v)


#: p = 2 is drawn twice as often: its sign digit and q = 4 make it the edge case
PRIMES = (2, 2, 3, 5, 7, 11)

#: name -> f(x, y, k, a): y a p-adic number or a rational, k an exponent, a a precision
OPERATIONS = {
    "x + y": lambda x, y, k, a: x + y,
    "y + x": lambda x, y, k, a: y + x,
    "x - y": lambda x, y, k, a: x - y,
    "y - x": lambda x, y, k, a: y - x,
    "x * y": lambda x, y, k, a: x * y,
    "y * x": lambda x, y, k, a: y * x,
    "x / y": lambda x, y, k, a: x / y,
    "y / x": lambda x, y, k, a: y / x,
    "x ** k": lambda x, y, k, a: x ** k,
    "-x": lambda x, y, k, a: -x,
    "x._truncate_abs(a)": lambda x, y, k, a: x._truncate_abs(a),
    "x == y": lambda x, y, k, a: x == y,
    "y == x": lambda x, y, k, a: y == x,
}


def _outcome(op, *args):
    """(p, v, u, n) of a p-adic result, a plain value, or the exception's type and message."""
    try:
        r = op(*args)
    except (ArithmeticError, ValueError) as exc:
        return type(exc).__name__, str(exc)
    return (r.p, r.v, r.u, r.n) if isinstance(r, PadicNumber) else r


def _draw(rng, p):
    """(v, u, n) of a PadicNumber: a zero for about 15% of draws, else
    v in [-5, 6] and n in [1, 25]."""
    if rng.random() < 0.15:
        return rng.randint(-5, 30), 0, 0
    n = rng.randint(1, 25)
    u = rng.randrange(1, p ** n)
    return rng.randint(-5, 6), u + (u % p == 0), n


def _near(rng, p, x):
    """(v, u, n) agreeing with a nonzero x = (v, u, n) to a random digit count,
    so that x - y cancels and x == y can hold."""
    v, u, n = x
    m = rng.randint(1, 25)
    return v, (u + p ** rng.randint(1, n + 2) * rng.randrange(p ** m)) % p ** m, m


def _draw_rational(rng, p):
    """An int or Fraction, zero or with p in its numerator or denominator now and then."""
    num = rng.choice((0, 1, -1, p, -p ** 3, rng.randint(-10 ** 6, 10 ** 6)))
    den = rng.choice((1, 1, p, p ** 2, rng.randint(1, 10 ** 4)))
    return num if den == 1 else Fraction(num, den)


def compare(p, x, y, k, a):
    """The names of the operations on which the library and ParentPadic
    differ, for x = (v, u, n) and y = (v, u, n) or a rational."""
    new, old = PadicNumber(p, *x), ParentPadic(p, *x)
    new_y, old_y = (y, y) if not isinstance(y, tuple) else \
        (PadicNumber(p, *y), ParentPadic(p, *y))
    out = [name for name, op in OPERATIONS.items()
           if _outcome(op, new, new_y, k, a) != _outcome(op, old, old_y, k, a)]
    if _outcome(padics.iwasawa_log, new) != _outcome(iwasawa_log, old):
        out.append("log(x)")
    # a residue mod p^n as fe and evaluate_Lp read it: signed, and zero mod p^n now and then
    n = max(x[2], 1)
    r = (1 if k % 2 else -1) * x[1] * p ** (a % (n + 2))
    if _outcome(padics._normalize, p, 0, r, n) != _outcome(coeff_padic, p, r, n):
        out.append("coefficient")
    return out


def run(seed, count):
    """Breaches over `count` seeded pairs: (p, x, y, k, a, names) for each
    pair on which some operation differs."""
    rng = random.Random(seed)
    breaches = []
    for _ in range(count):
        p = rng.choice(PRIMES)
        x = _draw(rng, p)
        kind = rng.random()
        y = _draw_rational(rng, p) if kind < 0.25 else _near(rng, p, x) if kind < 0.4 and x[2] \
            else _draw(rng, p)
        k, a = rng.randint(-3, 9), rng.randint(x[0] - 3, x[0] + x[2] + 3)
        names = compare(p, x, y, k, a)
        if names:
            breaches.append((p, x, y, k, a, names))
    return breaches


def main(argv=None):
    ap = argparse.ArgumentParser(description="PadicNumber arithmetic against the earlier "
                                 "operators, or with --preparation Weierstrass preparation, "
                                 "fe_solve and associates_check against the earlier ones.")
    ap.add_argument("--preparation", action="store_true", help="compare series, not p-adic pairs")
    ap.add_argument("--count", type=int, default=2000)
    ap.add_argument("--seed", type=int, default=29)
    args = ap.parse_args(argv)
    breaches = (run_preparation if args.preparation else run)(args.seed, args.count)
    for breach in breaches:
        print(*breach)
    what = "series" if args.preparation else "pairs"
    print(f"{args.count} {what}, seed {args.seed}: {len(breaches)} breaches")
    return 1 if breaches else 0


def tate_period(E, ell, digits=20):
    ordj = E.ord_j(ell)
    if ordj is None or ordj >= 0:
        raise ValueError(f"ord_{ell}(j) must be negative (potentially multiplicative)")
    c = -ordj
    work = digits + 2 * c + 4
    nterms = work // c + 2
    if nterms > _J_CAP:
        raise ValueError("requested precision needs too many q-expansion coefficients")
    _extend_j_coeffs(nterms + 2)
    jE = ParentPadic.from_rational(ell, E.j, work)
    q = jE.inverse()
    for _ in range(work):
        tail = ParentPadic.zero(ell, work + c)
        power = ParentPadic.from_rational(ell, 1, work)
        for n in range(nterms):
            tail = tail + j_expansion_coeff(n) * power
            power = power * q
        q_next = (jE - tail).inverse()
        if (q_next - q).is_zero:
            q = q_next
            break
        q = q_next
    if q.v != c:
        raise AssertionError("Tate period valuation mismatch")
    jval = q.inverse()
    power = ParentPadic.from_rational(ell, 1, work)
    for n in range(nterms):
        jval = jval + j_expansion_coeff(n) * power
        power = power * q
    resid = jval - jE
    if not resid.is_zero and resid.valuation() < digits:
        raise AssertionError("re-substitution check failed")
    return q


def involution(f):
    if f.t_prec < 2:
        raise TPrecisionError("need T-precision >= 2")
    p, n, k = f.p, f.coeff_prec, f.t_prec
    s = LambdaElement(p, [0] + [(-1) ** j for j in range(1, k)], n, k)
    acc = LambdaElement(p, [], n, k)
    for c in reversed(f.coeffs[:k]):
        acc = acc * s + LambdaElement(p, [c], n, k)
    return acc


def series_inverse(f):
    p, n, k = f.p, f.coeff_prec, f.t_prec
    if not f.coeffs or f.coeffs[0] % p == 0:
        raise ValueError("series_inverse needs a unit")
    x = LambdaElement(p, [pow(f.coeffs[0], -1, p ** n)], n, k)
    two = LambdaElement(p, [2], n, k)
    m = 1
    while m < k:
        x = x * (two - f * x)
        m *= 2
    return x


def int_power(x, k):
    """x^k for an integer k >= 0, by binary powering."""
    acc = LambdaElement(x.p, [1], x.coeff_prec, x.t_prec)
    base = x
    while k:
        if k & 1:
            acc = acc * base
        base = base * base
        k >>= 1
    return acc


def min_generators(pres):
    """r minus the F_p-rank of the constant terms, by Gauss-Jordan elimination."""
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


def padic_exp(t):
    """exp(t) for v(t) >= 1 (odd p) or v(t) >= 2 (p = 2), by its series."""
    p = t.p
    if t.is_zero:
        return ParentPadic(p, 0, 1, max(t.abs_prec, 1))
    if t.v < 1 or (p == 2 and t.v < 2):
        raise ValueError("exp series diverges for this valuation")
    target = t.abs_prec
    guard = 2
    while p ** guard < (p - 1) * target:
        guard += 1
    # the unit part is an exact residue, so more digits only re-label it
    work = ParentPadic(p, t.v, t.u, target + guard - t.v)
    acc = term = ParentPadic.from_rational(p, 1, target + guard)
    k = 0
    # every term with index > k has valuation >= (k+1)*v(t) - k/(p-1),
    # so stop only once that bound clears the target
    while (k + 1) * t.v * (p - 1) - k < target * (p - 1):
        k += 1
        term = term * work / ParentPadic.from_rational(p, k, work.n)
        tv = term.valuation()
        if tv is not None and tv < target + guard:
            acc = acc + term
    return acc._truncate_abs(target)


# -- the earlier Weierstrass preparation, on LambdaElement objects -----------


def _times(a, b):
    """a * b in the truncated ring, by the earlier LambdaElement.__mul__ loop."""
    n, k = a._align(b)
    mod = a.p ** n
    out = [0] * k
    for i, x in enumerate(a.coeffs[:k]):
        if x == 0:
            continue
        for j in range(k - i):
            y = b.coeffs[j]
            if y:
                out[i + j] = (out[i + j] + x * y) % mod
    return LambdaElement(a.p, out, n, k)


def divide(a, b):
    """a / b for a unit series b, one coefficient at a time."""
    n, k = a._align(b)
    p = a.p
    if not b.coeffs or b.coeffs[0] % p == 0:
        raise ValueError("divisor is not a unit series")
    mod = p ** n
    inv0 = pow(b.coeffs[0], -1, mod)
    q = []
    for m in range(k):
        q.append((a.coeffs[m] - sum(b.coeffs[i] * q[m - i] for i in range(1, m + 1))) * inv0 % mod)
    return LambdaElement(p, q, n, k)


def _monomial(p, i, n, k):
    return LambdaElement(p, [0] * i + [1], n, k)


def weierstrass_divide(h, g, lam):
    """h = q*g + r with deg r < lam: q is the fixed point of
    q -> tau(h - glow*q) / gbar, swept at most coeff_prec times."""
    p, n, k = g.p, min(g.coeff_prec, h.coeff_prec), min(g.t_prec, h.t_prec)
    g = g.truncate(n, k)
    h = h.truncate(n, k)
    glow = LambdaElement(p, g.coeffs[:lam], n, k)
    gbar = LambdaElement(p, g.coeffs[lam:], n, k)
    tau_h = LambdaElement(p, h.coeffs[lam:], n, k)
    q = divide(tau_h, gbar)
    for _ in range(n):
        corr = LambdaElement(p, _times(glow, q).coeffs[lam:], n, k)
        q_new = divide(tau_h - corr, gbar)
        if q_new == q:
            break
        q = q_new
    rem = h - _times(q, g)
    return q, LambdaElement(p, rem.coeffs[:lam], n, k)


def weierstrass_prepare(f):
    """(mu, d, u) with f = p^mu * d * u, by dividing T^lambda by f / p^mu."""
    mu, lam = la.mu_lambda(f)
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
    q, r = weierstrass_divide(_monomial(p, lam, n, k), g, lam)
    d_el = _monomial(p, lam, n_d, k) - r.truncate(coeff_prec=n_d)
    dist = DistinguishedPoly(p, tuple(d_el.coeffs[: lam + 1]), n_d)
    unit = divide(_monomial(p, 0, n, k), q)
    recon = _times(dist.as_element(k).truncate(coeff_prec=n), unit)
    for i in range(k):
        allow = max(1, min(n_d, (k - lam - i) // lam - 1))
        if (recon.coeffs[i] - g.coeffs[i]) % p ** allow:
            raise CertificateError("preparation reconstruction failed")
    return mu, dist, unit


def _prepared_pair(f, g):
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


def associates_check(f, g):
    if f.is_zero() or g.is_zero():
        raise ZeroAtPrecision("associates_check needs nonzero inputs")
    pair = _prepared_pair(f, g)
    return pair if pair is INDETERMINATE else pair is not None


def fe_solve(f):
    """iota(f) = w (1+T)^c f from the unit ratio of the two preparations,
    certified exactly, else by the derivative relation at reduced precision."""
    if f.is_zero():
        raise ZeroAtPrecision("fe_solve needs nonzero input")
    g = la.involution(f)
    pair = _prepared_pair(f, g)
    if pair is INDETERMINATE or pair is None:
        return pair
    n_cert, d_f, u_f, u_g = pair
    p = f.p
    ratio = divide(u_g, u_f)
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
    c_lift = padics.centered(c_res, mod)
    w_pow = LambdaElement(p, [w * b for b in la._binomials(c_lift, f.t_prec)],
                          f.coeff_prec, f.t_prec)
    if g == _times(w_pow, f):
        return w, coeff_padic(p, c_lift, f.coeff_prec)
    k_hon = max(2, x.t_prec - d_f.degree * (n_cert + 1))
    for k in range(min(k_hon, x.t_prec) - 1):
        if ((k + 1) * x.coeffs[k + 1] - (c_res - k) * x.coeffs[k]) % mod:
            return None
    return w, coeff_padic(p, c_res, n_cert)


def _plain(r):
    """A preparation or fe answer as plain tuples: series by their exact residues."""
    if isinstance(r, (LambdaElement, DistinguishedPoly)):
        return r.p, r.coeff_prec, tuple(r.coeffs)
    if isinstance(r, PadicNumber):
        return r.p, r.v, r.u, r.n
    return tuple(_plain(x) for x in r) if isinstance(r, tuple) else r


def _series_outcome(call, *args):
    try:
        return _plain(call(*args))
    except (ArithmeticError, ValueError) as exc:
        return type(exc).__name__, str(exc)


def draw_series(rng):
    """A LambdaElement at p in {2, 3, 5, 7, 11}, N in {3, 8, 20, 30} and K in
    {4, 10, 20, 40}: half solvable g * iota(g) * (1+T)^c * T^e * p^m, half
    random residues with p-divisible low terms, p-power content or none left."""
    p = rng.choice((2, 3, 5, 7, 11))
    n, k = rng.choice((3, 8, 20, 30)), rng.choice((4, 10, 20, 40))
    one = LambdaElement(p, [1], n, k)
    if rng.random() < 0.5:
        low = [rng.randint(-p * p, p * p) for _ in range(rng.randint(0, 3))]
        g = LambdaElement(p, low + [1], n, k)
        f = _times(g, la.involution(g)) if k > 1 else g
        f = _times(f, LambdaElement(p, la._binomials(rng.randrange(3), k), n, k))
        if rng.random() < 0.3:
            f = _times(f, LambdaElement(p, [0, 1], n, k))
        return _times(f, one) * p ** rng.choice((0, 0, 0, 1, 2))
    cs = [rng.randrange(p ** n) for _ in range(k)]
    lam = rng.choice((0, 1, 2, 3, rng.randrange(k)))
    m = rng.choice((0, 0, 0, 1, n - 1, n))
    return LambdaElement(p, [c * p ** (m + (i < lam)) for i, c in enumerate(cs)], n, k)


def compare_preparation(f):
    """The names of the calls on which the library and the earlier preparation differ."""
    out = [name for name, new, old in (
        ("weierstrass_prepare", la.weierstrass_prepare, weierstrass_prepare),
        ("fe_solve", la.fe_solve, fe_solve)) if _series_outcome(new, f) != _series_outcome(old, f)]
    g = la.involution(f) if f.t_prec > 1 else f
    if _series_outcome(la.associates_check, f, g) != _series_outcome(associates_check, f, g):
        out.append("associates_check")
    return out


def run_preparation(seed, count):
    """Breaches over `count` seeded series: (series text, names) for each
    series on which some call differs."""
    rng = random.Random(seed)
    breaches = []
    for _ in range(count):
        f = draw_series(rng)
        names = compare_preparation(f)
        if names:
            breaches.append((f.to_text(), names))
    return breaches


if __name__ == "__main__":
    sys.exit(main())
