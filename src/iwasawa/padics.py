"""Exact rationals and fixed-precision p-adic numbers.

A nonzero p-adic number is stored as p^v * u where u is a unit known
modulo p^n (n = number of significant digits).  Zero is a legitimate
value: it carries the absolute precision to which all digits are known
to vanish.  Every operation records the surviving precision, so results
never silently pretend to more digits than the inputs support.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count
from math import gcd

DEFAULT_DIGITS = 30

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


class PadicError(ArithmeticError):
    pass


class PrecisionError(PadicError):
    """Raised when a result would have fewer than one significant digit."""


class PrimeMismatchError(PadicError):
    pass


class CertificateError(ArithmeticError):
    """A check that only a wrong answer can fail; raised, so kept under -O."""


def is_prime(m: int) -> bool:
    """Miller-Rabin to the prime bases up to 41: proven below psi_13 =
    3317044064679887385961981 (Sorenson-Webster, Math. Comp. 86, 2017),
    a probable-prime verdict above it."""
    if m < 2:
        return False
    for q in _SMALL_PRIMES:
        if m % q == 0:
            return m == q
    if m < 43 * 43:  # a composite this small has a prime factor up to 41
        return True
    s = valuation(m - 1, 2)
    d = (m - 1) >> s
    for a in _SMALL_PRIMES:
        x = pow(a, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def valuation(x, p: int):
    """p-adic valuation of an int or Fraction; None encodes +infinity (x = 0)."""
    if p < 2:
        raise ValueError(f"valuation needs a base p >= 2, got {p}")
    if x == 0:
        return None
    if not isinstance(x, int):
        return valuation(x.numerator, p) - valuation(x.denominator, p)
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) for an odd prime p, by Euler's criterion."""
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def centered(x: int, m: int) -> int:
    """The representative of x mod m in (-m/2, m/2]."""
    x %= m
    return x - m if x > m // 2 else x


TRIAL_BOUND = 1000
RHO_BUDGET = 1 << 20


class FactorizationError(ArithmeticError):
    """Pollard-Brent rho used up RHO_BUDGET iterations without a split."""


def factor(n: int) -> dict:
    """Prime factorization {q: e} of |n| for nonzero n, primes ascending.

    Trial division below TRIAL_BOUND, then on what is left Miller-Rabin
    (is_prime), exact perfect-power roots and Pollard-Brent rho (Cohen,
    A Course in Computational Algebraic Number Theory, 8.5; Brent 1980).
    Rho finds a prime factor q in about sqrt(q) iterations; each split
    gets at most RHO_BUDGET of them, after which FactorizationError is
    raised, so no input can hang.
    """
    n = abs(n)
    if n == 0:
        raise ValueError("0 has no prime factorization")
    fact = {}
    d = 2
    while d < TRIAL_BOUND and d * d <= n:
        if n % d == 0:
            fact[d] = valuation(n, d)
            n //= d ** fact[d]
        d += 1 if d == 2 else 2
    todo = [(n, 1)] if n > 1 else []
    while todo:
        m, k = todo.pop()
        if is_prime(m):
            fact[m] = fact.get(m, 0) + k
            continue
        # every prime factor of m is >= TRIAL_BOUND > 2^9, so m = r^e has e < bits/9
        for e in range(2, m.bit_length() // 9 + 1):
            r = _iroot(m, e)
            if r ** e == m:
                todo.append((r, k * e))
                break
        else:
            a = _rho(m)
            todo += [(a, k), (m // a, k)]
    return dict(sorted(fact.items()))


def _iroot(m: int, e: int) -> int:
    """floor(m^(1/e)) for m >= 1, by integer Newton steps from above."""
    x = 1 << -(-m.bit_length() // e)
    while True:
        y = ((e - 1) * x + m // x ** (e - 1)) // e
        if y >= x:
            return x
        x = y


def _rho(n: int) -> int:
    """A proper factor of an odd composite n that is not a perfect power."""
    steps = 0
    for c in count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = gcd(q, n)
                k += 128
            steps += 2 * r
            if g == 1 and steps > RHO_BUDGET:
                raise FactorizationError(f"no factor of {n} within {RHO_BUDGET} rho iterations")
            r *= 2
        if g == n:  # the last block overshot: replay it one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if g != n:
            return g


class PadicNumber:
    """Element of Q_p at fixed precision: p^v * u with u a unit mod p^n."""

    __slots__ = ("p", "v", "u", "n")

    def __init__(self, p, v, u, n, _checked=False):
        if not _checked:
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
            if n < 0 or (n == 0 and u != 0):
                raise ValueError("need at least one significant digit")
            if u != 0:
                u %= p ** n
                if u % p == 0:
                    raise ValueError("unit part divisible by p")
        self.p = p
        self.v = v
        self.u = u
        self.n = n

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, p, abs_prec):
        """Zero known to absolute precision O(p^abs_prec)."""
        return cls(p, abs_prec, 0, 0, _checked=is_prime(p))

    @classmethod
    def from_rational(cls, p, x, digits=DEFAULT_DIGITS):
        x = Fraction(x)
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if x == 0:
            return cls.zero(p, digits)
        vn = valuation(x.numerator, p)
        vd = valuation(x.denominator, p)
        num = x.numerator // p ** vn
        den = x.denominator // p ** vd
        mod = p ** digits
        u = num * pow(den, -1, mod) % mod
        return cls(p, vn - vd, u, digits, _checked=True)

    # -- queries ------------------------------------------------------

    @property
    def is_zero(self):
        return self.u == 0

    @property
    def abs_prec(self):
        """Exponent a such that the value is known modulo p^a."""
        return self.v + self.n

    def valuation(self):
        """Valuation; None plays the role of +infinity for (apparent) zero."""
        return None if self.is_zero else self.v

    def residue(self, k):
        """The value modulo p^k as an integer in [0, p^k); requires v >= 0."""
        if self.is_zero:
            if self.abs_prec < k:
                raise PrecisionError("residue requested beyond known precision")
            return 0
        if self.v < 0:
            raise ValueError("not a p-adic integer")
        if self.abs_prec < k:
            raise PrecisionError("residue requested beyond known precision")
        return (self.p ** self.v * self.u) % self.p ** k

    def with_precision(self, n):
        """Truncate (never extend) to n significant digits."""
        if self.is_zero:
            return self
        if n >= self.n:
            return self
        if n < 1:
            raise PrecisionError("fewer than one significant digit")
        return PadicNumber(self.p, self.v, self.u % self.p ** n, n, _checked=True)

    # -- arithmetic ---------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, PadicNumber):
            if other.p != self.p:
                raise PrimeMismatchError(f"primes differ: {self.p} vs {other.p}")
            return other
        if isinstance(other, (int, Fraction)):
            return PadicNumber.from_rational(self.p, other, max(self.n, 1) + max(self.v, 0) + 2)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        p = self.p
        if self.is_zero and other.is_zero:
            return PadicNumber.zero(p, min(self.abs_prec, other.abs_prec))
        if self.is_zero:
            return other._truncate_abs(self.abs_prec)
        if other.is_zero:
            return self._truncate_abs(other.abs_prec)
        a = min(self.abs_prec, other.abs_prec)
        v0 = min(self.v, other.v)
        if a <= v0:
            return PadicNumber.zero(p, a)
        mod = p ** (a - v0)
        s = (p ** (self.v - v0) * self.u + p ** (other.v - v0) * other.u) % mod
        if s == 0:
            return PadicNumber.zero(p, a)
        w = valuation(s, p)
        return PadicNumber(p, v0 + w, (s // p ** w) % p ** (a - v0 - w), a - v0 - w, _checked=True)

    __radd__ = __add__

    def __neg__(self):
        if self.is_zero:
            return self
        return PadicNumber(self.p, self.v, (-self.u) % self.p ** self.n, self.n, _checked=True)

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
        p = self.p
        if self.is_zero or other.is_zero:
            # p^v * O(p^a) = O(p^(v+a))
            if self.is_zero and other.is_zero:
                a = min(self.abs_prec + other.v, other.abs_prec + self.v)
            elif self.is_zero:
                a = self.abs_prec + other.v
            else:
                a = other.abs_prec + self.v
            return PadicNumber.zero(p, a)
        n = min(self.n, other.n)
        return PadicNumber(p, self.v + other.v, self.u * other.u % p ** n, n, _checked=True)

    __rmul__ = __mul__

    def inverse(self):
        if self.is_zero:
            raise ZeroDivisionError("inverse of (indistinguishable-from-)zero")
        return PadicNumber(self.p, -self.v, pow(self.u, -1, self.p ** self.n), self.n, _checked=True)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        result = PadicNumber(self.p, 0, 1, self.n if not self.is_zero else 1, _checked=True)
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
            return PadicNumber.zero(self.p, a)
        return self.with_precision(a - self.v)

    def __eq__(self, other):
        """Equality at the joint precision."""
        if isinstance(other, (int, Fraction)):
            other = PadicNumber.from_rational(self.p, other, self.n + max(self.v, 0) + 1)
        if not isinstance(other, PadicNumber):
            return NotImplemented
        return (self - other).is_zero

    def __hash__(self):
        raise TypeError("precision-carrying values are unhashable")

    def __repr__(self):
        if self.is_zero:
            return f"O({self.p}^{self.abs_prec})"
        return f"{self.p}^{self.v}*{self.u} + O({self.p}^{self.abs_prec})"

    def digits_str(self, count=12):
        if self.is_zero:
            return "0"
        ds = []
        u = self.u
        for _ in range(min(count, self.n)):
            u, r = divmod(u, self.p)
            ds.append(str(r))
        return f"({','.join(ds)},...)*{self.p}^{self.v}"


def unit_decompose(x: PadicNumber):
    """Split a unit as (Teichmuller part, principal part in 1 + qZ_p).

    q = p for odd p and q = 4 for p = 2, where the torsion part of the
    unit group is {+1, -1}.  The Teichmuller representative for odd p is
    u^(p^(n-1)) mod p^n, the fixed point of a -> a^p.
    """
    if x.is_zero or x.v != 0:
        raise ValueError("unit_decompose needs a unit (valuation 0)")
    p, n = x.p, x.n
    mod = p ** n
    if p == 2:
        if n < 2:
            raise PrecisionError("p = 2 needs at least 2 digits to see the sign")
        sign = 1 if x.u % 4 == 1 else -1
        teich = PadicNumber(p, 0, sign % mod, n, _checked=True)
    else:
        teich = PadicNumber(p, 0, pow(x.u, p ** (n - 1), mod), n, _checked=True)
    principal = x * teich.inverse()
    return teich, principal


def iwasawa_log(x: PadicNumber) -> PadicNumber:
    """log_p with the normalization log_p(p) = 0.

    The p-power part and the Teichmuller part are discarded; what is
    left is log(1 + t) = sum (-1)^(k+1) t^k / k on the principal unit.
    """
    if x.is_zero:
        raise ValueError("log of (indistinguishable-from-)zero")
    p = x.p
    unit = PadicNumber(p, 0, x.u, x.n, _checked=True)
    _, principal = unit_decompose(unit)
    return _log_one_plus(principal - 1)


def _log_one_plus(t: PadicNumber) -> PadicNumber:
    p = t.p
    if t.is_zero:
        return PadicNumber.zero(p, t.abs_prec)
    if t.v < 1 or (p == 2 and t.v < 2):
        raise ValueError("log series needs a principal unit argument")
    target = t.abs_prec
    # guard digits absorb the /k losses; v(t^k/k) >= k*v(t) - log_p(k)
    guard = 2
    while p ** guard < target + guard:
        guard += 1
    # the unit part is an exact residue, so more digits only re-label it;
    # the result is truncated back to the honest target
    work = PadicNumber(p, t.v, t.u, target + guard - t.v, _checked=True)
    acc = PadicNumber.zero(p, target + guard)
    power = work
    k = 1
    while k * t.v - _ilog(k, p) < target:
        term = power / PadicNumber.from_rational(p, k, work.n)
        acc = acc + (term if k % 2 else -term)
        power = power * work
        k += 1
    result = acc._truncate_abs(target)
    if not result.is_zero and result.n < 1:
        raise PrecisionError("log lost all significant digits")
    return result


def padic_pow(x: PadicNumber, t: PadicNumber) -> PadicNumber:
    """x^t for x a principal unit and t in Z_p, by one modular power.

    With w = v(x - 1), x^(p^k) = 1 mod p^(w + k); so the digits of x fix
    x^t = x^(p^v(t) u(t)) modulo p^(n(x) + v(t)), those of t modulo
    p^(abs(t) + w), and the result is known modulo the smaller power.
    """
    p = x.p
    d = x - 1
    if not d.is_zero and d.v < (2 if p == 2 else 1):
        raise ValueError("x^t needs a principal unit x")
    if t.v < 0:
        raise ValueError(f"x^t needs t in Z_p, got valuation {t.v}")
    a = min(x.n + t.v, t.abs_prec + d.v)
    return PadicNumber(p, 0, pow(x.u, p ** t.v * t.u, p ** a), a, _checked=True)


def _ilog(k, p):
    e = 0
    while p ** (e + 1) <= k:
        e += 1
    return e


# -- polynomials: ascending coefficient lists over Z or Q -----------------


def _strip(c):
    """c without trailing zero coefficients."""
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _poly_mod(coeffs, modulus):
    """coeffs mod a monic polynomial of degree m, as m coefficients (int or Fraction)."""
    m = len(modulus) - 1
    col = list(coeffs)
    # clear the top coefficient with one multiple of modulus
    for top in range(len(col) - 1, m - 1, -1):
        c = col.pop()
        if c:
            for i in range(m):
                col[top - m + i] -= c * modulus[i]
    return col + [0] * (m - len(col))
