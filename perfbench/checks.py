"""Reference arithmetic that does not use the code under test.

Point counts come from Euler's criterion, and the series fed to `growth`
and `fe` are built here so that the right answer is known from the
construction: f = p^mu * d * u with d distinguished of degree lam and u a
unit has mu(f) = mu and lambda(f) = lam, and f = T^e * g * iota(g) *
(1+T)^c0 satisfies iota(f) = (-1)^e * (1+T)^(-e - 2 c0) * f.
"""

from __future__ import annotations

from math import comb, isqrt

K = 40      # series truncation T^K, the CLI default
N = 30      # coefficient precision p^N, the CLI default


def count_points(ainvs, p):
    """|E(F_p)| for y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6."""
    a1, a2, a3, a4, a6 = (a % p for a in ainvs)
    if p == 2:
        return 1 + sum(1 for x in range(2) for y in range(2)
                       if (y * y + a1 * x * y + a3 * y - x ** 3 - a2 * x * x - a4 * x - a6) % 2 == 0)
    half = (p - 1) // 2
    total = 1
    for x in range(p):
        b = a1 * x + a3
        disc = (b * b + 4 * (((x + a2) * x + a4) * x + a6)) % p
        total += 1 if disc == 0 else (2 if pow(disc, half, p) == 1 else 0)
    return total


def discriminant(ainvs):
    a1, a2, a3, a4, a6 = ainvs
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    return -b2 * b2 * b8 - 8 * b4 ** 3 - 27 * b6 * b6 + 9 * b2 * b4 * b6


def valuation(n, p):
    v = 0
    while n and n % p == 0:
        n //= p
        v += 1
    return v


def torsion_order(described):
    """'Z/2 x Z/4' -> 8, 'trivial' -> 1."""
    order = 1
    for part in described.split(" x "):
        if part != "trivial":
            order *= int(part.split("/")[1])
    return order


def is_prime(n):
    return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))


def hasse_trace(rng, p):
    """A uniformly drawn trace a with a^2 < 4p."""
    r = isqrt(4 * p - 1)
    return rng.randint(-r, r)


# -- series ------------------------------------------------------------------


def mul(a, b):
    out = [0] * K
    for i, x in enumerate(a[:K]):
        if x:
            for j, y in enumerate(b[:K - i]):
                out[i + j] += x * y
    return out


def iota(g):
    """g((1+T)^-1 - 1) mod T^K."""
    s = [0] + [(-1) ** j for j in range(1, K)]
    acc = [0] * K
    for c in reversed(g):
        acc = mul(acc, s)
        acc[0] += c
    return acc


def _cyclotomic_shifted(p, k):
    """Phi_{p^k}(1+T), ascending coefficients."""
    step = p ** (k - 1)
    out = [0] * (step * (p - 1) + 1)
    for j in range(p):
        for i in range(j * step + 1):
            out[i] += comb(j * step, i)
    return out


def eisenstein(rng, p, lam):
    """Monic Eisenstein d of degree lam, sharing no root with any theta_n."""
    while True:
        d = [p * rng.randrange(p * p) for _ in range(lam)] + [1]
        unit = rng.randrange(1, p * p)
        if unit % p == 0:
            continue
        d[0] = p * unit
        # an Eisenstein d is irreducible, so it meets theta_n only by being
        # one of its cyclotomic factors
        if all(d != _cyclotomic_shifted(p, k) for k in range(1, 8)
               if p ** (k - 1) * (p - 1) == lam):
            return d


def growth_series(rng, p, lam, mu, dense):
    """(coeffs, lambda0) of f = p^mu * d * u mod (p^N, T^K).

    Dense: d Eisenstein of degree lam and u with 40 full-size terms, so
    every layer quotient is finite (lambda0 = 0).  Sparse: d = T * e with
    e Eisenstein of degree lam - 1 and u = u0 + u1 T with small terms;
    T divides every theta_n, so each layer keeps free rank lambda0 = 1.
    """
    mod = p ** N
    if dense:
        d, lambda0 = eisenstein(rng, p, lam), 0
        u = [rng.randrange(mod) for _ in range(K)]
        while u[0] % p == 0:
            u[0] = rng.randrange(mod)
    else:
        d, lambda0 = mul([0, 1], eisenstein(rng, p, lam - 1)), 1
        u = [rng.choice([u0 for u0 in (1, -1, 2, -2) if u0 % p]), rng.randint(-p * p, p * p)]
    return [(p ** mu * c) % mod for c in mul(d, u)], lambda0


def fe_series(rng, p):
    """(coeffs, w, c) with iota(f) = w * (1+T)^c * f by construction."""
    g = [rng.choice([1, -1, 2]), rng.randrange(-p, p + 1), rng.randrange(-p, p + 1)]
    if g[0] % p == 0:
        g[0] = 1
    e, c0 = rng.randrange(2), rng.randrange(3)
    f = mul(g, iota(g))
    f = mul(f, [comb(c0, i) for i in range(c0 + 1)])
    if e:
        f = [0] + f[:K - 1]
    return f, (-1) ** e, -e - 2 * c0


def series_text(p, coeffs):
    return f"p={p} coeffs=[{','.join(str(c) for c in coeffs)}]"
