"""Earlier forms of `tate_period`, `involution`, series division,
(1+T)^c, `min_generators` and the p-adic exponential, kept as the oracles
the library versions are tested against.

`tate_period` iterates q <- 1 / (j - sum c_n q^n) on PadicNumber objects
and re-substitutes through the same q-expansion; `involution` composes f
with (1+T)^(-1) - 1 by Horner's rule, one truncated product per
coefficient; `series_inverse` doubles by Newton's step x <- x(2 - fx) and
`int_power` powers by squaring, both on truncated products;
`min_generators` eliminates over F_p by hand; `padic_exp` sums the
exponential series, so exp(t log x) checks `padic_pow`.  All are slow but
share no shortcut with `src/`.
"""

from iwasawa.lambda_algebra import LambdaElement, TPrecisionError
from iwasawa.padics import PadicNumber
from iwasawa.tate import _J_CAP, _extend_j_coeffs, j_expansion_coeff


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
    jE = PadicNumber.from_rational(ell, E.j, work)
    q = jE.inverse()
    for _ in range(work):
        tail = PadicNumber.zero(ell, work + c)
        power = PadicNumber.from_rational(ell, 1, work)
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
    power = PadicNumber.from_rational(ell, 1, work)
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
        return PadicNumber(p, 0, 1, max(t.abs_prec, 1))
    if t.v < 1 or (p == 2 and t.v < 2):
        raise ValueError("exp series diverges for this valuation")
    target = t.abs_prec
    guard = 2
    while p ** guard < (p - 1) * target:
        guard += 1
    # the unit part is an exact residue, so more digits only re-label it
    work = PadicNumber(p, t.v, t.u, target + guard - t.v)
    acc = term = PadicNumber.from_rational(p, 1, target + guard)
    k = 0
    # every term with index > k has valuation >= (k+1)*v(t) - k/(p-1),
    # so stop only once that bound clears the target
    while (k + 1) * t.v * (p - 1) - k < target * (p - 1):
        k += 1
        term = term * work / PadicNumber.from_rational(p, k, work.n)
        tv = term.valuation()
        if tv is not None and tv < target + guard:
            acc = acc + term
    return acc._truncate_abs(target)
