"""PadicNumber and LambdaElement forms of `tate_period` and `involution`,
kept as the oracles the integer versions are tested against.

`tate_period` iterates q <- 1 / (j - sum c_n q^n) on PadicNumber objects
and re-substitutes through the same q-expansion; `involution` composes f
with (1+T)^(-1) - 1 by Horner's rule, one truncated product per
coefficient.  Both are slow but share no integer shortcut with `src/`.
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
