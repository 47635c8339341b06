"""Local reduction data at a prime: Tate's algorithm, and Tate periods.

tate_local runs the full algorithm (with ell-minimalization) and reports
the reduction kind, Kodaira symbol, Tamagawa number, conductor exponent
and the transformation to the ell-minimal model; its checks raise
CertificateError, so they hold under -O.  tate_period inverts
j(q) = 1/q + 744 + 196884 q + ... at a multiplicative prime.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .curves import CertificateError, WeierstrassCurve, count_points
from .padics import PadicNumber, factor, legendre, require_prime, valuation


@dataclass(frozen=True)
class LocalData:
    prime: int
    kind: str                 # good | multiplicative_split | multiplicative_nonsplit | additive
    tamagawa: int
    kodaira: str
    ord_disc_min: int
    ord_j: int | None         # None when j = 0
    conductor_exponent: int
    a_ell: int | None = None  # good reduction only
    ordinary: bool | None = None
    supersingular: bool | None = None
    anomalous: bool | None = None
    minimal_ainvs: tuple = ()
    # x = u^2 x' + r, y = u^3 y' + s u^2 x' + t maps minimal coords to input coords
    u: int = 1
    r: int = 0
    s: int = 0
    t: int = 0

    def map_point(self, P):
        """Send a point on the input model to the ell-minimal model."""
        if P is None:
            return None
        x, y = Fraction(P[0]), Fraction(P[1])
        xm = (x - self.r) / self.u ** 2
        ym = (y - self.t - self.s * (x - self.r)) / self.u ** 3
        return (xm, ym)


def is_square_in_Qell(x: Fraction, ell: int) -> bool:
    """Whether a nonzero rational is a square in Q_ell."""
    x = Fraction(x)
    if x == 0:
        raise ValueError("zero has no square class")
    v = valuation(x, ell)
    if v % 2:
        return False
    x /= Fraction(ell) ** v
    if ell == 2:
        return x.numerator * pow(x.denominator, -1, 8) % 8 == 1
    return legendre(x.numerator * pow(x.denominator, -1, ell), ell) == 1


def _quad_root_count(a, b, c, p):
    """Number of roots of a x^2 + b x + c over F_p (a != 0 mod p)."""
    if p == 2:
        return sum(1 for x in (0, 1) if (a * x * x + b * x + c) % 2 == 0)
    return 1 + legendre(b * b - 4 * a * c, p)


def _cubic_shape(c0, c1, c2, ell):
    """(m, x) for P = T^3 + c2 T^2 + c1 T + c0 over F_ell: m = 3 or 2 and x
    the root of that multiplicity, or m = 1 and x the number of roots.

    ell <= 3 scans F_ell: a root x is repeated when P'(x) = 0, triple when
    also c2 + 3x = 0.  Else a repeated root (disc = 0) is -c2/3 (triple)
    when c2^2 = 3 c1, or (9 c0 - c2 c1) / (2 (c2^2 - 3 c1)) (double).  A
    squarefree P has exactly 1 root when disc is a nonresidue
    (Stickelberger), which is tested first, so that case never forms
    T^ell; otherwise it has 3 roots when T^ell = T mod P, else 0.
    """
    if ell <= 3:
        roots = [x for x in range(ell) if (c0 + x * (c1 + x * (c2 + x))) % ell == 0]
        for x in roots:
            if (c1 + x * (2 * c2 + 3 * x)) % ell == 0:
                return (3 if (c2 + 3 * x) % ell == 0 else 2), x
        return 1, len(roots)
    disc = (c2 * c1) ** 2 - 4 * c1 ** 3 - 4 * c2 ** 3 * c0 - 27 * c0 * c0 + 18 * c2 * c1 * c0
    if disc % ell == 0:
        e = c2 * c2 - 3 * c1
        if e % ell == 0:
            return 3, -c2 * pow(3, -1, ell) % ell
        return 2, (9 * c0 - c2 * c1) * pow(2 * e, -1, ell) % ell
    if legendre(disc, ell) == -1:
        return 1, 1
    return 1, 3 if _frobenius_of_T(c0, c1, c2, ell) == (0, 1, 0) else 0


def _frobenius_of_T(c0, c1, c2, ell):
    """T^ell mod (P, ell) = a0 + a1 T + a2 T^2 as (a0, a1, a2), for P as in
    `_cubic_shape`: by squarings, T^4 and T^3 reduced by
    T^3 = -(c2 T^2 + c1 T + c0); a set bit of ell then multiplies by T."""
    a0, a1, a2 = 0, 1, 0
    for bit in bin(ell)[3:]:
        r1, r2, r3, r4 = 2 * a0 * a1, a1 * a1 + 2 * a0 * a2, 2 * a1 * a2, a2 * a2
        r3 -= r4 * c2
        r2 -= r4 * c1 + r3 * c2
        a0 = (a0 * a0 - r3 * c0) % ell
        a1 = (r1 - r4 * c0 - r3 * c1) % ell
        a2 = r2 % ell
        if bit == "1":
            a0, a1, a2 = -a2 * c0 % ell, (a0 - a2 * c1) % ell, (a1 - a2 * c2) % ell
    return a0, a1, a2


def _lone_root(c0, c1, c2, ell):
    """The root of P = T^3 + c2 T^2 + c1 T + c0 over F_ell, ell >= 5, if P has
    no other there (gcd(T^ell - T, P) is then linear), else None."""
    a0, a1, a2 = _frobenius_of_T(c0, c1, c2, ell)
    f, g = [c0 % ell, c1 % ell, c2 % ell, 1], [a0, (a1 - 1) % ell, a2]  # lowest degree first
    while any(g):
        while not g[-1]:
            g.pop()
        while len(f) >= len(g):  # f mod g, one leading term at a time
            q, k = f.pop() * pow(g[-1], -1, ell) % ell, len(f) - len(g) + 1
            f[k:] = [(x - q * y) % ell for x, y in zip(f[k:], g)]
        f, g = g, f
    return -f[0] * pow(f[1], -1, ell) % ell if len(f) == 2 else None


def _singular_point(E: WeierstrassCurve, ell):
    """The unique singular point of the reduction mod ell (ell | disc)."""
    a1, a2, a3, a4, a6 = E.ainvs()
    if ell in (2, 3):
        for x in range(ell):
            for y in range(ell):
                f = y * y + a1 * x * y + a3 * y - (x ** 3 + a2 * x * x + a4 * x + a6)
                fx = a1 * y - (3 * x * x + 2 * a2 * x + a4)
                fy = 2 * y + a1 * x + a3
                if f % ell == 0 and fx % ell == 0 and fy % ell == 0:
                    return x, y
        raise CertificateError(f"no singular point mod {ell} although {ell} | disc")
    # ell >= 5: on the model Y^2 = X^3 - 27 c4 X - 54 c6 the singular point
    # is (X0, 0) with X0 the double root -3 c6 / c4 (triple root 0 if ell | c4)
    X0 = 0 if E.c4 % ell == 0 else -3 * E.c6 * pow(E.c4, -1, ell)
    x0 = (X0 - 3 * E.b2) * pow(36, -1, ell) % ell
    y0 = -(a1 * x0 + a3) * pow(2, -1, ell) % ell
    return x0, y0


#: the number of components m of each additive type but I_n* (m = n + 5)
_COMPONENTS = {"II": 1, "III": 2, "IV": 3, "I0*": 5, "IV*": 7, "III*": 8, "II*": 9}


def tate_local(E: WeierstrassCurve, ell: int) -> LocalData:
    """Kodaira type, Tamagawa number and friends at ell, minimalizing first.
    Kept on E at a bad prime (`WeierstrassCurve._memo`), never at a good one."""
    loc = E._recall(ell)
    if loc is not None:
        return loc
    loc = _tate_algorithm(E, require_prime(ell))
    return loc if loc.kind == "good" else E._remember(ell, loc)


def _tate_algorithm(E, ell):
    """tate_local's answer, computed afresh: `classify` reads the type off
    the current model, which is scaled down by ell while it is not
    minimal, and `_finish` certifies the one answer."""
    cur = E
    u_tot, r_tot, s_tot, t_tot = 1, 0, 0, 0

    def apply(u=1, r=0, s=0, t=0):
        nonlocal cur, u_tot, r_tot, s_tot, t_tot
        cur = cur.transform(u=u, r=r, s=s, t=t)
        r_new = r_tot + u_tot ** 2 * r
        s_new = s_tot + u_tot * s
        t_new = t_tot + u_tot ** 3 * t + u_tot ** 2 * s_tot * r
        u_tot, r_tot, s_tot, t_tot = u_tot * u, r_new, s_new, t_new

    def classify():
        """(kind, Tamagawa number, Kodaira symbol) of cur, or None when
        cur is not minimal at ell."""
        vD = valuation(cur.disc, ell)
        if vD == 0:
            return "good", 1, "I0"
        x0, y0 = _singular_point(cur, ell)
        if (x0, y0) != (0, 0):
            apply(r=x0, t=y0)
        a1, a2, a3, a4, a6 = cur.ainvs()
        if cur.b2 % ell:
            # multiplicative: type I_n with n = v(disc)
            if is_square_in_Qell(Fraction(-E.c4, E.c6), ell):
                return "multiplicative_split", vD, f"I{vD}"
            return "multiplicative_nonsplit", 1 if vD % 2 else 2, f"I{vD}"
        if a6 % ell ** 2:
            return "additive", 1, "II"
        if cur.b8 % ell ** 3:
            return "additive", 2, "III"
        if cur.b6 % ell ** 3:
            nroots = _quad_root_count(1, a3 // ell, -(a6 // ell ** 2), ell)
            return "additive", 3 if nroots else 1, "IV"
        # arrange ell | a1, a2; ell^2 | a3, a4; ell^3 | a6
        if ell == 2:
            apply(s=a2 % 2)
            a1, a2, a3, a4, a6 = cur.ainvs()
            if a6 % 8 == 4:
                apply(t=2 * ((a6 // 4) % 2))
        else:
            apply(s=(-a1 * pow(2, -1, ell)) % ell)
            apply(t=(-cur.a3 * pow(2, -1, ell ** 2)) % ell ** 2)
        a1, a2, a3, a4, a6 = cur.ainvs()
        if any(v % ell ** k for v, k in ((a1, 1), (a2, 1), (a3, 2), (a4, 2), (a6, 3))):
            raise CertificateError(f"the model at {ell} is not arranged for the cubic step")
        # cubic P(T) = T^3 + (a2/l) T^2 + (a4/l^2) T + a6/l^3 over F_ell
        pc = [(a6 // ell ** 3) % ell, (a4 // ell ** 2) % ell, (a2 // ell) % ell]
        maxmult, alpha = _cubic_shape(*pc, ell)
        if maxmult == 1:  # alpha counts the roots
            return "additive", 1 + alpha, "I0*"
        apply(r=ell * alpha)  # the repeated root to 0
        if maxmult == 3:
            # triple root: look at Y^2 + (a3/l^2) Y - a6/l^4
            a1, a2, a3, a4, a6 = cur.ainvs()
            b = (a3 // ell ** 2) % ell
            cc = (-(a6 // ell ** 4)) % ell
            nroots = _quad_root_count(1, b, cc, ell)
            if (b * b + 4 * (a6 // ell ** 4)) % ell:
                return "additive", 3 if nroots else 1, "IV*"
            rho = (b * pow(2, -1, ell) * (ell - 1)) % ell if ell != 2 else (a6 // 16) % 2
            apply(t=ell ** 2 * rho)
            a1, a2, a3, a4, a6 = cur.ainvs()
            if a4 % ell ** 4:
                return "additive", 2, "III*"
            if a6 % ell ** 6:
                return "additive", 1, "II*"
            return None
        # double root: type I_m*
        m = 1
        mx = my = ell * ell
        while True:
            a1, a2, a3, a4, a6 = cur.ainvs()
            xa3 = a3 // my
            xa6 = a6 // (mx * my)
            if (xa3 * xa3 + 4 * xa6) % ell:
                nroots = _quad_root_count(1, xa3, -xa6, ell)
                return "additive", 2 + (2 if nroots else 0), f"I{m}*"
            rho = (xa6 % 2) if ell == 2 else (-xa3 * pow(2, -1, ell)) % ell
            apply(t=my * rho)
            my *= ell
            m += 1
            a1, a2, a3, a4, a6 = cur.ainvs()
            xa2 = a2 // ell
            xa4 = a4 // (ell * mx)
            xa6 = a6 // (mx * my)
            if (xa4 * xa4 - 4 * xa2 * xa6) % ell:
                nroots = _quad_root_count(xa2, xa4, xa6, ell)
                return "additive", 2 + (2 if nroots else 0), f"I{m}*"
            if ell == 2:
                rho = (xa6 * pow(xa2, -1, 2)) % 2
            else:
                rho = (-xa4 * pow(2 * xa2, -1, ell)) % ell
            apply(r=mx * rho)
            mx *= ell
            m += 1

    while (found := classify()) is None:
        apply(u=ell)  # non-minimal model: scale down and start over
    return _finish(E, cur, ell, *found, (u_tot, r_tot, s_tot, t_tot))


def _finish(E_orig, cur, ell, kind, c, kodaira, transform):
    """The LocalData of the ell-minimal model cur, once it passes its
    checks.  An additive f comes from Ogg's formula v(disc) = f + m - 1
    (m the number of components), so Ogg cannot check it; tameness can:
    additive reduction at ell >= 5 has f = 2 exactly."""
    u, r, s, t = transform
    vD = valuation(cur.disc, ell)
    ordj = E_orig.ord_j(ell)
    data = {}
    if kind == "good":
        f = 0
        ap = ell + 1 - count_points(cur, ell)
        if ap * ap >= 4 * ell:
            raise CertificateError(f"a_{ell} = {ap} violates the Hasse bound")
        data = dict(a_ell=ap, ordinary=ap % ell != 0,
                    supersingular=ap % ell == 0, anomalous=ap % ell == 1)
    elif kind.startswith("multiplicative"):
        f = 1
    else:
        f = vD + 1 - (_COMPONENTS.get(kodaira) or int(kodaira[1:-1]) + 5)
        if not (c <= 4 and (f == 2 if ell >= 5 else f >= 2)):
            raise CertificateError(f"additive type {kodaira} at {ell} with f = {f} and c = {c}")
    if kind == "multiplicative_split" and (ordj is None or c != -ordj):
        raise CertificateError(f"split Tamagawa number {c} at {ell} is not -ord(j) = {ordj}")
    if kind == "multiplicative_nonsplit" and c != (1 if ordj % 2 else 2):
        raise CertificateError(f"nonsplit Tamagawa number {c} at {ell} disagrees with ord(j)")
    return LocalData(prime=ell, kind=kind, tamagawa=c, kodaira=kodaira,
                     ord_disc_min=vD, ord_j=ordj, conductor_exponent=f,
                     minimal_ainvs=cur.ainvs(), u=u, r=r, s=s, t=t, **data)


def bad_primes(E: WeierstrassCurve):
    """Primes of bad reduction (where the minimal discriminant vanishes),
    ascending: a new list each call, from the tuple kept on E.  Tate's
    algorithm decides ell = 2, 3; at ell >= 5 u = ell^(v(disc)/12) leaves c4,
    c6 integral, so good iff 12 | v(disc) and c4 = 0 or 3 v(c4) >= v(disc)."""
    def bad(ell):
        if ell <= 3:
            return tate_local(E, ell).kind != "good"
        vD = valuation(E.disc, ell)
        return vD % 12 != 0 or (E.c4 != 0 and 3 * valuation(E.c4, ell) < vD)

    kept = E._recall("bad_primes")
    if kept is None:
        kept = E._remember("bad_primes", tuple(filter(bad, factor(E.disc))))
    return list(kept)


def conductor(E: WeierstrassCurve) -> int:
    """Product of ell^f over the bad primes, exponents from Tate's algorithm."""
    N = 1
    for ell in bad_primes(E):
        N *= ell ** tate_local(E, ell).conductor_exponent
    return N


# -- Tate period ----------------------------------------------------------

_J_COEFFS = [1, 744]  # ascending coefficients of q * j(q)
_J_CAP = 400


def _extend_j_coeffs(count):
    """Integer coefficients of q*j(q) = E4^3 / prod(1-q^n)^24 up to q^count."""
    global _J_COEFFS
    if len(_J_COEFFS) >= count:
        return
    n = count + 1
    e4 = [1] + [240 * s for s in _sigma3(n)[1:]]
    out = [sum(e4[i] * e4[k - i] for i in range(k + 1)) for k in range(n)]
    out = [sum(out[i] * e4[k - i] for i in range(k + 1)) for k in range(n)]
    for m in range(1, n):  # divide by (1 - q^m)^24
        for _ in range(24):
            for k in range(m, n):
                out[k] += out[k - m]
    _J_COEFFS = out


def _sigma3(n):
    """[sigma_3(k) for k < n], with sigma_3(0) = 0."""
    out = [0] * n
    for d in range(1, n):
        for m in range(d, n, d):
            out[m] += d ** 3
    return out


def j_expansion_coeff(n: int) -> int:
    """Coefficient of q^n in j(q) (n >= -1)."""
    _extend_j_coeffs(n + 2)
    return _J_COEFFS[n + 1]


def tate_period(E: WeierstrassCurve, ell: int, digits: int = 20) -> PadicNumber:
    """The parameter q with j(q) = j(E), for ord_ell(j) < 0.

    With c = -ord_ell(j), write q = ell^c Q and j = ell^(-c) J for units
    Q and J.  The ell-adically contracting iteration
    q <- 1 / (j - sum_{n>=0} c_n q^n) then runs on plain integers modulo
    ell^(digits + 2c + 4) as Q <- (J - ell^c sum_n c_n (ell^c Q)^n)^(-1)
    until Q repeats.
    Q is certified a unit, and j(q) = j is certified by re-substitution
    to the requested digit count; either failure raises CertificateError.
    """
    ordj = E.ord_j(ell)
    if ordj is None or ordj >= 0:
        raise ValueError(f"ord_{ell}(j) must be negative (potentially multiplicative)")
    c = -ordj
    work = digits + 2 * c + 4
    nterms = work // c + 2
    if nterms > _J_CAP:
        raise ValueError("requested precision needs too many q-expansion coefficients")
    _extend_j_coeffs(nterms + 2)
    J = PadicNumber.from_rational(ell, E.j, work).u
    mod, lc = ell ** work, ell ** c
    Q = pow(J, -1, mod)
    for _ in range(work):
        x, tail = lc * Q % mod, 0
        for cn in _J_COEFFS[nterms:0:-1]:  # sum_{n < nterms} c_n x^n by Horner
            tail = (tail * x + cn) % mod
        Q, prev = pow((J - lc * tail) % mod, -1, mod), Q
        if Q == prev:
            break
    if Q % ell == 0:
        raise CertificateError(f"Tate period at {ell} is not {ell}^{c} times a unit")
    # re-substitute into j = E4^3 / Delta, which reads none of _J_COEFFS:
    # v(j(q) - j) = v(E4(q)^3 - J Q prod_n (1 - q^n)^24) - c
    x, sigma3 = lc * Q % mod, _sigma3(nterms)
    e4, prod, xn = 1, 1, 1
    for n in range(1, nterms):
        xn = xn * x % mod
        e4 = (e4 + 240 * sigma3[n] * xn) % mod
        prod = prod * (1 - xn) % mod
    resid = (e4 ** 3 - J * Q * pow(prod, 24, mod)) % mod
    if resid and valuation(resid, ell) < digits + c:
        raise CertificateError(f"Tate period at {ell} fails re-substitution to {digits} digits")
    return PadicNumber(ell, c, Q, work, _checked=True)
