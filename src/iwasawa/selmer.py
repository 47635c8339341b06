"""Numerical Selmer-group laws for E/Q at a prime p.

The Euler characteristic of the cyclotomic Selmer dual is computed as an
itemized p-adic valuation ledger,

    v_p(f(0)) = sum_bad v_p(c_l) + (at-p factor) + v_p|Sel| - 2 v_p|E(Q)_tors|,

with the at-p factor 2*v_p|E~(F_p)| for good ordinary reduction, v_p(2)
for nonsplit multiplicative, and the log-of-Tate-period valuation for
split multiplicative reduction.  The Selmer order itself is an input
(typically the predicted Tate-Shafarevich order); descent is out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass

from .curves import (CertificateError, WeierstrassCurve, _integer_cubic_roots, ap_count,
                     quadratic_twist, torsion)
from .padics import iwasawa_log, legendre, valuation
from .tate import bad_primes, tate_local, tate_period


class EulerCharError(ArithmeticError):
    pass


class SupersingularAtP(EulerCharError):
    """Euler characteristic undefined: the Selmer dual is not torsion here."""


@dataclass(frozen=True)
class GlobalAssumptions:
    """External inputs: v_p of the (predicted) Selmer order, etc."""
    sel_vp: int = 0
    rank: int | None = None
    sel_finite: bool = True


@dataclass(frozen=True)
class EulerReport:
    prime: int
    entries: tuple          # (place label, contribution, note)
    total: int
    notes: tuple = ()

    def contribution(self, label):
        return sum(c for pl, c, _ in self.entries if pl == label)


def euler_char(E: WeierstrassCurve, p: int, A: GlobalAssumptions,
               digits: int | None = None) -> EulerReport:
    """Itemized v_p(f(0)) under the stated global assumptions."""
    if not A.sel_finite:
        raise EulerCharError("requires the Selmer group to be (assumed) finite")
    if A.rank:
        raise EulerCharError("positive declared rank contradicts a finite Selmer group")
    locp = tate_local(E, p)
    entries = []
    notes = []
    if locp.kind == "good":
        if locp.supersingular:
            raise SupersingularAtP(f"supersingular at {p}: positive corank regime")
        npts = p + 1 - locp.a_ell
        vp = valuation(npts, p)
        entries.append(("at-p", 2 * vp,
                        f"good ordinary, |E~(F_{p})| = {npts}"
                        + (", anomalous" if locp.anomalous else "")))
    elif locp.kind == "multiplicative_nonsplit":
        entries.append(("at-p", valuation(2, p), "nonsplit multiplicative factor 2"))
    elif locp.kind == "multiplicative_split":
        vlog = _log_period_valuation(E, p, digits or max(12, 2 * A.sel_vp + 10))
        contrib = vlog - valuation(locp.tamagawa, p) - valuation(2 * p, p)
        entries.append(("at-p", contrib,
                        f"split multiplicative: v(log q) = {vlog}, "
                        f"v(ord q) = {valuation(locp.tamagawa, p)}; the -{valuation(2 * p, p)} "
                        "normalization is convention-dependent"))
        notes.append(f"raw v_{p}(log q) = {vlog}")
    else:
        raise EulerCharError(f"additive reduction at {p}: outside the formula's scope")
    for ell in bad_primes(E):
        c = tate_local(E, ell).tamagawa
        entries.append((f"tamagawa {ell}", valuation(c, p), f"c_{ell} = {c}"))
    entries.append(("selmer", A.sel_vp, "assumed v_p of |Sel|"))
    tors = torsion(E).order
    entries.append(("torsion", -2 * valuation(tors, p), f"|E(Q)_tors| = {tors}"))
    total = sum(c for _, c, _ in entries)
    return EulerReport(prime=p, entries=tuple(entries), total=total, notes=tuple(notes))


def _log_period_valuation(E, p, digits):
    """v_p(log_p q) for the Tate period q at a split multiplicative p."""
    logq = iwasawa_log(tate_period(E, p, digits=digits))
    if logq.is_zero:
        raise EulerCharError("log of the Tate period vanishes at working precision")
    return logq.valuation()


@dataclass(frozen=True)
class IsogenyConsistency:
    totals: tuple
    required_shift: int
    contradiction: bool
    note: str


def isogeny_euler_consistency(E1, E2, p, A: GlobalAssumptions,
                              mu_shift: int = 1) -> IsogenyConsistency:
    """Check a p-isogenous pair against v(f_2(0)) = v(f_1(0)) + mu_shift.

    With finite square Selmer orders both computed totals are even, so an
    odd mu_shift is impossible; the flag reproduces that contradiction
    (the finiteness assumption has to fail for such a pair).
    """
    t1 = euler_char(E1, p, A).total
    t2 = euler_char(E2, p, A).total
    contradiction = (t2 - t1) != mu_shift
    note = (f"computed difference {t2 - t1} but the isogeny forces {mu_shift}; "
            "the finite-Selmer assumption is untenable" if contradiction else "consistent")
    return IsogenyConsistency((t1, t2), mu_shift, contradiction, note)


# -- local kernel orders ----------------------------------------------------


def local_kernels(E: WeierstrassCurve, p: int) -> dict:
    """Orders of the layer-restriction kernels, place by place.

    Read off the `euler_char` ledger, whose refusals carry over: bad
    ell != p contribute the p-part of c_ell, and p its at-p entry plus
    v_p(c_p): the squared p-part of |E~(F_p)| (good ordinary), p^v for
    v = v_p(log_p(q)/2p) (split multiplicative), and 1 resp. 2 c_2-part
    (nonsplit, p odd/2).
    """
    report = euler_char(E, p, GlobalAssumptions(), digits=16)
    v = {int(pl[len("tamagawa "):]): c for pl, c, _ in report.entries
         if pl.startswith("tamagawa ")}
    v[p] = report.contribution("at-p") + v.pop(p, 0)
    return {ell: p ** c for ell, c in v.items()}


# -- vanishing / infinitude criteria ----------------------------------------


@dataclass(frozen=True)
class CriterionReport:
    holds: bool
    conditions: tuple       # (name, ok, detail)
    conclusion: str


def criterion_vanishing(E: WeierstrassCurve, p: int,
                        A: GlobalAssumptions | None = None) -> CriterionReport:
    """Surjectivity-onto-invariants test: p does not divide |E~(F_p)| and
    p divides no Tamagawa number away from p; with Sel = 0 as input the
    cyclotomic Selmer group vanishes too."""
    locp = tate_local(E, p)
    if locp.kind != "good" or locp.supersingular:
        raise EulerCharError(f"needs good ordinary reduction at {p}")
    npts = p + 1 - locp.a_ell
    conds = [("p does not divide |E~(F_p)|", npts % p != 0,
              f"|E~(F_{p})| = {npts}" + (", anomalous" if npts % p == 0 else ""))]
    for ell in bad_primes(E):
        if ell == p:
            continue
        c = tate_local(E, ell).tamagawa
        conds.append((f"p does not divide c_{ell}", c % p != 0, f"c_{ell} = {c}"))
    holds = all(ok for _, ok, _ in conds)
    if holds and A is not None and A.sel_vp == 0 and A.sel_finite:
        conclusion = "holds; with Sel(Q)_p = 0 the cyclotomic Selmer group is 0"
    elif holds:
        conclusion = "holds (conclusion conditional on Sel(Q)_p = 0)"
    else:
        conclusion = "fails: " + "; ".join(n for n, ok, _ in conds if not ok)
    return CriterionReport(holds, tuple(conds), conclusion)


def criterion_infinite(E: WeierstrassCurve, p: int,
                       A: GlobalAssumptions) -> CriterionReport:
    """Infinitude test at a good ordinary prime, for E(Q) without p-torsion:
    a nonzero Selmer input, an anomalous p, or p dividing some Tamagawa
    number each force the cyclotomic Selmer group to be infinite."""
    locp = tate_local(E, p)
    if locp.kind != "good" or locp.supersingular:
        raise EulerCharError(f"needs good ordinary reduction at {p}")
    if torsion(E).order % p == 0:
        raise EulerCharError(f"E(Q) has {p}-torsion: hypothesis violated")
    clauses = [("(i) Sel(Q)_p nonzero", A.sel_vp > 0, f"v_p|Sel| = {A.sel_vp}"),
               ("(ii) anomalous at p", locp.anomalous, f"a_{p} = {locp.a_ell}")]
    for ell in bad_primes(E):
        if ell == p:
            continue
        loc = tate_local(E, ell)
        if loc.tamagawa % p == 0:
            tag = "(iii)" if loc.kind.startswith("multiplicative") else "(iv)"
            clauses.append((f"{tag} p | c_{ell}", True,
                            f"c_{ell} = {loc.tamagawa}, {loc.kind}"))
    holds = any(ok for _, ok, _ in clauses)
    trigger = next((n for n, ok, _ in clauses if ok), None)
    return CriterionReport(holds, tuple(clauses),
                           f"infinite via {trigger}" if holds else "no clause fires")


# -- parity / corank bookkeeping ---------------------------------------------


@dataclass(frozen=True)
class ParityReport:
    consistent: bool | None
    corank_lower_bound: int | None
    injectivity: bool
    notes: tuple


def corank_parity(E: WeierstrassCurve, p: int, lambda_E: int | None = None,
                  sel_corank: int | None = None) -> ParityReport:
    """Parity and corank bookkeeping: sel corank = lambda mod 2 (p odd),
    the supersingular corank lower bound, and the layer-injectivity
    guarantee for good-ordinary/multiplicative reduction when p >= 3."""
    notes = []
    consistent = None
    if lambda_E is not None and sel_corank is not None:
        if p == 2:
            notes.append("parity clause needs p odd")
        else:
            consistent = (sel_corank - lambda_E) % 2 == 0
    r = _potentially_supersingular_rank(E, p)
    if r is None:
        notes.append("potentially supersingular status undecided at an additive prime")
    locp = tate_local(E, p)
    injectivity = (p >= 3 and (locp.kind == "good" and locp.ordinary
                               or locp.kind.startswith("multiplicative")))
    return ParityReport(consistent, r, injectivity, tuple(notes))


def _potentially_supersingular_rank(E, p):
    loc = tate_local(E, p)
    if loc.kind == "good":
        return 1 if loc.supersingular else 0
    if loc.kind.startswith("multiplicative"):
        return 0
    if loc.ord_j is not None and loc.ord_j < 0:
        return 0  # potentially multiplicative
    for d in (-1, 2, -2, p, -p, 2 * p, -2 * p, 3, -3, 3 * p, -3 * p):
        try:
            tw = quadratic_twist(E, d)
        except ValueError:
            continue
        loctw = tate_local(tw, p)
        if loctw.kind == "good":
            return 1 if loctw.supersingular else 0
    return None


# -- anomalous-prime density screen ------------------------------------------


@dataclass(frozen=True)
class ScreenReport:
    excluded: bool
    reason: str


def density_screen(E: WeierstrassCurve, p: int,
                   declared_torsion_order: int | None = None) -> ScreenReport:
    """Rule out anomalous reduction at p from torsion on the isogeny class.

    Rational 2-torsion with p > 5 forces 2p <= |E~(F_p)| < 1 + p + 2 sqrt p,
    impossible; a declared isogenous torsion subgroup of order q > 2 with
    p not dividing q works the same way.  Cross-checked against the actual
    point count: a disagreement raises CertificateError, also under -O.
    """
    if tate_local(E, p).kind != "good":
        raise ValueError(f"needs good reduction at {p}")
    reason = ""
    excluded = False
    if p > 5 and _integer_cubic_roots(*E.short_model()):  # rational 2-torsion
        excluded = True
        reason = f"rational 2-torsion and p = {p} > 5"
    q = declared_torsion_order
    if not excluded and q is not None and q > 2 and q % p != 0:
        gap = q * p - 1 - p
        if gap > 0 and gap * gap > 4 * p:  # qp > 1 + p + 2 sqrt(p), exactly
            excluded = True
            reason = f"isogenous torsion of order {q}: {q}*{p} > 1 + {p} + 2*sqrt({p})"
    if excluded and ap_count(E, p) % p == 1:
        raise CertificateError(f"screen excludes anomalous reduction at {p}, "
                               "but the point count is anomalous")
    return ScreenReport(excluded, reason or "hypotheses absent")


# -- quadratic-twist lambda formula --------------------------------------------


def twist_lambda(lambda_xi: int, d: int) -> int:
    """lambda of the twisted curve at p = 5 for the conductor-11 class:
    2*lambda_xi + epsilon, with epsilon = 1 exactly when 11 splits in
    Q(sqrt(d)); requires an odd character (d < 0) with 5 unramified."""
    if d >= 0:
        raise ValueError("the formula covers odd characters only (d < 0)")
    if d % 5 == 0:
        raise ValueError("needs the character nonzero at 5 (5 must not divide d)")
    eps = 1 if legendre(d, 11) == 1 else 0
    return 2 * lambda_xi + eps
