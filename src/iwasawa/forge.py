"""Construct curves over Q with prescribed local behavior.

Given disjoint prime sets P (good reduction with prescribed traces) and
L (multiplicative reduction with prescribed split type and Tamagawa
number), plus a set Q of residue-irreducibility constraints, a witness
curve is built for each prime and the coefficients are glued with the
Chinese Remainder Theorem; the exponents at L are doubled until the
verification ledger passes.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from itertools import count, product

from .curves import WeierstrassCurve, count_points, quadratic_twist
from .padics import centered, is_prime, legendre, require_prime
from .tate import _cubic_shape, _lone_root, tate_local

SEARCH_PRIME_BOUND = 10 ** 5
T_CAP = 64


@dataclass(frozen=True)
class ForgeSpec:
    good: tuple = ()          # (p, a_p*) pairs
    mult: tuple = ()          # (ell, a_ell* in {+1,-1}, c_ell*) triples
    irreducible: tuple = ()   # primes q with E[q] to be irreducible

    def __post_init__(self):
        ps = [p for p, _ in self.good]
        ls = [l for l, _, _ in self.mult]
        for name, primes in (("P", ps), ("L", ls), ("Q", self.irreducible)):
            twice = next((x for x, k in Counter(primes).items() if k > 1), None)
            if twice is not None:
                raise ValueError(f"{name} lists the prime {twice} more than once")
        if set(ps) & set(ls):
            raise ValueError("P and L must be disjoint")
        for p, a in self.good:
            require_prime(p)
            if a * a >= 4 * p:
                raise ValueError(f"|a_p*| = {abs(a)} violates the Hasse bound at {p}")
        for l, a, c in self.mult:
            require_prime(l)
            if a not in (1, -1):
                raise ValueError("multiplicative trace must be +1 or -1")
            if c < 1:
                raise ValueError("Tamagawa target must be positive")
            if c > T_CAP - 2:
                raise ValueError(f"Tamagawa target {c} at {l} exceeds {T_CAP - 2}: "
                                 f"its CRT exponent c* + 2 would pass T_CAP = {T_CAP}")
            if a == -1 and c not in (1, 2):
                raise ValueError("nonsplit reduction allows c* = 1 or 2 only")
        for q in self.irreducible:
            require_prime(q)

    @classmethod
    def from_dict(cls, d):
        """The spec {"P": [[p, a_p*], ...], "L": [[ell, a*, c*], ...], "Q": [q, ...]},
        every entry a JSON integer: floats, strings and booleans are refused."""
        if not isinstance(d, dict):
            raise ValueError(f"a forge spec is a JSON object, got {d!r}")
        P, L = d.get("P", []), d.get("L", [])
        if not isinstance(P, list) or not isinstance(L, list):
            raise ValueError(f"P and L must be lists, got {P!r} and {L!r}")
        return cls(good=tuple(_ints(r, 2, "a P entry") for r in P),
                   mult=tuple(_ints(r, 3, "an L entry") for r in L),
                   irreducible=_ints(d.get("Q", []), None, "Q"))

    def to_dict(self):
        return {"P": [list(x) for x in self.good],
                "L": [list(x) for x in self.mult],
                "Q": list(self.irreducible)}


def _ints(values, width, what):
    """values as a tuple, if it is a list of (width, if given) JSON integers."""
    if (not isinstance(values, list) or width not in (None, len(values))
            or any(type(v) is not int for v in values)):
        count = f"{width} " if width else ""
        raise ValueError(f"{what} must be a list of {count}integers, got {values!r}")
    return tuple(values)


@dataclass(frozen=True)
class ForgeResult:
    curve: WeierstrassCurve
    ledger: tuple
    witnesses: dict          # q -> witness prime r_q
    exponents: dict          # m -> t_m used in the CRT

    @property
    def ok(self):
        return all(entry[3] for entry in self.ledger)


class ForgeError(ArithmeticError):
    """A construction step found no model where one was expected."""


def deuring_search(p: int, a_target: int, seed: int = 0):
    """A curve over F_p with exactly 1 + p - a_target points.

    Every trace in the Hasse interval occurs over F_p (Deuring), so
    candidates y^2 = x^3 + A x + B are drawn until one counts right.
    Primes p <= 3 enumerate long models and p <= 60 short ones in order.
    Larger primes draw (A, B) lazily, with replacement, from a generator
    seeded by (seed, p, a_target), so the answer is deterministic per
    seed and memory stays O(p).  A draw with trace -a_target is paired
    with its quadratic twist by the least nonresidue d, which has trace
    a_target; this halves the expected number of point counts.  For
    p >= 5 a draw is counted only when its 2-part fits the target mod 4
    (`_two_part_fits`), which skips about two thirds of the counts and no
    draw that would count right.  Each `count_points` is O(p) and about
    sqrt(p) draws are expected, so a search near SEARCH_PRIME_BOUND costs
    O(p^1.5): five searches at p = 99971..99991 made 34 to 824 counts of
    about 9 ms each and took 0.3 to 7.5 s (49 to 824 counts by root count
    alone, 74 to 2400 unscreened; 2 vCPUs, Intel Xeon, CPython 3.11).
    After 40 p nonsingular draws, screened ones included, ForgeError is raised.
    Returns integer a-invariants in [0, p).
    """
    require_prime(p)
    if a_target * a_target >= 4 * p:
        raise ValueError("target trace violates the Hasse bound")
    if p > SEARCH_PRIME_BOUND:
        raise ValueError(f"{p} exceeds the search bound")
    want = 1 + p - a_target
    if p <= 3:
        for ainvs in product(range(p), repeat=5):
            E = _curve_mod(p, ainvs)
            if E is not None and count_points(E, p) == want:
                return ainvs
        raise ForgeError(f"exhausted the models over F_{p} without a_{p} = {a_target}")
    if p <= 60:
        candidates, d = product(range(p), repeat=2), None
    else:
        rng = random.Random(f"{seed}:{p}:{a_target}")
        candidates = (divmod(rng.randrange(p * p), p) for _ in count())
        d = _unit_nonsquare(p)
    tried = 0
    for A, B in candidates:
        if (4 * A ** 3 + 27 * B * B) % p == 0:  # singular mod p >= 5
            continue
        if _two_part_fits(A, B, p, want):
            a = p + 1 - count_points(WeierstrassCurve(0, 0, 0, A, B), p)
            if a == a_target:
                return (0, 0, 0, A, B)
            if d is not None and a == -a_target:
                return (0, 0, 0, A * d * d % p, B * d ** 3 % p)
        tried += 1
        if tried > 40 * p:
            break
    raise ForgeError(f"no curve with a_{p} = {a_target} after {40 * p} tries")


def _two_part_fits(A, B, p, n):
    """Whether nonsingular y^2 = h(x) = x^3 + Ax + B over F_p, p >= 5, can
    have n points by its 2-part: E[2](F_p) has 1, 2 or 4 points as h has 0,
    1 or 3 roots, and with one root e, 4 | |E(F_p)| exactly when (e, 0) is
    in 2E(F_p), that is when h'(e) = 3e^2 + A is a square (2-descent, AEC
    X.1.4).  The same holds for 2p + 2 - n, so twist pairing holds."""
    roots = _cubic_shape(B, A, 0, p)[1]
    if n % 2:
        return roots == 0
    if roots == 1:
        return (legendre(3 * _lone_root(B, A, 0, p) ** 2 + A, p) == 1) == (n % 4 == 0)
    return roots == 3 and n % 4 == 0


def _curve_mod(p, ainvs):
    try:
        E = WeierstrassCurve(*ainvs)
    except ValueError:
        return None
    return E if E.disc % p else None


def irreducibility_witness(q: int, avoid=()):
    """(r, curve mod r) with Frobenius acting irreducibly on the q-torsion.

    q = 2: y^2 = irreducible cubic over F_r (no rational 2-torsion).
    q odd: supersingular a_r = 0 over a prime r with -r a nonresidue
    mod q, so the characteristic polynomial t^2 + r has no root mod q.
    """
    require_prime(q)
    r = 3
    while True:
        r = _next_prime(r)
        if r == q or r in avoid:
            continue
        if q == 2:
            for c in range(r):
                for d in range(r):
                    # An irreducible cubic is squarefree, so E is nonsingular mod r, and
                    # has no root, so E(F_r) has no point of order 2: |E(F_r)| is odd,
                    # a_r = r + 1 - |E(F_r)| is odd and t^2 - a_r t + r is irreducible mod 2.
                    if _cubic_shape(d, c, 0, r) == (1, 0):
                        return r, (0, 0, 0, c, d)
        elif legendre(-r, q) != 1:
            return r, deuring_search(r, 0)


def _next_prime(n):
    n += 1
    while not is_prime(n):
        n += 1
    return n


def tate_local_model(ell: int, a_star: int, c_star: int) -> WeierstrassCurve:
    """An integral model with multiplicative reduction at ell,
    ord_ell(j) = -c*, split exactly when a* = +1.

    The split model comes from forcing j = ell^(-c*) in the j-line family
    and clearing denominators; the nonsplit one is its quadratic twist by
    a unit nonsquare at ell.
    """
    if a_star not in (1, -1):
        raise ValueError("a* must be +1 or -1")
    if a_star == -1 and c_star not in (1, 2):
        raise ValueError("nonsplit reduction has c* in {1, 2}")
    if c_star < 1:
        raise ValueError("c* must be positive")
    u = 1 - 1728 * ell ** c_star
    E = WeierstrassCurve(1, 0, 0, -36 * ell ** c_star * u ** 3, -(ell ** c_star) * u ** 5)
    if a_star == -1:
        E = quadratic_twist(E, _unit_nonsquare(ell))
    loc = tate_local(E, ell)
    want = "multiplicative_split" if a_star == 1 else "multiplicative_nonsplit"
    if loc.kind != want or loc.tamagawa != c_star or loc.ord_j != -c_star:
        raise ForgeError(f"model at {ell} has {loc.kind}, c = {loc.tamagawa}, "
                         f"ord(j) = {loc.ord_j}; wanted {want}, c = {c_star}")
    return E


def _unit_nonsquare(ell):
    if ell == 2:
        return 5
    d = 2  # the least nonresidue is prime, hence squarefree
    while legendre(d, ell) == 1:
        d += 1
    return d


def forge_verify(E: WeierstrassCurve, spec: ForgeSpec, witnesses=None):
    """Per-clause ledger: traces at P, local data at L, and irreducibility
    certificates at Q (Frobenius characteristic polynomial irreducible
    mod q at a witness prime).  Certificates may fail to certify without
    asserting reducibility."""
    ledger = []
    for p, a_star in spec.good:
        if E.disc % p == 0:
            ledger.append((f"good at {p}", a_star, None, False))
            continue
        ap = p + 1 - count_points(E, p)
        ledger.append((f"a_{p}", a_star, ap, ap == a_star))
    for ell, a_star, c_star in spec.mult:
        loc = tate_local(E, ell)
        want = "multiplicative_split" if a_star == 1 else "multiplicative_nonsplit"
        ledger.append((f"kind at {ell}", want, loc.kind, loc.kind == want))
        ledger.append((f"c_{ell}", c_star, loc.tamagawa, loc.tamagawa == c_star))
    used = dict(witnesses or {})
    for q in spec.irreducible:
        r = used.get(q)
        cert, r_used = _certify_irreducible(E, q, r)
        used[q] = r_used
        ledger.append((f"E[{q}] irreducible (witness {r_used})", "certified",
                       "certified" if cert else "not certified", cert))
    return tuple(ledger), used


def _certify_irreducible(E, q, r=None):
    """Try witness primes of good reduction until t^2 - a_r t + r is
    irreducible mod q; sufficient for irreducibility, never 'reducible'."""
    candidates = [r] if r else []
    rr = 2
    while len(candidates) < 60:
        rr = _next_prime(rr)
        if rr != q and E.disc % rr:
            candidates.append(rr)
    for r_try in candidates:
        if E.disc % r_try == 0:
            continue
        ar = r_try + 1 - count_points(E, r_try)
        if _frob_poly_irreducible(ar, r_try, q):
            return True, r_try
    return False, candidates[-1]


def _frob_poly_irreducible(a, r, q):
    """t^2 - a t + r irreducible over F_q."""
    if q == 2:
        return a % 2 == 1 and r % 2 == 1
    return legendre(a * a - 4 * r, q) == -1


def crt_assemble(spec: ForgeSpec, seed: int = 0) -> ForgeResult:
    """Glue local witnesses by CRT, doubling the exponents at L until the
    verification ledger passes (capped at t = 64)."""
    witnesses = {}
    avoid = set(p for p, _ in spec.good) | set(l for l, _, _ in spec.mult)
    models = {}
    for p, a_star in spec.good:
        models[p] = (deuring_search(p, a_star, seed), 1)
    for q in spec.irreducible:
        r, ainvs = irreducibility_witness(q, avoid=avoid | set(witnesses.values()))
        witnesses[q] = r
        models[r] = (ainvs, 1)
    t_mult = {l: max(4, c + 2) for l, _, c in spec.mult}
    while True:
        full = dict(models)
        for l, a_star, c_star in spec.mult:
            full[l] = (tate_local_model(l, a_star, c_star).ainvs(), t_mult[l])
        E = _combine(full)
        ledger, used = forge_verify(E, spec, witnesses)
        if (all(entry[3] for entry in ledger) or not spec.mult
                or all(t_mult[l] >= T_CAP for l in t_mult)):
            return ForgeResult(E, ledger, used, {m: t for m, (_, t) in full.items()})
        for l in t_mult:
            t_mult[l] = min(T_CAP, 2 * t_mult[l])


def _combine(models):
    """Coefficientwise CRT with centered lifts; keeps the curve nonsingular."""
    if not models:
        return WeierstrassCurve(0, 0, 0, -1, 1)
    moduli = [m ** t for m, (_, t) in models.items()]
    M = 1
    for x in moduli:
        M *= x
    ainvs = []
    for i in range(5):
        resid = 0
        for (m, (model, t)) in models.items():
            mt = m ** t
            rest = M // mt
            resid += model[i] * rest * pow(rest, -1, mt)
        ainvs.append(centered(resid, M))
    for _ in range(8):
        try:
            return WeierstrassCurve(*ainvs)
        except ValueError:
            ainvs[4] += M  # keep all residues, move off the singular locus
    raise ForgeError("could not find a nonsingular lift")
