"""The unscreened Deuring search, kept as the oracle for `forge.deuring_search`.

    PYTHONPATH=src python tests/deuring_oracle.py --count 3000 --seed 1

It draws the same candidates in the same order for p >= 5 (in order for
p <= 60, seeded with replacement above) and counts the points of every
nonsingular draw, with no 2-torsion screen before the count.  The first
draw that counts right is therefore the answer the screened search must
give, and every count it makes is one the screen could have skipped.

`run` compares both searches on seeded targets with 5 <= p < 1600.  It
also counts the draws that the root count of x^3 + Ax + B alone would let
through (`root_count_fits`, the screen before the lone-root halving test),
so each search must count no more often than that, and that no more often
than the oracle.  Pytest does not collect this file; tests/test_forge.py
imports it.  The script prints each breach and exits 1 if there is any.
"""

import argparse
import random
import sys
from itertools import count, product
from math import isqrt

from iwasawa import forge
from iwasawa.curves import count_points
from iwasawa.forge import ForgeError, _curve_mod, _unit_nonsquare
from iwasawa.padics import is_prime

#: the primes a compared search may draw
PRIMES = [p for p in range(5, 1600) if is_prime(p)]


def deuring_search(p, a_target, seed=0, counter=count_points):
    """(0, 0, 0, A, B) with 1 + p - a_target points over F_p, for a prime
    p >= 5; `counter` counts the points."""
    if p <= 60:
        candidates, d = product(range(p), repeat=2), None
    else:
        rng = random.Random(f"{seed}:{p}:{a_target}")
        candidates = (divmod(rng.randrange(p * p), p) for _ in count())
        d = _unit_nonsquare(p)
    tried = 0
    for A, B in candidates:
        E = _curve_mod(p, (0, 0, 0, A, B))
        if E is None:
            continue
        a = p + 1 - counter(E, p)
        if a == a_target:
            return (0, 0, 0, A, B)
        if d is not None and a == -a_target:
            return (0, 0, 0, A * d * d % p, B * d ** 3 % p)
        tried += 1
        if tried > 40 * p:
            break
    raise ForgeError(f"no curve with a_{p} = {a_target} after {40 * p} tries")


def root_count_fits(roots, n):
    """Whether a cubic with `roots` roots mod p fits |E(F_p)| = n mod 4 by
    the root count alone: 0 roots for odd n, 1 for 2 mod 4, 1 or 3 for 0."""
    return roots in ((0,) if n % 2 else (1,) if n % 4 == 2 else (1, 3))


def _outcome(search, *args):
    try:
        return search(*args)
    except ForgeError as exc:
        return str(exc)


def compare(p, a_target, seed):
    """(counts, breach) for one target: the point counts of the screened
    search, of its draws that the root count alone lets through, and of the
    oracle; breach names a differing answer or count order, else None."""
    counts = {"screened": 0, "root count": 0, "oracle": 0}
    shape, screened_count = forge._cubic_shape, forge.count_points

    def spy_shape(*args):
        found = shape(*args)
        counts["root count"] += root_count_fits(found[1], p + 1 - a_target)
        return found

    def spy(side, counter):
        def counted(E, q):
            counts[side] += 1
            return counter(E, q)
        return counted

    forge._cubic_shape, forge.count_points = spy_shape, spy("screened", screened_count)
    try:
        screened = _outcome(forge.deuring_search, p, a_target, seed)
    finally:
        forge._cubic_shape, forge.count_points = shape, screened_count
    oracle = _outcome(deuring_search, p, a_target, seed, spy("oracle", count_points))
    if screened != oracle:
        return counts, f"answer {screened} != oracle {oracle}"
    if not counts["screened"] <= counts["root count"] <= counts["oracle"]:
        return counts, f"counts out of order: {counts}"
    return counts, None


def run(seed, n):
    """(breaches, totals) over n seeded targets (p, a*, seed), with
    5 <= p < 1600 and a* anywhere in the Hasse interval."""
    rng = random.Random(seed)
    totals = {"screened": 0, "root count": 0, "oracle": 0}
    breaches = []
    for _ in range(n):
        p = rng.choice(PRIMES)
        a = rng.randrange(-isqrt(4 * p - 1), isqrt(4 * p - 1) + 1)
        search_seed = rng.randrange(10 ** 6)
        counts, breach = compare(p, a, search_seed)
        if breach:
            breaches.append(((p, a, search_seed), breach))
        for side in totals:
            totals[side] += counts[side]
    return breaches, totals


def main(argv=None):
    ap = argparse.ArgumentParser(description="The screened Deuring search against the unscreened oracle.")
    ap.add_argument("--count", type=int, default=320)
    ap.add_argument("--seed", type=int, default=20)
    args = ap.parse_args(argv)
    breaches, totals = run(args.seed, args.count)
    for target, reason in breaches:
        print(f"{target}: {reason}")
    print(f"{args.count} searches, seed {args.seed}: point counts {totals}, {len(breaches)} breaches")
    return 1 if breaches else 0


if __name__ == "__main__":
    sys.exit(main())
