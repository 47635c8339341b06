"""The unscreened Deuring search, kept as the oracle for `forge.deuring_search`.

It draws the same candidates in the same order for p >= 5 (in order for
p <= 60, seeded with replacement above) and counts the points of every
nonsingular draw, with no 2-torsion screen before the count.  The first
draw that counts right is therefore the answer the screened search must
give, and every count it makes is one the screen could have skipped.
"""

import random
from itertools import count, product

from iwasawa.curves import count_points
from iwasawa.forge import ForgeError, _curve_mod, _unit_nonsquare


def deuring_search(p, a_target, seed=0):
    """(0, 0, 0, A, B) with 1 + p - a_target points over F_p, for a prime p >= 5."""
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
        a = p + 1 - count_points(E, p)
        if a == a_target:
            return (0, 0, 0, A, B)
        if d is not None and a == -a_target:
            return (0, 0, 0, A * d * d % p, B * d ** 3 % p)
        tried += 1
        if tried > 40 * p:
            break
    raise ForgeError(f"no curve with a_{p} = {a_target} after {40 * p} tries")
