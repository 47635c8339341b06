"""Embedded dataset: the explicitly printed example curves, with their
reported invariants as annotations.

Annotations are data, never recomputed: expected Tamagawa numbers,
torsion structure, Euler-characteristic valuations, reported analytic
invariants, predicted Selmer orders, and declared isogeny-kernel
classifications.  Each annotation carries a descriptive source string.
The table is integrity-checked by its checksum once, at import.  Importing
it loads none of the arithmetic modules: `DatasetEntry.curve()` and
`isogeny_edges()` import `curves` and `mu` when they are called.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field


@dataclass(frozen=True)
class DatasetEntry:
    label: str
    ainvs: tuple
    annotations: dict = field(default_factory=dict)
    source: str = ""

    def curve(self) -> WeierstrassCurve:
        from .curves import WeierstrassCurve
        return WeierstrassCurve(*self.ainvs)


_SRC = "published example set of the underlying computation"

_ENTRIES = [
    ("11a", (0, -1, 1, -10, -20), {
        "torsion": "Z/5", "tamagawa": {11: 5}, "ord_j": {11: -5},
        "sel_order": 1, "euler_vp": {5: 1},
        "mu": {5: 1}, "lambda": {5: 0},
        "anomalous_primes_below_100": [5],
        "notes": "split multiplicative at 11; the whole class has mu in {0,1,2} at 5",
    }),
    ("32a", (0, 0, 0, 4, 0), {
        "torsion": "Z/4", "tamagawa": {2: 4},
        "sel_order": 1,
        "notes": "CM curve; ordinary exactly at p = 1 mod 4; no anomalous primes "
                 "(printed with a sign typo as y^2 = x^3 - 4x; that curve has "
                 "torsion Z/2 x Z/2 and conductor 64, so the + sign is forced)",
    }),
    ("768d1", (0, 1, 0, -7, 5), {
        "torsion": "Z/2", "tamagawa": {2: 2, 3: 1},
        "sel_order": 1, "euler_vp": {5: 0}, "ap": {5: 2},
        "mu": {5: 0}, "lambda": {5: 0},
    }),
    ("768d3", (0, 1, 0, -647, -6555), {
        "torsion": "Z/2", "tamagawa": {2: 2, 3: 5},
        "sel_order": 1, "euler_vp": {5: 1}, "ap": {5: 2},
        "mu": {5: 1}, "lambda": {5: 0},
        "isogeny_edges": [("768d3", "768d1", 5, True, True)],
    }),
    ("67a1", (0, 1, 1, -12, -21), {
        "torsion": "trivial", "tamagawa": {67: 1},
        "sel_order": 1, "euler_vp": {3: 2},
        "analytic": {3: (0, 2)}, "lambda": {3: 2},
        "anomalous_primes_below_100": [3],
    }),
    ("915a1", (0, -1, 1, -460, -11577), {
        "torsion": "trivial", "tamagawa": {3: 1, 5: 7, 61: 1},
        "kinds": {3: "multiplicative_nonsplit", 5: "multiplicative_split",
                  61: "multiplicative_split"},
        "sel_order": 1, "euler_vp": {7: 1, 43: 2}, "ap": {7: 3, 43: 1},
        "analytic": {7: (0, 2), 43: (0, 2)},
        "anomalous_primes_below_100": [43],
    }),
    ("34a1", (1, 0, 0, -3, 1), {
        "torsion": "Z/6", "tamagawa": {2: 6, 17: 1},
        "sel_order": 1, "euler_vp": {3: 1}, "ap": {3: -2},
        "analytic": {3: (0, 2)}, "mu": {3: 0}, "lambda": {3: 2},
        "char_series": {3: [3, 3, 1]},
        "real_period": 4.4956,
    }),
    ("306b3", (1, -1, 0, -927, 11097), {
        "torsion": "Z/6", "rank": 1, "mu": {3: 0}, "lambda": {3: 1},
        "generator": (9, 54),
        "notes": "rank-1 twist of the conductor-34 class by the cubic character",
    }),
    ("195a2", (1, 0, 0, -115, 392), {
        "torsion": "Z/2 x Z/4", "tamagawa": {3: 8, 5: 2, 13: 2},
        "sel_order": 1, "euler_vp": {2: 3}, "ap": {2: -1, 31: -8},
        "mu": {2: 1}, "lambda": {2: 3},
    }),
    ("1225e1", (1, 1, 1, -8, 6), {
        "torsion": "trivial", "rank": 1, "ap": {37: 8},
        "analytic": {37: (0, 1)}, "mu": {37: 0}, "lambda": {37: 1},
        "real_period": 4.1353,
    }),
    ("1225e2", (1, 1, 1, -208083, -36621194), {
        "torsion": "trivial", "rank": 1, "ap": {37: 8},
        "mu": {37: 1}, "lambda": {37: 1},
        "real_period": 0.11176, "period_ratio_to": ("1225e1", 37),
        "isogeny_edges": [("1225e2", "1225e1", 37, True, True)],
    }),
    ("58a", (1, -1, 0, -1, 1), {
        "torsion": "trivial", "rank": 1,
        "analytic": {5: (0, 1)}, "mu": {5: 0}, "lambda": {5: 1},
    }),
    ("406d1", (1, 1, 0, -2124, -60592), {
        "torsion": "Z/2", "tamagawa": {2: 2, 7: 5, 29: 2},
        "sel_order": 1, "euler_vp": {5: 1},
        "analytic": {5: (0, 6)}, "mu": {5: 0}, "lambda": {5: 6},
    }),
]

_EXTRAS = [
    ("15a3", (1, 1, 1, -5, 2), {
        "torsion": "Z/2 x Z/4", "tamagawa": {3: 2, 5: 2},
        "sel_order": 1, "euler_vp": {2: 0}, "ap": {2: -1},
        "mu": {2: 0}, "lambda": {2: 0},
        "two_torsion_classes": {
            # x-coordinate -> (ramified at 2, odd)
            "(1, -1)": (False, False),
            "(3/4, -7/8)": (True, False),
            "(-3, 1)": (False, True),
        },
    }),
]

#: columns: |Sha|, |torsion|, Tamagawa tuple, v_p(f(0)), mu  (p = 2)
CONDUCTOR_15_TABLE = {
    "15a1": (1, 8, (2, 4), 1, 1),
    "15a2": (1, 4, (2, 2), 2, 2),
    "15a3": (1, 8, (2, 2), 0, 0),
    "15a4": (1, 8, (2, 8), 2, 2),
    "15a5": (1, 2, (2, 1), 3, 3),
    "15a6": (1, 2, (2, 1), 3, 3),
    "15a7": (1, 4, (1, 1), 0, 0),
    "15a8": (1, 4, (1, 1), 0, 0),
}

CONDUCTOR_195_TABLE = {
    "195a1": (1, 4, (4, 1, 1), 2, 0),
    "195a2": (1, 8, (8, 2, 2), 3, 1),
    "195a3": (1, 8, (4, 4, 4), 4, 2),
    "195a4": (1, 4, (16, 1, 1), 4, 2),
    "195a5": (1, 4, (2, 8, 2), 5, 3),
    "195a6": (1, 4, (2, 2, 8), 5, 3),
    "195a7": (4, 2, (1, 4, 1), 6, 4),
    "195a8": (1, 2, (1, 16, 1), 6, 4),
}

_CHECKSUM = "d113bfa026acf9737c0fa25ee16b6c9b4a87aa779530b088581a54f0f75f60f3"


def _canonical():
    blob = {"entries": [[lbl, list(a), _json_ready(ann)] for lbl, a, ann in _ENTRIES],
            "extras": [[lbl, list(a), _json_ready(ann)] for lbl, a, ann in _EXTRAS],
            "t15": {k: list(v) for k, v in CONDUCTOR_15_TABLE.items()},
            "t195": {k: list(v) for k, v in CONDUCTOR_195_TABLE.items()}}
    return json.dumps(blob, sort_keys=True, default=str)


def _json_ready(x):
    if isinstance(x, dict):
        return {str(k): _json_ready(v) for k, v in sorted(x.items(), key=lambda kv: str(kv[0]))}
    if isinstance(x, (list, tuple)):
        return [_json_ready(v) for v in x]
    return x


def dataset_checksum():
    return hashlib.sha256(_canonical().encode()).hexdigest()


if dataset_checksum() != _CHECKSUM:
    raise RuntimeError("dataset integrity failure (checksum)")


def dataset_load():
    """The thirteen printed curves."""
    return [DatasetEntry(lbl, a, ann, _SRC) for lbl, a, ann in _ENTRIES]


def dataset_extras():
    return [DatasetEntry(lbl, a, ann, _SRC) for lbl, a, ann in _EXTRAS]


def lookup(label: str, extra: dict | None = None) -> DatasetEntry:
    """Find a dataset entry by label; '11a1' style aliases accepted, and a
    user-supplied mapping label -> a-invariants fills table-only rows."""
    want = label.lower()
    for lbl, a, ann in _ENTRIES + _EXTRAS:
        if lbl == want or lbl + "1" == want or want + "1" == lbl:
            return DatasetEntry(lbl, a, ann, _SRC)
    if extra and want in extra:
        return DatasetEntry(want, tuple(int(v) for v in extra[want]), {}, "user-supplied")
    raise KeyError(f"no curve labeled {label!r} in the dataset")


def isogeny_edges(label: str):
    """Declared odd-degree kernel classifications for a curve, as edges."""
    from .mu import IsogenyEdge, KernelClass
    try:
        entry = lookup(label)
    except KeyError:
        return []
    out = []
    for src, dst, deg, ram, odd in entry.annotations.get("isogeny_edges", []):
        out.append(IsogenyEdge(src, dst, deg, KernelClass(deg, ram, odd, "input")))
    return out
