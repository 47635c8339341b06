"""Iwasawa-theoretic invariants of elliptic curves over Q.

Subpackage map: padics (exact p-adic substrate), lambda_algebra (the
truncated power-series ring and its module invariants), curves + tate +
periods (curve arithmetic and local data), selmer (Euler characteristics
and the vanishing/infinitude criteria), mu (kernel classification and
mu-bounds), nfpoints (number-field point checks), forge (prescribed
local behavior), dataset and cli.
"""

from .curves import WeierstrassCurve, ap_count, classify_at_p, quadratic_twist, torsion
from .lambda_algebra import LambdaElement, growth_fit, mu_lambda, weierstrass_prepare
from .padics import PadicNumber, iwasawa_log, unit_decompose
from .periods import real_period
from .selmer import GlobalAssumptions, euler_char, twist_lambda
from .tate import LocalData, conductor, tate_local, tate_period

__all__ = [
    "WeierstrassCurve", "ap_count", "classify_at_p", "quadratic_twist",
    "torsion", "LambdaElement", "growth_fit", "mu_lambda",
    "weierstrass_prepare", "PadicNumber", "iwasawa_log", "unit_decompose",
    "real_period", "GlobalAssumptions", "euler_char", "twist_lambda",
    "LocalData", "conductor", "tate_local", "tate_period",
]
__version__ = "0.1.0"
