"""Iwasawa-theoretic invariants of elliptic curves over Q.

Subpackage map: padics (exact p-adic substrate), lambda_algebra (the
truncated power-series ring and its module invariants), curves + tate +
periods (curve arithmetic and local data), selmer (Euler characteristics
and the vanishing/infinitude criteria), mu (kernel classification and
mu-bounds), nfpoints (number-field point checks), forge (prescribed
local behavior), dataset and cli.

The names below are imported from their home modules on first access
(PEP 562), so a process loads only the modules it uses.
"""

from importlib import import_module

#: exported name -> the submodule that defines it
_HOME = {
    "WeierstrassCurve": "curves", "ap_count": "curves", "classify_at_p": "curves",
    "quadratic_twist": "curves", "torsion": "curves",
    "LambdaElement": "lambda_algebra", "growth_fit": "lambda_algebra",
    "mu_lambda": "lambda_algebra", "weierstrass_prepare": "lambda_algebra",
    "PadicNumber": "padics", "iwasawa_log": "padics", "unit_decompose": "padics",
    "real_period": "periods",
    "GlobalAssumptions": "selmer", "euler_char": "selmer", "twist_lambda": "selmer",
    "LocalData": "tate", "conductor": "tate", "tate_local": "tate", "tate_period": "tate",
}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{home}", __name__), name)
    globals()[name] = value
    return value
