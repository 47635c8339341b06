"""The package is exact except the real-period AGM in periods.py.

Every other module is parsed and searched for the ways a float gets in:
float() calls, math functions that are not integer-only, float literals,
a true division of two integer literals, and Fraction.limit_denominator.
Two float uses are allowed by name: the tolerance on the period ratio
that periods returns (cli.cmd_tables, the statements reading `ratio`),
and the annotated `real_period` values of the dataset.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "iwasawa"
INTEGER_MATH = {"gcd", "isqrt", "lcm", "comb", "factorial", "prod"}
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "periods.py")


def _parents(tree):
    up = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            up[child] = node
    return up


def _allowed(module, node, up):
    parent = up.get(node)
    if module == "dataset.py" and isinstance(parent, ast.Dict):
        key = parent.keys[parent.values.index(node)] if node in parent.values else None
        return isinstance(key, ast.Constant) and key.value == "real_period"
    if module == "cli.py":
        stmt = node
        while not isinstance(stmt, ast.stmt):
            stmt = up[stmt]
        func = stmt
        while func is not None and not isinstance(func, ast.FunctionDef):
            func = up.get(func)
        return (func is not None and func.name == "cmd_tables"
                and any(isinstance(n, ast.Name) and n.id == "ratio" for n in ast.walk(stmt)))
    return False


def _float_uses(module):
    tree = ast.parse((SRC / module).read_text())
    up = _parents(tree)
    for node in ast.walk(tree):
        what = None
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in (
                "float", "round", "complex"):
            what = f"{node.func.id}()"
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "math" and node.attr not in INTEGER_MATH):
            what = f"math.{node.attr}"
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            bad = [a.name for a in node.names if a.name not in INTEGER_MATH]
            what = f"from math import {', '.join(bad)}" if bad else None
        elif isinstance(node, ast.Attribute) and node.attr == "limit_denominator":
            what = "limit_denominator"
        elif isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            what = f"float literal {node.value!r}"
        elif (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)
              and all(isinstance(x, ast.Constant) and isinstance(x.value, int)
                      for x in (node.left, node.right))):
            what = "int / int"
        if what and not _allowed(module, node, up):
            yield f"{module}:{node.lineno}: {what}"


@pytest.mark.parametrize("module", MODULES)
def test_no_floats_outside_periods(module):
    assert list(_float_uses(module)) == []


def test_guard_sees_the_float_code_it_forbids():
    # periods keeps the float AGM, the one inexact path
    uses = list(_float_uses("periods.py"))
    assert any("math.sqrt" in u for u in uses)
    assert any("float literal" in u for u in uses)
