"""The package is exact: no module computes with floats.

Every module is parsed and searched for the ways a float gets in:
float() calls, math functions that are not integer-only, float literals,
a true division of two integer literals, and Fraction.limit_denominator.
Two float uses are allowed by name: the one output conversion of the
period ratio (`round(float(ratio), 9)` in cli.cmd_tables) and the
annotated `real_period` values of the dataset.

The same parse also checks that each module-level function has one home:
no name is defined in two modules.
"""

import ast
from collections import defaultdict
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "iwasawa"
INTEGER_MATH = {"gcd", "isqrt", "lcm", "comb", "factorial", "prod"}
MODULES = sorted(p.name for p in SRC.glob("*.py"))
OUTPUT_CONVERSION = "round(float(ratio), 9)"


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
        outer = parent if isinstance(parent, ast.Call) else node  # float() inside round()
        func = up.get(outer)
        while func is not None and not isinstance(func, ast.FunctionDef):
            func = up.get(func)
        return (func is not None and func.name == "cmd_tables"
                and ast.unparse(outer) == OUTPUT_CONVERSION)
    return False


def _float_uses(module, source):
    tree = ast.parse(source)
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
    # the name predates periods.py joining MODULES; it is kept so the
    # test ids stay stable
    assert list(_float_uses(module, (SRC / module).read_text())) == []


SYNTHETIC = '''
import math
from math import isqrt, sqrt


def period(a, b):
    return math.pi / math.sqrt(a * b) + 0.5 + float(a) + 1 / 3 + b.limit_denominator(9)


def cmd_tables(ratio):
    return round(float(ratio), 9), round(ratio, 9), float(ratio)


def cmd_other(ratio):
    return round(float(ratio), 9)
'''


def test_guard_sees_the_float_code_it_forbids():
    uses = [u.split(": ", 1)[1] for u in _float_uses("cli.py", SYNTHETIC)]
    assert uses.count("math.pi") == uses.count("math.sqrt") == 1
    assert "from math import sqrt" in uses
    assert "float literal 0.5" in uses and "int / int" in uses
    assert "limit_denominator" in uses
    # only the exact output conversion inside cmd_tables is allowed
    assert uses.count("round()") == 2 and uses.count("float()") == 3


def test_each_module_level_function_is_defined_once():
    homes = defaultdict(list)
    for module in MODULES:
        for node in ast.parse((SRC / module).read_text()).body:
            if isinstance(node, ast.FunctionDef):
                homes[node.name].append(module)
    assert {name: where for name, where in homes.items() if len(where) > 1} == {}
