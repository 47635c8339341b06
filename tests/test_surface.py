"""Every top-level name in src/ is reached from an entry point.

The entry points are the console script (`cli.main`, and `__main__`),
the exports `iwasawa.__all__`, the acceptance suite, the demos and the
benchmark.  The walk is static, with the stdlib `ast`: a name is reached
when a reached definition, or a statement run at import, refers to it,
by its bare name, through a `from .x import y`, or as an attribute of an
imported module.  A name that nothing reaches is either dead or a
wrapper that only tests call; it belongs in the tests or nowhere.
`ALLOWED` keeps the few paper claims that have no entry point yet, each
with the claim it checks and the test that checks it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "iwasawa"
EXTERNAL = ([ROOT / "tests" / "test_acceptance.py"] + sorted((ROOT / "demos").glob("*.py"))
            + sorted((ROOT / "perfbench").glob("*.py")))

#: (module, name) -> "the paper claim it checks; the test file::test that checks it"
ALLOWED = {
    ("selmer", "density_screen"):
        "rational 2-torsion, or an isogenous torsion subgroup of order q > 2, rules out "
        "anomalous reduction at p > 5; test_selmer.py::test_density_screen",
    ("selmer", "corank_parity"):
        "the Selmer corank is lambda mod 2 for odd p, with the supersingular corank "
        "bound; test_selmer.py::test_corank_parity",
    ("mu", "kramer_m4"):
        "Kramer's family with a ramified+odd kernel of order 16, and its minimal "
        "discriminant; test_mu.py::test_kramer_m4_instance",
    ("nfpoints", "trace_to_subfield"):
        "traces of layer points to a subfield are fixed by its Galois group (the "
        "conductor-195 example); test_nfpoints.py::test_trace_is_fixed_by_sigma",
    ("mu", "velu_2isogeny"):
        "a 2-isogeny composed with its dual is doubling, which carries a classified "
        "kernel along an edge; test_mu.py::test_velu_quotient_and_dual",
}


def _modules():
    return {path.stem: ast.parse(path.read_text(), str(path)) for path in SRC.glob("*.py")}


def _bindings(mods):
    """module -> {local name: (home module, name) or (module, None) for a module}."""
    out = {}
    for mod, tree in mods.items():
        table = out.setdefault(mod, {})
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom) or node.level != 1:
                continue
            for alias in node.names:
                local = alias.asname or alias.name
                if node.module is None:   # from . import dataset
                    table[local] = (alias.name, None)
                else:
                    table[local] = (node.module, alias.name)
    return out


def _definitions(mods):
    """(module, name) -> the top-level node that binds it."""
    defs = {}
    for mod, tree in mods.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[mod, node.name] = node
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for t in targets:
                    for name in ast.walk(t):
                        if isinstance(name, ast.Name):
                            defs[mod, name.id] = node
    return defs


def _refs(mod, node, bindings, defs):
    """The (module, name) pairs that the code of node refers to."""
    table = bindings[mod]
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            if (mod, sub.id) in defs:
                out.add((mod, sub.id))
            elif sub.id in table and table[sub.id][1] is not None:
                out.add(table[sub.id])
        elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name):
            home = table.get(sub.value.id)
            if home is not None and home[1] is None:
                out.add((home[0], sub.attr))
        elif isinstance(sub, ast.ImportFrom) and sub.level == 1 and sub.module:
            out.update((sub.module, a.name) for a in sub.names)
    return out


def _external_roots(mods, exports):
    """What the acceptance suite, the demos and the benchmark name."""
    roots = set()
    for path in EXTERNAL:
        tree = ast.parse(path.read_text(), str(path))
        aliases = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module:
                for a in node.names:
                    if node.module == "iwasawa" and a.name in mods:
                        aliases[a.asname or a.name] = a.name
                    elif node.module == "iwasawa" and a.name in exports:
                        roots.add((exports[a.name], a.name))
                    elif node.module.startswith("iwasawa."):
                        roots.add((node.module.split(".", 1)[1], a.name))
            elif isinstance(node, ast.Dict):  # a {module: [name, ...]} table
                for k, v in zip(node.keys, node.values):
                    if (isinstance(k, ast.Constant) and k.value in mods
                            and isinstance(v, (ast.List, ast.Tuple))):
                        roots.update((k.value, e.value) for e in v.elts
                                     if isinstance(e, ast.Constant))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in aliases):
                roots.add((aliases[node.value.id], node.attr))
    return roots


def unreached():
    """Top-level (module, name) pairs that no entry point reaches, nor ALLOWED."""
    mods = _modules()
    bindings = _bindings(mods)
    defs = _definitions(mods)
    from iwasawa import _HOME
    roots = {("cli", "main")} | {(home, name) for name, home in _HOME.items()}
    roots |= _external_roots(mods, _HOME) | set(ALLOWED)
    roots |= {key for key in defs if key[1].startswith("__")}  # module protocol
    todo = [r for r in roots if r in defs]
    # statements that run at import (checks, __main__) are roots too
    for mod, tree in mods.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef, ast.Assign,
                                     ast.AnnAssign, ast.Import, ast.ImportFrom)):
                todo += [r for r in _refs(mod, node, bindings, defs) if r in defs]
    seen = set(todo)
    while todo:
        key = todo.pop()
        for ref in _refs(key[0], defs[key], bindings, defs):
            if ref in defs and ref not in seen:
                seen.add(ref)
                todo.append(ref)
    return sorted(set(defs) - seen)


def test_every_top_level_name_is_reached_from_an_entry_point():
    left = unreached()
    assert not left, "reached from no entry point: " + ", ".join(f"{m}.{n}" for m, n in left)


def test_each_allowed_name_is_defined_and_names_a_claim_and_its_test():
    defs = _definitions(_modules())
    for key, reason in ALLOWED.items():
        assert key in defs, f"{key} is allowed but not defined"
        claim, _, test = reason.rpartition("; ")
        path, _, name = test.partition("::")
        assert claim and f"def {name}(" in (ROOT / "tests" / path).read_text(), key
