"""The CLI's input boundary: refusals that name what they refused, a seeded
grammar fuzz (tests/fuzz_cli.py) on a tier-1 share of its inputs, and the
pinned desk answers replayed, so that valid input keeps every answer."""

import hashlib
import json
import sys
from pathlib import Path

import pytest

import fuzz_cli
from iwasawa import dataset as ds
from iwasawa.cli import _emit, main

#: the tier-1 share of the fuzz; CI runs ten times as many inputs, from the same seed
FUZZ_SEED, FUZZ_COUNT = 1, 300
DESK_REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "desk_reference.json"


def test_cli_keeps_its_contract_on_seeded_grammar_mutants(tmp_path):
    assert fuzz_cli.fuzz(FUZZ_SEED, FUZZ_COUNT, str(tmp_path)) == []


def _desk_ops():
    """(key, argv) of each pinned desk op, built as perfbench/run.py's
    desk_fixed_ops builds them."""
    ops = [("tables", ["tables"])]
    for entry in ds.dataset_load():
        primes = set()
        for k in ("tamagawa", "euler_vp", "ap", "mu", "lambda", "analytic", "kinds"):
            primes |= set(entry.annotations.get(k, {}))
        for p in sorted(primes):
            ops += [(f"{sub} {entry.label} {p}", [sub, "--curve", entry.label, "--p", str(p)])
                    for sub in ("analyze", "euler-char", "criteria")]
        for src, _, deg, _, _ in entry.annotations.get("isogeny_edges", []):
            ops.append((f"mu-bound {src} {deg}", ["mu-bound", "--curve", src, "--p", str(deg)]))
    ops.append(("verify-points", ["verify-points"]))
    return [(k, ["--format", "json"] + argv) for k, argv in ops]


def test_desk_answers_match_the_pinned_reference():
    with open(DESK_REFERENCE) as fh:
        reference = json.load(fh)
    ops = _desk_ops()
    assert sorted(k for k, _ in ops) == sorted(reference)
    for key, argv in ops:
        code, out, err, exc = fuzz_cli.run(argv)
        digest = hashlib.sha256(f"{code}\0{out}\0{err}".encode()).hexdigest()
        assert (exc, code, digest) == (None, reference[key]["exit"], reference[key]["digest"]), key


@pytest.mark.parametrize("argv, files, named", [
    # each once printed `error: 'ainvs'`, a TypeError traceback, an unnamed JSON
    # error, exit 0 with "positive declared rank", and 30 MB before an error
    (["analyze", "--ainvs", '{"label": "q"}', "--p", "5"], {},
     "argument --ainvs: a curve is a list of five integers"),
    (["--extra", "{extra}", "tables"], {"extra": "[[1, 2]]"},
     "argument --extra: {extra}: a curve is a list of five integers"),
    (["forge", "--spec", "{spec}"], {"spec": "P: 5"},
     "argument --spec: {spec}: Expecting value: line 1 column 1 (char 0)"),
    (["analyze", "--curve", "11a", "--p", "5", "--rank", "-1"], {},
     "argument --rank: must be a non-negative integer, got '-1'"),
    (["--precision-digits", "20000", "growth", "p=2 coeffs=[-4,2]", "--n-max", "15000"], {},
     "argument --n-max: mu*p^n_max = 1*2^15000 reaches 10^"),
    (["--format", "json", "--precision-digits", "20000", "growth", "p=2 coeffs=[-4,2]",
      "--n-max", "15000"], {}, "argument --n-max: mu*p^n_max = 1*2^15000 reaches 10^"),
    (["forge", "--spec", "{spec}"], {}, "argument --spec: {spec}: [Errno 2] No such file"),
    (["mu-bound", "--curve", "768d3", "--p", "5", "--edges", "{edges}"], {"edges": "{}"},
     "argument --edges: {edges}: the edges file must hold a JSON list, got {}"),
    (["--extra", "{extra}", "tables"], {"extra": "[" * 100000},
     "argument --extra: {extra}: maximum recursion depth exceeded"),
    (["criteria", "--curve", "11a", "--ainvs", "[0,0,0,1,0]", "--p", "5"], {},
     "argument --ainvs: not allowed with argument --curve"),
], ids=["ainvs-object", "extra-list", "spec-not-json", "rank", "n-max-text", "n-max-json",
        "spec-missing", "edges-object", "extra-deep", "curve-and-ainvs"])
def test_cli_refuses_bad_input_by_name_before_any_output(argv, files, named, tmp_path, capsys):
    if "n-max" in named and not getattr(sys, "get_int_max_str_digits", int)():
        pytest.skip("no int-to-string digit limit in this interpreter")
    paths = {f"{{{name}}}": str(tmp_path / f"{name}.json") for name in ("extra", "spec", "edges")}
    for name, text in files.items():
        Path(paths[f"{{{name}}}"]).write_text(text)
    for slot, path in paths.items():
        named = named.replace(slot, path)
    with pytest.raises(SystemExit) as stop:
        main([paths.get(a, a) for a in argv])
    out, err = capsys.readouterr()
    assert stop.value.code == 1 and out == ""
    assert f"error: {named}" in err.splitlines()[-1]


def test_a_payload_is_rendered_whole_before_it_is_written(capsys):
    limit = getattr(sys, "get_int_max_str_digits", int)()
    if not limit:
        pytest.skip("no int-to-string digit limit in this interpreter")
    for fmt in ("text", "json"):
        with pytest.raises(ValueError, match="Exceeds the limit"):
            _emit({"small": 1, "big": 10 ** (limit + 1)}, type("Args", (), {"format": fmt}))
        assert capsys.readouterr().out == ""
