import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from iwasawa import dataset as ds
from iwasawa.cli import main
from iwasawa.curves import torsion
from iwasawa.tate import tate_local


def test_dataset_loads_thirteen_entries():
    entries = ds.dataset_load()
    assert len(entries) == 13
    labels = {e.label for e in entries}
    assert labels == {"11a", "32a", "768d1", "768d3", "67a1", "915a1", "34a1",
                      "306b3", "195a2", "1225e1", "1225e2", "58a", "406d1"}


def test_dataset_checksum_guards_integrity(tmp_path):
    # the checksum runs once, at import: import a copy of the package
    # with one annotation changed, and the untouched copy as a control
    # (no bytecode, which could outlive a same-size edit within a second)
    shutil.copytree(Path(ds.__file__).parent, tmp_path / "iwasawa",
                    ignore=shutil.ignore_patterns("__pycache__"))
    path = tmp_path / "iwasawa" / "dataset.py"
    env = dict(os.environ, PYTHONPATH=str(tmp_path), PYTHONDONTWRITEBYTECODE="1")

    def import_copy():
        return subprocess.run([sys.executable, "-c", "import iwasawa.dataset"], env=env,
                              capture_output=True, text=True, timeout=60)

    assert import_copy().returncode == 0
    text = path.read_text()
    assert text.count('"tamagawa": {11: 5}') == 1
    path.write_text(text.replace('"tamagawa": {11: 5}', '"tamagawa": {11: 4}'))
    proc = import_copy()
    assert proc.returncode == 1
    assert "RuntimeError: dataset integrity failure" in proc.stderr



def _run_python(*argv):
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc


ARITHMETIC = ("curves", "tate", "selmer", "mu", "lambda_algebra")


def test_loading_the_dataset_imports_no_arithmetic():
    out = _run_python("-c", "import sys, iwasawa; from iwasawa import dataset; "
                      "dataset.dataset_load(); print(sorted(sys.modules))").stdout
    assert not [m for m in ARITHMETIC if f"'iwasawa.{m}'" in out]
    assert "'iwasawa.dataset'" in out


def test_star_import_binds_each_name_from_its_home_module():
    out = _run_python("-c", """if True:
        import importlib
        import iwasawa
        from iwasawa import *
        for name, home in iwasawa._HOME.items():
            assert globals()[name] is getattr(importlib.import_module("iwasawa." + home), name)
        assert sorted(iwasawa.__all__) == sorted(iwasawa._HOME)
        print(len(iwasawa.__all__))""")
    assert out.stdout.split() == ["20"]


def test_growth_command_loads_no_curve_module():
    proc = _run_python("-X", "importtime", "-m", "iwasawa", "growth", "p=3 coeffs=[3,3,1]")
    loaded = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
              if line.startswith("import time:")}
    assert "lambda0: 2" in proc.stdout and "iwasawa.lambda_algebra" in loaded
    assert not loaded & {"iwasawa.curves", "iwasawa.tate"}


def test_unknown_package_attribute_raises_attribute_error():
    import iwasawa
    with pytest.raises(AttributeError, match="no_such_name"):
        iwasawa.no_such_name


def test_annotations_match_computation():
    # CI-style gate: exact computed quantities must agree with every
    # stated annotation
    for entry in ds.dataset_load() + ds.dataset_extras():
        E = entry.curve()
        assert entry.source
        if "torsion" in entry.annotations:
            assert torsion(E).describe() == entry.annotations["torsion"]
        for ell, c in entry.annotations.get("tamagawa", {}).items():
            assert tate_local(E, ell).tamagawa == c
        for ell, kind in entry.annotations.get("kinds", {}).items():
            got = tate_local(E, ell).kind
            if (entry.label, ell) == ("915a1", 61):
                # stated "split" but the Tamagawa number in the same source
                # forces nonsplit; see the decisions ledger
                assert got == "multiplicative_nonsplit"
            else:
                assert got == kind
        for p, ap in entry.annotations.get("ap", {}).items():
            from iwasawa.curves import ap_count
            assert ap_count(E, p) == ap


def test_lookup_aliases():
    assert ds.lookup("11a1").label == "11a"
    assert ds.lookup("915A1").label == "915a1"
    with pytest.raises(KeyError):
        ds.lookup("37a")
    extra = {"37a": [0, 0, 1, -1, 0]}
    assert ds.lookup("37a", extra).ainvs == (0, 0, 1, -1, 0)


def test_lookup_hashes_the_dataset_once(monkeypatch):
    calls = []
    real = ds.dataset_checksum
    monkeypatch.setattr(ds, "dataset_checksum", lambda: calls.append(1) or real())
    for label in ("11a1", "15a3", "406d1"):
        ds.lookup(label)
    with pytest.raises(KeyError):
        ds.lookup("37a")
    assert calls == []  # checked at import; tampering is test_dataset_checksum_guards_integrity


def test_isogeny_edges_declared():
    edges = ds.isogeny_edges("768d3")
    assert len(edges) == 1 and edges[0].degree == 5
    assert edges[0].kernel.ramified_at_p and edges[0].kernel.odd
    assert ds.isogeny_edges("11a") == []


# -- CLI ---------------------------------------------------------------


def test_cli_euler_char(capsys):
    code = main(["--format", "json", "euler-char", "--curve", "11a1", "--p", "5",
                 "--sel-order", "1"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["total"] == 1


def test_cli_analyze_json(capsys):
    code = main(["--format", "json", "analyze", "--curve", "67a1", "--p", "3",
                 "--sel-order", "1"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["euler"]["total"] == 2
    assert out["conductor"] == 67
    assert out["infinitude_criterion"]["holds"] is True


def test_cli_analyze_supersingular_refusal(capsys):
    code = main(["--format", "json", "analyze", "--curve", "32a", "--p", "3"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert "refused" in out["euler"]
    assert "supersingular" in out["euler"]["refused"]


def test_cli_criteria(capsys):
    code = main(["--format", "json", "criteria", "--curve", "915a1", "--p", "7"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["infinitude"]["holds"] is True


def test_cli_growth(capsys):
    code = main(["--format", "json", "growth", "p=3 coeffs=[-3,1]", "--n-max", "3"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert (out["lambda"], out["mu"], out["nu"]) == (1, 0, 1)


def test_cli_fe(capsys):
    code = main(["--format", "json", "fe", "p=3 coeffs=[3,3,1]"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["w"] == 1 and out["c"] == -2 and out["iota_associate"] is True
    main(["--format", "json", "fe", "p=2 coeffs=[2,1]"])
    out2 = json.loads(capsys.readouterr().out)
    assert out2["iota_associate"] is True and out2["c"] == -1


def test_cli_verify_points(capsys):
    code = main(["--format", "json", "verify-points"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert all(s["pass"] for s in out["scenarios"])


def test_cli_forge(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"P": [[5, 2]], "L": [[3, 1, 2]], "Q": [7]}))
    code = main(["--format", "json", "forge", "--spec", str(spec), "--seed", "7"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and out["ok"]


def test_cli_forge_large_good_primes(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"P": [[1009, 17], [1499, -30]], "L": [[3, 1, 2]], "Q": [5]}))
    runs = []
    for _ in range(2):
        code = main(["--format", "json", "forge", "--spec", str(spec), "--seed", "3"])
        runs.append(capsys.readouterr().out)
        assert code == 0 and json.loads(runs[-1])["ok"] is True
    assert runs[0] == runs[1]


def test_cli_forge_search_failure_exit_code(tmp_path, capsys, monkeypatch):
    from iwasawa import forge
    monkeypatch.setattr(forge, "count_points", lambda E, p: 0)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"P": [[61, 3]]}))
    code = main(["forge", "--spec", str(spec)])
    assert code == 1
    assert "error: no curve with a_61 = 3" in capsys.readouterr().err


@pytest.mark.parametrize("spec", [{"P": [[5.9, 2]]}, {"P": [[5, 2]], "Q": "13"},
                                  {"L": [[3, True, 2]]}],
                         ids=["float-prime", "string-Q", "boolean-trace"])
def test_cli_forge_refuses_malformed_specs(tmp_path, capsys, spec):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert main(["forge", "--spec", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("spec, message", [
    ({"P": [[61, 3], [61, 5]]}, "P lists the prime 61 more than once"),
    ({"P": [[61, 3], [61, 3]]}, "P lists the prime 61 more than once"),
    ({"P": [[61, 3]], "Q": [2, 2]}, "Q lists the prime 2 more than once"),
], ids=["two-traces", "same-trace", "Q"])
def test_cli_forge_refuses_a_prime_listed_twice(tmp_path, capsys, spec, message):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert main(["forge", "--spec", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


_EDGE = {"from": "768d3", "to": "768d1", "degree": 5,
         "kernel": {"order": 5, "ramified": True, "odd": True, "provenance": "input"}}


def test_cli_mu_bound_reads_an_edges_file(tmp_path, capsys):
    path = tmp_path / "edges.json"
    path.write_text(json.dumps([_EDGE]))
    code = main(["--format", "json", "mu-bound", "--curve", "768d3", "--p", "5",
                 "--edges", str(path)])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["mu_lower_bound"] == 1


@pytest.mark.parametrize("edge", [dict(_EDGE, **{"from": 1}), dict(_EDGE, degree=True)],
                         ids=["integer-label", "boolean-degree"])
def test_cli_mu_bound_refuses_malformed_edges(tmp_path, capsys, edge):
    path = tmp_path / "edges.json"
    path.write_text(json.dumps([edge]))
    assert main(["mu-bound", "--curve", "768d3", "--p", "5", "--edges", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: an isogeny edge needs")


def test_cli_mu_bound(capsys):
    code = main(["--format", "json", "mu-bound", "--curve", "195a2", "--p", "2"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["mu_lower_bound"] >= 1
    assert any(v.get("ramified_at_2") and v.get("odd")
               for v in out["two_torsion"].values())


def test_cli_usage_error_exit_code(capsys):
    code = main(["euler-char", "--curve", "no-such-label", "--p", "5"])
    assert code == 1


@pytest.mark.parametrize("argv", [
    ["analyze", "--p", "5"],
    ["analyze", "--ainvs", "[0,0,0,0]", "--p", "5"],
    ["analyze", "--ainvs", "[0,0,0,1.5,0]", "--p", "5"],
    ["analyze", "--ainvs", '{"ainvs": ["0", "0", "0", "x", "0"]}', "--p", "5"],
])
def test_cli_rejects_bad_curve_input(argv, capsys):
    # no curve, four a-invariants and a non-integer a4 used to raise
    # AttributeError, raise TypeError and truncate a4 to 1
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_refuses_a_good_prime_past_the_counting_bound(capsys):
    start = time.perf_counter()
    assert main(["criteria", "--curve", "11a", "--p", str(10 ** 9 + 7)]) == 1
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["analyze", "--curve", "11a"],
    ["--seed", "7", "forge", "--spec", "spec.json"],
    ["no-such-command"],
])
def test_cli_argparse_usage_errors_exit_1(argv, capsys):
    # exit code 2 is kept for a computed value that contradicts an expected one
    with pytest.raises(SystemExit) as stop:
        main(argv)
    assert stop.value.code == 1
    assert "error: " in capsys.readouterr().err


def test_cli_determinism(capsys):
    main(["--format", "json", "analyze", "--curve", "11a", "--p", "5"])
    first = capsys.readouterr().out
    main(["--format", "json", "analyze", "--curve", "11a", "--p", "5"])
    second = capsys.readouterr().out
    assert first == second


def test_cli_tables_match(capsys):
    code = main(["--format", "json", "tables"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    by_label = {r["label"]: r for r in out["tables"]}
    assert by_label["195a2"]["match"] is True
    assert by_label["15a3"]["match"] is True
    assert "expected-only" in by_label["195a1"]["status"]
    facts = {f["label"]: f for f in out["curve_facts"]}
    assert facts["768d1"]["match"] and facts["768d3"]["match"]
    assert abs(facts["1225e2"]["period_ratio"] - 37) < 1e-6


def test_cli_report_shapes(capsys):
    # reports carry the agreed keys with the agreed types
    main(["--format", "json", "analyze", "--curve", "34a1", "--p", "3"])
    out = json.loads(capsys.readouterr().out)
    assert isinstance(out["ainvs"], list) and len(out["ainvs"]) == 5
    assert isinstance(out["conductor"], int)
    assert isinstance(out["local"], dict)
    for loc in out["local"].values():
        assert set(loc) == {"kind", "tamagawa", "kodaira", "ord_j"}
        assert isinstance(loc["tamagawa"], int)
    assert isinstance(out["euler"]["total"], int)
    for place, contrib, note in out["euler"]["entries"]:
        assert isinstance(place, str) and isinstance(contrib, int) and isinstance(note, str)
    assert isinstance(out["mismatches"], list)


@pytest.mark.parametrize("argv", [
    ["euler-char", "--curve", "11a", "--p", "5", "--sel-order", "0"],
    ["euler-char", "--curve", "11a", "--p", "5", "--sel-order", "-5"],
    ["analyze", "--curve", "11a", "--p", "5", "--sel-order", "0"],
])
def test_cli_rejects_bad_sel_order_and_prime(argv, capsys):
    # each of these used to loop forever in a private valuation loop
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["euler-char", "--curve", "11a", "--p", "1"],
    ["criteria", "--curve", "11a", "--p", "1"],
    ["mu-bound", "--curve", "768d3", "--p", "1"],
    ["criteria", "--curve", "11a", "--p", "0"],
    ["analyze", "--curve", "11a", "--p", "4"],
    ["euler-char", "--curve", "11a", "--p", "x"],
])
def test_cli_refuses_a_non_prime_p(argv, capsys):
    # the first three once looped forever in a private valuation loop, and
    # then said "valuation needs a base p >= 2" without naming the flag
    with pytest.raises(SystemExit) as stop:
        main(argv)
    assert stop.value.code == 1
    assert f"error: argument --p: must be a prime, got '{argv[-1]}'" in capsys.readouterr().err


def test_cli_big_prime_discriminant_and_huge_two_torsion(capsys):
    code = main(["--format", "json", "analyze", "--ainvs", "[0,0,1,-7,1000000000039]", "--p", "5"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["torsion"] == "trivial"
    ainvs = [0, -10 ** 160, 0, -(10 ** 320 + 2), 10 ** 160 * (10 ** 320 + 2)]
    code = main(["--format", "json", "mu-bound", "--ainvs", json.dumps(ainvs), "--p", "2"])
    assert code == 0
    entries = json.loads(capsys.readouterr().out)["two_torsion"]
    assert list(entries) == [f"({10 ** 160}, 0)"]
    # the curve is additive at 2, so the classifier refuses the point
    assert "multiplicative reduction at 2" in entries[f"({10 ** 160}, 0)"]["error"]


@pytest.mark.parametrize("argv,flag", [
    (["--precision-digits", "0", "analyze", "--curve", "11a", "--p", "5"], "--precision-digits"),
    (["--precision-digits", "-5", "euler-char", "--curve", "11a", "--p", "5"], "--precision-digits"),
    (["--t-precision", "0", "growth", "p=3 coeffs=[-3,1]"], "--t-precision"),
    (["--t-precision", "x", "fe", "p=3 coeffs=[3,3,1]"], "--t-precision"),
])
def test_cli_refuses_a_precision_below_one(argv, flag, capsys):
    # the first two used to exit 0
    with pytest.raises(SystemExit) as stop:
        main(argv)
    assert stop.value.code == 1
    assert f"error: argument {flag}: must be a positive integer" in capsys.readouterr().err
