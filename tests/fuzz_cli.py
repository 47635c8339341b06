"""Seeded grammar fuzz of the `iwasawa` command line, run in process.

    PYTHONPATH=src python tests/fuzz_cli.py --count 600 --seed 0

Each input is one documented input format, built valid and then mutated or
not: the series text of growth and fe, --ainvs as a list and as a curve
object, the --extra mapping and list, the --edges list, the forge --spec
object, and the integer flags.  Mutations are wrong types, truncated JSON,
missing and extra keys, huge integers, non-primes, boundary precisions, and
argv itself (a dropped, repeated or unknown argument).  Sizes are capped so
that a mutant that stays valid stays cheap: p < 2000, |a_i| <= 10^4, N and K
<= 200, and --n-max <= 64.  A forge Tamagawa target is drawn up to 200;
`ForgeSpec` refuses one above T_CAP - 2 = 62 by name.

Every input must keep the contract of `cli.main`:
- exit 0, 1 or 2 (argparse's SystemExit counts as an exit), and no other
  exception;
- on exit 1, nothing on stdout, and a last stderr line that names the refused
  flag, positional or file, or is the library's one `error: ...` line;
- exit 2 only where a dataset row is contradicted: `tables` with an --extra
  file that gives a table-only label a-invariants.

Pytest does not collect this file (its name does not start with test_);
tests/test_cli_boundary.py imports it.  The script prints each breach and
exits 1 if there is any.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import re
import sys
import tempfile
from pathlib import Path

#: primes below 2000 that a valid mutant may use
PRIMES = [p for p in range(2, 2000) if all(p % d for d in range(2, int(p ** 0.5) + 1))]
#: dataset labels, and the table-only labels that --extra may fill
LABELS = ["11a", "32a", "768d1", "768d3", "67a1", "915a1", "195a2", "34a1", "306b3",
          "1225e1", "1225e2", "15a3"]
TABLE_ONLY = ["195a1", "195a3", "15a1", "15a2"]
HUGE = 10 ** 40 + 1            # composite: 10^8 + 1 = 17 * 5882353 divides it
REFUSAL = re.compile(r"^iwasawa(?: [\w-]+)?: error: (?:argument |one of the arguments "
                     r"|the following arguments are required: |unrecognized arguments: )")


def _ainvs(rng):
    return [rng.choice([0, 0, 1, -1, rng.randint(-50, 50), rng.randint(-10 ** 4, 10 ** 4)])
            for _ in range(5)]


def _bad_value(rng):
    """A JSON value of a wrong type, or a wrong integer."""
    return rng.choice([None, True, 2.5, "x", "", [], {}, [1, 2], -1, 0, HUGE])


def _mutate_json(rng, value):
    """`value` with one entry changed, dropped, added or retyped (or none)."""
    if isinstance(value, list) and value and rng.random() < 0.7:
        i = rng.randrange(len(value))
        value = list(value)
        kind = rng.randrange(4)
        if kind == 0:
            value[i] = _bad_value(rng)
        elif kind == 1:
            del value[i]
        elif kind == 2:
            value.append(value[i])
        else:
            value[i] = _mutate_json(rng, value[i])
        return value
    if isinstance(value, dict) and value and rng.random() < 0.7:
        value = dict(value)
        key = rng.choice(sorted(value))
        kind = rng.randrange(4)
        if kind == 0:
            value[key] = _bad_value(rng)
        elif kind == 1:
            del value[key]
        elif kind == 2:
            value["extra_key"] = _bad_value(rng)
        else:
            value[key] = _mutate_json(rng, value[key])
        return value
    return _bad_value(rng) if rng.random() < 0.3 else value


def _json_text(rng, value, mutate):
    """JSON text of `value`, mutated, truncated or not JSON at all when `mutate`."""
    if not mutate:
        return json.dumps(value)
    kind = rng.randrange(6)
    if kind == 0:
        text = json.dumps(value)
        return text[:rng.randrange(len(text))]
    if kind == 1:
        return rng.choice(["", "not json", "[" * 5000, "{\"a\": }", "1e999", "\x00\xff"])
    if kind == 2 and hasattr(sys, "get_int_max_str_digits"):
        return json.dumps(value)[:-1] + ", " + "9" * 5000 + json.dumps(value)[-1:]
    return json.dumps(_mutate_json(rng, value))


def _series(rng, mutate):
    p = rng.choice([2, 3, 5, 7, rng.choice(PRIMES)])
    coeffs = [rng.choice([0, 1, -1, p, -p, p * p, rng.randint(-10 ** 4, 10 ** 4)])
              for _ in range(rng.randint(1, 6))]
    coeffs[-1] = coeffs[-1] or 1
    fields = {"p": str(p), "coeffs": "[" + ",".join(map(str, coeffs)) + "]"}
    for key in ("N", "K"):
        if rng.random() < 0.4:
            fields[key] = str(rng.choice([1, 2, 5, 30, 40, 200]))
    if mutate:
        kind = rng.randrange(7)
        key = rng.choice(sorted(fields))
        if kind == 0:
            del fields[key]
        elif kind == 1:  # huge values only where they are cheap: N and K stay <= 200
            big = [HUGE, 10 ** 60] if key in ("p", "coeffs") else [200]
            fields[key] = str(rng.choice(["x", "1.5", "", "0x10", 0, -1, 1, 4] + big))
        elif kind == 2:
            fields["tag"] = "1"
        elif kind == 3:
            fields["coeffs"] = rng.choice(["[0]", "[]", "[1", "1]", "[1,,2]", "[x]",
                                           f"[{10 ** 60},1]", "[1," + "0," * 40 + "1]"])
        elif kind == 4:
            fields[rng.choice(["N", "K"])] = str(rng.choice([0, -1, 1, 2, 200]))
        elif kind == 5:
            text = " ".join(f"{k}={v}" for k, v in fields.items())
            return text[:rng.randrange(len(text) + 1)]
        else:
            return " ".join(f"{k}={v}" for k, v in fields.items()) + f" {key}={fields[key]}"
    return " ".join(f"{k}={v}" for k, v in rng.sample(sorted(fields.items()), len(fields)))


def _int_flag(rng, good):
    """A value for an integer flag: `good` or one of the refused kinds."""
    return str(rng.choice([good, good, 0, -1, 1, 2, HUGE, "x", "", "2.5", 10 ** 9 + 7]))


def _curve_args(rng, mutate):
    """--curve or --ainvs (list or curve object), and --p."""
    kind = rng.randrange(3)
    if kind == 0:
        curve = ["--curve", rng.choice(LABELS + ["no-such", "11A1"]) if mutate
                 else rng.choice(LABELS)]
    elif kind == 1:
        curve = ["--ainvs", _json_text(rng, _ainvs(rng), mutate and rng.random() < 0.6)]
    else:
        obj = {"label": rng.choice(["c", "11a"]), "ainvs": [str(a) for a in _ainvs(rng)]}
        curve = ["--ainvs", _json_text(rng, obj, mutate and rng.random() < 0.6)]
    p = _int_flag(rng, rng.choice(PRIMES)) if mutate else str(rng.choice(PRIMES))
    return curve + ["--p", p]


def _write(folder, n, text):
    path = Path(folder) / f"in{n}.json"
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    return str(path)


def _one(rng, folder, n):
    """One argv: a valid input, mutated with probability 3/4."""
    mutate = rng.random() < 0.75
    glob = []
    if rng.random() < 0.3:
        flag = rng.choice(["--precision-digits", "--t-precision"])
        glob = [flag, str(rng.choice([0, -1, 1, 2, 30, 40, 200, "x", "", "2.5"])) if mutate
                else "30"]
    command = rng.choice(["analyze", "euler-char", "criteria", "mu-bound", "growth", "fe",
                          "forge", "tables", "tables", "edges", "extra-curve"])
    if command in ("analyze", "euler-char", "criteria", "mu-bound"):
        argv = [command] + _curve_args(rng, mutate)
        if command != "mu-bound" and rng.random() < 0.5:
            argv += ["--sel-order", _int_flag(rng, rng.choice([1, 4, 25]))]
        if command == "analyze" and rng.random() < 0.5:
            argv += ["--rank", _int_flag(rng, rng.choice([0, 1]))]
    elif command in ("growth", "fe"):
        argv = [command, _series(rng, mutate)]
        if command == "growth" and rng.random() < 0.6:
            argv += ["--n-max", _int_flag(rng, rng.randint(2, 64))]
    elif command == "forge":
        spec = {"P": [[p, rng.randint(-(int(2 * p ** 0.5) - 1), int(2 * p ** 0.5) - 1)]
                      for p in rng.sample(PRIMES[2:], rng.randint(0, 2))],
                "L": [[3, rng.choice([1, -1]), rng.choice([1, 2])]] if rng.random() < 0.6 else [],
                "Q": rng.sample([2, 5, 7, 11], rng.randint(0, 2))}
        if mutate and rng.random() < 0.3:
            spec["L"] = [[3, rng.choice([1, -1]), rng.choice([0, 1, 2, 3, 62, 200, -1, 2.5])]]
        argv = ["forge", "--spec", _write(folder, n, _json_text(rng, spec, mutate))]
        if rng.random() < 0.4:
            argv += ["--seed", _int_flag(rng, rng.randint(0, 9))]
    elif command == "edges":
        edge = {"from": "768d3", "to": "768d1", "degree": 5,
                "kernel": {"order": 5, "ramified": True, "odd": True, "provenance": "input"}}
        argv = ["mu-bound", "--curve", rng.choice(["768d3", "11a", "195a2"]),
                "--p", str(rng.choice([2, 5, 7])),
                "--edges", _write(folder, n, _json_text(rng, [edge], mutate))]
    else:
        label = rng.choice(TABLE_ONLY)
        extra = ({label: _ainvs(rng)} if rng.random() < 0.5
                 else [{"label": label, "ainvs": [str(a) for a in _ainvs(rng)]}])
        glob += ["--extra", _write(folder, n, _json_text(rng, extra, mutate))]
        argv = (["tables"] if command == "tables"
                else ["criteria", "--curve", label, "--p", str(rng.choice(PRIMES[:10]))])
    if mutate and rng.random() < 0.15:  # the argv grammar itself
        kind = rng.randrange(3)
        if kind == 0 and argv:
            del argv[rng.randrange(len(argv))]
        elif kind == 1:
            argv.append(rng.choice(argv))
        else:
            argv.insert(rng.randrange(len(argv) + 1), rng.choice(["--bogus", "-x", "--p"]))
    if rng.random() < 0.3:
        glob += ["--format", rng.choice(["json", "text", "yaml"]) if mutate else "json"]
    if rng.random() < 0.05:  # a missing file or a directory where a file is expected
        glob += ["--extra", rng.choice([str(Path(folder) / "missing.json"), folder])]
    return glob + argv


def inputs(seed, count, folder):
    """`count` seeded argvs; the files they name are written into `folder`."""
    rng = random.Random(seed)
    return [_one(rng, folder, n) for n in range(count)]


def run(argv):
    """(exit code, stdout, stderr, escaped exception or None) of one in-process call."""
    from iwasawa import cli
    out, err = io.StringIO(), io.StringIO()
    exc = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as stop:
            code = stop.code
        except Exception as e:  # noqa: BLE001 - an escaped exception is the breach recorded
            code, exc = None, e
    return code, out.getvalue(), err.getvalue(), exc


def breach(argv, code, out, err, exc):
    """Why this call breaks the contract in the module docstring, or None."""
    if exc is not None:
        return f"{type(exc).__name__} escaped: {exc}"
    if code not in (0, 1, 2):
        return f"exit {code!r}"
    if code == 1:
        last = err.rstrip("\n").rsplit("\n", 1)[-1]
        if out:
            return "exit 1 with output on stdout"
        if not (REFUSAL.match(last) or last.startswith("error: ") and err.count("\n") == 1):
            return f"exit 1 with last stderr line {last!r}"
    if code == 2 and not ("tables" in argv and "--extra" in argv and out and not err):
        return "exit 2 without a contradicted dataset row"
    formats = [argv[i + 1] for i in range(len(argv) - 1) if argv[i] == "--format"]
    if code == 0 and formats[-1:] == ["json"]:
        try:
            json.loads(out)
        except ValueError:
            return "exit 0 with stdout that is not JSON"
    return None


def fuzz(seed, count, folder):
    """[(argv, reason)] for every seeded input that breaks the contract."""
    found = []
    for argv in inputs(seed, count, folder):
        reason = breach(argv, *run(argv))
        if reason:
            found.append((argv, reason))
    return found


def main(argv=None):
    ap = argparse.ArgumentParser(description="Seeded grammar fuzz of the iwasawa CLI.")
    ap.add_argument("--count", type=int, default=600)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as folder:
        found = fuzz(args.seed, args.count, folder)
    for argv, reason in found:
        print(f"{reason}: {argv!r}"[:400])
    print(f"{args.count} inputs, seed {args.seed}: {len(found)} breaches")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
