"""Command-line front end.

Subcommands: analyze, euler-char, criteria, mu-bound, growth, fe, forge,
verify-points, tables.  Exit codes: 0 all checks matched, 2 a computed
value contradicted an expected one, 1 usage or computation error.
Each subcommand imports the modules it needs when it runs.
"""

from __future__ import annotations

import argparse
import json
import sys


def _load_curve(args):
    from . import dataset as ds
    from .curves import WeierstrassCurve
    if args.ainvs:
        a = json.loads(args.ainvs)
        if isinstance(a, dict):  # curve JSON object form
            return a.get("label", "custom"), WeierstrassCurve(*_ainvs(a["ainvs"])), {}
        return "custom", WeierstrassCurve(*_ainvs(a)), {}
    if not args.curve:
        raise ValueError("give --curve or --ainvs")
    entry = ds.lookup(args.curve, _extra_curves(args))
    return entry.label, entry.curve(), entry.annotations


def _ainvs(values):
    """[a1, a2, a3, a4, a6] from a JSON list of five integers or decimal
    strings; int() then refuses a string that is not an integer."""
    if (not isinstance(values, list) or len(values) != 5
            or any(isinstance(v, bool) or not isinstance(v, (int, str)) for v in values)):
        raise ValueError(f"a-invariants must be a list of five integers, got {values!r}")
    return [int(v) for v in values]


def _edges(path):
    """IsogenyEdges from the --edges file (the format is in the README)."""
    from .mu import IsogenyEdge, KernelClass
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, list):
        raise ValueError(f"the edges file must hold a JSON list, got {data!r}")
    edges = []
    for d in data:
        k = d.get("kernel") if isinstance(d, dict) else None
        if (not isinstance(k, dict) or not all(isinstance(d.get(f), str) for f in ("from", "to"))
                or not all(type(x) is int for x in (d.get("degree"), k.get("order")))
                or not all(type(k.get(f)) is bool for f in ("ramified", "odd"))):
            raise ValueError("an isogeny edge needs string labels, integer degree and order, "
                             f"and boolean ramified and odd, got {d!r}")
        edges.append(IsogenyEdge(d["from"].lower(), d["to"].lower(), d["degree"],
                                 KernelClass(k["order"], k["ramified"], k["odd"],
                                             k.get("provenance", "input"))))
    return edges


def _extra_curves(args):
    """The --extra file: either {label: [a1..a6]} or a list of curve
    objects {"label": ..., "ainvs": ["0","-1",...]} with string entries."""
    if not args.extra:
        return {}
    with open(args.extra) as fh:
        data = json.load(fh)
    if isinstance(data, list):
        return {d["label"].lower(): _ainvs(d["ainvs"]) for d in data}
    return {k.lower(): _ainvs(v) for k, v in data.items()}


def _emit(payload, args):
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True, indent=2, default=str))
    else:
        _emit_text(payload)


def _emit_text(payload, indent=0):
    pad = "  " * indent
    if isinstance(payload, dict):
        for k, v in payload.items():
            if isinstance(v, (dict, list)) and v:
                print(f"{pad}{k}:")
                _emit_text(v, indent + 1)
            else:
                print(f"{pad}{k}: {v}")
    elif isinstance(payload, list):
        for v in payload:
            if isinstance(v, (dict, list)):
                _emit_text(v, indent)
            else:
                print(f"{pad}- {v}")
    else:
        print(f"{pad}{payload}")


def _sel_vp(args):
    """v_p of the --sel-order input, which must be a positive integer."""
    from .padics import valuation
    if args.sel_order < 1:
        raise ValueError(f"--sel-order must be a positive integer, got {args.sel_order}")
    return valuation(args.sel_order, args.p)


def cmd_analyze(args):
    from . import dataset as ds
    from .curves import torsion
    from .mu import mu_lower_bound
    from .selmer import (EulerCharError, GlobalAssumptions, criterion_infinite,
                         criterion_vanishing, euler_char)
    from .tate import bad_primes, conductor, tate_local
    label, E, ann = _load_curve(args)
    p = args.p
    report = {"label": label, "ainvs": list(E.ainvs()), "disc": E.disc,
              "j": str(E.j), "conductor": conductor(E)}
    mismatches = []
    loc_table = {}
    for ell in bad_primes(E):
        loc = tate_local(E, ell)
        loc_table[ell] = {"kind": loc.kind, "tamagawa": loc.tamagawa,
                          "kodaira": loc.kodaira, "ord_j": loc.ord_j}
        want = ann.get("tamagawa", {}).get(ell)
        if want is not None and want != loc.tamagawa:
            mismatches.append(f"c_{ell}: computed {loc.tamagawa}, expected {want}")
    report["local"] = loc_table
    T = torsion(E)
    report["torsion"] = T.describe()
    if "torsion" in ann and ann["torsion"] != T.describe():
        mismatches.append(f"torsion: computed {T.describe()}, expected {ann['torsion']}")
    locp = tate_local(E, p)
    if locp.kind == "good":
        report["at_p"] = {"a_p": locp.a_ell,
                          "reduction": "supersingular" if locp.supersingular else "ordinary",
                          "anomalous": locp.anomalous}
    else:
        report["at_p"] = {"reduction": locp.kind}
    A = GlobalAssumptions(sel_vp=_sel_vp(args), rank=args.rank)
    try:
        rep = euler_char(E, p, A, digits=args.precision_digits)
        report["euler"] = {"total": rep.total,
                           "entries": [list(e) for e in rep.entries]}
        want = ann.get("euler_vp", {}).get(p)
        if want is not None and args.sel_order == ann.get("sel_order") and want != rep.total:
            mismatches.append(f"v_{p}(f(0)): computed {rep.total}, expected {want}")
    except EulerCharError as e:
        report["euler"] = {"refused": str(e)}
    try:
        van = criterion_vanishing(E, p, A)
        report["vanishing_criterion"] = {"holds": van.holds, "detail": van.conclusion}
        inf = criterion_infinite(E, p, A)
        report["infinitude_criterion"] = {"holds": inf.holds, "detail": inf.conclusion}
    except EulerCharError as e:
        report["criteria"] = {"refused": str(e)}
    if p == 2:
        try:
            v = mu_lower_bound(label, 2, ds.isogeny_edges(label), curves={label: E})
            report["mu_lower_bound"] = v.lower_bound
        except ValueError:
            pass
    elif ds.isogeny_edges(label):
        v = mu_lower_bound(label, p, ds.isogeny_edges(label))
        report["mu_lower_bound"] = v.lower_bound
    report["mismatches"] = mismatches
    _emit(report, args)
    return 2 if mismatches else 0


def cmd_euler(args):
    from .selmer import GlobalAssumptions, euler_char
    label, E, ann = _load_curve(args)
    rep = euler_char(E, args.p, GlobalAssumptions(sel_vp=_sel_vp(args)),
                     digits=args.precision_digits)
    payload = {"label": label, "p": args.p, "total": rep.total,
               "entries": [list(e) for e in rep.entries], "notes": list(rep.notes)}
    _emit(payload, args)
    want = ann.get("euler_vp", {}).get(args.p)
    if want is not None and args.sel_order == ann.get("sel_order", None) and want != rep.total:
        return 2
    return 0


def cmd_criteria(args):
    from .selmer import GlobalAssumptions, criterion_infinite, criterion_vanishing
    label, E, _ = _load_curve(args)
    A = GlobalAssumptions(sel_vp=_sel_vp(args))
    van = criterion_vanishing(E, args.p, A)
    inf = criterion_infinite(E, args.p, A)
    _emit({"label": label, "p": args.p,
           "vanishing": {"holds": van.holds, "conditions": [list(c) for c in van.conditions],
                         "conclusion": van.conclusion},
           "infinitude": {"holds": inf.holds, "conclusion": inf.conclusion}}, args)
    return 0


def cmd_mu_bound(args):
    from . import dataset as ds
    from .mu import _rational_two_torsion_points, classify_two_torsion, mu_lower_bound
    label, E, _ = _load_curve(args)
    edges = ds.isogeny_edges(label) + (_edges(args.edges) if args.edges else [])
    v = mu_lower_bound(label, args.p, edges, curves={label: E})
    payload = {"label": label, "p": args.p, "mu_lower_bound": v.lower_bound, "rule": v.rule}
    if args.p == 2:
        cls = {}
        for P in _rational_two_torsion_points(E):
            try:
                ram, odd = classify_two_torsion(E, P)
                cls[f"({P[0]}, {P[1]})"] = {"ramified_at_2": ram, "odd": odd}
            except ValueError as e:
                cls[f"({P[0]}, {P[1]})"] = {"error": str(e)}
        payload["two_torsion"] = cls
    _emit(payload, args)
    return 0


def cmd_growth(args):
    from . import lambda_algebra as la
    f = la.LambdaElement.from_text(args.f, args.precision_digits, args.t_precision)
    g = la.growth_fit(f, args.n_max)
    _emit({"f": f.to_text(), "lambda": g.lam, "mu": g.mu, "nu": g.nu,
           "n0": g.n0, "lambda0": g.lambda0,
           "e_values": list(g.e_values), "free_ranks": list(g.free_ranks)}, args)
    return 0


def cmd_fe(args):
    from . import lambda_algebra as la
    f = la.LambdaElement.from_text(args.f, args.precision_digits, args.t_precision)
    res = la.fe_solve(f)
    if res is la.INDETERMINATE:
        payload = {"f": f.to_text(), "verdict": "indeterminate"}
    elif res is None:
        payload = {"f": f.to_text(), "verdict": "no solution",
                   "iota_associate": la.associates_check(f, la.involution(f))}
    else:  # fe_solve solves only after associates_check's mu and d match, at its precision
        w, c = res
        payload = {"f": f.to_text(), "w": w, "c": _small_lift(c), "iota_associate": True}
    _emit(payload, args)
    return 0


def _small_lift(c):
    """Symmetric lift of a p-adic integer when small, else its repr."""
    from .padics import centered
    if c.is_zero:
        return 0
    if c.v < 0:
        return repr(c)
    lift = centered(c.p ** c.v * c.u, c.p ** c.abs_prec)
    return lift if abs(lift) < 10 ** 6 else repr(c)


def cmd_forge(args):
    from .forge import ForgeSpec, crt_assemble
    with open(args.spec) as fh:
        spec = ForgeSpec.from_dict(json.load(fh))
    res = crt_assemble(spec, seed=args.seed)
    _emit({"ainvs": list(res.curve.ainvs()), "ok": res.ok,
           "ledger": [list(e) for e in res.ledger],
           "witnesses": res.witnesses, "exponents": res.exponents}, args)
    return 0 if res.ok else 2


def cmd_verify_points(args):
    from .nfpoints import verify_paper_points
    results = verify_paper_points()
    _emit({"scenarios": [{"name": n, "pass": ok} for n, ok in results]}, args)
    return 0 if all(ok for _, ok in results) else 2


def cmd_tables(args):
    from fractions import Fraction

    from . import dataset as ds
    from .curves import torsion
    from .padics import valuation
    from .periods import real_period
    from .selmer import EulerCharError, GlobalAssumptions, euler_char
    from .tate import conductor, tate_local
    extra = _extra_curves(args)
    rows = []
    exit_code = 0
    for table, primes, p in ((ds.CONDUCTOR_15_TABLE, (3, 5), 2),
                             (ds.CONDUCTOR_195_TABLE, (3, 5, 13), 2)):
        for lbl, (sha, tors, cs, vf, mu) in table.items():
            row = {"label": lbl, "expected": {"|Sha|": sha, "|T|": tors,
                                              "tamagawa": list(cs), "v2(f(0))": vf, "mu": mu}}
            try:
                entry = ds.lookup(lbl, extra)
            except KeyError:
                row["status"] = "expected-only (supply --extra with its a-invariants)"
                rows.append(row)
                continue
            E = entry.curve()
            computed = {"|T|": torsion(E).order,
                        "tamagawa": [tate_local(E, ell).tamagawa for ell in primes]}
            try:
                rep = euler_char(E, p, GlobalAssumptions(sel_vp=valuation(sha, p)))
                computed["v2(f(0))"] = rep.total
            except EulerCharError as e:
                computed["v2(f(0))"] = f"refused: {e}"
            match = (computed["|T|"] == tors and computed["tamagawa"] == list(cs)
                     and computed.get("v2(f(0))") == vf)
            row["computed"] = computed
            row["match"] = match
            if not match:
                exit_code = 2
            rows.append(row)
    # per-curve scalar facts for the embedded entries
    facts = []
    for entry in ds.dataset_load():
        E = entry.curve()
        fact = {"label": entry.label, "conductor": conductor(E),
                "torsion": torsion(E).describe()}
        ok = True
        if "torsion" in entry.annotations:
            ok = ok and fact["torsion"] == entry.annotations["torsion"]
        for ell, c in entry.annotations.get("tamagawa", {}).items():
            got = tate_local(E, ell).tamagawa
            fact[f"c_{ell}"] = got
            ok = ok and got == c
        for p, want in entry.annotations.get("euler_vp", {}).items():
            try:
                got = euler_char(E, p, GlobalAssumptions(
                    sel_vp=valuation(entry.annotations.get("sel_order", 1), p))).total
                fact[f"v_{p}(f(0))"] = got
                ok = ok and got == want
            except EulerCharError as e:
                fact[f"v_{p}(f(0))"] = f"refused: {e}"
                ok = False
        if entry.annotations.get("period_ratio_to"):
            other_lbl, want = entry.annotations["period_ratio_to"]
            ratio = real_period(ds.lookup(other_lbl).curve()) / real_period(E)
            fact["period_ratio"] = round(float(ratio), 9)
            ok = ok and abs(ratio - want) < Fraction(1, 10 ** 6)
        fact["match"] = ok
        if not ok:
            exit_code = 2
        facts.append(fact)
    _emit({"tables": rows, "curve_facts": facts}, args)
    return exit_code


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1, since exit code 2 means a contradiction
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _checked_int(text, what, test):
    """int(text) when it passes `test`, else an argparse error that names the flag."""
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or not test(value):
        raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
    return value


def _at_least(low, what):
    """argparse type of an integer flag with a floor: the precisions and --n-max."""
    return lambda text: _checked_int(text, what, lambda value: value >= low)


def _prime(text):
    """argparse type of --p."""
    from .padics import is_prime
    return _checked_int(text, "a prime", is_prime)


def build_parser():
    ap = _Parser(prog="iwasawa",
                 description="Iwasawa-theoretic invariants of elliptic curves over Q")
    ap.add_argument("--format", choices=("json", "text"), default="text")
    ap.add_argument("--precision-digits", type=_at_least(1, "a positive integer"), default=30,
                    help="p-adic working digits (default 30)")
    ap.add_argument("--t-precision", type=_at_least(1, "a positive integer"), default=40,
                    help="power-series truncation (default 40)")
    ap.add_argument("--extra", help="JSON file mapping extra labels to a-invariants")
    sub = ap.add_subparsers(dest="command", required=True)

    def curve_opts(s):
        s.add_argument("--curve", help="dataset label, e.g. 11a or 915a1")
        s.add_argument("--ainvs", help="JSON list [a1,a2,a3,a4,a6]")
        s.add_argument("--p", type=_prime, required=True)

    s = sub.add_parser("analyze", help="full report for one curve at one prime")
    curve_opts(s)
    s.add_argument("--sel-order", type=int, default=1)
    s.add_argument("--rank", type=int, default=None)
    s.set_defaults(func=cmd_analyze)

    s = sub.add_parser("euler-char", help="itemized v_p(f(0)) ledger")
    curve_opts(s)
    s.add_argument("--sel-order", type=int, default=1)
    s.set_defaults(func=cmd_euler)

    s = sub.add_parser("criteria", help="vanishing / infinitude criteria")
    curve_opts(s)
    s.add_argument("--sel-order", type=int, default=1)
    s.set_defaults(func=cmd_criteria)

    s = sub.add_parser("mu-bound", help="mu lower bound from classified kernels")
    curve_opts(s)
    s.add_argument("--edges", help="JSON isogeny-edge file")
    s.set_defaults(func=cmd_mu_bound)

    s = sub.add_parser("growth", help="growth-law fit for a series")
    s.add_argument("f", help="series text, e.g. 'p=3 coeffs=[-3,1]'")
    s.add_argument("--n-max", type=_at_least(2, "an integer >= 2"), default=3)
    s.set_defaults(func=cmd_growth)

    s = sub.add_parser("fe", help="functional-equation solve for a series")
    s.add_argument("f", help="series text, e.g. 'p=3 coeffs=[3,3,1]'")
    s.set_defaults(func=cmd_fe)

    s = sub.add_parser("forge", help="build a curve with prescribed local data")
    s.add_argument("--spec", required=True, help='JSON {"P":[[5,2]],"L":[[3,1,2]],"Q":[7]}')
    s.add_argument("--seed", type=int, default=0)
    s.set_defaults(func=cmd_forge)

    s = sub.add_parser("verify-points", help="number-field point scenarios")
    s.set_defaults(func=cmd_verify_points)

    s = sub.add_parser("tables", help="reproduce the example tables")
    s.set_defaults(func=cmd_tables)
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError, ArithmeticError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
