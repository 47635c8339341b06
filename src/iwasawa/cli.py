"""Command-line front end.

Subcommands: analyze, euler-char, criteria, mu-bound, growth, fe, forge,
verify-points, tables.  Exit codes: 0 all checks matched, 2 a computed
value contradicted an expected one, 1 usage or computation error.
Each subcommand imports the modules it needs when it runs; only the integer
kernel `padics`, which every module imports, is loaded up front.
"""

from __future__ import annotations

import argparse
import json
import sys

from .padics import centered, is_prime, valuation


def _emit(payload, args):
    """Render the whole payload, then write it: a refusal leaves stdout empty."""
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True, indent=2, default=str))
    else:
        print("\n".join(_text_lines(payload)))


def _text_lines(payload, pad=""):
    if isinstance(payload, dict):
        for k, v in payload.items():
            if isinstance(v, (dict, list)) and v:
                yield f"{pad}{k}:"
                yield from _text_lines(v, pad + "  ")
            else:
                yield f"{pad}{k}: {v}"
    else:  # a list; the top level is always a dict
        for v in payload:
            if isinstance(v, (dict, list)):
                yield from _text_lines(v, pad)
            else:
                yield f"{pad}- {v}"


def cmd_analyze(args):
    from . import dataset as ds
    from .curves import torsion
    from .mu import mu_lower_bound
    from .selmer import (EulerCharError, GlobalAssumptions, criterion_infinite,
                         criterion_vanishing, euler_char)
    from .tate import bad_primes, conductor, tate_local
    label, E, ann = args.curve
    p = args.p
    report = {"label": label, "ainvs": list(E.ainvs()), "disc": E.disc,
              "j": str(E.j), "conductor": conductor(E)}
    mismatches = []
    report["local"] = loc_table = {}
    for ell in bad_primes(E):
        loc = tate_local(E, ell)
        loc_table[ell] = {"kind": loc.kind, "tamagawa": loc.tamagawa,
                          "kodaira": loc.kodaira, "ord_j": loc.ord_j}
        want = ann.get("tamagawa", {}).get(ell)
        if want is not None and want != loc.tamagawa:
            mismatches.append(f"c_{ell}: computed {loc.tamagawa}, expected {want}")
    report["torsion"] = tors = torsion(E).describe()
    if ann.get("torsion", tors) != tors:
        mismatches.append(f"torsion: computed {tors}, expected {ann['torsion']}")
    locp = tate_local(E, p)
    if locp.kind == "good":
        report["at_p"] = {"a_p": locp.a_ell,
                          "reduction": "supersingular" if locp.supersingular else "ordinary",
                          "anomalous": locp.anomalous}
    else:
        report["at_p"] = {"reduction": locp.kind}
    A = GlobalAssumptions(sel_vp=valuation(args.sel_order, p), rank=args.rank)
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
    label, E, ann = args.curve
    rep = euler_char(E, args.p, GlobalAssumptions(sel_vp=valuation(args.sel_order, args.p)),
                     digits=args.precision_digits)
    payload = {"label": label, "p": args.p, "total": rep.total,
               "entries": [list(e) for e in rep.entries], "notes": list(rep.notes)}
    _emit(payload, args)
    want = ann.get("euler_vp", {}).get(args.p)
    return 2 if want not in (None, rep.total) and args.sel_order == ann.get("sel_order") else 0


def cmd_criteria(args):
    from .selmer import GlobalAssumptions, criterion_infinite, criterion_vanishing
    label, E, _ = args.curve
    A = GlobalAssumptions(sel_vp=valuation(args.sel_order, args.p))
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
    label, E, _ = args.curve
    edges = ds.isogeny_edges(label) + (args.edges or [])
    v = mu_lower_bound(label, args.p, edges, curves={label: E})
    payload = {"label": label, "p": args.p, "mu_lower_bound": v.lower_bound, "rule": v.rule}
    if args.p == 2:
        payload["two_torsion"] = cls = {}
        for P in _rational_two_torsion_points(E):
            try:
                ram, odd = classify_two_torsion(E, P)
                cls[f"({P[0]}, {P[1]})"] = {"ramified_at_2": ram, "odd": odd}
            except ValueError as e:
                cls[f"({P[0]}, {P[1]})"] = {"error": str(e)}
    _emit(payload, args)
    return 0


def cmd_growth(args):
    from .lambda_algebra import growth_fit
    g = growth_fit(args.f, args.n_max)
    _emit({"f": args.f.to_text(), "lambda": g.lam, "mu": g.mu, "nu": g.nu,
           "n0": g.n0, "lambda0": g.lambda0,
           "e_values": list(g.e_values), "free_ranks": list(g.free_ranks)}, args)
    return 0


def cmd_fe(args):
    from . import lambda_algebra as la
    f = args.f
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
    if c.is_zero:
        return 0
    if c.v < 0:
        return repr(c)
    lift = centered(c.p ** c.v * c.u, c.p ** c.abs_prec)
    return lift if abs(lift) < 10 ** 6 else repr(c)


def cmd_forge(args):
    from .forge import crt_assemble
    res = crt_assemble(args.spec, seed=args.seed)
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
    from .periods import real_period
    from .tate import conductor, tate_local
    rows = []
    for table, primes, p in ((ds.CONDUCTOR_15_TABLE, (3, 5), 2),
                             (ds.CONDUCTOR_195_TABLE, (3, 5, 13), 2)):
        for lbl, (sha, tors, cs, vf, mu) in table.items():
            row = {"label": lbl, "expected": {"|Sha|": sha, "|T|": tors,
                                              "tamagawa": list(cs), "v2(f(0))": vf, "mu": mu}}
            rows.append(row)
            try:
                E = ds.lookup(lbl, args.extra).curve()
            except KeyError:
                row["status"] = "expected-only (supply --extra with its a-invariants)"
                continue
            computed = {"|T|": torsion(E).order,
                        "tamagawa": [tate_local(E, ell).tamagawa for ell in primes],
                        "v2(f(0))": _euler_total(E, p, sha)}
            row["computed"] = computed
            row["match"] = (computed["|T|"] == tors and computed["tamagawa"] == list(cs)
                            and computed["v2(f(0))"] == vf)
    # per-curve scalar facts for the embedded entries
    facts = []
    for entry in ds.dataset_load():
        E = entry.curve()
        fact = {"label": entry.label, "conductor": conductor(E),
                "torsion": torsion(E).describe()}
        ok = entry.annotations.get("torsion", fact["torsion"]) == fact["torsion"]
        for ell, c in entry.annotations.get("tamagawa", {}).items():
            got = fact[f"c_{ell}"] = tate_local(E, ell).tamagawa
            ok = ok and got == c
        for p, want in entry.annotations.get("euler_vp", {}).items():
            got = fact[f"v_{p}(f(0))"] = _euler_total(E, p, entry.annotations.get("sel_order", 1))
            ok = ok and got == want  # a refusal is a string, never equal to want
        if entry.annotations.get("period_ratio_to"):
            other_lbl, want = entry.annotations["period_ratio_to"]
            ratio = real_period(ds.lookup(other_lbl).curve()) / real_period(E)
            fact["period_ratio"] = round(float(ratio), 9)
            ok = ok and abs(ratio - want) < Fraction(1, 10 ** 6)
        fact["match"] = ok
        facts.append(fact)
    _emit({"tables": rows, "curve_facts": facts}, args)
    return 0 if all(r.get("match", True) for r in rows + facts) else 2


def _euler_total(E, p, sel_order):
    """v_p(f(0)) with |Sel| = sel_order, or the text of its refusal."""
    from .selmer import EulerCharError, GlobalAssumptions, euler_char
    try:
        return euler_char(E, p, GlobalAssumptions(sel_vp=valuation(sel_order, p))).total
    except EulerCharError as e:
        return f"refused: {e}"


# -- the input boundary: every input is checked before dispatch, and a refusal names it


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
    """argparse type of an integer flag with a floor."""
    return lambda text: _checked_int(text, what, lambda value: value >= low)


def _prime(text):
    """argparse type of --p."""
    return _checked_int(text, "a prime", is_prime)


def _json_input(convert, inline=False):
    """argparse type of JSON given inline or in the file it names: `convert` of
    the value.  An unreadable file, bad JSON and a ValueError from `convert` are
    refused."""
    def parse(text):
        where = "" if inline else f"{text}: "
        try:
            if not inline:
                with open(text) as fh:
                    text = fh.read()
            return convert(json.loads(text))
        except (OSError, ValueError, RecursionError) as e:
            raise argparse.ArgumentTypeError(f"{where}{e}") from None
    return parse


def _curve(value, label=None):
    """(label, curve) of a list of five integers or decimal strings, or of a curve
    object {"label": ..., "ainvs": [...]}; a non-integer string or a singular model fails."""
    from .curves import WeierstrassCurve
    d = value if isinstance(value, dict) else {"ainvs": value}
    label, ainvs = d.get("label", label), d.get("ainvs")
    if (not isinstance(label, str) or not isinstance(ainvs, list) or len(ainvs) != 5
            or any(isinstance(v, bool) or not isinstance(v, (int, str)) for v in ainvs)):
        raise ValueError("a curve is a list of five integers (or decimal strings), or an "
                         f"object with a string label and that list as ainvs; got {value!r}")
    return label, WeierstrassCurve(*(int(v) for v in ainvs))


def _extra(value):
    """--extra: {label: [a1..a6]} or a list of curve objects, as label -> a-invariants."""
    if not isinstance(value, (dict, list)):
        raise ValueError(f"the extra file must hold a JSON object or list, got {value!r}")
    pairs = map(_curve, value) if isinstance(value, list) else map(_curve, value.values(), value)
    return {k.lower(): E.ainvs() for k, E in pairs}


def _edges(value):
    """--edges: the IsogenyEdges of a JSON list (the format is in the README)."""
    from .mu import IsogenyEdge, KernelClass
    if not isinstance(value, list):
        raise ValueError(f"the edges file must hold a JSON list, got {value!r}")
    edges = []
    for d in value:
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


def _spec(value):
    """--spec: the ForgeSpec of a JSON object."""
    from .forge import ForgeSpec
    return ForgeSpec.from_dict(value)


def _parse(argv):
    """The checked arguments.  A --curve label (read with --extra) and the series
    text (read at both precisions) need two flags, so they are read after parsing.
    An --n-max below N (growth_fit refuses a larger one past the layer-matrix bound)
    at which mu*p^n_max has more digits than the interpreter prints
    (sys.get_int_max_str_digits; absent or 0: no limit) is refused before fitting."""
    ap = build_parser()
    args = ap.parse_args(argv)
    if isinstance(getattr(args, "curve", None), str):  # --ainvs is already a curve
        from . import dataset as ds
        try:
            entry = ds.lookup(args.curve, args.extra)
        except KeyError as e:
            ap.error(f"argument --curve: {e.args[0]}")
        args.curve = entry.label, entry.curve(), entry.annotations
    if "f" not in args:
        return args
    from .lambda_algebra import LambdaElement
    try:
        f = args.f = LambdaElement.from_text(args.f, args.precision_digits, args.t_precision)
    except (ValueError, ArithmeticError) as e:
        ap.error(f"argument f: {e}")
    limit = getattr(sys, "get_int_max_str_digits", int)()
    if "n_max" in args and args.n_max < f.coeff_prec and limit:  # p^n_max < p^N, made above
        mu = min((valuation(c, f.p) for c in f.coeffs if c), default=0)
        if mu * f.p ** args.n_max >= 10 ** (limit - 1):
            ap.error(f"argument --n-max: mu*p^n_max = {mu}*{f.p}^{args.n_max} reaches "
                     f"10^{limit - 1}; the interpreter prints integers of at most {limit} digits")
    return args


def build_parser():
    positive = _at_least(1, "a positive integer")
    ap = _Parser(prog="iwasawa",
                 description="Iwasawa-theoretic invariants of elliptic curves over Q")
    ap.add_argument("--format", choices=("json", "text"), default="text")
    ap.add_argument("--precision-digits", type=positive, default=30,
                    help="p-adic working digits (default 30)")
    ap.add_argument("--t-precision", type=positive, default=40,
                    help="power-series truncation (default 40)")
    ap.add_argument("--extra", type=_json_input(_extra),
                    help="JSON file mapping extra labels to a-invariants")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, func, text in (
            ("analyze", cmd_analyze, "full report for one curve at one prime"),
            ("euler-char", cmd_euler, "itemized v_p(f(0)) ledger"),
            ("criteria", cmd_criteria, "vanishing / infinitude criteria"),
            ("mu-bound", cmd_mu_bound, "mu lower bound from classified kernels"),
            ("growth", cmd_growth, "growth-law fit for a series"),
            ("fe", cmd_fe, "functional-equation solve for a series"),
            ("forge", cmd_forge, "build a curve with prescribed local data"),
            ("verify-points", cmd_verify_points, "number-field point scenarios"),
            ("tables", cmd_tables, "reproduce the example tables")):
        s = sub.add_parser(name, help=text)
        s.set_defaults(func=func)
        if name in ("analyze", "euler-char", "criteria", "mu-bound"):
            g = s.add_mutually_exclusive_group(required=True)
            g.add_argument("--curve", help="dataset label, e.g. 11a or 915a1")
            g.add_argument("--ainvs", dest="curve", metavar="JSON", help="[a1..a6] or curve object",
                           type=_json_input(lambda v: (*_curve(v, "custom"), {}), inline=True))
            s.add_argument("--p", type=_prime, required=True)
        if name in ("analyze", "euler-char", "criteria"):
            s.add_argument("--sel-order", type=positive, default=1)
        if name in ("growth", "fe"):
            s.add_argument("f", help="series text, e.g. 'p=3 coeffs=[3,3,1]'")
    sub.choices["analyze"].add_argument("--rank", type=_at_least(0, "a non-negative integer"))
    sub.choices["mu-bound"].add_argument("--edges", type=_json_input(_edges),
                                         help="JSON isogeny-edge file")
    sub.choices["growth"].add_argument("--n-max", type=_at_least(2, "an integer >= 2"), default=3)
    sub.choices["forge"].add_argument("--spec", type=_json_input(_spec), required=True,
                                      help='JSON file {"P":[[5,2]],"L":[[3,1,2]],"Q":[7]}')
    sub.choices["forge"].add_argument("--seed", type=int, default=0)
    return ap


def main(argv=None):
    args = _parse(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError, ArithmeticError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
