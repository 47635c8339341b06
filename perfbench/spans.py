"""Span recorder for the traced benchmark run.

`Tracer.install()` replaces each function named in `TARGETS` at every
binding site inside the `iwasawa` package: the module attribute and every
`from .x import y` copy held by another module (for example
`selmer.tate_local` or `forge.count_points`).  Calls made through the
module globals, including recursive ones, therefore reach the wrapper.
A recursive call is recorded once, at the outermost level.

A span is `[name, start_s, end_s, parent, op]`: `parent` indexes the
enclosing span (or -1) and `op` is the benchmark op that caused it.
Spans stay in memory until `write()` at the end of the run.
"""

from __future__ import annotations

import json
import statistics
import sys
from time import perf_counter

#: module -> public functions wrapped in the traced run
TARGETS = {
    "cli": ["cmd_tables", "cmd_analyze", "cmd_euler", "cmd_criteria", "cmd_mu_bound",
            "cmd_verify_points", "cmd_fe", "cmd_growth"],
    "dataset": ["lookup", "dataset_checksum"],
    "tate": ["tate_local", "bad_primes", "conductor", "tate_period"],
    "curves": ["torsion", "count_points"],
    "selmer": ["euler_char", "criterion_vanishing", "criterion_infinite"],
    "padics": ["iwasawa_log"],
    "periods": ["real_period"],
    "mu": ["mu_lower_bound", "classify_two_torsion"],
    "nfpoints": ["verify_paper_points"],
    "lambda_algebra": ["growth_fit", "quotient_order", "smith_p_valuations", "poly_resultant",
                       "weierstrass_prepare", "involution", "fe_solve"],
    "forge": ["crt_assemble", "deuring_search", "irreducibility_witness", "forge_verify"],
}

#: cli handler -> subcommand name used in the metric
CLI_NAMES = {"cmd_tables": "tables", "cmd_analyze": "analyze", "cmd_euler": "euler-char",
             "cmd_criteria": "criteria", "cmd_mu_bound": "mu-bound",
             "cmd_verify_points": "verify-points", "cmd_fe": "fe", "cmd_growth": "growth"}

#: quotient_order layer sizes p^n reported as their own median
PN_LAYERS = (8, 9, 16, 25, 27, 32, 81, 125)


def _key(name, args):
    """What makes a call distinct, for the `.distinct` counters."""
    if name == "tate.tate_local":
        return (args[0].ainvs(), args[1])
    if name == "curves.torsion":
        return args[0].ainvs()
    return None


class Tracer:
    def __init__(self):
        self.spans = []
        self.raised = {}
        self.keys = {}          # name -> set of distinct call keys
        self.extra = {}         # span index -> facts about the call
        self.op = -1
        self._stack = []
        self._active = set()
        self._saved = []

    def begin_op(self, op):
        """Attribute the next spans to `op`; drop any frame an interrupted op left."""
        self.op = op
        self._stack.clear()
        self._active.clear()

    # -- wrapping --------------------------------------------------------

    def install(self):
        import importlib
        mods = {m: importlib.import_module(f"iwasawa.{m}") for m in TARGETS}
        originals = {}
        for m, names in TARGETS.items():
            for n in names:
                originals[id(getattr(mods[m], n))] = (f"{m}.{n}", getattr(mods[m], n))
        for mod_name, mod in list(sys.modules.items()):
            if not (mod_name == "iwasawa" or mod_name.startswith("iwasawa.")):
                continue
            for attr, val in list(vars(mod).items()):
                hit = originals.get(id(val))
                if hit is not None and val is hit[1]:
                    self._saved.append((mod, attr, val))
                    setattr(mod, attr, self._wrap(*hit))

    def uninstall(self):
        for mod, attr, val in reversed(self._saved):
            setattr(mod, attr, val)
        self._saved.clear()

    def _wrap(self, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            if name in tracer._active:  # recursive call: outermost span only
                return fn(*args, **kwargs)
            parent = tracer._stack[-1] if tracer._stack else -1
            idx = len(tracer.spans)
            span = [name, perf_counter(), None, parent, tracer.op]
            tracer.spans.append(span)
            if name == "curves.count_points":
                tracer.extra[idx] = {"p": args[1]}
            elif name == "lambda_algebra.quotient_order":
                tracer.extra[idx] = {"p": args[0].p, "n": args[1]}
            tracer._stack.append(idx)
            tracer._active.add(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.raised[name] = tracer.raised.get(name, 0) + 1
                raise
            finally:
                span[2] = perf_counter()
                tracer._stack.pop()
                tracer._active.discard(name)
            key = _key(name, args)
            if key is not None:
                tracer.keys.setdefault(name, set()).add(key)
            if name == "lambda_algebra.quotient_order":
                tracer.extra[idx].update(free_rank=result[0], e_n=result[1])
            return result

        traced.__wrapped__ = fn
        return traced

    # -- reductions ------------------------------------------------------

    def self_ms(self):
        """Per span: duration minus the time its direct children cover."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        return [(s[2] - s[1] - c) * 1e3 for s, c in zip(self.spans, child)]

    def layer_metrics(self, ops):
        """Per-layer metrics of BENCHMARK.json, normalized per attempted op.

        `ops` is the number of ops the traced loop attempted.  Names a
        workload never reaches are reported as 0 and listed separately.
        """
        per = max(ops, 1)
        selfs = self.self_ms()
        by_name = {}
        for i, s in enumerate(self.spans):
            by_name.setdefault(s[0], []).append(i)

        def dur(i):
            return (self.spans[i][2] - self.spans[i][1]) * 1e3

        def calls(n):
            return len(by_name.get(n, ())) / per

        def total(n):
            return sum(dur(i) for i in by_name.get(n, ())) / per

        def self_total(n):
            return sum(selfs[i] for i in by_name.get(n, ())) / per

        def median(idx):
            return statistics.median(dur(i) for i in idx) if idx else 0.0

        m = {}
        for handler, sub in CLI_NAMES.items():
            m[f"cli.{sub}.ms"] = (median(by_name.get(f"cli.{handler}", [])), "ms")
        m["dataset.lookup.calls"] = (calls("dataset.lookup"), "count/op")
        m["dataset.dataset_checksum.calls"] = (calls("dataset.dataset_checksum"), "count/op")
        m["dataset.dataset_checksum.ms"] = (total("dataset.dataset_checksum"), "ms/op")
        m["tate.tate_local.calls"] = (calls("tate.tate_local"), "count/op")
        m["tate.tate_local.distinct"] = (len(self.keys.get("tate.tate_local", ())) / per, "count/op")
        m["tate.tate_local.self_ms"] = (self_total("tate.tate_local"), "ms/op")
        m["tate.bad_primes.calls"] = (calls("tate.bad_primes"), "count/op")
        m["tate.bad_primes.self_ms"] = (self_total("tate.bad_primes"), "ms/op")
        m["tate.conductor.ms"] = (total("tate.conductor"), "ms/op")
        m["curves.torsion.calls"] = (calls("curves.torsion"), "count/op")
        m["curves.torsion.distinct"] = (len(self.keys.get("curves.torsion", ())) / per, "count/op")
        m["curves.torsion.self_ms"] = (self_total("curves.torsion"), "ms/op")
        cp = by_name.get("curves.count_points", [])
        m["curves.count_points.calls"] = (len(cp) / per, "count/op")
        m["curves.count_points.sum_p"] = (sum(self.extra[i]["p"] for i in cp) / per, "count/op")
        m["curves.count_points.ms"] = (total("curves.count_points"), "ms/op")
        m["selmer.euler_char.calls"] = (calls("selmer.euler_char"), "count/op")
        m["selmer.euler_char.raised"] = (self.raised.get("selmer.euler_char", 0) / per, "count/op")
        for n in ("euler_char", "criterion_vanishing", "criterion_infinite"):
            m[f"selmer.{n}.self_ms"] = (self_total(f"selmer.{n}"), "ms/op")
        m["tate.tate_period.calls"] = (calls("tate.tate_period"), "count/op")
        m["tate.tate_period.ms"] = (total("tate.tate_period"), "ms/op")
        m["padics.iwasawa_log.ms"] = (total("padics.iwasawa_log"), "ms/op")
        m["periods.real_period.calls"] = (calls("periods.real_period"), "count/op")
        m["periods.real_period.ms"] = (total("periods.real_period"), "ms/op")
        m["mu.mu_lower_bound.ms"] = (total("mu.mu_lower_bound"), "ms/op")
        m["mu.classify_two_torsion.ms"] = (total("mu.classify_two_torsion"), "ms/op")
        m["nfpoints.verify_paper_points.ms"] = (total("nfpoints.verify_paper_points"), "ms/op")
        qo = by_name.get("lambda_algebra.quotient_order", [])
        m["lambda_algebra.growth_fit.ms"] = (total("lambda_algebra.growth_fit"), "ms/op")
        m["lambda_algebra.quotient_order.calls"] = (len(qo) / per, "count/op")
        m["lambda_algebra.quotient_order.self_ms"] = (self_total("lambda_algebra.quotient_order"), "ms/op")
        m["lambda_algebra.quotient_order.matrix_entries"] = (
            sum((self.extra[i]["p"] ** self.extra[i]["n"]) ** 2 for i in qo) / per, "count/op")
        for n in ("smith_p_valuations", "poly_resultant"):
            m[f"lambda_algebra.{n}.ms"] = (total(f"lambda_algebra.{n}"), "ms/op")
        for pn in PN_LAYERS:
            idx = [i for i in qo if self.extra[i]["p"] ** self.extra[i]["n"] == pn]
            # mean, not median: at p^n = 32 dense and sparse layers differ 100x
            mean = sum(dur(i) for i in idx) / len(idx) if idx else 0.0
            m[f"lambda_algebra.quotient_order.pn{pn}.ms"] = (mean, "ms")
        m["lambda_algebra.weierstrass_prepare.calls"] = (
            calls("lambda_algebra.weierstrass_prepare"), "count/op")
        for n in ("weierstrass_prepare", "involution", "fe_solve"):
            m[f"lambda_algebra.{n}.ms"] = (total(f"lambda_algebra.{n}"), "ms/op")
        ds = by_name.get("forge.deuring_search", [])
        under = 0
        if ds:
            inside = set(ds)
            for i in cp:
                j = self.spans[i][3]
                while j >= 0 and j not in inside:
                    j = self.spans[j][3]
                under += j >= 0
        m["forge.crt_assemble.ms"] = (total("forge.crt_assemble"), "ms/op")
        m["forge.deuring_search.calls"] = (len(ds) / per, "count/op")
        m["forge.deuring_search.self_ms"] = (self_total("forge.deuring_search"), "ms/op")
        m["forge.deuring_search.tries_per_hit"] = (under / len(ds) if ds else 0.0, "ratio")
        m["forge.irreducibility_witness.ms"] = (total("forge.irreducibility_witness"), "ms/op")
        m["forge.forge_verify.calls"] = (calls("forge.forge_verify"), "count/op")
        m["forge.forge_verify.ms"] = (total("forge.forge_verify"), "ms/op")
        return m

    def unexercised(self):
        seen = {s[0] for s in self.spans}
        return sorted(f"{m}.{n}" for m, names in TARGETS.items() for n in names
                      if f"{m}.{n}" not in seen)

    def growth_layers(self, op_kind):
        """quotient_order per cyclotomic layer: one row per (kind, p, n)."""
        rows = {}
        for i, s in enumerate(self.spans):
            if s[0] != "lambda_algebra.quotient_order":
                continue
            x = self.extra[i]
            if "e_n" not in x:  # interrupted by the per-op limit
                continue
            key = (op_kind.get(s[4], "?"), x["p"], x["n"])
            rows.setdefault(key, []).append(((s[2] - s[1]) * 1e3, x["e_n"], x["free_rank"]))
        out = []
        for (kind, p, n), vals in sorted(rows.items()):
            out.append({"kind": kind, "p": p, "n": n, "pn": p ** n, "calls": len(vals),
                        "ms_median": statistics.median(v[0] for v in vals),
                        "e_n": sorted({v[1] for v in vals}),
                        "free_rank": sorted({v[2] for v in vals})})
        return out

    def write(self, path, header):
        t0 = self.spans[0][1] if self.spans else 0.0
        doc = dict(header)
        doc["raised"] = self.raised
        doc["span_fields"] = ["name", "start_ms", "end_ms", "parent", "op"]
        doc["spans"] = [[s[0], round((s[1] - t0) * 1e3, 4), round((s[2] - t0) * 1e3, 4), s[3], s[4]]
                        for s in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(doc, fh)
