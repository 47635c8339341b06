"""Benchmark driver for the iwasawa library and CLI.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Each workload is a closed loop with one client in its own process.  It
runs whole rounds of seeded ops until the time spent inside ops reaches
--seconds, checks every op's answer, and prints the end-to-end metrics
(--trace 0), with times at a reference host speed (hostspeed.py), or the
per-layer metrics from a traced run (--trace 1).  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Any wrong answer makes the exit code 1.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from hostspeed import Sampler

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("desk", "sweep", "growth", "forge")
#: per-op time limit; an op that reaches it is interrupted and counts as failed
OP_LIMIT_S = {"desk": 2.0, "sweep": 2.0, "growth": 3.0, "forge": 15.0}
#: host-speed kernels (hostspeed.py) that resemble each workload's work
KERNEL = {"desk": ("interp",), "sweep": ("interp",), "growth": ("interp", "bigint"),
          "forge": ("interp", "bigint")}
SETUP_SPAWNS = 15
SETUP_CODE = "import iwasawa; from iwasawa import dataset; dataset.dataset_load()"


class OpTimeout(BaseException):
    """Raised by SIGALRM inside an op; a BaseException so that no library
    `except Exception` handler can swallow it."""


class Op:
    """One unit of work: `call()` runs it, `check(value, exc)` classifies
    the outcome as ("ok" | "refused" | "failed", wrong_answer, detail)."""

    __slots__ = ("kind", "name", "call", "check", "status", "ms", "at", "detail")

    def __init__(self, kind, name, call, check):
        self.kind, self.name, self.call, self.check = kind, name, call, check
        self.status, self.ms, self.at, self.detail = None, None, None, ""


_armed = False


def _on_alarm(signum, frame):
    if _armed:
        raise OpTimeout()


def run_op(op, limit, sampler=None):
    """Run `op` under the per-op limit and record its status and latency,
    less the time `sampler` took inside it."""
    global _armed
    value = exc = None
    spent = sampler.spent if sampler else 0.0
    t0 = perf_counter()
    try:
        _armed = True
        signal.setitimer(signal.ITIMER_REAL, limit)
        if sampler:
            sampler.resume()
        try:
            value = op.call()
        finally:
            if sampler:
                sampler.pause()
            _armed = False
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OpTimeout:
        exc = OpTimeout()
    except Exception as e:  # classified by the op's own check
        exc = e
    t1 = perf_counter()
    op.ms, op.at = (t1 - t0 - ((sampler.spent if sampler else 0.0) - spent)) * 1e3, (t0, t1)
    if isinstance(exc, OpTimeout):
        op.status, op.detail = "failed", f"time limit {limit} s"
        return False
    try:
        op.status, wrong, op.detail = op.check(value, exc)
    except (ValueError, KeyError, TypeError, AttributeError) as e:  # malformed output
        op.status, wrong, op.detail = "failed", True, f"unreadable result: {_exc_name(e)}"
    return wrong


def _exc_name(exc):
    return f"{type(exc).__name__}: {exc}"


def fail(op, why):
    """Mark `op` failed by a reference check made after the timed loop."""
    op.status, op.detail = "failed", why
    return why


class Workload:
    """A seeded op generator.  `rounds()` yields lists of ops forever;
    `probes()` are the known-hard ops run once after the timed loop;
    `post_check()` runs the reference checks left for after the loop, marks
    the ops they refute as failed and returns why."""

    def probes(self):
        return []

    def post_check(self):
        return []


# -- desk ------------------------------------------------------------------------


def cli_call(argv):
    from iwasawa import cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def digest(code, out, err):
    return hashlib.sha256(f"{code}\0{out}\0{err}".encode()).hexdigest()


def desk_fixed_ops():
    """(key, argv) for every desk op whose input does not depend on the seed."""
    from iwasawa import dataset as ds
    ops = [("tables", ["tables"])]
    for entry in ds.dataset_load():
        ann = entry.annotations
        primes = set()
        for k in ("tamagawa", "euler_vp", "ap", "mu", "lambda", "analytic", "kinds"):
            primes |= set(ann.get(k, {}))
        for p in sorted(primes):
            for sub in ("analyze", "euler-char", "criteria"):
                ops.append((f"{sub} {entry.label} {p}", [sub, "--curve", entry.label, "--p", str(p)]))
        for src, _, deg, _, _ in ann.get("isogeny_edges", []):
            ops.append((f"mu-bound {src} {deg}", ["mu-bound", "--curve", src, "--p", str(deg)]))
    ops.append(("verify-points", ["verify-points"]))
    return [(k, ["--format", "json"] + argv) for k, argv in ops]


def _big_two_torsion_ainvs():
    """y^2 = (x - a)(x^2 - b): 2-torsion x-coordinates near 10^160, one rational."""
    a, b = 10 ** 160, 10 ** 320 + 2
    return [0, -a, 0, -b, a * b]


DESK_PROBES = (
    # curves._factorize trial-divides a 21-digit prime factor (ROADMAP item 3)
    ("analyze big-prime discriminant",
     ["--format", "json", "analyze", "--ainvs", "[0,0,1,-7,1000000000039]", "--p", "5"],
     [0, 0, 1, -7, 1000000000039]),
    # float conversion of 2-torsion x-coordinates overflows (ROADMAP item 3)
    ("mu-bound 2-torsion near 10^160",
     ["--format", "json", "mu-bound", "--ainvs", json.dumps(_big_two_torsion_ainvs()), "--p", "2"],
     _big_two_torsion_ainvs()),
)


def _probe_check(ainvs):
    def check(value, exc):
        if exc is not None:
            return "failed", False, _exc_name(exc)
        code, out, err = value
        if code != 0:
            return "failed", False, f"exit {code}: {err.strip()[:120]}"
        payload = json.loads(out)
        if payload.get("ainvs", ainvs) != ainvs:
            return "failed", True, "echoed a-invariants differ"
        return "ok", False, ""
    return check


class Desk(Workload):
    """In-process CLI calls: every dataset curve at every annotated prime,
    plus tables, mu-bound, verify-points and seeded fe/growth series."""

    def __init__(self, rng):
        self.rng = rng
        self.fixed = desk_fixed_ops()
        with open(HERE / "desk_reference.json") as fh:
            self.reference = json.load(fh)

    def _fixed_op(self, key, argv):
        want = self.reference[key]

        def check(value, exc):
            if exc is not None:
                return "failed", False, _exc_name(exc)
            code = value[0]
            if code == 2:
                return "failed", True, "contradicts a dataset annotation (exit 2)"
            if code != want["exit"] or digest(*value) != want["digest"]:
                return "failed", True, f"exit {code} or output differs from the reference"
            return ("refused" if code == 1 else "ok"), False, ""
        return Op(key.split()[0], key, lambda: cli_call(argv), check)

    def _fe_op(self):
        from checks import fe_series, series_text
        p = self.rng.choice([3, 5, 7])
        coeffs, w, c = fe_series(self.rng, p)
        argv = ["--format", "json", "fe", series_text(p, coeffs)]

        def check(value, exc):
            if exc is not None or value[0] != 0:
                return "failed", False, _exc_name(exc) if exc else f"exit {value[0]}"
            got = json.loads(value[1])
            if (got.get("w"), got.get("c")) != (w, c):
                return "failed", True, f"fe gave w={got.get('w')} c={got.get('c')}, built {w}, {c}"
            return "ok", False, ""
        return Op("fe", f"fe p={p}", lambda: cli_call(argv), check)

    def _growth_op(self):
        from checks import growth_series, series_text
        lam, mu = self.rng.randint(2, 3), self.rng.randint(0, 1)
        coeffs, lambda0 = growth_series(self.rng, 3, lam, mu, False)
        argv = ["--format", "json", "growth", series_text(3, coeffs), "--n-max", "3"]

        def check(value, exc):
            if exc is not None or value[0] != 0:
                return "failed", False, _exc_name(exc) if exc else f"exit {value[0]}"
            got = json.loads(value[1])
            if (got["lambda"] + got["lambda0"], got["lambda0"], got["mu"]) != (lam, lambda0, mu):
                return "failed", True, f"growth gave {got}, built lambda={lam} mu={mu}"
            return "ok", False, ""
        return Op("growth", f"growth lam={lam} mu={mu}", lambda: cli_call(argv), check)

    def rounds(self):
        while True:
            ops = [self._fixed_op(k, a) for k, a in self.fixed]
            ops += [self._fe_op() for _ in range(4)] + [self._growth_op() for _ in range(4)]
            self.rng.shuffle(ops)
            yield ops

    def probes(self):
        return [Op("probe", name, lambda argv=argv: cli_call(argv), _probe_check(ainvs))
                for name, argv, ainvs in DESK_PROBES]


# -- sweep -----------------------------------------------------------------------


def golden_order(items):
    """An order in which every prefix spreads evenly over `items` (a
    Kronecker sequence), so that a run of any length sees the same mix."""
    phi = (5 ** 0.5 - 1) / 2
    return [x for _, x in sorted(((i * phi) % 1.0, x) for i, x in enumerate(items))]


class Sweep(Workload):
    """(curve, p) rows: tate_local, euler_char and both criteria.

    Every dataset curve takes part, in seeded order; a round is one prime
    across all of them.  Primes: all below 2000 plus one seeded prime from
    each of 50 equal bins of [2e4, 9e4], one high prime every 5th round,
    both lists in `golden_order`.
    """

    def __init__(self, rng):
        from checks import discriminant, is_prime, torsion_order
        from iwasawa import dataset as ds
        from iwasawa.selmer import GlobalAssumptions
        self.rng = rng
        self.curves = [(e.label, e.curve(), e.ainvs, discriminant(e.ainvs),
                        torsion_order(e.annotations["torsion"])) for e in ds.dataset_load()]
        rng.shuffle(self.curves)
        low = [p for p in range(2, 2000) if is_prime(p)]
        high = []
        for b in range(50):
            lo = 20000 + 1400 * b
            high.append(rng.choice([p for p in range(lo, lo + 1400) if is_prime(p)]))
        self.low, self.high = golden_order(low), golden_order(high)
        self.A = GlobalAssumptions(sel_vp=0)
        self.rows = []          # (ainvs, p, a_p, op) of good rows, for the reference sample

    def _row(self, label, E, ainvs, disc, tors, p):
        from iwasawa import selmer, tate

        def call():
            loc = tate.tate_local(E, p)
            out = {"kind": loc.kind, "a_p": loc.a_ell}
            for key, fn in (("euler", selmer.euler_char), ("vanishing", selmer.criterion_vanishing),
                            ("infinite", selmer.criterion_infinite)):
                try:
                    out[key] = fn(E, p, self.A)
                except selmer.EulerCharError as e:
                    out[key] = e
            return out

        def check(value, exc):
            if exc is not None:
                return "failed", False, _exc_name(exc)
            why = self._judge(value, p, disc, tors)
            if why:
                return "failed", True, f"{label} at {p}: {why}"
            if value["kind"] == "good":
                self.rows.append((ainvs, p, value["a_p"], op))
            refused = isinstance(value["euler"], Exception)
            return ("refused" if refused else "ok"), False, ""
        op = Op("high" if p > 2000 else "low", f"{label} {p}", call, check)
        return op

    @staticmethod
    def _judge(row, p, disc, tors):
        """Why the row contradicts the reference facts, or '' if it does not."""
        from checks import valuation
        from iwasawa.selmer import EulerReport, SupersingularAtP
        kind, eu, van, inf = row["kind"], row["euler"], row["vanishing"], row["infinite"]
        if (kind == "good") != (disc % p != 0):
            return f"kind {kind} but p | disc is {disc % p == 0}"
        if kind == "good":
            a = row["a_p"]
            if a * a > 4 * p:
                return f"a_p = {a} breaks the Hasse bound"
            npts = p + 1 - a
            if a % p == 0:
                return "" if isinstance(eu, SupersingularAtP) and isinstance(van, Exception) \
                    and isinstance(inf, Exception) else "supersingular prime not refused"
            if not isinstance(eu, EulerReport):
                return f"euler_char refused at an ordinary prime: {eu}"
            if eu.contribution("at-p") != 2 * valuation(npts, p):
                return "at-p entry differs from 2 v_p(|E(F_p)|)"
            if eu.contribution("torsion") != -2 * valuation(tors, p):
                return "torsion entry differs from the annotated torsion"
            if isinstance(van, Exception) or van.conditions[0][1] != (npts % p != 0):
                return "vanishing criterion misreads |E(F_p)|"
            if tors % p == 0:
                return "" if isinstance(inf, Exception) else "infinitude criterion ran with p-torsion"
            if isinstance(inf, Exception) or inf.conditions[1][1] != (npts % p == 0):
                return "infinitude criterion misreads anomaly"
            return ""
        if kind not in ("multiplicative_split", "multiplicative_nonsplit", "additive"):
            return f"unknown kind {kind}"
        if not (isinstance(van, Exception) and isinstance(inf, Exception)):
            return "criteria ran at a bad prime"
        if kind == "additive":
            return "" if isinstance(eu, Exception) and not isinstance(eu, SupersingularAtP) \
                else "additive prime not refused"
        return "" if isinstance(eu, EulerReport) else f"multiplicative prime refused: {eu}"

    def rounds(self):
        low, high = iter(self.low), iter(self.high)
        i = 0
        while True:
            p = next(high, None) if i % 5 == 4 else next(low, None)
            if p is None:
                low, high = iter(self.low), iter(self.high)
                continue
            yield [self._row(*c, p) for c in self.curves]
            i += 1

    def post_check(self):
        """Euler's-criterion point counts for a seeded sample of good rows."""
        from checks import count_points
        lows = [r for r in self.rows if r[1] < 2000]
        highs = [r for r in self.rows if r[1] > 2000]
        sample = self.rng.sample(lows, min(16, len(lows))) + self.rng.sample(highs, min(8, len(highs)))
        return [fail(op, f"a_{p} of {ainvs}: computed {a}, reference {ref}")
                for ainvs, p, a, op in sample
                if (ref := p + 1 - count_points(ainvs, p)) != a]


# -- growth ----------------------------------------------------------------------

#: (p, n_max, dense): p^n_max = 32 | 32, 27 | 81, 25 | 125
GROWTH_SHAPES = ((2, 5, True), (3, 4, False), (5, 2, True),
                 (2, 5, False), (3, 3, True), (5, 3, False))
#: dense p = 2 at p^n_max = 64 and 128: beyond the per-op limit (ROADMAP item 2)
GROWTH_PROBES = ((2, 6), (2, 7))


class Growth(Workload):
    """growth_fit on seeded f = p^mu * d * u, dense or sparse unit u."""

    def __init__(self, rng):
        self.rng = rng

    def _op(self, p, n_max, dense):
        from checks import K, N, growth_series
        from iwasawa.lambda_algebra import LambdaElement, growth_fit
        lam, mu = self.rng.randint(1 if dense else 2, 3), self.rng.randint(0, 1)
        coeffs, lambda0 = growth_series(self.rng, p, lam, mu, dense)
        f = LambdaElement(p, coeffs, N, K)

        def check(value, exc):
            if exc is not None:
                return "failed", False, _exc_name(exc)
            if (value.lam + value.lambda0, value.lambda0, value.mu) != (lam, lambda0, mu):
                return "failed", True, f"fit lambda={value.lam}+{value.lambda0} mu={value.mu}, " \
                                       f"built lambda={lam} (lambda0={lambda0}) mu={mu}"
            return "ok", False, ""
        tag = "dense" if dense else "sparse"
        return Op(tag, f"{tag} p={p} pn={p ** n_max}", lambda: growth_fit(f, n_max), check)

    def rounds(self):
        while True:
            yield [self._op(*shape) for shape in GROWTH_SHAPES]

    def probes(self):
        return [self._op(p, n, True) for p, n in GROWTH_PROBES]


# -- forge -----------------------------------------------------------------------


class Forge(Workload):
    """crt_assemble on seeded specs: two good primes in [50, 1500], one
    multiplicative prime <= 13 and one irreducibility prime <= 17.

    The first good prime is drawn uniformly; the second is the prime
    nearest to sqrt(S - p1^2) with S = 50^2 + 1500^2, so p1^2 + p2^2 (the
    size of deuring_search's candidate lists) is the same for every spec.
    """

    S = 50 ** 2 + 1500 ** 2

    def __init__(self, rng):
        from checks import is_prime
        self.rng = rng
        self.primes = [p for p in range(50, 1501) if is_prime(p)]
        self.built = []         # (ainvs, good clauses, op) for the reference check

    def _partner(self, p1):
        from math import isqrt
        target = isqrt(self.S - p1 * p1)
        return min((q for q in self.primes if q != p1), key=lambda q: abs(q - target))

    def _op(self):
        from checks import hasse_trace
        from iwasawa.forge import ForgeSpec, crt_assemble
        rng = self.rng
        p1 = rng.choice(self.primes)
        good = tuple((p, hasse_trace(rng, p)) for p in (p1, self._partner(p1)))
        ell, split = rng.choice((2, 3, 5, 7, 11, 13)), rng.choice((1, -1))
        c = rng.randint(1, 4) if split == 1 else rng.randint(1, 2)
        spec = ForgeSpec(good, ((ell, split, c),), (rng.choice((2, 3, 5, 7, 11, 13, 17)),))
        seed = rng.randrange(10 ** 6)

        def check(value, exc):
            if exc is not None:
                return "failed", False, _exc_name(exc)
            if not value.ok:
                return "failed", False, f"ledger did not pass: {spec.to_dict()}"
            self.built.append((value.curve.ainvs(), good, op))
            return "ok", False, ""
        op = Op("spec", json.dumps(spec.to_dict()), lambda: crt_assemble(spec, seed), check)
        return op

    def rounds(self):
        while True:
            yield [self._op()]

    def post_check(self):
        """Every good-prime clause of every built curve, by Euler's criterion."""
        from checks import count_points
        return [fail(op, f"a_{p} of {ainvs}: wanted {a}, reference {ref}")
                for ainvs, good, op in self.built for p, a in good
                if (ref := p + 1 - count_points(ainvs, p)) != a]


# -- measuring -------------------------------------------------------------------


def time_setup():
    """(wall time, (start, end)) of one fresh interpreter importing iwasawa
    and checking the dataset."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE], env=dict(os.environ, PYTHONPATH=str(SRC)),
                   cwd=ROOT, check=True)
    t1 = perf_counter()
    return t1 - t0, (t0, t1)


def run_facts(workload, seed):
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.CalledProcessError):
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, check=True).stdout.strip()
    h = hashlib.sha256()
    for path in sorted((SRC / "iwasawa").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"workload": workload, "seed": seed, "nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "git_commit": commit, "src_sha256": h.hexdigest()}


def run_workload(name, seed, seconds, tracer=None, sampler=None, spawns=0):
    """The timed loop.  The `spawns` set-up timings are spread over the run
    (outside the time counted as busy), so that they see the same machine
    as the ops do."""
    rng = random.Random(f"{name}:{seed}")
    wl = {"desk": Desk, "sweep": Sweep, "growth": Growth, "forge": Forge}[name](rng)
    limit = OP_LIMIT_S[name]
    done, wrong, setup = [], [], []
    busy = 0.0
    rounds = 0
    if tracer:
        tracer.install()
    try:
        for batch in wl.rounds():
            for op in batch:
                if tracer:
                    tracer.begin_op(len(done))
                if run_op(op, limit, sampler):
                    wrong.append(op.detail)
                done.append(op)
                busy += op.ms / 1e3
            rounds += 1
            while len(setup) < spawns and busy >= len(setup) * seconds / spawns:
                setup.append(time_setup())
            if busy >= seconds:
                break
    finally:
        if tracer:
            tracer.uninstall()
    while len(setup) < spawns:
        setup.append(time_setup())
    probes = wl.probes()
    for op in probes:
        if run_op(op, limit):
            wrong.append(op.detail)
    wrong += wl.post_check()
    return done, probes, wrong, busy, rounds, setup


def summarize(done, latency):
    """Counts, throughput and latency percentiles, with `latency(op)` in ms."""
    good = sorted(latency(op) for op in done if op.status != "failed")
    completed = len(good)
    if not good:  # every op failed: report their latencies, and no throughput
        good = sorted(latency(op) for op in done)
    return {
        "ok": sum(op.status == "ok" for op in done),
        "refused": sum(op.status == "refused" for op in done),
        "failed": sum(op.status == "failed" for op in done),
        "throughput": completed / sum(latency(op) / 1e3 for op in done),
        "p50": statistics.median(good),
        # interpolated, so that with few samples one outlier moves it less
        "p90": statistics.quantiles(good, n=10, method="inclusive")[-1] if len(good) > 1 else good[0],
        "samples": len(good),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "iwasawa" / "__init__.py").is_file():
        sys.exit(f"error: no iwasawa sources under {SRC.relative_to(ROOT)}/; "
                 "run from a checkout of the repository")
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    signal.signal(signal.SIGALRM, _on_alarm)
    facts = run_facts(args.workload, args.seed)
    tracer = sampler = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
    else:
        sampler = Sampler(KERNEL[args.workload])
        facts["setup_spawns"] = SETUP_SPAWNS
    done, probes, wrong, busy, rounds, setup = run_workload(
        args.workload, args.seed, args.seconds, tracer, sampler, 0 if tracer else SETUP_SPAWNS)
    if sampler and not sampler.samples:
        sampler.sample()

    def latency(op):
        """ms at the reference host speed (hostspeed.py) in an untraced run;
        the times as measured go to `facts`."""
        return op.ms * sampler.scale_over(*op.at) if sampler else op.ms
    s = summarize(done, latency)
    kinds = {}
    for op in done:
        kinds[op.kind] = kinds.get(op.kind, 0) + 1
    facts.update(op_limit_s=OP_LIMIT_S[args.workload], rounds=rounds, busy_s=round(busy, 3),
                 ops=len(done), ops_by_kind=kinds, ok=s["ok"], refused=s["refused"],
                 failed=s["failed"],
                 percentiles={"p50": {"samples": s["samples"]},
                              "p90": {"samples": s["samples"],
                                      "beyond": sum(latency(op) > s["p90"] for op in done
                                                    if op.status != "failed")}},
                 known_hard={op.name: op.status + (f" ({op.detail})" if op.detail else "")
                             for op in probes})
    all_failed = s["failed"] + sum(op.status == "failed" for op in probes)
    failed_frac = all_failed / (len(done) + len(probes))
    print(f"workload {args.workload} seed {args.seed}: {len(done)} ops in {rounds} rounds, "
          f"{busy:.2f} s busy; ok {s['ok']}, refused {s['refused']}, failed {s['failed']}")
    for op in done:
        if op.status == "failed":
            print(f"  failed: {op.name}: {op.detail}")
    for op in probes:
        print(f"  known-hard {op.name}: {op.status} {op.detail}")
    for why in wrong:
        print(f"  WRONG: {why}")
    if tracer:
        metrics = trace_metrics(args, tracer, done, facts)
    else:
        measured = summarize(done, lambda op: op.ms)
        facts["measured"] = {"setup_s": statistics.median(m for m, _ in setup),
                             "throughput_ops_per_s": measured["throughput"],
                             "latency_p50_ms": measured["p50"], "latency_p90_ms": measured["p90"]}
        facts["host_speed"] = {"kernels": sampler.kernels, "samples": len(sampler.samples),
                               "mean_s": statistics.fmean(sampler.samples),
                               "min_s": min(sampler.samples), "max_s": max(sampler.samples),
                               "ref_s": sampler.ref}
        metrics = {
            "setup_s": (statistics.median(m * sampler.scale_over(*at) for m, at in setup), "s"),
            "throughput_ops_per_s": (s["throughput"], "ops/s"),
            "latency_p50_ms": (s["p50"], "ms"),
            "latency_p90_ms": (s["p90"], "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        print(f"  failed_ops_frac {failed_frac:.4f} ratio (known-hard ops included: "
              f"{all_failed}/{len(done) + len(probes)})")
    for k, (v, unit) in metrics.items():
        print(f"  {k} {v:.6g} {unit}")
    print("facts " + json.dumps(facts, sort_keys=True))
    print(json.dumps({"correct": not wrong, "attempted": len(done), "failed": s["failed"],
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 1 if wrong else 0


def trace_overhead(done, budget_s=2.0):
    """Tracing cost: the first completed ops (about `budget_s` of them) are
    replayed once without and once with a fresh tracer, alternating which
    goes first, so that machine drift and warm caches cancel."""
    from spans import Tracer
    sample = []
    for op in done:
        if op.status != "failed":
            sample.append(op)
            if sum(o.ms for o in sample) >= budget_s * 1e3:
                break
    cost = {False: 0.0, True: 0.0}
    for i, op in enumerate(sample):
        for traced in ((True, False) if i % 2 else (False, True)):
            tracer = Tracer()
            if traced:
                tracer.install()
            t0 = perf_counter()
            try:
                op.call()
            except Exception:  # the outcome was judged in the timed loop
                pass
            finally:
                cost[traced] += perf_counter() - t0
                tracer.uninstall()
    return cost[True] / cost[False] - 1, len(sample)


def trace_metrics(args, tracer, done, facts):
    """Per-layer metrics, the tracing overhead and the span file."""
    metrics = tracer.layer_metrics(len(done))
    overhead, facts["overhead_sample_ops"] = trace_overhead(done)
    metrics["trace_overhead_frac"] = (overhead, "ratio")
    facts["unexercised"] = tracer.unexercised()
    header = {"facts": facts, "metrics": {k: v for k, (v, _) in metrics.items()},
              "ops": [[i, op.kind, op.name, op.status, op.ms] for i, op in enumerate(done)]}
    if args.workload == "growth":
        table = tracer.growth_layers({i: op.kind for i, op in enumerate(done)})
        header["growth_layers"] = table
        print("  per-layer table: kind p n p^n calls median_ms e_n free_rank")
        for r in table:
            print(f"    {r['kind']:6} {r['p']} {r['n']} {r['pn']:4} {r['calls']:4} "
                  f"{r['ms_median']:10.3f} {r['e_n']} {r['free_rank']}")
    path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    tracer.write(path, header)
    print(f"  spans: {len(tracer.spans)} written to {path.relative_to(ROOT)}")
    print(f"  not exercised here: {', '.join(facts['unexercised']) or 'none'}")
    return metrics


def run_all(args):
    """Every workload, each in its own process, with one summary table."""
    bad = False
    rows = []
    for w in WORKLOADS:
        child = subprocess.run([sys.executable, str(Path(__file__)), "--workload", w, "--seed",
                                str(args.seed), "--seconds", str(args.seconds), "--trace",
                                str(args.trace)], cwd=ROOT, capture_output=True, text=True)
        lines = child.stdout.splitlines() or [""]
        print("\n".join(lines[:-1]))
        bad |= child.returncode != 0
        if not lines[-1].startswith("{"):
            print(child.stderr, file=sys.stderr)
            continue
        result = json.loads(lines[-1])
        frac = next((ln.split()[1] for ln in lines if ln.strip().startswith("failed_ops_frac")), "-")
        rows.append((w, result, frac))
    print()
    for w, result, frac in rows:
        print(f"{w}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for k, m in result["metrics"].items():
            print(f"  {k:40} {m['value']:>14.6g} {m['unit']}")
        print(f"  {'failed_ops_frac':40} {frac:>14} ratio")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
