#!/usr/bin/env python3
"""copotensor benchmark: closed-loop CLI calls over a seeded tensor suite.

    python3 bench/run.py --workload certify --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --smoke

One client drives ``copotensor.cli.main(argv)`` in this process and sends
the next call only when the previous verdict has returned; there are no
threads and no subprocess per call.  With ``--trace 0`` whole passes over
the suite repeat until ``--seconds`` is spent and the end-to-end metrics
are reported, with call times scaled by a reference loop timed alongside
them (see timed_pass).  With ``--trace 1`` one untraced pass is followed by one
traced pass (see tracing.py) and the per-layer metrics are reported.  Every
call goes through the correctness gate (gate.py) outside the timed region.
The last line of stdout is a JSON object with the keys correct, attempted,
failed and metrics.  See bench/README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import itertools
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import numpy as np

import gate
import suite
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 7
MIN_PASSES = 2
REF_EVERY_S = 0.25      # time the reference loop at least this often
REF_WINDOW_S = 5.0      # reference times this close to a call scale it

# (name, unit, better) -- the end-to-end metrics, reported with --trace 0
END_TO_END = [
    ("verdicts_per_s", "1/s", "higher"),
    ("verdict_s_p50", "s", "lower"),
    ("verdict_s_tail", "s", "lower"),
    ("decided_frac", "ratio", "higher"),
    ("correct_frac", "ratio", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]
DEFINITIVE = {"Copositive", "NotCopositive", "Member", "NotMember", "Certified"}


def import_copotensor():
    """Import the package from this checkout's src/, or exit 1 without a result."""
    sys.path.insert(0, str(SRC))
    try:
        import copotensor.cli
        import copotensor.oracle
        import copotensor.tensor
    except ImportError as exc:
        sys.exit(f"bench: cannot import copotensor from {SRC}: {exc}")
    if Path(copotensor.__file__).resolve().parent.parent != SRC.resolve():
        sys.exit(f"bench: copotensor imported from {copotensor.__file__}, not {SRC}")
    return copotensor


def code_fingerprint() -> str:
    h = hashlib.sha256()
    for p in sorted((SRC / "copotensor").glob("*.py")):
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()[:16]


# --- one pass ---------------------------------------------------------------

def invoke(main, argv, tracer=None):
    """One closed-loop call: (seconds, exit code, stdout, error)."""
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    with redirect_stdout(out), redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = tracer.call(main, argv) if tracer else main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is a failed operation, not a benchmark error
            error = f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
    return t1 - t0, code, out.getvalue(), error


def run_pass(main, calls, workdir, tracer=None):
    return [invoke(main, c.argv(workdir), tracer) for c in calls]


_REF = suite.diag_dominant(random.Random(5), 3, 4, 2)
_REF_VECTORS = [(Fraction(1, 3), Fraction(1, 5), Fraction(7, 15)),
                (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)),
                (Fraction(2, 7), Fraction(3, 7), Fraction(2, 7)),
                (Fraction(1, 6), Fraction(2, 3), Fraction(1, 6))]
_REF_MATRIX = np.random.default_rng(3).standard_normal((10, 10))


def exact_reference_seconds() -> float:
    """Time of a fixed piece of exact arithmetic that shares no code with
    copotensor: three multilinear products of an order-4 tensor in three
    variables, the same kind of work as the certifier's and the expansions'
    hot loops."""
    n, d, default, entries = _REF
    t0 = time.perf_counter()
    for _ in range(3):
        total = Fraction(0)
        for tup in itertools.product(range(1, n + 1), repeat=d):
            term = entries.get(tuple(sorted(tup)), default)
            for w, i in zip(_REF_VECTORS, tup):
                term *= w[i - 1]
            total += term
    return time.perf_counter() - t0


def numpy_reference_seconds() -> float:
    """Time of a fixed loop of small symmetric eigendecompositions, PSD
    reconstructions and scalar updates, the same kind of work as the SOS
    solver's iterations; shares no code with copotensor."""
    t0 = time.perf_counter()
    G = _REF_MATRIX + _REF_MATRIX.T
    for _ in range(60):
        w, V = np.linalg.eigh(G)
        G = (V * np.maximum(w, 0.0)) @ V.T
        for k in range(10):
            G[k, (3 * k) % 10] += 0.01
    return time.perf_counter() - t0


# Other tenants of a shared machine slow every process on it for seconds to
# minutes at a time, and slow interpreted code more than LAPACK calls.  Each
# workload times the reference that resembles its work next to its calls;
# the second number is the reference time that reported seconds are scaled to.
REFERENCES = {"certify": (exact_reference_seconds, 0.0035),
              "levels": (exact_reference_seconds, 0.0035),
              "sos": (numpy_reference_seconds, 0.0025)}


def timed_pass(run):
    """One untraced pass with the reference loop timed before the first call,
    after the last, and after any call that ends REF_EVERY_S or more after
    the previous reference.  Returns the results and each call's seconds
    scaled by the workload's nominal reference time over the median
    reference time within REF_WINDOW_S of the call."""
    reference, nominal = REFERENCES[run.workload]
    refs = [(time.perf_counter(), reference())]
    spans, results = [], []
    for c in run.calls:
        t0 = time.perf_counter()
        results.append(invoke(run.main, c.argv(run.workdir)))
        t1 = time.perf_counter()
        spans.append((t0, t1))
        if t1 - refs[-1][0] >= REF_EVERY_S or len(results) == len(run.calls):
            refs.append((t1, reference()))
    scaled = []
    for (t0, t1), res in zip(spans, results):
        near = [s for t, s in refs if t0 - REF_WINDOW_S <= t <= t1 + REF_WINDOW_S]
        scaled.append(res[0] * nominal / statistics.median(near))
    return results, scaled


def outcome(result) -> dict:
    """The parts of a result that must repeat exactly: exit code, verdict and
    every count or exact value in the document (float residuals excluded)."""
    _, code, stdout, error = result
    try:
        doc = json.loads(stdout)
    except ValueError:
        return {"exit": code, "error": error}
    stats = {k: v for k, v in doc.get("stats", {}).items()
             if k not in ("residual", "min_eig", "diameter_unresolved")}
    return {"exit": code, "verdict": doc.get("verdict"), "depth": doc.get("depth"),
            "witness": doc.get("witness"), "stats": stats}


def work_counts(result, counters) -> dict:
    """Machine-independent work of one call, from its document and the
    tracer's per-call counters."""
    o = outcome(result)
    return {"verdict": o.get("verdict"), "exit": o["exit"],
            "simplices": o.get("stats", {}).get("simplices", 0),
            "bisections": counters.get("partition.bisect_longest_edge", 0),
            "iterations": counters.get("iterations", 0),
            "points": counters.get("gridcone.eval_form", 0),
            "coefficients": counters.get("coefficients", 0)}


# --- metrics ----------------------------------------------------------------

def tail_percentile(m: int) -> float | None:
    """Highest of the usual percentiles that leaves at least ten samples
    beyond it among m samples."""
    for p in (0.99, 0.95, 0.9, 0.75, 0.5):
        if m - math.ceil(p * m) >= 10:
            return p
    return None


def nearest_rank(sorted_vals, p):
    return sorted_vals[max(0, math.ceil(p * len(sorted_vals)) - 1)]


def setup_seconds(workdir: Path, docs: list[str]) -> float:
    """Median wall time of a fresh interpreter importing copotensor's CLI and
    parsing every suite document, scaled like the calls (see timed_pass)."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import copotensor.cli; "
            "from copotensor.docio import parse_tensor; from pathlib import Path; "
            "[parse_tensor(Path(sys.argv[2], n).read_text()) for n in sys.argv[3:]]")
    times = []
    ref = exact_reference_seconds()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code, str(SRC), str(workdir), *docs],
                       check=True, cwd=ROOT)
        seconds = time.perf_counter() - t0
        ref, before = exact_reference_seconds(), ref
        times.append(seconds * REFERENCES["certify"][1] / ((before + ref) / 2))
    return statistics.median(times)


class Run:
    """One workload on one seed: suite, gate and bookkeeping shared by the
    timed and traced modes."""

    def __init__(self, copotensor, workload: str, seed: int, smoke: bool = False):
        self.main = copotensor.cli.main
        self.workload, self.seed = workload, seed
        self.pool = suite.load_pool(workload)
        self.calls = suite.sample(self.pool, seed, smoke)
        self.workdir = WORK / f"{workload}-seed{seed}{'-smoke' if smoke else ''}"
        suite.write_suite(self.calls, self.workdir)
        self.gate = gate.Gate((copotensor.tensor, copotensor.oracle))
        self.fingerprint = code_fingerprint()
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, results, reference=None) -> None:
        """Gate one pass; with a reference pass, also require every outcome
        to repeat exactly."""
        for i, (call, res) in enumerate(zip(self.calls, results)):
            self.attempted += 1
            problems = self.gate.check(call, res[1], res[2], res[3])
            if reference is not None and outcome(res) != outcome(reference[i]):
                problems.append("outcome differs between passes")
            if problems:
                self.failures.append(f"{call.family} {' '.join(call.argv_prefix)}: "
                                     + "; ".join(problems))

    def check_counts(self, counts: list[dict]) -> None:
        """Work counts must match any earlier record made by the same code:
        the pool (when built from this code) and earlier traced runs."""
        store_path = WORK / f"counts-{self.workload}-{self.fingerprint}.json"
        known = json.loads(store_path.read_text()) if store_path.exists() else {}
        if self.pool.get("code_fingerprint") == self.fingerprint:
            for c in self.calls:
                known.setdefault(c.key, c.seed_result)
        for c, got in zip(self.calls, counts):
            want = known.setdefault(c.key, got)
            if want != got:
                self.failures.append(f"self-check: work counts of {c.key} changed with "
                                     f"the same code: {want} -> {got}")
        store_path.write_text(json.dumps(known, indent=0, sort_keys=True) + "\n")

    def write_results(self, passes, scaled) -> None:
        """Per call: family, argv, measured and scaled seconds of each pass,
        and outcome."""
        rows = [{"key": c.key, "family": c.family, "argv": c.argv_prefix,
                 "seconds": [p[i][0] for p in passes],
                 "scaled_seconds": [p[i] for p in scaled],
                 "outcome": outcome(passes[0][i])}
                for i, c in enumerate(self.calls)]
        (self.workdir / "results.json").write_text(json.dumps(rows, indent=0) + "\n")

    def count_changes(self, outcomes: list[dict]) -> int:
        """Calls whose verdict or simplex count differs from the pool record."""
        return sum(1 for c, o in zip(self.calls, outcomes)
                   if o.get("verdict") != c.seed_result.get("verdict")
                   or o.get("stats", {}).get("simplices", 0) != c.seed_result.get("simplices", 0))


def timed(run: Run, seconds: float) -> dict:
    passes, scaled = [], []
    start = time.perf_counter()
    while True:
        p0 = time.perf_counter()
        results, pass_scaled = timed_pass(run)
        passes.append(results)
        scaled.append(pass_scaled)
        now = time.perf_counter()
        if len(passes) >= MIN_PASSES and now - start + (now - p0) > seconds:
            break
    elapsed = now - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for res in passes:
        run.check(res, passes[0])
    docs = sorted({c.doc_name for c in run.calls})
    setup_s = setup_seconds(run.workdir, docs)

    m = len(run.calls)
    per_call = [statistics.median(p[i] for p in scaled) for i in range(m)]
    latencies = sorted(per_call)
    p_tail = tail_percentile(m)
    outcomes = [outcome(r) for r in passes[0]]
    decided = sum(1 for o in outcomes if o.get("verdict") in DEFINITIVE)
    error_rate = len(run.failures) / run.attempted
    values = {
        "verdicts_per_s": m / sum(per_call),
        "verdict_s_p50": statistics.median(latencies),
        "verdict_s_tail": nearest_rank(latencies, p_tail) if p_tail else latencies[-1],
        "decided_frac": decided / m,
        "correct_frac": 1 - error_rate,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }
    notes = {
        "verdicts_per_s": f"{m} calls / sum of their latencies; unscaled, the loop ran "
                          f"{len(passes)} passes in {elapsed:.2f} s = "
                          f"{m * len(passes) / elapsed:.4g} calls/s",
        "verdict_s_p50": f"median over {m} calls of each call's median over passes",
        "verdict_s_tail": (f"p{round(100 * p_tail)} over {m} calls, "
                           f"{m - math.ceil(p_tail * m)} beyond it") if p_tail
                          else f"max of {m} calls",
        "decided_frac": f"{decided} of {m} calls definitive",
        "correct_frac": f"error_rate = {error_rate:.6g} "
                        f"({len(run.failures)} of {run.attempted} operations failed)",
        "setup_s": f"median of {SETUP_REPEATS} fresh interpreters, {len(docs)} documents",
        "peak_rss_mb": "ru_maxrss of this process",
    }
    print(f"workload {run.workload}  seed {run.seed}  closed loop, 1 client  "
          f"manifest {run.workdir.relative_to(ROOT)}/manifest.json")
    for name, unit, better in END_TO_END:
        print(f"  {name:<16} {values[name]:>12.6g} {unit:<6} {better} is better; "
              f"{notes[name]}")
    run.write_results(passes, scaled)
    changed = run.count_changes(outcomes)
    if changed:
        print(f"  note: {changed} calls differ from the pool's recorded verdict or "
              f"simplex count")
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in END_TO_END}


def traced_pass(run: Run):
    """One pass with the tracer installed: (tracer, results, seconds)."""
    tracer = tracing.Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        results = run_pass(run.main, run.calls, run.workdir, tracer)
        seconds = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    return tracer, results, seconds


def traced(run: Run) -> dict:
    t0 = time.perf_counter()
    plain = run_pass(run.main, run.calls, run.workdir)
    untraced_s = time.perf_counter() - t0
    tracer, results, traced_s = traced_pass(run)
    run.check(plain)
    run.check(results, plain)
    run.check_counts([work_counts(r, c) for r, c in zip(results, tracer.call_counts)])
    spans = run.workdir / "spans.json.gz"
    tracer.write(spans)
    metrics = tracing.per_layer(tracer, run.calls, results,
                               overhead=traced_s / untraced_s - 1)
    print(f"workload {run.workload}  seed {run.seed}  traced pass {traced_s:.2f} s, "
          f"untraced {untraced_s:.2f} s; spans in {spans.relative_to(ROOT)}")
    for name, m in metrics.items():
        print(f"  {name:<32} {m['value']:>12.6g} {m['unit']}")
    if tracer.absent:
        print(f"  absent bindings (metrics read 0): {', '.join(tracer.absent)}")
    return metrics


def smoke(cp) -> tuple[int, list[str]]:
    """Every workload on its two cheapest calls: gate, plus two traced passes
    whose outcomes and work counts must agree exactly."""
    attempted, failures = 0, []
    for workload in suite.WORKLOADS:
        run = Run(cp, workload, 0, smoke=True)
        plain = run_pass(run.main, run.calls, run.workdir)
        run.check(plain)
        counts = []
        for _ in range(2):
            tracer, results, _ = traced_pass(run)
            run.check(results, plain)
            counts.append([work_counts(r, c) for r, c in zip(results, tracer.call_counts)])
        if counts[0] != counts[1]:
            run.failures.append(f"self-check: work counts differ between traced passes "
                                f"{counts[0]} {counts[1]}")
        print(f"smoke {workload}: {len(run.calls)} calls, "
              f"{len(run.failures)} failures, counts {counts[0]}")
        attempted += run.attempted
        failures += run.failures
    return attempted, failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=(*suite.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="every workload on two calls, with the self-checks")
    args = ap.parse_args(argv)
    if not args.smoke and not args.workload:
        ap.error("--workload is required unless --smoke is given")
    cp = import_copotensor()

    attempted, failures, metrics = 0, [], {}
    if args.smoke:
        attempted, failures = smoke(cp)
    else:
        workloads = suite.WORKLOADS if args.workload == "all" else (args.workload,)
        for w in workloads:
            run = Run(cp, w, args.seed)
            m = traced(run) if args.trace else timed(run, args.seconds)
            prefix = f"{w}." if args.workload == "all" else ""
            metrics.update({prefix + k: v for k, v in m.items()})
            attempted += run.attempted
            failures += run.failures
    for f in failures[:20]:
        print(f"FAILED {f}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
