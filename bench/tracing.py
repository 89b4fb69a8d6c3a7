"""Call-site tracing for the traced benchmark pass.

The tracer replaces public functions at the module attribute where the
caller looks them up (``partition.multi_product`` is the name the
certifier's loop resolves, ``gridcone.eval_form`` the one the grid test
resolves), so nothing under ``src/`` changes.  Every wrapped call records a
span (name, start, end, parent) in memory; self time is a span's duration
minus the durations of its child spans.  ``polycone.multinomial`` is called
hundreds of thousands of times per pass with no children, so it is counted
without a span.  A binding that no longer exists is recorded as absent and
its metrics read zero.
"""

from __future__ import annotations

import gzip
import importlib
import json
import time
from collections import Counter, defaultdict
from pathlib import Path

# (module, attribute) bindings wrapped with spans; the span name is
# "<module>.<attribute>" without the package prefix.
SPAN_BINDINGS = [
    ("cli", "certify_copositivity"), ("cli", "certificate_document"), ("cli", "_emit"),
    ("docio", "parse_tensor"), ("docio", "tensor_digest"),
    ("partition", "inner_test_full"), ("partition", "bisect_longest_edge"),
    ("partition", "multi_product"), ("partition", "eval_form"),
    ("gridcone", "member_O_r"), ("gridcone", "cumulative_grid"), ("gridcone", "eval_form"),
    ("polycone", "member_C_r"), ("polycone", "expand_auto"), ("polycone", "expand_Pr"),
    ("soscone", "member_K_r"), ("soscone", "build_gram_problem"), ("soscone", "solve_gram"),
    ("soscone", "check_certificate"), ("soscone", "lift_certificate"),
    ("soscone", "expand_auto"), ("soscone", "member_C_r"),
]
COUNT_BINDINGS = [("polycone", "multinomial")]


def _prunes(args, result):
    return {"prunes": 1 if result else 0}


def _coefficients(args, result):
    return {"coefficients": len(result.coeffs)}


def _iterations(args, result):
    return {"iterations": result.iterations,
            "eigh_computed": result.iterations * len(args[0].blocks)}


# Counters read off a wrapped call's arguments and result.
OUTCOME_HOOKS = {"partition.inner_test_full": _prunes,
                 "polycone.expand_Pr": _coefficients,
                 "soscone.solve_gram": _iterations}


class Tracer:
    """Spans for one traced pass.  ``install`` patches the bindings,
    ``uninstall`` restores them; ``call`` wraps one CLI invocation as the
    root span of that call."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list = []        # [name id, start ns, end ns, parent index, call index]
        self.counts: Counter = Counter()          # outcome counters for the current call
        self.call_counts: list[Counter] = []      # per call: span counts + outcome counters
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._saved: list = []
        self._call = -1

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _span_wrapper(self, name: str, fn):
        nid, spans, stack, counts = self._id(name), self.spans, self._stack, self.counts
        hook = OUTCOME_HOOKS.get(name)
        clock = time.perf_counter_ns
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(spans)
            rec = [nid, 0, 0, stack[-1] if stack else -1, tracer._call]
            spans.append(rec)
            stack.append(idx)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if hook:
                counts.update(hook(args, result))
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        for bindings, make in ((SPAN_BINDINGS, self._span_wrapper),
                               (COUNT_BINDINGS, self._count_wrapper)):
            for modname, attr in bindings:
                mod = importlib.import_module(f"copotensor.{modname}")
                name = f"{modname}.{attr}"
                if not hasattr(mod, attr):
                    self.absent.append(name)
                    continue
                orig = getattr(mod, attr)
                self._saved.append((mod, attr, orig))
                setattr(mod, attr, make(name, orig))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._saved):
            setattr(mod, attr, orig)
        self._saved.clear()

    def call(self, fn, *args):
        """Run one CLI call as a root span named cli.main."""
        self._call += 1
        self.counts.clear()
        first = len(self.spans)
        try:
            return self._span_wrapper("cli.main", fn)(*args)
        finally:
            c = Counter(self.counts)
            for rec in self.spans[first:]:
                c[self.names[rec[0]]] += 1
            self.call_counts.append(c)

    # --- aggregation ------------------------------------------------------

    def aggregate(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds, plus
        the outcome and count-only counters summed over calls."""
        incl = defaultdict(int)
        child = defaultdict(int)
        calls = Counter()
        for i, (nid, t0, t1, parent, _) in enumerate(self.spans):
            dur = t1 - t0
            incl[nid] += dur
            calls[nid] += 1
            if parent >= 0:
                child[self.spans[parent][0]] += dur
        # per-name sums are exact because no wrapped function calls itself
        out = {}
        for nid, name in enumerate(self.names):
            out[name] = {"calls": calls[nid], "incl_s": incl[nid] / 1e9,
                         "self_s": (incl[nid] - child[nid]) / 1e9}
        totals = Counter()
        for c in self.call_counts:
            totals.update(c)
        out["counters"] = dict(totals)
        return out

    def write(self, path: Path) -> None:
        with gzip.open(path, "wt") as fh:
            json.dump({"names": self.names, "absent": self.absent,
                       "fields": ["name", "start_ns", "end_ns", "parent", "call"],
                       "spans": self.spans}, fh, separators=(",", ":"))


# (metric, unit, better) reported with --trace 1, in the order printed; work
# counts and times are better lower
PER_LAYER = [
    ("partition.certify_s", "s", "lower"),
    ("partition.share", "ratio", "lower"),
    ("partition.simplices", "count", "lower"),
    ("partition.inner_test_calls", "count", "lower"),
    ("partition.inner_test_s", "s", "lower"),
    ("partition.prune_ratio", "ratio", "higher"),
    ("partition.bisections", "count", "lower"),
    ("partition.bisect_s", "s", "lower"),
    ("partition.refutations", "count", "lower"),
    ("partition.indeterminate", "count", "lower"),
    ("partition.max_depth", "count", "lower"),
    ("tensor.multi_product_calls", "count", "lower"),
    ("tensor.multi_product_s", "s", "lower"),
    ("tensor.eval_form_calls", "count", "lower"),
    ("tensor.eval_form_s", "s", "lower"),
    ("tensor.vertex_eval_ratio", "ratio", "lower"),
    ("polycone.member_C_r_s", "s", "lower"),
    ("polycone.share", "ratio", "lower"),
    ("polycone.expand_calls", "count", "lower"),
    ("polycone.expand_s", "s", "lower"),
    ("polycone.coefficients", "count", "lower"),
    ("combinatorics.multinomial_calls", "count", "lower"),
    ("soscone.member_K_r_s", "s", "lower"),
    ("soscone.share", "ratio", "lower"),
    ("soscone.build_s", "s", "lower"),
    ("soscone.solve_calls", "count", "lower"),
    ("soscone.solve_s", "s", "lower"),
    ("soscone.iterations", "count", "lower"),
    ("soscone.s_per_iteration", "s", "lower"),
    ("soscone.eigh_calls", "count", "lower"),
    ("soscone.check_calls", "count", "lower"),
    ("soscone.check_s", "s", "lower"),
    ("soscone.lift_s", "s", "lower"),
    ("soscone.fast_path_ratio", "ratio", "higher"),
    ("soscone.certified_ratio", "ratio", "higher"),
    ("gridcone.member_O_r_s", "s", "lower"),
    ("gridcone.share", "ratio", "lower"),
    ("gridcone.grid_s", "s", "lower"),
    ("gridcone.points", "count", "lower"),
    ("gridcone.eval_s", "s", "lower"),
    ("docio.parse_s", "s", "lower"),
    ("docio.emit_s", "s", "lower"),
    ("docio.digest_s", "s", "lower"),
    ("cli.calls", "count", "higher"),
    ("cli.self_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
]


def _ratio(a, b):
    return a / b if b else 0.0


def per_layer(tracer: Tracer, calls, results, overhead: float) -> dict:
    """Per-layer metrics of one traced pass.  ``calls`` and ``results`` are
    the pass's suite calls and their (seconds, exit, stdout, error)."""
    agg = tracer.aggregate()
    counters = agg.pop("counters")
    none = {"calls": 0, "incl_s": 0.0, "self_s": 0.0}

    def span(name, field):
        return agg.get(name, none)[field]

    def both(attr, field):
        return sum(span(name, field) for name in agg if name.endswith("." + attr))

    docs = []
    for call, (_, _, stdout, _) in zip(calls, results):
        try:
            docs.append((call, json.loads(stdout)))
        except ValueError:
            docs.append((call, {}))
    cert = [(c, d) for c, d in docs if d.get("method") in ("partition", "screen")]
    sos = [d for _, d in docs if d.get("method") == "sos"]
    simplices = sum(d.get("stats", {}).get("simplices", 0) for _, d in cert)
    vertex_slots = sum(d.get("stats", {}).get("simplices", 0) * c.tensor[0] for c, d in cert)
    total = span("cli.main", "incl_s")
    iterations = counters.get("iterations", 0)
    prunes = counters.get("prunes", 0)
    values = {
        "partition.certify_s": span("cli.certify_copositivity", "incl_s"),
        "partition.share": _ratio(span("cli.certify_copositivity", "incl_s"), total),
        "partition.simplices": simplices,
        "partition.inner_test_calls": span("partition.inner_test_full", "calls"),
        "partition.inner_test_s": span("partition.inner_test_full", "incl_s"),
        "partition.prune_ratio": _ratio(prunes, span("partition.inner_test_full", "calls")),
        "partition.bisections": span("partition.bisect_longest_edge", "calls"),
        "partition.bisect_s": span("partition.bisect_longest_edge", "incl_s"),
        "partition.refutations": sum(1 for _, d in cert if d.get("verdict") == "NotCopositive"),
        "partition.indeterminate": sum(1 for _, d in cert
                                       if d.get("verdict") == "StrictlyIndeterminate"),
        "partition.max_depth": max((d.get("depth") or 0 for _, d in cert), default=0),
        "tensor.multi_product_calls": both("multi_product", "calls"),
        "tensor.multi_product_s": both("multi_product", "incl_s"),
        "tensor.eval_form_calls": both("eval_form", "calls"),
        "tensor.eval_form_s": both("eval_form", "incl_s"),
        "tensor.vertex_eval_ratio": _ratio(span("partition.eval_form", "calls"), vertex_slots),
        "polycone.member_C_r_s": both("member_C_r", "incl_s"),
        "polycone.share": _ratio(span("polycone.member_C_r", "incl_s"), total),
        "polycone.expand_calls": span("polycone.expand_Pr", "calls"),
        "polycone.expand_s": span("polycone.expand_Pr", "incl_s"),
        "polycone.coefficients": counters.get("coefficients", 0),
        "combinatorics.multinomial_calls": counters.get("polycone.multinomial", 0),
        "soscone.member_K_r_s": span("soscone.member_K_r", "incl_s"),
        "soscone.share": _ratio(span("soscone.member_K_r", "incl_s"), total),
        "soscone.build_s": span("soscone.build_gram_problem", "incl_s"),
        "soscone.solve_calls": span("soscone.solve_gram", "calls"),
        "soscone.solve_s": span("soscone.solve_gram", "incl_s"),
        "soscone.iterations": iterations,
        "soscone.s_per_iteration": _ratio(span("soscone.solve_gram", "incl_s"), iterations),
        "soscone.eigh_calls": counters.get("eigh_computed", 0),
        "soscone.check_calls": span("soscone.check_certificate", "calls"),
        "soscone.check_s": span("soscone.check_certificate", "incl_s"),
        "soscone.lift_s": span("soscone.lift_certificate", "incl_s"),
        "soscone.fast_path_ratio": _ratio(sum(1 for d in sos if d["stats"].get("fast_path")),
                                          len(sos)),
        "soscone.certified_ratio": _ratio(sum(1 for d in sos if d["verdict"] == "Certified"),
                                          len(sos)),
        "gridcone.member_O_r_s": span("gridcone.member_O_r", "incl_s"),
        "gridcone.share": _ratio(span("gridcone.member_O_r", "incl_s"), total),
        "gridcone.grid_s": span("gridcone.cumulative_grid", "incl_s"),
        "gridcone.points": span("gridcone.eval_form", "calls"),
        "gridcone.eval_s": span("gridcone.eval_form", "incl_s"),
        "docio.parse_s": span("docio.parse_tensor", "incl_s"),
        "docio.emit_s": span("cli._emit", "incl_s") + span("cli.certificate_document", "self_s"),
        "docio.digest_s": span("docio.tensor_digest", "incl_s"),
        "cli.calls": span("cli.main", "calls"),
        "cli.self_s": span("cli.main", "self_s"),
        "trace.overhead_frac": overhead,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}
