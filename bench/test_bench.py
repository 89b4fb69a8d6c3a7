"""Tests of the benchmark itself: smoke run, gate, sampling and the
BENCHMARK.json contract."""

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import gate  # noqa: E402
import run  # noqa: E402
import suite  # noqa: E402
import tracing  # noqa: E402


@pytest.fixture(scope="module")
def cp():
    return run.import_copotensor()


def test_smoke_passes_gate_and_self_checks(cp, capsys):
    attempted, failures = run.smoke(cp)
    assert attempted >= 3 * 4
    assert not failures


def _call(tensor, verdict):
    return suite.Call("k", "fam", "why", tensor, "t.json", [], {"verdict": verdict})


def _doc(verdict, method, **extra):
    return json.dumps({"verdict": verdict, "method": method, **extra})


def test_gate_accepts_true_results_and_rejects_forged_ones(cp):
    g = gate.Gate((cp.tensor, cp.oracle))
    indefinite = (2, 2, Fraction(0), {(1, 1): Fraction(1), (1, 2): Fraction(-2),
                                      (2, 2): Fraction(1)})
    good = {"point": ["1/2", "1/2"], "value": "-1/2"}
    assert g.check(_call(indefinite, "NotCopositive"), 1,
                   _doc("NotCopositive", "partition", witness=good), None) == []
    forged = [
        (1, _doc("NotCopositive", "partition", witness={"point": ["1", "0"]})),
        (1, _doc("NotCopositive", "partition")),
        (1, _doc("NotCopositive", "partition", witness={**good, "value": "-1"})),
        (0, _doc("Copositive", "partition")),
        (0, _doc("NotCopositive", "partition", witness=good)),
        (3, ""),
        (1, _doc("NotMember", "coef", level=0,
                 stats={"worst_theta": [2, 0], "worst_value": "-1"})),
    ]
    for code, stdout in forged:
        assert g.check(_call(indefinite, None), code, stdout, None), stdout
    assert g.check(_call(indefinite, None), None, "", "ValueError: boom")
    # the true worst coefficient of P^(0) is at theta (1, 1): 2 * (-2) = -4
    assert g.check(_call(indefinite, None), 1, _doc(
        "NotMember", "coef", level=0,
        stats={"worst_theta": [1, 1], "worst_value": "-4"}), None) == []
    psd = (2, 2, Fraction(0), {(1, 1): Fraction(1), (2, 2): Fraction(1)})
    assert g.check(_call(psd, "Member"), 1, _doc(
        "NotMember", "grid", witness={"point": ["1/2", "1/2"]}), None)


def test_sampling_is_seeded_and_stratified():
    pool = suite.load_pool("certify")
    a, b = suite.sample(pool, 7), suite.sample(pool, 7)
    assert [c.key for c in a] == [c.key for c in b]
    assert {c.key for c in a} != {c.key for c in suite.sample(pool, 8)}
    for fam in pool["families"]:
        assert sum(1 for c in a if c.family == fam["name"]) == fam["pick"] * len(fam["calls"])


def test_tail_percentile_leaves_ten_samples_beyond():
    assert run.tail_percentile(104) == 0.9
    assert run.tail_percentile(99) == 0.75
    assert run.tail_percentile(12) is None


def test_benchmark_json_matches_reported_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(suite.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == tracing.PER_LAYER


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "certify",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
