#!/usr/bin/env python3
"""Build the member pools under bench/pool/ from the family definitions below.

    python3 bench/pool.py [certify|sos|levels ...]

For each family it draws candidate tensors from consecutive generator seeds,
keeps those that pass the family's filter, runs the family's CLI calls on
each kept tensor once with the tracer installed, and records the verdict and
work counts of every call.  Those records are the seed verdicts that the gate
compares against, and the work counts that runs stratify on.  Rebuilding a
pool is a change to the benchmark; a change that claims a speed-up leaves the
pools alone.
"""

from __future__ import annotations

import json
import sys

import gate
import run
import suite
import tracing

WORK_KEYS = ("simplices", "bisections", "iterations", "points", "coefficients")


def certify_call(*extra):
    return [["certify", *extra]]


def check_calls(method, levels):
    return [["check", "--method", method, "--level", str(r)] for r in levels]


# filters: "copositive" keeps tensors with no negative value on the simplex
# grid; "refuted" keeps those with one; "converges" keeps tensors whose SOS
# calls all certify within 1000 iterations at the code the pool is built from
FAMILIES = {
    "certify": [
        dict(name="flagship", generator="flagship", calls=certify_call(),
             why="order-4 flagship: copositive but not PSD, pruned at the root"),
        dict(name="horn", generator="horn", calls=certify_call(),
             why="5x5 Horn matrix: 85 simplices of vertex-tuple tests at n=5"),
        dict(name="screen-counterexample", generator="screen_counterexample",
             calls=certify_call(),
             why="copositive tensor with a zero diagonal that the necessary screen refutes"),
        dict(name="boundary", generator="boundary", calls=certify_call("--max-depth", "10"),
             why="zero set inside the simplex: depth-capped, StrictlyIndeterminate, 145 simplices"),
        *[dict(name=f"root-refute-{n}{d}", generator="dense_root_refute",
               args=dict(n=n, d=d), pick=16, size=32, calls=certify_call(),
               why="negative diagonal entry: refuted by vertex evaluation on the root "
                   "simplex; the many cheap calls that set the median")
          for n, d in ((3, 3), (3, 4), (4, 3), (4, 4))],
        *[dict(name=f"prune-{n}{d}", generator="diag_dominant",
               args=dict(n=n, d=d, off=2), pick=pick, size=3 * pick, filter="copositive",
               calls=certify_call(),
               why="copositive diagonal-dominant: bisect until every simplex passes the "
                   "vertex-tuple test (multi_product)")
          for n, d, pick in ((3, 3, 10), (3, 4, 8), (4, 3, 13))],
        dict(name="prune-44", generator="diag_dominant", args=dict(n=4, d=4, off=1),
             gen_seeds=[12015], calls=certify_call(),
             why="copositive diagonal-dominant at n=4, d=4 (about 60 ms per simplex): one "
                 "fixed member near the median work of 16 draws, since a single random "
                 "draw would swing the pass time by 2x"),
        *[dict(name=f"refute-late-{n}{d}", generator="diag_dominant",
               args=dict(n=n, d=d, off=6), pick=pick, size=3 * pick, filter="refuted",
               calls=certify_call(),
               why="positive diagonal but negative inside the simplex: refuted by a vertex "
                   "found only after bisection")
          for n, d, pick in ((3, 4, 4), (4, 3, 3))],
    ],
    "sos": [
        dict(name="horn-level1", generator="horn", calls=check_calls("sos", [1]),
             why="Horn matrix is in K^(1) but the solver stalls for all 20000 iterations "
                 "at levels 0 and 1"),
        dict(name="offscale6-level0", generator="diag_dominant", gen_seeds=[2],
             args=dict(n=3, d=4, off=6), calls=check_calls("sos", [0]),
             why="diag_dominant(Random(2), 3, 4, off=6): stalls for 20000 iterations at level 0"),
        dict(name="flagship", generator="flagship", calls=check_calls("sos", [0, 1]),
             why="in C^(0): certified through the coefficient fast path at levels 0 and 1"),
        *[dict(name=f"fast-path-{n}{d}", generator="nonnegative", args=dict(n=n, d=d),
               pick=28, size=56, calls=check_calls("sos", [0]),
               why="entrywise non-negative: fast path, the many cheap calls")
          for n, d in ((3, 4), (4, 3))],
        *[dict(name=f"converge-{n}{d}", generator="diag_dominant", args=dict(n=n, d=d, off=2),
               pick=10, size=30, filter="converges", calls=check_calls("sos", [0, 1]),
               why="negative mixed entries: the projection solver converges in tens to "
                   "hundreds of iterations")
          for n, d in ((3, 4), (4, 2))],
    ],
    "levels": [
        dict(name=f"sweep-{name}", generator=gen, args=args, pick=1 if args else None,
             size=4 if args else None,
             calls=check_calls("coef", range(rc + 1)) + check_calls("grid", range(rg + 1)),
             why=f"copositive, so every grid is fully enumerated: coef levels 0..{rc}, "
                 f"grid levels 0..{rg}")
        for name, gen, args, rc, rg in (
            ("flagship", "flagship", {}, 32, 12),
            ("amgm-43", "amgm_dominant", dict(n=4, d=3), 14, 8),
            ("amgm-44", "amgm_dominant", dict(n=4, d=4), 10, 6),
            ("amgm-54", "amgm_dominant", dict(n=5, d=4), 6, 4))
    ],
}

def keep(fam: dict, tensor) -> bool:
    f = fam.get("filter")
    if f in ("copositive", "refuted"):
        refuted = suite.simplex_min(tensor, gate.ORACLE_RESOLUTION[tensor[0]]) < 0
        return refuted == (f == "refuted")
    return True


def build(workload: str, cp) -> dict:
    main = cp.cli.main
    families = []
    for k, spec in enumerate(FAMILIES[workload]):
        fam = {key: spec[key] for key in ("name", "why", "generator", "calls")}
        fam["args"] = spec.get("args", {})
        randomised = "size" in spec and spec["size"]
        seeds = iter(spec.get("gen_seeds") or
                     (range(1000 * (k + 1), 1000 * (k + 2)) if randomised else [None]))
        members = []
        for gen_seed in seeds:
            if randomised and len(members) == spec["size"]:
                break
            tensor = suite.make_tensor(fam, gen_seed)
            if not keep(spec, tensor):
                continue
            doc = suite.tensor_document(tensor)
            sha = suite.document_sha(doc)
            path = run.WORK / "pool" / f"{sha}.json"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(doc + "\n")
            tracer = tracing.Tracer()
            tracer.install()
            try:
                results = [run.invoke(main, prefix + [str(path)], tracer)
                           for prefix in fam["calls"]]
            finally:
                tracer.uninstall()
            counts = [run.work_counts(r, c) for r, c in zip(results, tracer.call_counts)]
            if spec.get("filter") == "converges" and not all(
                    c["verdict"] == "Certified" and c["iterations"] <= 1000 for c in counts):
                continue
            work = sum(c[w] for c in counts for w in WORK_KEYS)
            members.append({"gen_seed": gen_seed, "sha256": sha, "work": work,
                            "results": counts})
        fam["pick"] = spec.get("pick") or len(members)
        fam["members"] = members
        families.append(fam)
        print(f"{workload} {fam['name']}: {len(members)} members, work "
              f"{sorted(m['work'] for m in members)}", flush=True)
    return {"workload": workload, "code_fingerprint": run.code_fingerprint(),
            "families": families}


def dump(pool: dict) -> str:
    """JSON with one line per family field and per member, for readable diffs."""
    lines = ["{", f' "workload": {json.dumps(pool["workload"])},',
             f' "code_fingerprint": {json.dumps(pool["code_fingerprint"])},', ' "families": [']
    for i, fam in enumerate(pool["families"]):
        lines.append("  {")
        lines += [f"   {json.dumps(k)}: {json.dumps(v)}," for k, v in fam.items() if k != "members"]
        lines.append('   "members": [')
        lines.append(",\n".join(f"    {json.dumps(m)}" for m in fam["members"]))
        lines.append("   ]")
        lines.append("  }" + ("," if i + 1 < len(pool["families"]) else ""))
    lines += [" ]", "}"]
    return "\n".join(lines) + "\n"


def main(argv: list[str]) -> int:
    cp = run.import_copotensor()
    for workload in argv or suite.WORKLOADS:
        pool = build(workload, cp)
        suite.POOL_DIR.mkdir(exist_ok=True)
        path = suite.POOL_DIR / f"{workload}.json"
        path.write_text(dump(pool))
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
