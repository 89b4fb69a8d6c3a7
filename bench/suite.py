"""Seeded suite generator for the copotensor benchmark.

A workload is a pool of tensor families checked in under ``bench/pool/``.
Each family names a generator, the CLI calls made on each of its tensors,
and a list of members (generator seeds) together with the verdicts and
machine-independent work counts recorded when the pool was built.  A run's
``--seed`` draws a stratified sample of members: each family's members are
sorted by recorded work and split into ``pick`` equal strata, and one member
is drawn from each stratum, at mirrored positions in neighbouring strata.
Runs on different seeds therefore see different tensors but nearly the same
amount of work, which keeps throughput figures comparable across seeds.

Tensors are produced here with exact ``Fraction`` arithmetic and written as
JSON documents with ``"p/q"`` strings; the program under test only ever sees
those documents.  Nothing in this module imports copotensor.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

POOL_DIR = Path(__file__).resolve().parent / "pool"
WORKLOADS = ("certify", "sos", "levels")

Tensor = tuple[int, int, Fraction, dict]  # n, d, default, {sorted idx: value}


def canonical_tuples(n: int, d: int):
    return itertools.combinations_with_replacement(range(1, n + 1), d)


def multiplicity(idx) -> int:
    out = math.factorial(len(idx))
    for _, grp in itertools.groupby(idx):
        out //= math.factorial(len(list(grp)))
    return out


# --- generators -----------------------------------------------------------
# Each returns (n, d, default, entries).  The random ones draw from
# random.Random(gen_seed) in canonical-tuple order, so a member is fully
# described by its family and generator seed.

def flagship(rng=None) -> Tensor:
    """Order 4, n = 3: zero first diagonal, unit other diagonals, 5 elsewhere."""
    return 3, 4, Fraction(5), {(1, 1, 1, 1): Fraction(0),
                               (2, 2, 2, 2): Fraction(1),
                               (3, 3, 3, 3): Fraction(1)}


def horn(rng=None) -> Tensor:
    """The 5 x 5 Horn matrix: copositive, not PSD plus non-negative."""
    rows = [[1, -1, 1, 1, -1], [-1, 1, -1, 1, 1], [1, -1, 1, -1, 1],
            [1, 1, -1, 1, -1], [-1, 1, 1, -1, 1]]
    return 5, 2, Fraction(0), {(i + 1, j + 1): Fraction(rows[i][j])
                               for i in range(5) for j in range(i, 5)}


def screen_counterexample(rng=None) -> Tensor:
    """x2 (3 x1^2 - 3 x1 x2 + x2^2): copositive with a zero diagonal entry."""
    return 2, 3, Fraction(0), {(1, 1, 2): Fraction(1), (1, 2, 2): Fraction(-1),
                               (2, 2, 2): Fraction(1)}


def boundary(rng=None) -> Tensor:
    """(x1 - x2)^2 (x1 + x2 + x3)^2: copositive with a zero set inside the
    simplex, so bisection never closes it and certify is depth-capped."""
    def mul(p, q):
        out: dict = {}
        for a, x in p.items():
            for b, y in q.items():
                k = tuple(i + j for i, j in zip(a, b))
                out[k] = out.get(k, 0) + x * y
        return out
    lin1 = {(1, 0, 0): 1, (0, 1, 0): -1}
    lin2 = {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1}
    poly = mul(mul(lin1, lin1), mul(lin2, lin2))
    entries = {}
    for key in canonical_tuples(3, 4):
        expo = tuple(key.count(i) for i in (1, 2, 3))
        if poly.get(expo):
            entries[key] = Fraction(poly[expo], multiplicity(key))
    return 3, 4, Fraction(0), entries


def diag_dominant(rng, n, d, off, denom=16) -> Tensor:
    """Diagonal in [1, 2], mixed entries k/denom with |k| <= off."""
    entries = {}
    for key in canonical_tuples(n, d):
        if len(set(key)) == 1:
            entries[key] = Fraction(rng.randint(denom, 2 * denom), denom)
        else:
            entries[key] = Fraction(rng.randint(-off, off), denom)
    return n, d, Fraction(0), entries


def dense_root_refute(rng, n, d) -> Tensor:
    """Dense entries in [-1, 1] with at least one negative diagonal entry,
    so the form is negative at a vertex of the root simplex."""
    entries = {key: Fraction(rng.randint(-8, 8), 8) for key in canonical_tuples(n, d)}
    i = rng.randint(1, n)
    entries[(i,) * d] = Fraction(-rng.randint(1, 8), 8)
    return n, d, Fraction(0), entries


def nonnegative(rng, n, d) -> Tensor:
    """Entrywise non-negative: in C^(0), so SOS takes the fast path."""
    return n, d, Fraction(0), {key: Fraction(rng.randint(0, 8), 8)
                               for key in canonical_tuples(n, d)}


def amgm_dominant(rng, n, d) -> Tensor:
    """Copositive by construction.  Mixed entries are +-1/32 or +-2/32 (never
    zero, so every tensor of a shape costs the same to expand and evaluate).
    By weighted AM-GM, x^t <= sum_i (t_i / d) x_i^d on the orthant, so a
    diagonal a_i >= b_i = sum_t mult(t) |a_t| t_i / d makes the form
    non-negative; the diagonal is b_i plus a random margin in (0, 1]."""
    entries, bound = {}, [Fraction(0)] * n
    for key in canonical_tuples(n, d):
        if len(set(key)) > 1:
            val = Fraction(rng.choice((-2, -1, 1, 2)), 32)
            entries[key] = val
            for i in set(key):
                bound[i - 1] += multiplicity(key) * abs(val) * key.count(i) / d
    for i in range(n):
        entries[(i + 1,) * d] = bound[i] + Fraction(rng.randint(1, 16), 16)
    return n, d, Fraction(0), entries


GENERATORS = {f.__name__: f for f in (flagship, horn, screen_counterexample, boundary,
                                      diag_dominant, dense_root_refute, nonnegative,
                                      amgm_dominant)}


def make_tensor(family: dict, gen_seed: int | None) -> Tensor:
    gen = GENERATORS[family["generator"]]
    rng = None if gen_seed is None else random.Random(gen_seed)
    return gen(rng, **family.get("args", {}))


# --- documents ------------------------------------------------------------

def fmt(v: Fraction) -> str:
    return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def tensor_document(t: Tensor) -> str:
    n, d, default, entries = t
    doc = {"n": n, "d": d, "default": fmt(default),
           "entries": [{"idx": list(k), "val": fmt(v)} for k, v in sorted(entries.items())]}
    return json.dumps(doc, separators=(",", ":"))


def document_sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def form_value(t: Tensor, x) -> Fraction:
    """Exact form value by summation over canonical tuples; independent of
    copotensor's own evaluator."""
    n, d, default, entries = t
    total = Fraction(0)
    for key in canonical_tuples(n, d):
        a = entries.get(key, default)
        if a:
            term = a * multiplicity(key)
            for i in key:
                term *= x[i - 1]
            total += term
    return total


def simplex_min(t: Tensor, resolution: int) -> Fraction:
    """Exact minimum of the form over the simplex grid with the given
    denominator (used to pick refute-late members when building the pool)."""
    n = t[0]
    best = None
    for cut in itertools.combinations(range(resolution + n - 1), n - 1):
        parts, prev = [], -1
        for c in cut + (resolution + n - 1,):
            parts.append(c - prev - 1)
            prev = c
        v = form_value(t, [Fraction(p, resolution) for p in parts])
        best = v if best is None or v < best else best
    return best


# --- pools and sampling ---------------------------------------------------

@dataclass
class Call:
    """One CLI invocation on one suite tensor."""
    key: str            # stable id: member sha + argv
    family: str
    why: str
    tensor: Tensor
    doc_name: str
    argv_prefix: list   # CLI argv without the document path
    seed_result: dict   # verdict and work counts recorded in the pool

    def argv(self, workdir: Path) -> list:
        return list(self.argv_prefix) + [str(workdir / self.doc_name)]


def load_pool(workload: str) -> dict:
    return json.loads((POOL_DIR / f"{workload}.json").read_text())


def strata(members: list, pick: int) -> list:
    ordered = sorted(members, key=lambda m: (m["work"], m["sha256"]))
    bounds = [round(k * len(ordered) / pick) for k in range(pick + 1)]
    return [ordered[bounds[k]:bounds[k + 1]] for k in range(pick)]


def sample(pool: dict, seed: int, smoke: bool = False) -> list[Call]:
    """The run's calls in closed-loop order.  Smoke mode takes the cheapest
    member of each of the two cheapest families, with its first call only."""
    rng = random.Random(seed)
    families = pool["families"]
    if smoke:
        families = sorted(families, key=lambda f: min(m["work"] for m in f["members"]))[:2]
    calls: list[Call] = []
    for fam in families:
        if smoke:
            chosen = [min(fam["members"], key=lambda m: m["work"])]
        else:
            # one uniform draw per family, mirrored in every other stratum, so
            # a heavy pick in one stratum pairs with a light one in the next
            u = rng.random()
            chosen = [s[int((u if k % 2 == 0 else 1 - u) * len(s)) % len(s)]
                      for k, s in enumerate(strata(fam["members"], fam["pick"]))]
        for m in chosen:
            t = make_tensor(fam, m["gen_seed"])
            sha = document_sha(tensor_document(t))
            if sha != m["sha256"]:
                raise RuntimeError(f"generator drift in {fam['name']} seed {m['gen_seed']}: "
                                   f"document sha {sha} != pool {m['sha256']}")
            prefixes = fam["calls"][:1] if smoke else fam["calls"]
            for prefix, res in zip(prefixes, m["results"]):
                calls.append(Call(f"{sha}:{' '.join(prefix)}", fam["name"], fam["why"],
                                  t, f"{sha}.json", prefix, res))
    if not smoke:
        rng.shuffle(calls)
    return calls


def write_suite(calls: list[Call], workdir: Path) -> None:
    """Write each tensor document once, plus the manifest."""
    workdir.mkdir(parents=True, exist_ok=True)
    for c in calls:
        path = workdir / c.doc_name
        if not path.exists():
            path.write_text(tensor_document(c.tensor) + "\n")
    manifest = [{"key": c.key, "family": c.family, "why": c.why, "document": c.doc_name,
                 "argv": c.argv_prefix, "seed_result": c.seed_result} for c in calls]
    (workdir / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n")
