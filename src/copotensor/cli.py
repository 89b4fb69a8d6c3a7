"""Command-line surface tying the hierarchy modules together.

Exit codes: a verdict exits with its EXIT_CODE entry (0 member, 1 not, 2
unknown); verify and oracle exit 0 on pass and 1 on fail (verify 2 on a
verdict it cannot re-check); 3 = usage or parse error.  verify re-runs
certify's exact routes (evidence.EXACT_ROUTES) on a partition Copositive,
so only one that came from branch-and-bound is left unchecked.
Nothing is randomized, so the same inputs always give the same documents.
numpy is imported only by the subcommands that compute with it (check --method
coef|sos, expand, compare, verify of a coef or sos document); without numpy
they exit 3 and every other subcommand runs.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

from . import docio, evidence, gridcone, oracle
from .combinatorics import DEFAULT_MAX_ITERS
from .docio import DocumentError, certificate_document, emit_scalar
from .partition import DEFAULT_MAX_DEPTH, DEFAULT_SIMPLEX_BUDGET, certify_copositivity
from .tensor import SymTensor, necessary_screen

EXIT_MEMBER = 0
EXIT_NOT_MEMBER = 1
EXIT_UNKNOWN = 2
EXIT_USAGE = 3
EXIT_CODE = {"Member": EXIT_MEMBER, "Certified": EXIT_MEMBER,
             "Copositive": EXIT_MEMBER, "Pass": EXIT_MEMBER,
             "NotMember": EXIT_NOT_MEMBER, "NotCopositive": EXIT_NOT_MEMBER,
             "Unknown": EXIT_UNKNOWN, "StrictlyIndeterminate": EXIT_UNKNOWN}


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors, which collides with the Unknown code
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _int_at_least(low: int):
    """An argparse type: an int no smaller than low, so that a bad budget
    exits 3 before any work."""
    def budget(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"{value} is below {low}")
        return value
    return budget


def _load_tensor(path: str) -> SymTensor:
    try:
        return docio.parse_tensor(Path(path).read_text())
    except (OSError, DocumentError) as exc:
        print(f"error: cannot load tensor from {path}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _emit(doc: dict, out: str | None) -> None:
    text = json.dumps(doc, indent=2)
    if out:
        Path(out).write_text(text + "\n")
    print(text)


def _cmd_screen(args) -> int:
    A = _load_tensor(args.tensor)
    res = necessary_screen(A)
    verdict = "Pass" if res.passed else "NotCopositive"
    doc = certificate_document(verdict, "screen", tensor=A,
                               witness=res.witness, witness_value=res.witness_value,
                               stats={"reason": res.reason} if res.reason else None)
    _emit(doc, args.out)
    return EXIT_CODE[verdict]


def _level_document(method: str, A: SymTensor, r: int, max_iters: int) -> dict:
    """The result document of one hierarchy level: `check` emits it, and
    `verify` rebuilds a coef or grid one to compare."""
    witness = value = stats = moments = None
    if method == "coef":
        from . import polycone
        v = polycone.member_C_r(A, r)
        verdict = "Member" if v.member else "NotMember"
        if not v.member:
            stats = {"worst_theta": list(v.worst_theta),
                     "worst_value": emit_scalar(v.worst_value)}
    elif method == "sos":
        from . import soscone
        v = soscone.member_K_r(A, r, max_iters=max_iters)
        verdict, moments = v.verdict, v.moments
        stats = {"iterations": v.iterations, "residual": v.residual,
                 "min_eig": v.min_eig, "fast_path": v.fast_path}
    else:
        v = gridcone.member_O_r(A, r)
        verdict = "Member" if v.member else "NotMember"
        witness, value = v.witness, v.value
    return certificate_document(verdict, method, level=r, tensor=A,
                                witness=witness, witness_value=value, stats=stats,
                                moments=moments)


def _cmd_check(args) -> int:
    doc = _level_document(args.method, _load_tensor(args.tensor), args.level,
                          args.max_iters)
    _emit(doc, args.out)
    return EXIT_CODE[doc["verdict"]]


def _cmd_certify(args) -> int:
    A = _load_tensor(args.tensor)
    cert = certify_copositivity(A, max_depth=args.max_depth,
                                simplex_budget=args.budget)
    stats = {key: v for key, v in vars(cert.stats).items() if v is not None}
    doc = certificate_document(cert.verdict.value, "partition", depth=cert.stats.max_depth,
                               witness=cert.witness, witness_value=cert.witness_value,
                               stats=stats, tensor=A)
    _emit(doc, args.out)
    return EXIT_CODE[cert.verdict.value]


def _cmd_expand(args) -> int:
    from . import polycone
    A = _load_tensor(args.tensor)
    thetas, numerators, denom = polycone.coefficient_table(A, args.level)
    rows = [{"theta": list(theta), "coefficient": emit_scalar(Fraction(v, denom))}
            for theta, v in zip(thetas, numerators)]
    _emit({"n": A.n, "d": A.d, "level": args.level, "coefficients": rows},
          args.out)
    return EXIT_MEMBER


def _cmd_oracle(args) -> int:
    A = _load_tensor(args.tensor)
    report = oracle.simplex_grid_min(A, args.resolution)
    doc = {"min_value": emit_scalar(report.min_value),
           "argmin": [emit_scalar(c) for c in report.argmin],
           "resolution": report.resolution}
    _emit(doc, args.out)
    return EXIT_MEMBER if report.min_value >= 0 else EXIT_NOT_MEMBER


def _cmd_compare(args) -> int:
    from . import soscone
    A = _load_tensor(args.tensor)
    levels = list(range(args.levels + 1))
    # the SOS walk reads every level's coefficients: a level takes its fast
    # path exactly when they are all non-negative, a C^(r) Member
    sos = soscone.sweep_K_r(A, args.levels, max_iters=args.max_iters)
    coef = ["Member" if v.fast_path else "NotMember" for v in sos]
    # the level-R grid holds every lower level's points and its witness is the
    # first negative point: it first appears at level m - 2, m the lcm of its
    # denominators (at least 2), and no point of an earlier level is negative
    grid = gridcone.member_O_r(A, args.levels)
    refuted_from = math.inf if grid.member else \
        max(2, math.lcm(*(c.denominator for c in grid.witness))) - 2
    matrix = {"coef": coef,
              "sos": [v.verdict for v in sos],
              "grid": ["NotMember" if r >= refuted_from else "Member" for r in levels]}
    cert = certify_copositivity(A, max_depth=args.max_depth, simplex_budget=args.budget)
    screen = necessary_screen(A)
    doc = {"input_digest": docio.tensor_digest(A),
           "levels": levels,
           "screen": "Pass" if screen.passed else "Fail",
           "hierarchies": matrix,
           "certify": cert.verdict.value}
    # C^(r) and K^(r) lie inside the copositive cone, and a grid or certify
    # refutation is exact: an inner member beside an outer refutation means
    # one verdict is wrong (K^(r)'s solver works in floats)
    clashes = {}
    for r in levels:
        inner = [f"{name} {matrix[name][r]}" for name in ("coef", "sos")
                 if EXIT_CODE[matrix[name][r]] == EXIT_MEMBER]
        outer = [f"{name} {v}" for name, v in (("grid", matrix["grid"][r]),
                                               ("certify", doc["certify"]))
                 if EXIT_CODE[v] == EXIT_NOT_MEMBER]
        if inner and outer:
            clashes[r] = f"{', '.join(inner)} beside {', '.join(outer)}"
    if clashes:
        doc["contradictions"] = list(clashes)
    if args.json:
        _emit(doc, args.out)
    else:
        width = max(9, *(len(v) for row in matrix.values() for v in row))
        print(f"screen: {doc['screen']}    certify: {doc['certify']}")
        print("level   " + "  ".join(f"{r:>{width}}" for r in levels))
        for name in ("coef", "sos", "grid"):
            print(f"{name:<7} " + "  ".join(f"{v:>{width}}" for v in matrix[name]))
        for r, clash in clashes.items():
            print(f"contradiction at level {r}: {clash}")
        if args.out:
            Path(args.out).write_text(json.dumps(doc, indent=2) + "\n")
    return EXIT_CODE[doc["certify"]]


def _verified(ok: bool, detail: str) -> int:
    print(f"verify: {'OK' if ok else 'FAIL'} ({detail})")
    return EXIT_MEMBER if ok else EXIT_NOT_MEMBER


def _cert_level(cert: dict) -> int:
    level = cert.get("level")
    if type(level) is not int or level < 0:
        raise DocumentError(f"certificate level {level!r} is not a non-negative integer")
    return level


def _verify_level(A: SymTensor, cert: dict) -> tuple[bool, str] | None:
    """A coef or grid document rebuilt by `check`'s route at its level and
    compared on verdict, stats and witness.  An sos fast path (every
    coefficient of P non-negative) is rebuilt as a coef Member, and a solved
    sos Certified carries no evidence to re-check (None)."""
    method, claimed, stats = cert["method"], cert, cert.get("stats")
    if method == "sos":
        if not (isinstance(stats, dict) and stats.get("fast_path") is True):
            return None
        method, claimed = "coef", {"verdict": "Member"}
    r = _cert_level(cert)
    rebuilt = _level_document(method, A, r, DEFAULT_MAX_ITERS)
    ok = all(rebuilt.get(key) == claimed.get(key) for key in ("verdict", "stats", "witness"))
    what = "grid re-evaluated" if method == "grid" else "coefficients recomputed"
    return ok, f"level-{r} {what}"


def _verify_moments(A: SymTensor, cert: dict) -> tuple[bool, str]:
    """An sos NotMember's moments re-checked on the level's exact parts."""
    from . import polycone
    r = _cert_level(cert)
    moments = docio.parse_moments(cert)
    basis, numerators, _ = polycone.coefficient_table(A, r)
    ok = evidence.check_refutation(basis, numerators, evidence.parity_blocks(basis),
                                   moments)
    return ok, f"level-{r} moment certificate re-checked"


def _cmd_verify(args) -> int:
    """Re-derive the evidence behind a verdict by the check that the table
    names for its method and verdict.  Verdicts that carry no checkable
    evidence exit 2."""
    checks = {("screen", "NotCopositive"): evidence.check_witness,
              ("partition", "NotCopositive"): evidence.check_witness,
              ("partition", "Copositive"): evidence.check_copositive,
              ("coef", "Member"): _verify_level, ("coef", "NotMember"): _verify_level,
              ("grid", "Member"): _verify_level, ("grid", "NotMember"): _verify_level,
              ("sos", "Certified"): _verify_level, ("sos", "NotMember"): _verify_moments}
    try:
        cert = docio.load_certificate(Path(args.certificate).read_text())
    except (OSError, DocumentError) as exc:
        print(f"error: cannot load certificate: {exc}", file=sys.stderr)
        return EXIT_USAGE
    A = _load_tensor(args.tensor)
    if cert["input_digest"] != docio.tensor_digest(A):
        version = cert.get("tool_version")
        return _verified(False, "input digest mismatch" if version == docio.TOOL_VERSION
                         else f"input digest mismatch; the certificate was written by "
                              f"copotensor {version}, this is {docio.TOOL_VERSION}")
    key = (cert.get("method"), cert["verdict"])
    check = checks.get(key) if all(isinstance(k, str) for k in key) else None
    outcome = check(A, cert) if check else None
    if outcome is None:
        print(f"verify: UNCHECKED (verdict {key[1]} carries no checkable evidence)")
        return EXIT_UNKNOWN
    return _verified(*outcome)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="copotensor",
                description="Copositivity certification for symmetric tensors")
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("tensor", help="tensor document (JSON)")
        sp.add_argument("--out", help="also write the result document to a file")

    sp = sub.add_parser("screen", help="necessary-condition screen")
    add_common(sp)
    sp.set_defaults(func=_cmd_screen)

    sp = sub.add_parser("check", help="hierarchy membership at a level")
    add_common(sp)
    sp.add_argument("--method", choices=("coef", "sos", "grid"), required=True)
    sp.add_argument("--level", type=int, default=0)
    sp.add_argument("--max-iters", type=int, default=DEFAULT_MAX_ITERS)
    sp.set_defaults(func=_cmd_check)

    def add_budgets(sp):
        sp.add_argument("--max-depth", type=_int_at_least(0), default=DEFAULT_MAX_DEPTH)
        sp.add_argument("--budget", type=_int_at_least(1), default=DEFAULT_SIMPLEX_BUDGET)

    sp = sub.add_parser("certify", help="branch-and-bound copositivity")
    add_common(sp)
    add_budgets(sp)
    sp.set_defaults(func=_cmd_certify)

    sp = sub.add_parser("expand", help="emit the coefficient table")
    add_common(sp)
    sp.add_argument("--level", type=int, default=0)
    sp.set_defaults(func=_cmd_expand)

    sp = sub.add_parser("oracle", help="brute-force minimum")
    add_common(sp)
    sp.add_argument("--resolution", type=int, required=True)
    sp.set_defaults(func=_cmd_oracle)

    sp = sub.add_parser("compare", help="run all hierarchies over levels 0..R")
    add_common(sp)
    sp.add_argument("--levels", type=int, default=3, metavar="R")
    sp.add_argument("--max-iters", type=int, default=DEFAULT_MAX_ITERS)
    add_budgets(sp)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=_cmd_compare)

    sp = sub.add_parser("verify", help="re-check a certificate document")
    sp.add_argument("certificate", help="certificate document (JSON)")
    sp.add_argument("--tensor", required=True)
    sp.set_defaults(func=_cmd_verify)
    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built on first use and kept: parsing leaves no state in the parser
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ModuleNotFoundError as exc:
        if exc.name != "numpy":
            raise
        print(f"error: {args.command} needs numpy", file=sys.stderr)
        return EXIT_USAGE
    except DocumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
