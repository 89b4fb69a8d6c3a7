"""Correctness gate, run on every call outside the timed region.

A call fails when it raises, exits 3 (or any code outside 0..2), prints no
result document, or prints one that does not hold up:

- a NotCopositive or NotMember witness must lie in the orthant and give a
  negative form value, re-evaluated exactly here (not by copotensor);
- a coef NotMember must report the minimum coefficient of P^(r), and that
  coefficient must agree with ``oracle.expand_bruteforce``;
- a Copositive, Member or Certified verdict must not be refuted by
  ``oracle.simplex_grid_min`` at the resolution below;
- the exit code must match the verdict;
- a definitive verdict must not flip to a different definitive verdict
  relative to the one recorded in the pool.

``copotensor verify`` is deliberately not used: it accepts positive
verdicts on digest alone.
"""

from __future__ import annotations

import json
from fractions import Fraction

from suite import Call, form_value

DEFINITIVE = {"Copositive", "NotCopositive", "Member", "NotMember", "Certified"}
POSITIVE = {"Copositive", "Member", "Certified"}
EXIT_FOR = {"Copositive": 0, "Member": 0, "Certified": 0, "NotCopositive": 1,
            "NotMember": 1, "StrictlyIndeterminate": 2, "Unknown": 2}
# grid denominators for the refutation oracle, a few hundred points each
ORACLE_RESOLUTION = {1: 8, 2: 48, 3: 24, 4: 12, 5: 8}


class Gate:
    def __init__(self, copotensor_modules):
        self.tensor_mod, self.oracle = copotensor_modules
        self._grid_min: dict = {}
        self._brute: dict = {}

    def _symtensor(self, t):
        n, d, default, entries = t
        b = self.tensor_mod.SymTensorBuilder(n, d, default)
        for k, v in entries.items():
            b.set(k, v)
        return b.build()

    def _refuted(self, call: Call) -> bool:
        key = call.doc_name
        if key not in self._grid_min:
            n = call.tensor[0]
            rep = self.oracle.simplex_grid_min(self._symtensor(call.tensor),
                                               ORACLE_RESOLUTION.get(n, 6))
            self._grid_min[key] = rep.min_value
        return self._grid_min[key] < 0

    def _expansion(self, call: Call, r: int) -> dict:
        key = (call.doc_name, r)
        if key not in self._brute:
            self._brute[key] = self.oracle.expand_bruteforce(
                self._symtensor(call.tensor), r)
        return self._brute[key]

    def check(self, call: Call, exit_code, stdout: str, error: str | None) -> list[str]:
        """Reasons this call failed; empty when it passes."""
        if error is not None:
            return [f"exception: {error}"]
        if exit_code not in (0, 1, 2):
            return [f"exit code {exit_code}"]
        try:
            doc = json.loads(stdout)
            verdict = doc["verdict"]
        except (ValueError, KeyError, TypeError):
            return ["no result document"]
        problems = []
        if EXIT_FOR.get(verdict) != exit_code:
            problems.append(f"exit code {exit_code} for verdict {verdict}")
        if verdict == "NotCopositive" or (verdict == "NotMember"
                                          and doc.get("method") == "grid"):
            problems += self._check_witness(call, doc.get("witness"))
        if verdict == "NotMember" and doc.get("method") == "coef":
            problems += self._check_worst_coefficient(call, doc)
        if verdict in POSITIVE and self._refuted(call):
            problems.append(f"{verdict} on a tensor the grid oracle refutes")
        seed = call.seed_result.get("verdict")
        if seed in DEFINITIVE and verdict in DEFINITIVE and seed != verdict:
            problems.append(f"verdict flipped from {seed} to {verdict}")
        return problems

    def _check_witness(self, call: Call, witness) -> list[str]:
        try:
            point = [Fraction(c) for c in witness["point"]]
            claimed = Fraction(witness["value"]) if "value" in witness else None
        except (KeyError, TypeError, ValueError, ZeroDivisionError):
            return ["missing or unreadable witness"]
        if len(point) != call.tensor[0] or any(c < 0 for c in point):
            return ["witness outside the orthant"]
        value = form_value(call.tensor, point)
        if value >= 0:
            return [f"witness value {value} is not negative"]
        if claimed is not None and claimed != value:
            return [f"witness value {claimed} != exact {value}"]
        return []

    def _check_worst_coefficient(self, call: Call, doc: dict) -> list[str]:
        stats = doc.get("stats", {})
        try:
            theta = tuple(stats["worst_theta"])
            worst = Fraction(stats["worst_value"])
            r = int(doc["level"])
        except (KeyError, TypeError, ValueError, ZeroDivisionError):
            return ["coef NotMember without worst coefficient"]
        coeffs = self._expansion(call, r)
        # the oracle keys y-exponents 2 theta and omits zero coefficients
        at_theta = coeffs.get(tuple(2 * t for t in theta), Fraction(0))
        lowest = min(coeffs.values(), default=Fraction(0))
        if worst >= 0 or at_theta != worst or lowest != worst:
            return [f"worst coefficient {worst} at {theta}: oracle has {at_theta}, "
                    f"minimum {lowest}"]
        return []
