import ast
import functools
import inspect
import json
import math
import os
import random
import re
import shlex
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import copotensor
from copotensor import cli, docio, faces, gridcone, partition, polycone, soscone
from copotensor.cli import main
from copotensor.docio import (DocumentError, emit_scalar, emit_tensor,
                              parse_scalar, parse_tensor, tensor_digest)
from copotensor.gridcone import member_O_r
from copotensor.oracle import expand_bruteforce, simplex_grid_min
from copotensor.polycone import member_C_r
from copotensor.tensor import SymTensor, from_matrix
from conftest import (EXAMPLE31_JSON, HORN, multi_product, rand_diag_dominant_tensor,
                      rand_rational_tensor, reference_check_refutation,
                      reference_principal_refutation, solve_offering)

F = Fraction

HOLLOW = '{"n": 2, "d": 2, "entries": [{"idx": [1, 2], "val": "-1"}]}'
BOUNDARY = ('{"n": 2, "d": 2, "entries": ['
            '{"idx": [1, 1], "val": "1"}, {"idx": [1, 2], "val": "-1"},'
            '{"idx": [2, 2], "val": "1"}]}')
# the Horn matrix written with default 1, where emit_tensor writes default 0
HORN_DEFAULT_1 = json.dumps({"n": 5, "d": 2, "default": "1", "entries": [
    {"idx": list(idx), "val": "-1"} for idx in ((1, 2), (1, 5), (2, 3), (3, 4), (4, 5))]})
# (2 x1 - 3 x2)^2 - (x1 + x2)^2 / 100 is negative only near (3/5, 2/5): the
# grid holds it at levels 0..2 and refutes it from level 3
OFF_GRID = from_matrix([[4 - F(1, 100), -6 - F(1, 100)], [-6 - F(1, 100), 9 - F(1, 100)]])


@pytest.fixture
def example_file(tmp_path):
    p = tmp_path / "ex31.json"
    p.write_text(EXAMPLE31_JSON)
    return str(p)


@pytest.fixture
def hollow_file(tmp_path):
    p = tmp_path / "hollow.json"
    p.write_text(HOLLOW)
    return str(p)


@pytest.fixture
def boundary_file(tmp_path):
    p = tmp_path / "boundary.json"
    p.write_text(BOUNDARY)
    return str(p)


@pytest.fixture
def horn_file(tmp_path):
    p = tmp_path / "horn.json"
    p.write_text(emit_tensor(HORN))
    return str(p)


def _load_error(tmp_path, capsys, doc):
    """certify on a document it must refuse at load: exit 3, nothing on
    stdout; the stderr line, with the document's path as {path}."""
    p = tmp_path / "t.json"
    p.write_text(doc)
    with pytest.raises(SystemExit) as exc:
        main(["certify", str(p)])
    assert exc.value.code == 3
    out, err = capsys.readouterr()
    assert out == ""
    return err.replace(str(p), "{path}")


LOAD = "error: cannot load tensor from {path}: "

# canonical text, Fraction's other literals (signs, whitespace, decimals,
# exponents, underscores, non-ASCII digits), and junk
CANONICAL_TEXT = st.from_regex(r"\A-?[0-9]{1,25}(/[0-9]{1,25})?\Z")
FRACTION_TEXT = st.from_regex(
    r"\A\s{0,2}[-+]?(\d{1,6}(_\d{1,3})?)?(\.\d{0,4})?([eE][-+]?[0-9]{1,2})?"
    r"(\s?/\s?\d{1,6})?\s{0,2}\Z")
JUNK_TEXT = st.text(alphabet="0123456789-+/._eE \t\u0663\u00b2x", max_size=12)


class TestScalars:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(CANONICAL_TEXT, FRACTION_TEXT, JUNK_TEXT))
    def test_strings_read_as_fraction_reads_them(self, text):
        try:
            want = Fraction(text)
        except (ValueError, ZeroDivisionError):
            with pytest.raises(DocumentError):
                parse_scalar(text)
            return
        got = parse_scalar(text)
        assert type(got) is Fraction and got == want

    @pytest.mark.parametrize("text", ["2/4", "-0", "007/14", " 1/2 ", "+3", "1_000",
                                      "\u0663/4", "1e-1", "-3e-1", "0.25"])
    def test_canonical_and_other_literals(self, text):
        assert parse_scalar(text) == Fraction(text)

    @pytest.mark.parametrize("text", ["1/0", "-", "1/", "/2", "--1", "1/-2", "1/2/3",
                                      "\u00b2", "", "9" * 5000])
    def test_bad_strings(self, text):
        with pytest.raises(DocumentError, match="bad rational string"):
            parse_scalar(text)

    def test_rational_strings(self):
        assert parse_scalar("5") == F(5)
        assert parse_scalar("5/1") == F(5)
        assert parse_scalar("-3/7") == F(-3, 7)

    def test_ints_exact_floats_passthrough(self):
        assert parse_scalar(4) == F(4) and isinstance(parse_scalar(4), F)
        assert parse_scalar(0.5) == F(1, 2) and isinstance(parse_scalar(0.5), F)
        assert parse_scalar(0.1) == F(3602879701896397, 36028797018963968)

    def test_bad_scalars(self):
        for bad in ("x", "1/0", True, None, [1], float("nan"), float("inf"),
                    float("-inf")):
            with pytest.raises(DocumentError):
                parse_scalar(bad)

    def test_emit_round_trip(self):
        for v in (F(5), F(-3, 7), F(0)):
            assert parse_scalar(emit_scalar(v)) == v


class TestParseTensor:
    def test_example31_document(self):
        A = parse_tensor(EXAMPLE31_JSON)
        assert (A.n, A.d) == (3, 4)
        assert len(list(A.items())) == 15     # C(6,4) canonical tuples
        assert A.get((1, 1, 1, 1)) == 0
        assert A.get((1, 2, 3, 3)) == 5

    def test_empty_entries_zero_matrix(self):
        A = parse_tensor('{"n": 2, "d": 2}')
        assert all(v == 0 for _, v in A.items())

    def test_unsorted_index_rejected(self, tmp_path, capsys):
        doc = '{"n": 2, "d": 2, "entries": [{"idx": [2, 1], "val": "1"}]}'
        with pytest.raises(DocumentError):
            parse_tensor(doc)
        assert _load_error(tmp_path, capsys, doc) == \
            LOAD + "index (2, 1) is not sorted non-decreasing\n"

    def test_duplicate_index_rejected(self, tmp_path, capsys):
        doc = ('{"n": 2, "d": 2, "entries": '
               '[{"idx": [1, 1], "val": "1"}, {"idx": [1, 1], "val": "2"}]}')
        with pytest.raises(DocumentError):
            parse_tensor(doc)
        assert _load_error(tmp_path, capsys, doc) == \
            LOAD + "duplicate canonical index (1, 1)\n"

    def test_out_of_range_rejected(self, tmp_path, capsys):
        doc = '{"n": 2, "d": 2, "entries": [{"idx": [1, 3], "val": "1"}]}'
        with pytest.raises(DocumentError):
            parse_tensor(doc)
        assert _load_error(tmp_path, capsys, doc) == LOAD + "index (1, 3) out of range 1..2\n"

    @pytest.mark.parametrize("idx", ["[3, 1]", "[0, 1]"])
    def test_range_error_before_order_error(self, tmp_path, capsys, idx):
        doc = f'{{"n": 2, "d": 2, "entries": [{{"idx": {idx}, "val": "1"}}]}}'
        shown = idx.replace("[", "(").replace("]", ")")
        assert _load_error(tmp_path, capsys, doc) == \
            LOAD + f"index {shown} out of range 1..2\n"

    def test_wrong_length_rejected(self, tmp_path, capsys):
        doc = '{"n": 2, "d": 2, "entries": [{"idx": [1, 1, 2], "val": "1"}]}'
        assert _load_error(tmp_path, capsys, doc) == \
            LOAD + "index (1, 1, 2) has length 3, expected 2\n"

    @pytest.mark.parametrize("entry, message", [
        ('{"idx": [1, 2]}', "bad entry {'idx': [1, 2]}"),
        ('{"idx": [1, 2], "val": "1/0"}', "bad entry {'idx': [1, 2], 'val': '1/0'}"),
        ('{"idx": 5, "val": "1"}', "bad entry {'idx': 5, 'val': '1'}"),
        ("[1, 2]", "bad entry [1, 2]")], ids=["val-missing", "val-bad", "idx-int", "array"])
    def test_bad_entry_rejected(self, tmp_path, capsys, entry, message):
        doc = f'{{"n": 2, "d": 2, "entries": [{entry}]}}'
        assert _load_error(tmp_path, capsys, doc) == LOAD + message + "\n"

    NEEDS_INTEGERS = "document needs integer fields 'n' and 'd'"
    MUST_BE_INTEGERS = ": index components must be integers"

    @pytest.mark.parametrize("doc, message", [
        ('{"n": 2.7, "d": 2}', NEEDS_INTEGERS), ('{"n": 2, "d": true}', NEEDS_INTEGERS),
        ('{"n": "2", "d": 2}', NEEDS_INTEGERS), ('{"d": 2}', NEEDS_INTEGERS),
        ('{"n": 2, "d": 2, "entries": [{"idx": [1.9, 2.2], "val": 1}]}',
         "bad entry {'idx': [1.9, 2.2], 'val': 1}" + MUST_BE_INTEGERS),
        ('{"n": 2, "d": 2, "entries": [{"idx": [true, 2], "val": 1}]}',
         "bad entry {'idx': [True, 2], 'val': 1}" + MUST_BE_INTEGERS),
        ('{"n": 2, "d": 2, "entries": [{"idx": ["1", 2], "val": 1}]}',
         "bad entry {'idx': ['1', 2], 'val': 1}" + MUST_BE_INTEGERS),
        ('{"n": 2, "d": 2, "entries": [{"idx": [1.0, 2], "val": 1}]}',
         "bad entry {'idx': [1.0, 2], 'val': 1}" + MUST_BE_INTEGERS)],
        ids=["n-float", "d-bool", "n-string", "n-missing", "idx-floats",
             "idx-bool", "idx-string", "idx-integral-float"])
    def test_non_integer_fields_rejected(self, doc, message, tmp_path, capsys):
        # nothing is truncated: 2.7 is not read as 2, nor true as 1
        with pytest.raises(DocumentError):
            parse_tensor(doc)
        assert _load_error(tmp_path, capsys, doc) == LOAD + message + "\n"

    @pytest.mark.parametrize("entries", ["5", "null", '"12"', "{}"])
    def test_entries_not_an_array_rejected(self, entries, tmp_path, capsys):
        doc = f'{{"n": 2, "d": 2, "entries": {entries}}}'
        with pytest.raises(DocumentError, match="'entries' must be a JSON array"):
            parse_tensor(doc)
        shown = {"5": "5", "null": "None", '"12"': "'12'", "{}": "{}"}[entries]
        assert _load_error(tmp_path, capsys, doc) == \
            LOAD + f"'entries' must be a JSON array, not {shown}\n"

    def test_not_an_object_rejected(self, tmp_path, capsys):
        assert _load_error(tmp_path, capsys, "[1, 2]") == \
            LOAD + "tensor document must be a JSON object\n"

    def test_non_positive_size_rejected(self, tmp_path, capsys):
        # a ValueError after load: main reports it and returns 3
        p = tmp_path / "t.json"
        p.write_text('{"n": 0, "d": 2}')
        assert main(["certify", str(p)]) == 3
        assert capsys.readouterr() == ("", "error: n and d must be positive\n")

    def test_malformed_json(self):
        with pytest.raises(DocumentError):
            parse_tensor("{not json")

    def test_round_trip(self, rng):
        for _ in range(10):
            A = rand_rational_tensor(rng, 3, 3)
            B = parse_tensor(emit_tensor(A))
            assert dict(A.items()) == dict(B.items())

    # tensor_digest hex pinned for fixed documents: verify matches a
    # certificate to its tensor by this digest, across versions
    GOLDEN_DIGESTS = [
        ('{"n": 2, "d": 2, "default": "1", "entries": [{"idx": [1, 1], "val": "1"}, '
         '{"idx": [1, 2], "val": "-1"}]}',
         "1edcbaf4289caad4b62d99c913597772ef863b33de72ccaa8ba0348310225bf8"),
        ('{"n": 3, "d": 2, "entries": [{"idx": [1, 2], "val": 0.1}, '
         '{"idx": [3, 3], "val": 2}]}',
         "2101eb697a733c6ef2dca9e451cfdb7f591058435de4020ad97f853ce9cacf34"),
        ('{"n": 3, "d": 3, "default": "-2/3", "entries": [{"idx": [1, 1, 1], "val": "5"}, '
         '{"idx": [1, 2, 3], "val": "-2/3"}]}',
         "848aae97dbe590293010fe931f7c1f4b9efb7e30c7654945ae1fa52459932202"),
        ('{"n": 2, "d": 3, "entries": [{"idx": [1, 1, 1], "val": "2/4"}, '
         '{"idx": [1, 1, 2], "val": " 1/2 "}, {"idx": [2, 2, 2], "val": "1e-1"}]}',
         "2c5936ee43a83e750f05068e6f5baa34fd4bf2c0385230cd1927da47f9f17fc3"),
        ('{"n": 2, "d": 1, "default": "5", "entries": [{"idx": [1], "val": "3"}]}',
         "702f149eec3bcd8c44169a5569c80294e8039fdea9fcdf4646f0eec99726de25")]

    @pytest.mark.parametrize("doc, digest", GOLDEN_DIGESTS,
                             ids=["stored-default", "json-float", "negative-default",
                                  "non-canonical", "tie"])
    def test_golden_digest(self, doc, digest):
        A = parse_tensor(doc)
        assert tensor_digest(A) == digest
        assert tensor_digest(parse_tensor(emit_tensor(A))) == digest

    def test_digest_takes_the_least_most_common_value_as_default(self):
        # 2 tuples, one stored: 3 and 5 tie, and the least is the default
        one = parse_tensor('{"n": 2, "d": 1, "default": "5", "entries": '
                           '[{"idx": [1], "val": "3"}]}')
        other = parse_tensor('{"n": 2, "d": 1, "default": "3", "entries": '
                             '[{"idx": [2], "val": "5"}]}')
        assert tensor_digest(one) == tensor_digest(other)

    def test_digest_ignores_redundant_entries(self):
        A = parse_tensor('{"n": 2, "d": 2, "default": "1"}')
        B = parse_tensor('{"n": 2, "d": 2, "default": "1", '
                         '"entries": [{"idx": [1, 1], "val": "1"}]}')
        assert tensor_digest(A) == tensor_digest(B)


class TestCliExitCodes:
    def test_screen_pass(self, example_file, capsys):
        assert main(["screen", example_file]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == "Pass"

    def test_check_coef_member(self, example_file):
        assert main(["check", "--method", "coef", "--level", "0", example_file]) == 0

    def test_check_coef_not_member(self, boundary_file):
        assert main(["check", "--method", "coef", "--level", "2", boundary_file]) == 1

    def test_check_sos_certified(self, boundary_file):
        assert main(["check", "--method", "sos", "--level", "0", boundary_file]) == 0

    def test_check_grid_not_member(self, hollow_file):
        assert main(["check", "--method", "grid", "--level", "0", hollow_file]) == 1

    def test_certify_not_copositive(self, hollow_file, capsys):
        assert main(["certify", hollow_file]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == "NotCopositive"
        assert doc["witness"]["point"] == ["1/2", "1/2"]

    def test_certify_copositive(self, example_file):
        assert main(["certify", example_file]) == 0

    def test_expand_level1_table(self, boundary_file, capsys):
        assert main(["expand", "--level", "1", boundary_file]) == 0
        doc = json.loads(capsys.readouterr().out)
        table = {tuple(row["theta"]): row["coefficient"]
                 for row in doc["coefficients"]}
        assert table == {(0, 3): "1", (1, 2): "-1", (2, 1): "-1", (3, 0): "1"}

    def test_oracle_grid(self, hollow_file, capsys):
        assert main(["oracle", "--resolution", "4", hollow_file]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert parse_scalar(doc["min_value"]) == F(-1, 2)

    @pytest.mark.parametrize("option", [["--samples", "10"], []],
                             ids=["samples", "bare"])
    def test_oracle_takes_only_a_resolution(self, example_file, capsys, option):
        # the grid is the oracle's one mode: anything else is a usage error
        with pytest.raises(SystemExit) as exc:
            main(["oracle", *option, example_file])
        assert exc.value.code == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "error:" in captured.err

    @pytest.mark.parametrize("command", ["certify", "compare"])
    @pytest.mark.parametrize("option", [["--max-depth", "-1"], ["--budget", "0"]],
                             ids=["max-depth", "budget"])
    def test_budgets_checked_before_any_work(self, tmp_path, capsys, command,
                                             option):
        # compare would otherwise run the SOS walk on Horn first
        p = tmp_path / "horn.json"
        p.write_text(emit_tensor(HORN))
        start = time.perf_counter()
        with pytest.raises(SystemExit) as exc:
            main([command, *option, str(p)])
        assert exc.value.code == 3
        assert time.perf_counter() - start < 0.5
        captured = capsys.readouterr()
        assert captured.out == "" and f"argument {option[0]}" in captured.err

    def test_screen_of_high_order_reads_the_diagonal(self, tmp_path, capsys):
        p = tmp_path / "order200000.json"
        p.write_text('{"n": 2, "d": 200000, "default": "-1"}')
        start = time.perf_counter()
        assert main(["screen", str(p)]) == 1
        assert time.perf_counter() - start < 1
        witness = json.loads(capsys.readouterr().out)["witness"]
        assert witness == {"point": ["1", "0"], "value": "-1"}

    @pytest.mark.parametrize("command, what", [
        (["certify"], "canonical tuple count"),
        (["check", "--method", "coef"], "level 0 coefficient count"),
        (["check", "--method", "sos"], "levels 0..0 monomial basis size"),
        (["check", "--method", "grid"], "level 0 grid point count: 80000200000"),
        (["compare", "--levels", "2"], "levels 0..2 monomial basis size"),
        (["oracle", "--resolution", "3"], "grid of more than"),
    ], ids=["certify", "coef", "sos", "grid", "compare", "oracle-grid"])
    def test_huge_sizes_refused_without_exact_binomials(self, tmp_path, capsys,
                                                       command, what):
        # C(799999, 400000) has about 240 000 digits: every size check stops
        # counting at combinatorics.COUNT_CAP and exits 3 with its message
        p = tmp_path / "huge.json"
        p.write_text('{"n": 400000, "d": 400000, "default": "1"}')
        start = time.perf_counter()
        assert main(command + [str(p)]) == 3
        assert time.perf_counter() - start < 1
        captured = capsys.readouterr()
        assert captured.out == "" and what in captured.err
        assert "exceed" in captured.err

    TABLE_REFUSED = ("error: level 0 falling-factorial table size: more than "
                     "1000000000000 exceeds the limit of 10000\n")

    @pytest.mark.parametrize("command, default, code, verdict", [
        (["check", "--method", "grid"], "1", 0, "Member"),
        (["check", "--method", "grid"], "-1/3", 1, "NotMember"),
        (["check", "--method", "coef"], "1", 3, None),
        (["check", "--method", "sos"], "1", 3, None),
        (["expand"], "1", 3, None),
    ], ids=["grid-member", "grid-refuted", "coef", "sos", "expand"])
    def test_huge_order_answered_or_refused_at_once(self, tmp_path, capsys, command,
                                                    default, code, verdict):
        # n = 1, d = 10**6 passes every size check on counts: the grid takes
        # x^d as one power, and the level's (d+1) x (d+1) falling-factorial
        # table is refused before it is built
        p = tmp_path / "huge-order.json"
        p.write_text(f'{{"n": 1, "d": 1000000, "default": "{default}"}}')
        start = time.perf_counter()
        assert main(command + ["--level", "0", str(p)]) == code
        assert time.perf_counter() - start < 1
        out, err = capsys.readouterr()
        if verdict is None:
            assert (out, err) == ("", self.TABLE_REFUSED)
        else:
            doc = json.loads(out)
            assert doc["verdict"] == verdict and err == ""
            if code == 1:
                assert doc["witness"] == {"point": ["1"], "value": "-1/3"}

    @pytest.mark.parametrize("method, default, code", [
        ("coef", "1", 0), ("grid", "1", 0), ("coef", "-1/3", 1), ("grid", "-1/3", 1)])
    def test_small_sparse_document_of_high_order_answers(self, tmp_path, method,
                                                          default, code):
        # 10**4 coefficients and 10**4 canonical tuples, all at the default,
        # which both kernels take as one closed-form term
        p = tmp_path / "order.json"
        p.write_text(f'{{"n": 2, "d": 9999, "default": "{default}"}}')
        run = _python("import sys; from copotensor.cli import main; "
                      "sys.exit(main(sys.argv[1:]))", "check", "--method", method,
                      str(p), cwd=tmp_path, timeout=10)
        assert (run.returncode, run.stderr) == (code, "")
        doc = json.loads(run.stdout)
        assert doc["verdict"] == ("Member" if code == 0 else "NotMember")
        if code == 1 and method == "coef":
            # every coefficient is -C(9999, theta_1) / 3: the central one is worst
            assert doc["stats"] == {"worst_theta": [4999, 5000], "worst_value":
                                    emit_scalar(F(-math.comb(9999, 4999), 3))}
        if code == 1 and method == "grid":
            assert doc["witness"] == {"point": ["0", "1"], "value": "-1/3"}

    @pytest.mark.parametrize("command, code", [
        (["expand"], 0), (["check", "--method", "sos"], 3),
        (["compare", "--levels", "0"], 3)], ids=["expand", "sos", "compare"])
    def test_small_sparse_document_of_high_order_expands(self, tmp_path, command, code):
        # the 10**4 coefficients C(9999, k) share the reduction by D = 9999!;
        # the SOS targets are then refused as beyond float range
        p = tmp_path / "order.json"
        p.write_text('{"n": 2, "d": 9999, "default": "1"}')
        run = _python("import sys; from copotensor.cli import main; "
                      "sys.exit(main(sys.argv[1:]))", *command, str(p),
                      cwd=tmp_path, timeout=10)
        assert run.returncode == code
        if code == 3:
            assert (run.stdout, run.stderr) == \
                ("", "error: a level 0 coefficient is beyond float range\n")
        else:
            rows = json.loads(run.stdout)["coefficients"]
            assert len(rows) == 10_000 and run.stderr == ""
            assert rows[4999] == {"theta": [4999, 5000],
                                  "coefficient": str(math.comb(9999, 4999))}

    @pytest.mark.parametrize("command, n, code", [
        (["check", "--method", "coef"], 1000, 0), (["check", "--method", "coef"], 5000, 3),
        (["check", "--method", "sos"], 1000, 0), (["check", "--method", "sos"], 5000, 3),
        (["expand"], 1000, 0), (["expand"], 5000, 3),
        (["oracle", "--resolution", "1"], 1200, 0),
        (["oracle", "--resolution", "2"], 400, 3)],
        ids=["coef-1000", "coef-5000", "sos-1000", "sos-5000", "expand-1000",
             "expand-5000", "oracle-1200", "oracle-400"])
    def test_wide_order_one_document_answers_or_exits_3(self, tmp_path, command, n, code):
        # one exponent vector, or grid point, per variable: the tables are
        # built without recursion, and their cells (vectors times n, points
        # times n) are counted against a limit before they are built
        p = tmp_path / "wide.json"
        p.write_text(f'{{"n": {n}, "d": 1, "default": "1"}}')
        run = _python("import sys; from copotensor.cli import main; "
                      "sys.exit(main(sys.argv[1:]))", *command, str(p),
                      cwd=tmp_path, timeout=30)
        assert run.returncode == code and "Traceback" not in run.stderr
        if code == 3:
            assert run.stdout == "" and "exceeds" in run.stderr

    @pytest.mark.parametrize("method", ["coef", "sos", "grid"])
    def test_negative_level_exit_3(self, tmp_path, capsys, method):
        # [[1,-2],[-2,1]] is not copositive: level 0 of the grid refutes it
        p = tmp_path / "t.json"
        p.write_text(emit_tensor(from_matrix([[1, -2], [-2, 1]])))
        assert main(["check", "--method", method, "--level", "-1", str(p)]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "r must be >= 0" in captured.err

    def test_certify_size_checked_before_tables(self, tmp_path, capsys):
        # C(33, 4) = 40920 coefficients per simplex exit 3 at once; n = 20
        # (8855) prunes at the root without building a bisection table
        big = tmp_path / "n30.json"
        big.write_text('{"n": 30, "d": 4, "default": "1"}')
        start = time.perf_counter()
        assert main(["certify", str(big)]) == 3
        assert time.perf_counter() - start < 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "40920 exceeds the limit" in captured.err
        root = tmp_path / "n20.json"
        root.write_text('{"n": 20, "d": 4, "default": "1"}')
        start = time.perf_counter()
        assert main(["certify", str(root)]) == 0
        assert time.perf_counter() - start < 1
        assert json.loads(capsys.readouterr().out)["stats"]["simplices"] == 1

    def test_grid_size_checked_before_scaling(self, tmp_path, capsys):
        # C(3002, 3) canonical tuples, but the level-0 grid (4 501 500 points)
        # is refused before any of them is visited
        p = tmp_path / "n3000.json"
        p.write_text('{"n": 3000, "d": 3, "default": "1"}')
        start = time.perf_counter()
        assert main(["check", "--method", "grid", "--level", "0", str(p)]) == 3
        assert time.perf_counter() - start < 1
        captured = capsys.readouterr()
        assert captured.out == "" and "4501500 exceeds the limit" in captured.err

    def test_grid_tuple_count_checked_before_scaling(self, tmp_path, capsys):
        # a 210-point level-0 grid, but C(25, 6) canonical tuples to evaluate
        p = tmp_path / "n20d6.json"
        p.write_text('{"n": 20, "d": 6, "default": "1"}')
        start = time.perf_counter()
        assert main(["check", "--method", "grid", "--level", "0", str(p)]) == 3
        assert time.perf_counter() - start < 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "canonical tuple count: 177100 exceeds the limit" in captured.err

    @pytest.mark.parametrize("entries, code", [
        ("[]", 0), ('[{"idx": [1, 2], "val": "-1"}]', 1)], ids=["pass", "fail"])
    def test_screen_is_linear_in_n(self, tmp_path, capsys, entries, code):
        p = tmp_path / "wide.json"
        p.write_text(f'{{"n": 100000, "d": 2, "entries": {entries}}}')
        start = time.perf_counter()
        assert main(["screen", str(p)]) == code
        assert time.perf_counter() - start < 1
        doc = json.loads(capsys.readouterr().out)
        if code:
            assert doc["witness"]["point"][:3] == ["1", "1", "0"]
            assert doc["witness"]["value"] == "-2"

    def test_screen_diagonal_read_off_stored_keys(self, tmp_path, capsys):
        # n diagonal entries of order d are never built as index tuples
        p = tmp_path / "huge.json"
        p.write_text('{"n": 400000, "d": 400000, "default": "1"}')
        start = time.perf_counter()
        assert main(["screen", str(p)]) == 0
        assert time.perf_counter() - start < 1
        assert json.loads(capsys.readouterr().out)["verdict"] == "Pass"

    @pytest.mark.parametrize("command, doc", [
        ("screen", '{"n": 100000000000000000000, "d": 2, "default": "1"}'),
        ("screen", '{"n": 1000000000000, "d": 2, "default": "1"}'),
        ("screen", '{"n": 2, "d": 100000000000000000000, "default": "-1"}'),
        ("certify", '{"n": 100000000000000000000, "d": 1, "default": "1"}')],
        ids=["screen-n-1e20", "screen-n-1e12", "screen-d-1e20", "certify-d1-n-1e20"])
    def test_oversized_n_or_d_refused_at_load(self, tmp_path, capsys, command, doc):
        # a few bytes of JSON would otherwise ask for n-long lists (an
        # OverflowError or a MemoryError) or d-long index tuples
        p = tmp_path / "oversized.json"
        p.write_text(doc)
        start = time.perf_counter()
        with pytest.raises(SystemExit) as exc:
            main([command, str(p)])
        assert exc.value.code == 3
        assert time.perf_counter() - start < 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"exceeds the limit {docio.MAX_SIZE}" in captured.err

    def test_compare_json(self, boundary_file, capsys):
        code = main(["compare", "--levels", "2", "--json", boundary_file])
        doc = json.loads(capsys.readouterr().out)
        assert doc["hierarchies"]["coef"] == ["NotMember"] * 3
        assert doc["hierarchies"]["sos"][0] == "Certified"
        # on the boundary of the cone, decided by certify's scan
        assert (code, doc["certify"]) == (0, "Copositive")

    def test_compare_names_containment_contradictions(self, tmp_path, capsys):
        # a -2e-12 block beside a unit diagonal: the SOS solver's one tolerance
        # scale certifies it, while the grid and certify refute it exactly
        path = tmp_path / "tiny-block.json"
        path.write_text(json.dumps({"n": 3, "d": 2, "entries": [
            {"idx": [1, 1], "val": "1"}, {"idx": [2, 2], "val": "1/1000000000000"},
            {"idx": [3, 3], "val": "1/1000000000000"},
            {"idx": [2, 3], "val": "-2/1000000000000"}]}))
        assert main(["compare", "--levels", "1", "--json", str(path)]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["hierarchies"] == {"coef": ["NotMember"] * 2, "sos": ["Certified"] * 2,
                                      "grid": ["NotMember"] * 2}
        assert doc["certify"] == "NotCopositive"
        assert doc["contradictions"] == [0, 1]
        assert main(["compare", "--levels", "1", str(path)]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[-2:] == [
            f"contradiction at level {r}: sos Certified beside grid NotMember, "
            "certify NotCopositive" for r in (0, 1)]

    def test_compare_without_contradictions_has_no_key(self, tmp_path, capsys):
        # Horn refuted at level 0 and certified at level 1, copositive
        path = tmp_path / "horn.json"
        path.write_text(emit_tensor(HORN))
        assert main(["compare", "--levels", "1", "--json", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["hierarchies"]["sos"] == ["NotMember", "Certified"]
        assert "contradictions" not in doc
        main(["compare", "--levels", "1", str(path)])
        assert "contradiction" not in capsys.readouterr().out

    @pytest.mark.parametrize("command", [["check", "--method", "sos"], ["compare"]],
                             ids=["check", "compare"])
    @pytest.mark.parametrize("max_iters", ["0", "-5"])
    def test_max_iters_below_one_exit_3(self, boundary_file, capsys, command,
                                        max_iters):
        assert main(command + ["--max-iters", max_iters, boundary_file]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "max_iters" in captured.err

    def test_usage_error_exit_3(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check", "--method", "bogus", "x.json"])
        assert exc.value.code == 3

    def test_missing_file_exit_3(self):
        with pytest.raises(SystemExit) as exc:
            main(["screen", "/nonexistent/t.json"])
        assert exc.value.code == 3

    def test_malformed_document_exit_3(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{broken")
        with pytest.raises(SystemExit) as exc:
            main(["screen", str(p)])
        assert exc.value.code == 3
        assert capsys.readouterr() == ("", f"error: cannot load tensor from {p}: "
                                       "malformed JSON: Expecting property name enclosed "
                                       "in double quotes: line 1 column 2 (char 1)\n")

    def test_non_finite_number_exit_3(self, tmp_path, capsys):
        for token, shown in (("NaN", "nan"), ("Infinity", "inf"), ("-Infinity", "-inf")):
            doc = f'{{"n": 2, "d": 2, "entries": [{{"idx": [1, 2], "val": {token}}}]}}'
            assert _load_error(tmp_path, capsys, doc) == \
                LOAD + f"bad entry {{'idx': [1, 2], 'val': {shown}}}\n"


class TestParserReuse:
    SEQUENCE = [["check", "--method", "coef", "--level", "3"],
                ["check", "--method", "coef"],
                ["compare", "--levels", "1", "--max-iters", "5", "--json"],
                ["check", "--method", "sos"]]

    def test_one_parser_per_process(self):
        assert cli._parser() is cli._parser()

    @pytest.mark.parametrize("command", ["certify", "compare"])
    def test_budget_defaults_are_certify_copositivitys(self, command):
        ns = cli.build_parser().parse_args([command, "t.json"])
        defaults = inspect.signature(partition.certify_copositivity).parameters
        assert (ns.max_depth, ns.budget) == \
            (defaults["max_depth"].default, defaults["simplex_budget"].default) == \
            (partition.DEFAULT_MAX_DEPTH, partition.DEFAULT_SIMPLEX_BUDGET)

    def test_no_values_leak_between_calls(self, boundary_file, capsys, monkeypatch):
        runs = []
        for argv in self.SEQUENCE:
            code = main(argv + [boundary_file])
            runs.append((code, capsys.readouterr().out))
            ns = vars(cli._parser().parse_args(argv + [boundary_file]))
            assert ns == vars(cli.build_parser().parse_args(argv + [boundary_file]))
        monkeypatch.setattr(cli, "_parser", cli.build_parser)
        fresh = []
        for argv in self.SEQUENCE:
            code = main(argv + [boundary_file])
            fresh.append((code, capsys.readouterr().out))
        assert runs == fresh
        docs = [json.loads(out) for _, out in runs]
        assert [doc.get("level") for doc in docs] == [3, 0, None, 0]
        assert docs[2]["hierarchies"]["sos"] == ["Unknown", "Unknown"]
        assert docs[3]["verdict"] == "Certified" and docs[3]["stats"]["iterations"] > 5


def _python(code: str, *args: str, cwd: Path,
            timeout: float = 120) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports this checkout's package."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(cli.__file__).resolve().parents[1]),
                    env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, env=env, cwd=cwd, timeout=timeout)


class TestImports:
    # id: (module imported, CLI argv run after it if any, exit code, packages
    # the process must not load).  The exact subcommands load no numpy;
    # scipy.linalg alone adds about 28 MB of resident memory to an sos check.
    CASES = {
        "package": ("copotensor", [], 0, ("numpy",)),
        "cli": ("copotensor.cli", [], 0, ("numpy",)),
        "certify": ("copotensor.cli", ["certify", "hollow.json"], 1, ("numpy",)),
        "screen": ("copotensor.cli", ["screen", "hollow.json"], 1, ("numpy",)),
        "grid": ("copotensor.cli", ["check", "--method", "grid", "--level", "2",
                                    "half.json"], 0, ("numpy",)),
        "oracle-grid": ("copotensor.cli", ["oracle", "--resolution", "4", "hollow.json"],
                        1, ("numpy",)),
        "verify-certify": ("copotensor.cli", ["verify", "refuted.json", "--tensor",
                                              "hollow.json"], 0, ("numpy",)),
        # a matrix is decided, and its Copositive re-checked, by the scan
        "certify-matrix": ("copotensor.cli", ["certify", "horn.json"], 0, ("numpy",)),
        "verify-copositive": ("copotensor.cli", ["verify", "horn-copositive.json",
                                                 "--tensor", "horn.json"], 0, ("numpy",)),
        "verify-grid": ("copotensor.cli", ["verify", "grid.json", "--tensor",
                                           "half.json"], 0, ("numpy",)),
        # the moments are re-checked by evidence on polycone's table, with
        # no solver loaded
        "verify-sos": ("copotensor.cli", ["verify", "sos-refuted.json", "--tensor",
                                          "horn.json"], 0,
                       ("copotensor.soscone", "copotensor.faces")),
        "evidence": ("copotensor.evidence", [], 0, ("numpy",)),
        "sos": ("copotensor.cli", ["check", "--method", "sos", "--level", "1",
                                   "horn.json"], 0, ("scipy", "sympy")),
    }
    CODE = ("import importlib, sys; importlib.import_module(sys.argv[1]); "
            "code = sys.modules['copotensor.cli'].main(sys.argv[2:]) "
            "if sys.argv[2:] else 0; "
            "print(sorted(sys.modules), file=sys.stderr); "
            "sys.exit(code)")

    @pytest.mark.parametrize("module, argv, code, banned", CASES.values(), ids=CASES)
    def test_loads_only_what_it_computes_with(self, tmp_path, capsys, module, argv,
                                              code, banned):
        (tmp_path / "hollow.json").write_text(HOLLOW)
        (tmp_path / "half.json").write_text(emit_tensor(from_matrix([[1, F(-1, 2)],
                                                                     [F(-1, 2), 1]])))
        (tmp_path / "horn.json").write_text(emit_tensor(HORN))
        assert main(["certify", str(tmp_path / "hollow.json"),
                     "--out", str(tmp_path / "refuted.json")]) == 1
        assert main(["check", "--method", "grid", "--level", "2", str(tmp_path / "half.json"),
                     "--out", str(tmp_path / "grid.json")]) == 0
        assert main(["check", "--method", "sos", "--level", "0", str(tmp_path / "horn.json"),
                     "--out", str(tmp_path / "sos-refuted.json")]) == 1
        assert main(["certify", str(tmp_path / "horn.json"),
                     "--out", str(tmp_path / "horn-copositive.json")]) == 0
        capsys.readouterr()
        res = _python(self.CODE, module, *argv, cwd=tmp_path)
        assert res.returncode == code, res.stderr
        loaded = ast.literal_eval(res.stderr.strip().splitlines()[-1])
        # a banned name is a top-level package or a full module name
        assert not set(banned) & ({m.split('.')[0] for m in loaded} | set(loaded))

    @pytest.mark.parametrize("argv", [
        ["check", "--method", "coef"], ["check", "--method", "sos"], ["expand"],
        ["compare"]], ids=["coef", "sos", "expand", "compare"])
    def test_missing_numpy_exits_3(self, tmp_path, argv):
        # every subcommand the README says needs numpy
        (tmp_path / "horn.json").write_text(emit_tensor(HORN))
        res = _python("import sys; sys.modules['numpy'] = None; "
                      "from copotensor import cli; "
                      "sys.exit(cli.main(sys.argv[1:] + ['horn.json']))",
                      *argv, cwd=tmp_path)
        assert (res.returncode, res.stdout, res.stderr) == \
            (3, "", f"error: {argv[0]} needs numpy\n")


class TestVersion:
    def test_package_documents_and_pyproject_agree(self):
        # a certificate's tool_version names the release whose digest rule
        # and routes wrote it
        text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
        declared = re.search(r'^version = "([^"]+)"$', text, re.MULTILINE).group(1)
        assert copotensor.__version__ == docio.TOOL_VERSION == declared


class TestReadme:
    def test_documented_commands_parse(self):
        # every flag README's CLI block shows is one the parser accepts
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = text.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
        lines = [line for line in block.splitlines()
                 if line.startswith("copotensor ")]
        assert len(lines) >= 10
        parser = cli.build_parser()
        for line in lines:
            args = parser.parse_args(shlex.split(line, comments=True)[1:])
            assert callable(args.func), line


class TestSizeLimit:
    @pytest.mark.parametrize("command", [["check", "--method", "sos"],
                                         ["check", "--method", "coef"],
                                         ["check", "--method", "grid"],
                                         ["expand"]],
                             ids=["sos", "coef", "grid", "expand"])
    def test_oversized_level_exit_3(self, tmp_path, capsys, command):
        p = tmp_path / "n10d4.json"
        p.write_text('{"n": 10, "d": 4, "default": "1"}')
        start = time.perf_counter()
        assert main(command + ["--level", "10", str(p)]) == 3
        assert time.perf_counter() - start < 5
        captured = capsys.readouterr()
        assert captured.out == "" and "exceeds the limit" in captured.err


class TestVerify:
    def test_witness_certificate_round_trip(self, hollow_file, tmp_path, capsys):
        cert_path = str(tmp_path / "cert.json")
        assert main(["certify", hollow_file, "--out", cert_path]) == 1
        capsys.readouterr()
        assert main(["verify", cert_path, "--tensor", hollow_file]) == 0
        assert "OK" in capsys.readouterr().out

    def test_order1_certify_refutation_round_trip(self, tmp_path, capsys):
        # a linear form's Bernstein coefficients on the simplex are its
        # entries, so the root refutes at the first negative one, e_2
        tensor_path = tmp_path / "linear.json"
        tensor_path.write_text('{"n": 3, "d": 1, "entries": [{"idx": [1], "val": "2"}, '
                               '{"idx": [2], "val": "-3/2"}, {"idx": [3], "val": "-1"}]}')
        cert_path = str(tmp_path / "cert.json")
        assert main(["certify", str(tensor_path), "--out", cert_path]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert (doc["verdict"], doc["method"]) == ("NotCopositive", "partition")
        assert doc["witness"] == {"point": ["0", "1", "0"], "value": "-3/2"}
        assert doc["stats"] == {"max_depth": 0, "simplices": 1, "unresolved": 0}
        assert main(["verify", cert_path, "--tensor", str(tensor_path)]) == 0
        assert "OK (witness value -3/2)" in capsys.readouterr().out

    def test_certify_refutation_after_bisection_round_trip(self, tmp_path, capsys):
        # (x1 - 2 x2)^2 (x1 + x2) - (x1 + x2)^3 / 100 is negative only near
        # (2/3, 1/3); the search goes straight down to a witness at depth 4,
        # leaving one sibling per level on its stack
        tensor_path = tmp_path / "deep.json"
        tensor_path.write_text('{"n": 2, "d": 3, "default": "-1/100", "entries": ['
                               '{"idx": [1, 1, 1], "val": "99/100"}, '
                               '{"idx": [1, 1, 2], "val": "-101/100"}, '
                               '{"idx": [2, 2, 2], "val": "399/100"}]}')
        cert_path = str(tmp_path / "cert.json")
        assert main(["certify", str(tensor_path), "--out", cert_path]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["depth"] == 4
        assert doc["witness"] == {"point": ["11/16", "5/16"], "value": "-39/6400"}
        assert doc["stats"] == {"max_depth": 4, "simplices": 5, "unresolved": 4}
        assert main(["verify", cert_path, "--tensor", str(tensor_path)]) == 0
        assert "OK (witness value -39/6400)" in capsys.readouterr().out

    def test_digest_mismatch_fails(self, hollow_file, example_file,
                                   tmp_path, capsys):
        cert_path = str(tmp_path / "cert.json")
        main(["certify", hollow_file, "--out", cert_path])
        capsys.readouterr()
        assert main(["verify", cert_path, "--tensor", example_file]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_tampered_witness_fails(self, hollow_file, tmp_path, capsys):
        cert_path = tmp_path / "cert.json"
        main(["certify", hollow_file, "--out", str(cert_path)])
        doc = json.loads(cert_path.read_text())
        doc["witness"]["point"] = ["1", "0"]
        cert_path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["verify", str(cert_path), "--tensor", hollow_file]) == 1

    @pytest.mark.parametrize("witness", [[1, 2], {}, {"point": 5}, "1,0"],
                             ids=["list", "empty", "point-number", "string"])
    def test_malformed_witness_exit_3(self, hollow_file, tmp_path, capsys, witness):
        cert_path = tmp_path / "cert.json"
        main(["certify", hollow_file, "--out", str(cert_path)])
        doc = json.loads(cert_path.read_text())
        doc["witness"] = witness
        cert_path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["verify", str(cert_path), "--tensor", hollow_file]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "witness" in captured.err

    @pytest.mark.parametrize("rows", [[[-1, 0], [0, 1]], [[0, -1], [-1, 1]]])
    def test_screen_refutation_round_trip(self, tmp_path, capsys, rows):
        tensor_path = tmp_path / "t.json"
        tensor_path.write_text(emit_tensor(from_matrix(rows)))
        cert_path = str(tmp_path / "cert.json")
        assert main(["screen", str(tensor_path), "--out", cert_path]) == 1
        capsys.readouterr()
        assert main(["verify", cert_path, "--tensor", str(tensor_path)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_screen_witness_verified_on_its_support(self, tmp_path, capsys):
        # the witness e_1 + e_2 has two nonzero coordinates; verify evaluates
        # 3 canonical tuples, not C(30001, 2)
        tensor_path = tmp_path / "wide.json"
        tensor_path.write_text('{"n": 30000, "d": 2, "entries": '
                               '[{"idx": [1, 2], "val": "-1"}]}')
        cert_path = str(tmp_path / "cert.json")
        assert main(["screen", str(tensor_path), "--out", cert_path]) == 1
        capsys.readouterr()
        start = time.perf_counter()
        assert main(["verify", cert_path, "--tensor", str(tensor_path)]) == 0
        assert time.perf_counter() - start < 1
        assert "OK (witness value -2)" in capsys.readouterr().out

    def test_screen_witness_value_past_the_digit_limit(self, tmp_path, capsys):
        # the witness e_1 + e_2/16384 of this order-20 000 face has a value of
        # about 84 000 digits, past Python's 4300-digit limit on an int's
        # text: the document leaves it out and verify recomputes it
        d = 20_000
        tensor_path = tmp_path / "order20000.json"
        tensor_path.write_text(json.dumps({
            "n": 2, "d": d, "default": "1",
            "entries": [{"idx": [1] * d, "val": "0"},
                        {"idx": [1] * (d - 1) + [2], "val": "-1"}]}))
        cert_path = tmp_path / "cert.json"
        assert main(["screen", str(tensor_path), "--out", str(cert_path)]) == 1
        capsys.readouterr()
        doc = json.loads(cert_path.read_text())
        assert doc["witness"] == {"point": ["1", "1/16384"]}
        start = time.perf_counter()
        assert main(["verify", str(cert_path), "--tensor", str(tensor_path)]) == 0
        assert time.perf_counter() - start < 5
        assert "OK (witness value too long to print)" in capsys.readouterr().out
        # a point where the form is not negative still fails
        doc["witness"]["point"] = ["1", "1/8192"]
        cert_path.write_text(json.dumps(doc))
        assert main(["verify", str(cert_path), "--tensor", str(tensor_path)]) == 1

    def test_witness_coordinates_parsed_once(self, tmp_path, capsys):
        # 99 998 of the 100 000 coordinates are "0": one parse, one sign check
        tensor_path = tmp_path / "wide.json"
        tensor_path.write_text('{"n": 100000, "d": 2, "entries": '
                               '[{"idx": [1, 2], "val": "-1"}]}')
        cert_path = str(tmp_path / "cert.json")
        assert main(["screen", str(tensor_path), "--out", cert_path]) == 1
        capsys.readouterr()
        start = time.perf_counter()
        assert main(["verify", cert_path, "--tensor", str(tensor_path)]) == 0
        assert time.perf_counter() - start < 0.3
        assert "OK (witness value -2)" in capsys.readouterr().out

    @pytest.mark.parametrize("coordinate", [[1], {"x": 1}, True],
                             ids=["array", "object", "true"])
    def test_non_scalar_coordinate_exit_3(self, hollow_file, tmp_path, capsys,
                                          coordinate):
        # true must not be taken for the 1 before it
        cert_path = tmp_path / "cert.json"
        main(["certify", hollow_file, "--out", str(cert_path)])
        doc = json.loads(cert_path.read_text())
        doc["witness"] = {"point": [1, coordinate]}
        cert_path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["verify", str(cert_path), "--tensor", hollow_file]) == 3
        assert capsys.readouterr().out == ""

    def test_forged_copositive_fails(self, tmp_path, capsys):
        # the scan re-run on the matrix refutes the claim
        A = from_matrix([[1, -2], [-2, 1]])          # not copositive
        tensor_path = tmp_path / "t.json"
        tensor_path.write_text(emit_tensor(A))
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(json.dumps(
            docio.certificate_document("Copositive", "partition", tensor=A)))
        assert main(["verify", str(cert_path), "--tensor", str(tensor_path)]) == 1
        assert capsys.readouterr().out == \
            "verify: FAIL (principal submatrix [1, 2] has a non-positive inverse, " \
            "witness value -1/2)\n"

    @pytest.mark.parametrize("A, detail", [
        (SymTensor(2, 3, {(1, 1, 2): -1, (2, 2, 2): F(-1, 2)}, 1),
         "diagonal entry at index 2 is negative, witness value -1/2"),
        # one row past the scan's cap: tridiagonal 1, -1/2 but for a_{7,7}
        (from_matrix([[F(-1, 3) if i == j == 6 else 1 if i == j
                       else F(-1, 2) if abs(i - j) == 1 else 0 for j in range(13)]
                      for i in range(13)]),
         "diagonal entry at index 7 is negative, witness value -1/3"),
    ], ids=["order-3", "13x13"])
    def test_forged_copositive_on_a_negative_diagonal_fails(self, tmp_path, capsys,
                                                           A, detail):
        # certify's refutation with its witness dropped and its verdict
        # forged: verify re-runs the root route, whatever the order or size
        tensor_path, cert_path = tmp_path / "t.json", tmp_path / "cert.json"
        tensor_path.write_text(emit_tensor(A))
        assert main(["certify", str(tensor_path), "--out", str(cert_path)]) == 1
        doc = json.loads(cert_path.read_text())
        doc["verdict"] = "Copositive"
        del doc["witness"]
        cert_path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["verify", str(cert_path), "--tensor", str(tensor_path)]) == 1
        assert capsys.readouterr().out == f"verify: FAIL ({detail})\n"

    def test_matrix_copositive_round_trip(self, horn_file, tmp_path, capsys):
        cert_path = str(tmp_path / "cert.json")
        assert main(["certify", horn_file, "--out", cert_path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert (doc["verdict"], doc["depth"]) == ("Copositive", 0)
        assert doc["stats"] == {"max_depth": 0, "simplices": 1, "unresolved": 0,
                                "subsets": 16}
        assert main(["verify", cert_path, "--tensor", horn_file]) == 0
        assert capsys.readouterr().out == "verify: OK (16 principal submatrices " \
            "inverted, none with a non-positive inverse)\n"

    def test_root_copositive_verifies_for_any_order(self, example_file, tmp_path, capsys):
        # the flagship order-4 tensor has no negative entry
        cert_path = str(tmp_path / "cert.json")
        assert main(["certify", example_file, "--out", cert_path]) == 0
        capsys.readouterr()
        assert main(["verify", cert_path, "--tensor", example_file]) == 0
        assert capsys.readouterr().out == "verify: OK (every entry non-negative)\n"

    def test_bisected_copositive_is_unchecked(self, tmp_path, capsys):
        # x2 (3 x1^2 - 3 x1 x2 + x2^2) needs bisection, which leaves no
        # evidence that verify can re-check
        tensor_path = tmp_path / "t.json"
        tensor_path.write_text(emit_tensor(SymTensor(2, 3, {(1, 1, 2): 1, (1, 2, 2): -1,
                                                            (2, 2, 2): 1})))
        cert_path = str(tmp_path / "cert.json")
        assert main(["certify", str(tensor_path), "--out", cert_path]) == 0
        assert json.loads(capsys.readouterr().out)["stats"]["simplices"] == 3
        assert main(["verify", cert_path, "--tensor", str(tensor_path)]) == 2
        assert "UNCHECKED" in capsys.readouterr().out

    def test_digest_mismatch_names_another_tool_version(self, hollow_file, example_file,
                                                        tmp_path, capsys):
        cert_path = tmp_path / "cert.json"
        main(["certify", hollow_file, "--out", str(cert_path)])
        capsys.readouterr()
        assert main(["verify", str(cert_path), "--tensor", example_file]) == 1
        assert capsys.readouterr().out == "verify: FAIL (input digest mismatch)\n"
        doc = json.loads(cert_path.read_text())
        doc["tool_version"] = "0.1.0"
        cert_path.write_text(json.dumps(doc))
        assert main(["verify", str(cert_path), "--tensor", example_file]) == 1
        assert capsys.readouterr().out == (
            "verify: FAIL (input digest mismatch; the certificate was written by "
            f"copotensor 0.1.0, this is {docio.TOOL_VERSION})\n")

    def test_forged_coef_member_fails(self, boundary_file, tmp_path, capsys):
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(json.dumps(docio.certificate_document(
            "Member", "coef", level=0, tensor=parse_tensor(BOUNDARY))))
        assert main(["verify", str(cert_path), "--tensor", boundary_file]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_sos_fast_path_round_trip(self, example_file, tmp_path, capsys):
        cert_path = str(tmp_path / "cert.json")
        assert main(["check", "--method", "sos", "--level", "1", example_file,
                     "--out", cert_path]) == 0
        assert json.loads(capsys.readouterr().out)["stats"]["fast_path"] is True
        assert main(["verify", cert_path, "--tensor", example_file]) == 0
        assert capsys.readouterr().out == \
            "verify: OK (level-1 coefficients recomputed)\n"

    def test_forged_sos_fast_path_fails(self, boundary_file, tmp_path, capsys):
        # BOUNDARY has the coefficient -2 at level 0: not in C^(0)
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(json.dumps(docio.certificate_document(
            "Certified", "sos", level=0, tensor=parse_tensor(BOUNDARY),
            stats={"fast_path": True})))
        assert main(["verify", str(cert_path), "--tensor", boundary_file]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_solved_sos_certificate_is_unchecked(self, boundary_file, tmp_path,
                                                 capsys):
        cert_path = str(tmp_path / "cert.json")
        assert main(["check", "--method", "sos", "--level", "0", boundary_file,
                     "--out", cert_path]) == 0
        assert json.loads(capsys.readouterr().out)["stats"]["fast_path"] is False
        assert main(["verify", cert_path, "--tensor", boundary_file]) == 2
        assert "UNCHECKED" in capsys.readouterr().out

    @pytest.mark.parametrize("method", ["coef", "grid"])
    def test_member_round_trip(self, example_file, tmp_path, capsys, method):
        cert_path = str(tmp_path / "cert.json")
        assert main(["check", "--method", method, "--level", "2", example_file,
                     "--out", cert_path]) == 0
        capsys.readouterr()
        assert main(["verify", cert_path, "--tensor", example_file]) == 0
        assert "OK" in capsys.readouterr().out

    def test_coef_not_member_round_trip_and_tamper(self, boundary_file, tmp_path,
                                                   capsys):
        cert_path = tmp_path / "cert.json"
        assert main(["check", "--method", "coef", "--level", "1", boundary_file,
                     "--out", str(cert_path)]) == 1
        capsys.readouterr()
        assert main(["verify", str(cert_path), "--tensor", boundary_file]) == 0
        doc = json.loads(cert_path.read_text())
        doc["stats"]["worst_value"] = "-2"
        cert_path.write_text(json.dumps(doc))
        assert main(["verify", str(cert_path), "--tensor", boundary_file]) == 1

    def test_coef_member_with_stats_fails(self, example_file, tmp_path, capsys):
        # verify rebuilds the document, and a Member carries no worst coefficient
        cert_path = tmp_path / "cert.json"
        assert main(["check", "--method", "coef", "--level", "2", example_file,
                     "--out", str(cert_path)]) == 0
        doc = json.loads(cert_path.read_text())
        doc["stats"] = {"worst_theta": [6, 0, 0], "worst_value": "1"}
        cert_path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["verify", str(cert_path), "--tensor", example_file]) == 1
        assert capsys.readouterr().out == \
            "verify: FAIL (level-2 coefficients recomputed)\n"

    def test_grid_refutation_without_witness_fails(self, hollow_file, tmp_path, capsys):
        # with no witness to evaluate, the rebuilt refutation's witness differs
        cert_path = tmp_path / "cert.json"
        assert main(["check", "--method", "grid", "--level", "0", hollow_file,
                     "--out", str(cert_path)]) == 1
        doc = json.loads(cert_path.read_text())
        del doc["witness"]
        cert_path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["verify", str(cert_path), "--tensor", hollow_file]) == 1
        assert capsys.readouterr().out == "verify: FAIL (level-0 grid re-evaluated)\n"

    def test_grid_member_at_a_refuting_level_fails(self, tmp_path, capsys):
        tensor_path = tmp_path / "t.json"
        tensor_path.write_text(emit_tensor(OFF_GRID))
        cert_path = tmp_path / "cert.json"
        assert main(["check", "--method", "grid", "--level", "2", str(tensor_path),
                     "--out", str(cert_path)]) == 0
        assert main(["check", "--method", "grid", "--level", "3", str(tensor_path)]) == 1
        assert main(["verify", str(cert_path), "--tensor", str(tensor_path)]) == 0
        doc = json.loads(cert_path.read_text())
        doc["level"] = 3
        cert_path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["verify", str(cert_path), "--tensor", str(tensor_path)]) == 1
        assert capsys.readouterr().out == "verify: FAIL (level-3 grid re-evaluated)\n"

    def test_forged_off_level_grid_witness_fails(self, tmp_path, capsys):
        # (3/5, 2/5) refutes OFF_GRID, but it is a level-3 grid point, and
        # the level-0 grid holds the form: the rebuilt document reads Member
        tensor_path = tmp_path / "t.json"
        tensor_path.write_text(emit_tensor(OFF_GRID))
        cert_path = tmp_path / "forged.json"
        cert_path.write_text(json.dumps(docio.certificate_document(
            "NotMember", "grid", level=0, tensor=OFF_GRID, witness=(F(3, 5), F(2, 5)),
            witness_value=F(-1, 100))))
        assert main(["verify", str(cert_path), "--tensor", str(tensor_path)]) == 1
        assert capsys.readouterr().out == "verify: FAIL (level-0 grid re-evaluated)\n"

    def test_sos_refutation_verifies_against_either_default(self, tmp_path, capsys):
        # the digest takes the most common value as the default, so Horn with
        # default 1 and with default 0 is one tensor
        default_1, default_0 = tmp_path / "horn-1.json", tmp_path / "horn-0.json"
        default_1.write_text(HORN_DEFAULT_1)
        default_0.write_text(emit_tensor(HORN))
        cert_path = str(tmp_path / "cert.json")
        assert main(["check", "--method", "sos", "--level", "0", str(default_1),
                     "--out", cert_path]) == 1
        capsys.readouterr()
        for tensor_path in (default_1, default_0):
            assert main(["verify", cert_path, "--tensor", str(tensor_path)]) == 0
            assert capsys.readouterr().out == \
                "verify: OK (level-0 moment certificate re-checked)\n"


    @pytest.fixture
    def horn_refutation(self, tmp_path, capsys):
        # Horn's level 0 is refuted at the first check of the solve
        tensor_path = tmp_path / "horn.json"
        tensor_path.write_text(emit_tensor(HORN))
        cert_path = tmp_path / "cert.json"
        assert main(["check", "--method", "sos", "--level", "0", str(tensor_path),
                     "--out", str(cert_path)]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == "NotMember" and doc["stats"]["iterations"] == 5
        return tensor_path, cert_path, doc

    def test_sos_refutation_round_trip(self, horn_refutation, capsys):
        tensor_path, cert_path, doc = horn_refutation
        assert len(doc["moments"]) == 15   # the exponents 2 theta, |theta| = 2
        assert main(["verify", str(cert_path), "--tensor", str(tensor_path)]) == 0
        assert "OK (level-0 moment certificate re-checked)" in capsys.readouterr().out

    @pytest.mark.parametrize("tamper", [
        lambda doc: doc["moments"][0].update(value="-" + doc["moments"][0]["value"]),
        lambda doc: doc["moments"][3].update(value="0"),
        lambda doc: doc["moments"].pop(),
        lambda doc: doc.update(input_digest=tensor_digest(from_matrix([[1, 0], [0, 1]]))),
    ], ids=["flipped-sign", "changed-value", "dropped-exponent", "other-digest"])
    def test_sos_refutation_tampered_fails(self, horn_refutation, capsys, tamper):
        tensor_path, cert_path, doc = horn_refutation
        tamper(doc)
        cert_path.write_text(json.dumps(doc))
        assert main(["verify", str(cert_path), "--tensor", str(tensor_path)]) == 1
        assert "FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize("scale", [0, Fraction(1, 1000), -1])
    def test_sos_refutation_with_tampered_point_weight_fails(self, horn_refutation,
                                                            capsys, scale):
        # every block of Horn's level 0 has face dimension 0, so its moments
        # are L + t D: L minus the last affine shift, D the ten grid zeros'
        # point moments; with t scaled the certificate no longer checks
        tensor_path, cert_path, doc = horn_refutation
        problem = soscone.build_gram_problem(HORN, 0)
        zeros = gridcone.grid_zeros(HORN)
        L = dict(zip(problem.constraints, solve_offering(problem)[1]))
        D = dict(zip(problem.constraints, faces.point_moments(list(problem.constraints), zeros)))
        moments = docio.parse_moments(doc)
        g = next(g for g in moments if D[g])
        t = (moments[g] - L[g]) / D[g]
        assert all(m == L[g] + t * D[g] for g, m in moments.items())
        doc["moments"] = [{"exponent": list(g), "value": emit_scalar(L[g] + scale * t * D[g])}
                          for g in moments]
        cert_path.write_text(json.dumps(doc))
        assert main(["verify", str(cert_path), "--tensor", str(tensor_path)]) == 1
        assert "FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize("moments", [
        None, {"exponent": [4, 0, 0, 0, 0], "value": "1"},
        [{"exponent": "40000", "value": "1"}], [{"exponent": [4, 0, 0, 0, 0]}],
        [{"exponent": [4, 0, 0, 0, 0], "value": "1"}] * 2,
    ], ids=["missing", "object", "string-exponent", "no-value", "repeated"])
    def test_sos_malformed_moments_exit_3(self, horn_refutation, capsys, moments):
        tensor_path, cert_path, doc = horn_refutation
        doc["moments"] = moments
        cert_path.write_text(json.dumps(doc))
        assert main(["verify", str(cert_path), "--tensor", str(tensor_path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "moment" in captured.err


HALF = from_matrix([[1, F(-1, 2)], [F(-1, 2), 1]])
# tamper kind: (tensor document, the subcommand that writes the
# certificate, the fields besides the verdict that the certificate carries
# and the harness tampers with)
TAMPER_KINDS = {
    "screen": (emit_tensor(SymTensor(2, 3, {(1, 1, 1): 0, (1, 1, 2): -1}, 1)),
               ["screen"], ("witness", "stats")),
    "certify": (emit_tensor(from_matrix([[1, -2, 1], [-2, 1, 0], [1, 0, 2]])),
                ["certify"], ("witness", "stats")),
    "certify-copositive": (emit_tensor(HORN), ["certify"], ("stats",)),
    "coef-member": (emit_tensor(HALF), ["check", "--method", "coef", "--level", "1"],
                    ("level",)),
    "coef-not-member": (emit_tensor(HALF), ["check", "--method", "coef", "--level", "0"],
                        ("level", "stats")),
    "grid-member": (emit_tensor(OFF_GRID), ["check", "--method", "grid", "--level", "2"],
                    ("level",)),
    "grid-not-member": (emit_tensor(OFF_GRID), ["check", "--method", "grid", "--level", "3"],
                        ("level", "witness")),
    "sos-fast-path": (emit_tensor(HALF), ["check", "--method", "sos", "--level", "1"],
                      ("level", "stats")),
    "sos-not-member": (HORN_DEFAULT_1, ["check", "--method", "sos", "--level", "0"],
                       ("level", "moments", "stats")),
}
SMALL_FRACTIONS = st.builds(F, st.integers(-4, 6), st.integers(1, 6))


@functools.cache
def _produced(kind: str) -> tuple[str, dict]:
    """A tamper kind's tensor document and the certificate written for it."""
    text, argv, _ = TAMPER_KINDS[kind]
    with tempfile.TemporaryDirectory() as tmp:
        tensor_path, cert_path = Path(tmp, "t.json"), Path(tmp, "cert.json")
        tensor_path.write_text(text)
        main(argv + [str(tensor_path), "--out", str(cert_path)])
        return text, json.loads(cert_path.read_text())


def _tamper_argument(doc: dict, what: str):
    """What a certificate field, a tensor entry or the tensor's encoding
    becomes."""
    if what == "verdict":
        return st.sampled_from(sorted(set(cli.EXIT_CODE) - {doc["verdict"]}))
    if what == "level":
        return st.integers(0, 4).filter(lambda r: r != doc["level"])
    if what == "witness":
        # a coordinate, with the witness's value recomputed or not
        return st.tuples(st.integers(0, len(doc["witness"]["point"]) - 1), SMALL_FRACTIONS,
                         st.booleans())
    if what == "moments":
        # scale one, shift all to L(P) = 0, or add an odd exponent
        return st.tuples(st.sampled_from(["scale", "zero", "extra"]),
                         st.integers(0, len(doc["moments"]) - 1),
                         SMALL_FRACTIONS.filter(lambda x: x != 1))
    if what == "stats":
        return st.sampled_from(sorted(doc["stats"]))
    if what == "tensor":
        # an entry, with the certificate's digest made the new tensor's or not
        return st.tuples(st.integers(0, 10 ** 6), SMALL_FRACTIONS, st.booleans())
    return st.tuples(SMALL_FRACTIONS, st.integers(0, 2 ** 32))   # default, seed


def _literal(v: Fraction, rng: random.Random):
    """v written as a document may write it: canonical text, an unreduced
    fraction, padded text, a decimal or a JSON number where exact."""
    forms = [str(v), f"{3 * v.numerator}/{3 * v.denominator}", f" {v} "]
    if v.denominator == 1:
        forms.append(f"{v.numerator}.0")
    if float(v) == v:
        forms.append(float(v))
    return rng.choice(forms)


def _reencoded(A: SymTensor, default: Fraction, seed: int) -> str:
    """A as another document: ``default`` as its default, entries in a
    shuffled order, some that equal the default stored anyway, every value
    in a literal that ``seed`` picks."""
    rng = random.Random(seed)
    rows = [(list(key), v) for key, v in A.items() if v != default or rng.random() < 0.3]
    rng.shuffle(rows)
    return json.dumps({"n": A.n, "d": A.d, "default": _literal(default, rng),
                       "entries": [{"idx": key, "val": _literal(v, rng)} for key, v in rows]})


def _tamper_moments(doc: dict, A: SymTensor, how: str, i: int, factor: Fraction) -> None:
    rows = doc["moments"]
    if how == "extra":
        rows.append({"exponent": [rows[i]["exponent"][0] + 1, *rows[i]["exponent"][1:]],
                     "value": emit_scalar(factor)})
    elif how == "zero":
        # L + t U, U the moments of the uniform measure on [0, 1]^n, positive
        # definite, and t such that L(P) + t U(P) = 0, by literal expansion
        P = expand_bruteforce(A, doc["level"])
        L = {tuple(row["exponent"]): F(row["value"]) for row in rows}
        U = {g: F(1, math.prod(e + 1 for e in g)) for g in L}
        t = -sum(L[g] * P.get(g, 0) for g in L) / sum(U[g] * P.get(g, 0) for g in L)
        for row in rows:
            g = tuple(row["exponent"])
            row["value"] = emit_scalar(L[g] + t * U[g])
    else:
        rows[i]["value"] = emit_scalar(F(rows[i]["value"]) * factor)


def _changed(value):
    """Another value of a stats entry's type."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value + 1
    if isinstance(value, list):
        return value[::-1] if value[::-1] != value else [v + 1 for v in value]
    try:
        return emit_scalar(F(value) + 1)
    except ValueError:
        return value + "."


def _claim_holds(doc: dict, A: SymTensor) -> bool:
    """Whether a certificate's claim about A holds, decided apart from
    verify: a point by the literal n^d sum, coefficients by literal
    expansion, a grid level by the oracle's grids, moments by
    reference_check_refutation and a Copositive matrix by
    reference_principal_refutation.  A claim that verify has no check for is
    taken not to hold."""
    method, verdict, r = doc.get("method"), doc["verdict"], doc.get("level")
    stats, witness = doc.get("stats"), doc.get("witness")

    def refuting(point):
        value = multi_product(A, [point] * A.d)
        return min(point) >= 0 and value < 0 and F(witness.get("value", value)) == value

    if (method, verdict) in (("screen", "NotCopositive"), ("partition", "NotCopositive")):
        return witness is not None and refuting([F(c) for c in witness["point"]])
    if (method, verdict) == ("partition", "Copositive"):
        return all(v >= 0 for _, v in A.items()) or \
            (A.d == 2 and reference_principal_refutation(A) is None)
    if method == "grid" and verdict == "Member":
        return witness is stats is None and \
            all(simplex_grid_min(A, m).min_value >= 0 for m in range(2, r + 3))
    if method == "grid" and verdict == "NotMember":
        point = [F(c) for c in witness["point"]] if stats is None and witness else None
        return point is not None and sum(point) == 1 and refuting(point) \
            and math.lcm(*(c.denominator for c in point)) <= r + 2
    if method == "sos" and verdict == "NotMember":
        moments = {tuple(row["exponent"]): F(row["value"]) for row in doc.get("moments", [])}
        return bool(moments) and \
            reference_check_refutation(soscone.build_gram_problem(A, r), moments)
    fast_path = method == "sos" and verdict == "Certified" and stats["fast_path"] is True
    if not (fast_path or (method == "coef" and verdict in ("Member", "NotMember"))):
        return False
    coefficients = {tuple(e // 2 for e in g): c for g, c in expand_bruteforce(A, r).items()}
    worst = min(coefficients.values(), default=0)
    if fast_path or verdict == "Member":
        return worst >= 0 and (fast_path or stats is None) and witness is None
    theta = min(t for t, c in coefficients.items() if c == worst)
    return worst < 0 and witness is None and \
        stats == {"worst_theta": list(theta), "worst_value": str(worst)}


class TestTamper:
    """verify on every kind of certificate that screen, certify and check
    write, tampered with or read against another encoding of its tensor."""

    @pytest.mark.parametrize("kind, what", [
        (kind, what) for kind, (_, _, fields) in TAMPER_KINDS.items()
        for what in ("verdict", "tensor", "encode", *fields)])
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_tampered_claims_fail_and_encodings_verify(self, tmp_path, kind, what, data):
        # a mutated claim exits 1 or 2 unless an independent check says it
        # still holds; an sos NotMember without moments, or a NotCopositive
        # without a witness, is malformed and exits 3.  The tensor
        # re-encoded exits 0.
        text, produced = _produced(kind)
        A = parse_tensor(text)
        doc = json.loads(json.dumps(produced))
        arg = data.draw(_tamper_argument(doc, what), label=what)
        holds = None
        if what == "encode":
            text = _reencoded(A, *arg)
        elif what == "tensor":
            i, value, restamp = arg
            keys = [key for key, _ in A.items()]
            changed = SymTensor(A.n, A.d, {**dict(A.items()), keys[i % len(keys)]: value})
            text = emit_tensor(changed)
            if restamp:
                doc["input_digest"] = tensor_digest(changed)
            holds = (restamp or dict(changed.items()) == dict(A.items())) and \
                _claim_holds(doc, changed)
        elif what == "witness":
            i, value, revalue = arg
            doc["witness"]["point"][i] = emit_scalar(value)
            if revalue:
                point = [F(c) for c in doc["witness"]["point"]]
                doc["witness"]["value"] = emit_scalar(multi_product(A, [point] * A.d))
        elif what == "moments":
            _tamper_moments(doc, A, *arg)
        elif what == "stats":
            doc["stats"][arg] = _changed(doc["stats"][arg])
        else:
            doc[what] = arg
        cert_path, tensor_path = tmp_path / "cert.json", tmp_path / "t.json"
        cert_path.write_text(json.dumps(doc))
        tensor_path.write_text(text)
        code = main(["verify", str(cert_path), "--tensor", str(tensor_path)])
        if what == "encode":
            assert code == 0
            return
        if holds is None:
            holds = _claim_holds(doc, A)
        if not holds:
            malformed = ((doc["method"], doc["verdict"]) == ("sos", "NotMember")
                         and "moments" not in doc) or \
                (doc["verdict"] == "NotCopositive" and "witness" not in doc
                 and doc["method"] in ("screen", "partition"))
            assert code in ((3,) if malformed else (1, 2))


class TestCompareRows:
    @pytest.mark.parametrize("fixture", ["example_file", "hollow_file", "boundary_file",
                                         "horn_file"])
    def test_coef_row_is_the_sos_fast_path(self, request, capsys, monkeypatch, fixture):
        # the coef row is read off the SOS walk's fast-path flags, with no
        # member_C_r call, and equals member_C_r's verdicts level by level
        path = request.getfixturevalue(fixture)
        A = parse_tensor(Path(path).read_text())
        want = ["Member" if member_C_r(A, r).member else "NotMember" for r in range(3)]

        def refuse(*args):
            raise AssertionError("compare called member_C_r")

        monkeypatch.setattr(polycone, "member_C_r", refuse)
        main(["compare", "--levels", "2", "--max-iters", "200", "--budget", "50",
              "--json", path])
        assert json.loads(capsys.readouterr().out)["hierarchies"]["coef"] == want

    def test_nested_rows_match_per_level_calls(self, tmp_path, capsys):
        # compare reads the coef row off the SOS walk's fast path and the grid
        # row off one top-level call; per-level calls must give the same rows
        rng = random.Random(20240)
        p = tmp_path / "t.json"
        late_refuted = late_member = 0
        for _ in range(300):
            n, d = rng.choice(((2, 4), (3, 2), (3, 3), (3, 3), (3, 3)))
            A = rand_diag_dominant_tensor(rng, n, d, off_scale=rng.randint(16, 20))
            p.write_text(emit_tensor(A))
            main(["compare", "--levels", "3", "--max-iters", "1", "--budget", "1",
                  "--json", str(p)])
            rows = json.loads(capsys.readouterr().out)["hierarchies"]
            coef = [member_C_r(A, r).member for r in range(4)]
            grid = [member_O_r(A, r).member for r in range(4)]
            assert rows["coef"] == ["Member" if m else "NotMember" for m in coef]
            assert rows["grid"] == ["Member" if m else "NotMember" for m in grid]
            late_member += not coef[0] and coef[3]
            late_refuted += grid[0] and not grid[3]
        assert late_member >= 30 and late_refuted >= 20
