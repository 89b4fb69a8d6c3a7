"""The shape caches: what depends only on a level's shape or on a canonical
key is built once and kept, read-only and bounded, and a call reads the
same documents from it as from a fresh build."""

import importlib
import operator
import pkgutil
import random
from fractions import Fraction

import numpy as np
import pytest

import copotensor
from copotensor import (cli, combinatorics, docio, evidence, gridcone, partition,
                        polycone, soscone, tensor)
from copotensor.cli import main
from copotensor.combinatorics import KEY_CACHE_SIZE, SHAPE_CACHE_SIZE
from copotensor.docio import emit_tensor
from copotensor.soscone import GramProblem, build_gram_problem
from copotensor.tensor import SymTensor, from_matrix
from conftest import HORN, example31_tensor, rand_diag_dominant_tensor

SHAPE_CACHES = (combinatorics.enumerate_exponents, polycone._theta_table,
                polycone._falling_column, polycone._multinomials,
                evidence.parity_blocks, evidence.even_exponents,
                soscone._gram_constraints, partition._casteljau_tables)
KEY_CACHES = (tensor._key_runs, docio._key_text)

# a form negative only near (2/3, 1/3), refuted by certify after bisection
DEEP = SymTensor(2, 3, {(1, 1, 1): Fraction(99, 100), (1, 1, 2): Fraction(-101, 100),
                        (2, 2, 2): Fraction(399, 100)}, Fraction(-1, 100))
DOCUMENTS = {"horn": HORN, "example31": example31_tensor(), "deep": DEEP,
             "dd-3-4": rand_diag_dominant_tensor(random.Random(7), 3, 4),
             "psd-2x2": from_matrix([[1, Fraction(-1, 2)], [-0.5, 1]])}
CALLS = [["check", "--method", method, "--level", str(r)]
         for method, levels in (("coef", (0, 1, 2)), ("sos", (0, 1)), ("grid", (0, 2)))
         for r in levels] + [["certify"]]


def clear_caches():
    for cached in SHAPE_CACHES + KEY_CACHES:
        cached.cache_clear()


def cached_functions():
    """Every lru-cached function defined in the package."""
    found = set()
    for info in pkgutil.iter_modules(copotensor.__path__):
        module = importlib.import_module(f"copotensor.{info.name}")
        found.update(f for f in vars(module).values()
                     if hasattr(f, "cache_info") and f.__module__ == module.__name__)
    return found


def outputs(tmp_path, capsys, cold):
    """Per document and call: its exit code and stdout, then those of
    verify on the document it wrote; every cache cleared before each call
    when ``cold``."""
    seen = []
    for name, A in DOCUMENTS.items():
        path = tmp_path / f"{name}.json"
        path.write_text(emit_tensor(A))
        for k, argv in enumerate(CALLS):
            written = tmp_path / f"{name}-{k}-out.json"
            for call in (argv + [str(path), "--out", str(written)],
                         ["verify", str(written), "--tensor", str(path)]):
                if cold:
                    clear_caches()
                code = main(call)
                seen.append((name, call[:5], code, capsys.readouterr().out))
    return seen


def test_cold_and_warm_calls_write_the_same_documents(tmp_path, capsys):
    first = outputs(tmp_path, capsys, cold=False)
    warm = outputs(tmp_path, capsys, cold=False)
    cold = outputs(tmp_path, capsys, cold=True)
    assert first == warm == cold


def test_every_cache_is_listed_and_bounded():
    # cli._parser takes no argument, so it holds one parser at most
    found = cached_functions() - {cli._parser}
    assert found == set(SHAPE_CACHES + KEY_CACHES)
    for cached in SHAPE_CACHES:
        if cached is not partition._casteljau_tables:
            assert cached.cache_info().maxsize == SHAPE_CACHE_SIZE
    assert partition._casteljau_tables.cache_info().maxsize == 32
    for cached in KEY_CACHES:
        assert cached.cache_info().maxsize == KEY_CACHE_SIZE
    assert KEY_CACHE_SIZE >= combinatorics.MAX_ENUMERATION


def test_cached_structures_are_read_only():
    table = polycone._theta_table(3, 4)
    assert table.shape == (15, 3) and not table.flags.writeable
    with pytest.raises(ValueError):
        table[0, 0] = 7
    for dtype in (np.int64, object):
        column = polycone._falling_column(4, 2, dtype)
        assert column.dtype == dtype and not column.flags.writeable
        with pytest.raises(ValueError):
            column[1] += 1
        # fall(t, 2) = t (t - 1)
        assert column.tolist() == [0, 0, 2, 6, 12]
    assert type(polycone._multinomials(3, 4)) is tuple
    problem = build_gram_problem(HORN, 1)
    assert type(problem.blocks) is tuple
    assert type(evidence.even_exponents(problem.basis)) is tuple
    constraints = problem.constraints
    assert all(type(pairs) is tuple for pairs in constraints.values())
    with pytest.raises(TypeError):
        constraints[next(iter(constraints))] = ()
    # the values are formed per call, in an array of their own
    brackets = polycone._brackets(HORN, 1)[1]
    assert brackets.flags.writeable
    brackets[:] = 0
    assert polycone._brackets(HORN, 1)[1].any()


def test_hand_built_problem_gets_its_own_constraints():
    # the level-1 basis of a 2 x 2 matrix with its parity blocks, and the
    # same basis as one block with a target per product of two monomials
    built = build_gram_problem(from_matrix([[1, -1], [-1, 1]]), 1)
    assert len(built.blocks) == 2
    level_constraints = dict(built.constraints)
    m = len(built.basis)
    products = {}
    for i in range(m):
        for j in range(i, m):
            g = tuple(map(operator.add, built.basis[i], built.basis[j]))
            products.setdefault(g, []).append((0, i, j))
    bare = GramProblem(None, 1, built.basis, [], 1, dict.fromkeys(products, 0.0),
                       (tuple(range(m)),))
    assert bare.constraints == {g: tuple(pairs) for g, pairs in products.items()}
    assert list(bare.constraints) == list(products)
    assert bare.constraints != level_constraints
    assert build_gram_problem(from_matrix([[1, -1], [-1, 1]]), 1).constraints \
        == level_constraints


def test_a_sweep_past_the_bound_keeps_each_cache_at_it():
    for s in range(SHAPE_CACHE_SIZE + 8):
        basis = ((s,),)
        combinatorics.enumerate_exponents(1, s)
        polycone._theta_table(1, s)
        polycone._falling_column(s, 1, np.int64)
        polycone._multinomials(1, s)
        evidence.parity_blocks(basis)
        evidence.even_exponents(basis)
        soscone._gram_constraints(basis, ((0,),), ((2 * s,),))
    for d in range(1, 41):
        partition._casteljau_tables(1, d)
    for i in range(1, KEY_CACHE_SIZE + 9):
        tensor._key_runs((i,))
        docio._key_text((i,))
    for cached in SHAPE_CACHES + KEY_CACHES:
        info = cached.cache_info()
        assert info.currsize == info.maxsize, cached


def test_a_repeated_level_sweep_only_hits():
    # one sweep over levels 0..R of each hierarchy builds its shapes; the
    # next finds every one of them
    A = rand_diag_dominant_tensor(random.Random(3), 4, 3)

    def sweep():
        for r in range(6):
            polycone.member_C_r(A, r)
            gridcone.member_O_r(A, r)
            if r < 3:
                build_gram_problem(A, r).constraints

    sweep()
    before = {cached: cached.cache_info() for cached in SHAPE_CACHES + KEY_CACHES}
    sweep()
    for cached, info in before.items():
        assert cached.cache_info().misses == info.misses, cached
        assert cached.cache_info().currsize == info.currsize, cached


def test_equal_keys_share_one_entry_whatever_came_first():
    # (True, 2) == (1, 2), so both find one cache entry: it is built from
    # the indices read as ints, and a bool key first leaves the int key's
    # text, runs and digest as a fresh process has them
    with_bool = SymTensor(2, 2, {(True, 2): Fraction(-1)}, 1)
    with_int = SymTensor(2, 2, {(1, 2): Fraction(-1)}, 1)
    clear_caches()
    fresh = docio.tensor_digest(with_int), tensor.scaled_terms(with_int)
    clear_caches()
    assert (docio.tensor_digest(with_bool), tensor.scaled_terms(with_bool)) == fresh
    assert (docio.tensor_digest(with_int), tensor.scaled_terms(with_int)) == fresh
    assert docio._key_text((True, 2)) == "1,2"
    assert all(type(i) is int for i, _ in tensor._key_runs((True, 2))[0])
