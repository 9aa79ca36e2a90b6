"""Kernel equivalence at the solver level.

Swapping the bitmap kernel under :class:`VisibilityProblem` is a pure
representation change: every vertical-engine solver must return exactly
the selection (mask, objective, stats) it returns on the pure-Python
reference kernel, on any instance.
"""

import random

import pytest

from repro.booldata import BooleanTable, Schema, kernels
from repro.common.bits import random_mask
from repro.core import VisibilityProblem, make_solver
from repro.core.registry import ENGINE_AWARE_ALGORITHMS

from tests.core.test_engine_equivalence import SEEDS, random_instance

FAST = [k for k in kernels.available_kernels() if k != "python"]


def sparse_instance(seed: int = 3):
    """A 4,500-row log over 64 attributes, 1-4 attributes per query.

    After two greedy picks the rows holding both fill only a few of the
    log's 71 64-row words, so later steps count within a sparse
    selector (the numpy kernel's gather path).
    """
    rng = random.Random(seed)
    rows = [random_mask(64, rng.randint(1, 4), rng) for _ in range(4500)]
    return BooleanTable(Schema.anonymous(64), rows), random_mask(64, 40, rng), 8


def occupied_words(rows: int, num_rows: int) -> int:
    """How many 64-row words of a row bitset are nonzero."""
    return sum(1 for start in range(0, num_rows, 64) if rows >> start & (2**64 - 1))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("kernel", FAST)
@pytest.mark.parametrize("algorithm", ENGINE_AWARE_ALGORITHMS)
def test_kernels_agree_on_random_instances(algorithm, kernel, seed):
    log, new_tuple, budget = random_instance(seed)
    solver = make_solver(algorithm, engine="vertical")
    reference = solver.solve(
        VisibilityProblem(log, new_tuple, budget, kernel="python")
    )
    candidate = solver.solve(
        VisibilityProblem(log, new_tuple, budget, kernel=kernel)
    )
    assert candidate.satisfied == reference.satisfied
    assert candidate.keep_mask == reference.keep_mask
    assert candidate.stats == reference.stats


@pytest.mark.parametrize("kernel", FAST)
def test_consume_attr_cumul_agrees_on_a_long_sparse_log(kernel):
    log, new_tuple, budget = sparse_instance()
    naive = make_solver("ConsumeAttrCumul", engine="naive").solve(
        VisibilityProblem(log, new_tuple, budget)
    )
    solver = make_solver("ConsumeAttrCumul", engine="vertical")
    reference = solver.solve(VisibilityProblem(log, new_tuple, budget, kernel="python"))
    problem = VisibilityProblem(log, new_tuple, budget, kernel=kernel)
    candidate = solver.solve(problem)
    for expected in (reference, naive):
        assert candidate.keep_mask == expected.keep_mask
        assert candidate.satisfied == expected.satisfied
        assert candidate.stats == expected.stats
    # whichever two attributes were picked first, the rows holding both
    # form a sparse selector
    index = problem.index
    kept = [1 << a for a in range(64) if candidate.keep_mask >> a & 1]
    widest = max(
        occupied_words(
            index.cooccurring_rows(a | b, within=problem.satisfiable_tids),
            index.num_rows,
        )
        for a in kept
        for b in kept
        if a < b
    )
    assert widest * 4 <= (index.num_rows + 63) // 64


@pytest.mark.parametrize("kernel", FAST)
def test_consume_attr_cumul_ops_include_every_step(kernel):
    log, new_tuple, budget = sparse_instance()
    deltas = {}
    for name in ("python", kernel):
        problem = VisibilityProblem(log, new_tuple, budget, kernel=name)
        before = problem.index.ops_snapshot()
        solution = make_solver("ConsumeAttrCumul").solve(problem)
        after = problem.index.ops_snapshot()
        deltas[name] = tuple(end - start for start, end in zip(before, after))
    assert deltas[kernel] == deltas["python"]
    # (or, and, popcount): the satisfiable rows; the frequencies of the
    # p tuple attributes; after pick k (k < m), one AND to narrow the
    # running intersection and one AND + popcount per unpicked attribute;
    # the final evaluation
    used = problem.index.used_attributes
    p, m = new_tuple.bit_count(), budget
    later = sum(p - k for k in range(1, m))
    assert deltas["python"] == (
        (used & ~new_tuple).bit_count() + (used & ~solution.keep_mask).bit_count(),
        1 + p + (m - 1) + later + 1,
        p + later + 1,
    )


@pytest.mark.parametrize("kernel", FAST)
def test_evaluate_many_matches_the_reference(kernel):
    log, new_tuple, budget = random_instance(SEEDS[0])
    lowest = new_tuple & -new_tuple
    masks = [0, lowest, new_tuple ^ lowest if budget >= new_tuple.bit_count() - 1 else lowest]
    reference = VisibilityProblem(log, new_tuple, budget, kernel="python")
    expected = reference.evaluate_many(masks)
    candidate = VisibilityProblem(log, new_tuple, budget, kernel=kernel)
    assert candidate.evaluate_many(masks) == expected
    assert candidate.index.kernel == kernel


def test_problem_rejects_unknown_kernels():
    from repro.common.errors import ValidationError

    log, new_tuple, budget = random_instance(SEEDS[0])
    with pytest.raises(ValidationError, match="unknown kernel"):
        VisibilityProblem(log, new_tuple, budget, kernel="simd")
