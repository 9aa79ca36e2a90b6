"""Tests for the random-walk maximal itemset miners."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.common.errors import ValidationError
from repro.mining import (
    BottomUpRandomWalkMiner,
    TransactionDatabase,
    TwoPhaseRandomWalkMiner,
    mine_maximal_reference,
)


@pytest.fixture
def dense_view():
    """A dense complemented query log, the paper's target workload."""
    rows = [0b00011, 0b00110, 0b01100, 0b00011, 0b10001]
    return TransactionDatabase(5, rows).complement()


class TestTwoPhaseWalk:
    def test_finds_all_mfis_with_floor(self, dense_view):
        expected = mine_maximal_reference(dense_view, 2)
        mined, stats = TwoPhaseRandomWalkMiner(
            2, seed=0, max_iterations=2000, min_iterations=80
        ).mine(dense_view)
        assert mined == expected
        assert stats.iterations >= 80

    def test_every_result_is_maximal(self, dense_view):
        from repro.mining import is_maximal_frequent

        mined, _ = TwoPhaseRandomWalkMiner(2, seed=1, min_iterations=50).mine(dense_view)
        for itemset in mined:
            assert is_maximal_frequent(dense_view, itemset, 2)

    def test_deterministic_given_seed(self, dense_view):
        first, _ = TwoPhaseRandomWalkMiner(2, seed=3).mine(dense_view)
        second, _ = TwoPhaseRandomWalkMiner(2, seed=3).mine(dense_view)
        assert first == second

    def test_threshold_above_rows_returns_empty(self, dense_view):
        mined, stats = TwoPhaseRandomWalkMiner(10, seed=0).mine(dense_view)
        assert mined == {}
        assert stats.converged

    def test_stopping_rule_reported(self, dense_view):
        _, stats = TwoPhaseRandomWalkMiner(2, seed=0, max_iterations=500).mine(dense_view)
        assert stats.converged
        assert 0.0 <= stats.good_turing_estimate <= 1.0
        assert stats.lattice_steps > 0

    def test_budget_exhaustion_flagged(self, dense_view):
        # max_iterations=1 cannot rediscover anything twice
        _, stats = TwoPhaseRandomWalkMiner(2, seed=0, max_iterations=1).mine(dense_view)
        assert not stats.converged
        assert stats.iterations == 1

    def test_parameter_validation(self):
        with pytest.raises(ValidationError):
            TwoPhaseRandomWalkMiner(0)
        with pytest.raises(ValidationError):
            TwoPhaseRandomWalkMiner(1, min_discoveries=0)
        with pytest.raises(ValidationError):
            TwoPhaseRandomWalkMiner(1, min_iterations=10, max_iterations=5)


class TestBottomUpWalk:
    def test_finds_all_mfis_with_floor(self, dense_view):
        expected = mine_maximal_reference(dense_view, 2)
        mined, _ = BottomUpRandomWalkMiner(
            2, seed=0, max_iterations=2000, min_iterations=80
        ).mine(dense_view)
        assert mined == expected

    def test_no_frequent_singletons_gives_empty_itemset(self):
        db = TransactionDatabase(3, [0b001, 0b010, 0b100])
        mined, _ = BottomUpRandomWalkMiner(2, seed=0).mine(db)
        assert set(mined) == {0}

    def test_walk_lengths_exceed_two_phase_on_dense_data(self):
        """The paper's argument for the two-phase walk: on dense data the
        MFIs sit near the top of the lattice, so the bottom-up walk must
        traverse many more levels than the top-down phase removes."""
        import random

        rng = random.Random(7)
        width = 14
        # sparse queries (1-2 attributes) -> very dense complement
        queries = [
            (1 << rng.randrange(width)) | (1 << rng.randrange(width))
            for _ in range(40)
        ]
        view = TransactionDatabase(width, queries).complement()
        _, up_stats = BottomUpRandomWalkMiner(
            4, seed=0, max_iterations=60, min_iterations=60
        ).mine(view)
        _, down_stats = TwoPhaseRandomWalkMiner(
            4, seed=0, max_iterations=60, min_iterations=60
        ).mine(view)
        assert up_stats.lattice_steps > down_stats.lattice_steps


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(1, 63), min_size=2, max_size=12), st.integers(1, 4))
@example(rows=[2, 8, 16, 37], threshold=1)  # seed 42 misses one MFI here
def test_two_phase_walk_matches_reference(rows, threshold):
    """Soundness, exactly: every mined itemset is a maximal frequent
    itemset with its true support.  Completeness holds only with high
    probability (next test)."""
    db = TransactionDatabase(6, rows).complement()
    if db.num_transactions < threshold:
        return
    expected = mine_maximal_reference(db, threshold)
    mined, _ = TwoPhaseRandomWalkMiner(
        threshold, seed=42, max_iterations=3000, min_iterations=100
    ).mine(db)
    assert mined.items() <= expected.items()


def test_two_phase_walk_miss_rate_within_stated_bound():
    """On rows [2, 8, 16, 37] at threshold 1, a walk reaches the MFI
    {1, 3, 4} only when its down phase removes items 0, 2 and 5 before
    any other: probability 3/6 * 2/5 * 1/4 = 1/20.  The miner states a
    miss probability of at most (1 - 1/20) ** min_iterations; over a
    fixed range of seeds the observed miss rate stays within three
    binomial standard deviations of that bound."""
    db = TransactionDatabase(6, [2, 8, 16, 37]).complement()
    rare = 0b011010
    assert rare in mine_maximal_reference(db, 1)
    walks, seeds = 20, 500
    bound = (1 - 1 / 20) ** walks
    misses = sum(
        rare not in TwoPhaseRandomWalkMiner(1, seed=seed, min_iterations=walks).mine(db)[0]
        for seed in range(seeds)
    )
    assert misses / seeds <= bound + 3 * math.sqrt(bound * (1 - bound) / seeds)
