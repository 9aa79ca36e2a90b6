"""Tests for the cooperative deadline primitive."""

import random

import pytest

from repro.booldata import BooleanTable, Schema, kernels
from repro.common.bits import bit_count, bit_indices, is_subset, random_mask
from repro.common.deadline import (
    NULL_TICKER,
    Deadline,
    Ticker,
    active_deadline,
    active_ticker,
    deadline_scope,
)
from repro.common.errors import (
    DeadlineExceededError,
    SolverInterrupted,
    ValidationError,
)
from repro.core import VisibilityProblem, available_algorithms, make_solver
from repro.core.registry import ENGINE_AWARE_ALGORITHMS


class FakeClock:
    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class SteppingClock(FakeClock):
    """A fake clock that moves one second forward after every read."""

    def __call__(self) -> float:
        now = self.now
        self.now += 1.0
        return now


class TestDeadline:
    def test_expires_on_schedule(self):
        clock = FakeClock()
        deadline = Deadline(0.05, clock=clock)
        assert not deadline.expired()
        assert deadline.remaining() == pytest.approx(0.05)
        clock.advance(0.049)
        assert not deadline.expired()
        clock.advance(0.002)
        assert deadline.expired()
        assert deadline.remaining() == 0.0

    def test_check_raises_with_incumbent_and_context(self):
        clock = FakeClock()
        deadline = Deadline(0.01, clock=clock)
        deadline.check()  # not yet expired: no-op
        clock.advance(1.0)
        with pytest.raises(DeadlineExceededError) as excinfo:
            deadline.check(best_known=0b101, context="unit test")
        assert excinfo.value.best_known == 0b101
        assert "unit test" in str(excinfo.value)

    def test_deadline_error_is_solver_interrupted(self):
        assert issubclass(DeadlineExceededError, SolverInterrupted)

    def test_unbounded_never_expires(self):
        deadline = Deadline.unbounded()
        assert not deadline.bounded
        assert not deadline.expired()
        assert deadline.remaining() == float("inf")
        deadline.check()

    def test_after_ms(self):
        clock = FakeClock()
        deadline = Deadline.after_ms(50, clock=clock)
        assert deadline.duration == pytest.approx(0.05)

    def test_negative_duration_rejected(self):
        with pytest.raises(ValidationError):
            Deadline(-1.0)


class TestTicker:
    def test_strided_clock_reads(self):
        clock = FakeClock()
        deadline = Deadline(0.01, clock=clock)
        ticker = Ticker(deadline, every=4)
        clock.advance(1.0)  # already expired, but ticks 1-3 must not look
        ticker.tick()
        ticker.tick()
        ticker.tick()
        with pytest.raises(DeadlineExceededError) as excinfo:
            ticker.tick(best_known=7)
        assert excinfo.value.best_known == 7

    def test_unbounded_deadline_hands_out_null_ticker(self):
        assert Deadline.unbounded().ticker() is NULL_TICKER
        NULL_TICKER.tick()  # no-op, never raises
        NULL_TICKER.tick(best_known=3)

    def test_stride_must_be_positive(self):
        with pytest.raises(ValidationError):
            Ticker(Deadline(1.0), every=0)


class TestAmbientDeadline:
    def test_no_scope_means_no_deadline(self):
        assert active_deadline() is None
        assert active_ticker() is NULL_TICKER

    def test_scope_sets_and_resets(self):
        deadline = Deadline(1.0)
        with deadline_scope(deadline) as scoped:
            assert scoped is deadline
            assert active_deadline() is deadline
            assert isinstance(active_ticker(), Ticker)
        assert active_deadline() is None

    def test_nested_scopes_restore_outer(self):
        outer, inner = Deadline(1.0), Deadline(2.0)
        with deadline_scope(outer):
            with deadline_scope(inner):
                assert active_deadline() is inner
            assert active_deadline() is outer

    def test_scope_resets_on_exception(self):
        with pytest.raises(RuntimeError):
            with deadline_scope(Deadline(1.0)):
                raise RuntimeError("boom")
        assert active_deadline() is None

    def test_expired_ambient_deadline_interrupts_a_loop(self):
        clock = FakeClock()
        deadline = Deadline(0.01, clock=clock)
        with deadline_scope(deadline):
            ticker = active_ticker(every=2, context="loop")
            clock.advance(1.0)
            ticker.tick()
            with pytest.raises(DeadlineExceededError):
                ticker.tick()


def _short_instance():
    """400 rows over 20 attributes, a 14-attribute tuple and m=6: a greedy
    makes fewer checkpoints than the default stride, so a per-candidate
    tick would never read the clock, while BruteForce enumerates C(14, 6)."""
    rng = random.Random(5)
    log = BooleanTable(
        Schema.anonymous(20),
        [random_mask(20, rng.randrange(1, 4), rng) for _ in range(400)],
    )
    return log, random_mask(20, 14, rng), 6


class TestSolverCheckpoints:
    @pytest.mark.parametrize(
        "kernel", [k for k in ("python", "numpy") if k in kernels.available_kernels()]
    )
    @pytest.mark.parametrize("steps", [0, 2])
    def test_expired_deadline_interrupts_vertical_consume_attr_cumul(
        self, kernel, steps
    ):
        log, new_tuple, budget = _short_instance()
        solver = make_solver("ConsumeAttrCumul", engine="vertical")
        full = solver.solve(VisibilityProblem(log, new_tuple, budget, kernel=kernel))
        # construction reads 0, the solve's opening check reads 1 and the
        # checkpoint of step k (from 1) reads k + 1, so the deadline fires
        # at the start of step ``steps + 1``
        deadline = Deadline(steps + 1.5, clock=SteppingClock())
        with deadline_scope(deadline):
            with pytest.raises(DeadlineExceededError) as excinfo:
                solver.solve(VisibilityProblem(log, new_tuple, budget, kernel=kernel))
        best = excinfo.value.best_known
        assert is_subset(best, new_tuple)
        assert bit_count(best) == steps <= budget
        # the interrupted run had made the uninterrupted run's first picks
        assert is_subset(best, full.keep_mask)


def _registry_cases():
    """``(name, engine, reads)`` for every registry solver and engine: the
    deadline expires at the solve's ``reads + 1``-th clock read, the
    opening check (already expired) or the loop's first checkpoint
    (mid-solve).  ConsumeAttr ranks in one pass, with no loop to stop."""
    for name in available_algorithms():
        engines = ("naive", "vertical") if name in ENGINE_AWARE_ALGORITHMS else (None,)
        for engine in engines:
            label = name if engine is None else f"{name}-{engine}"
            for reads, when in ((0, "expired"), (1, "mid-solve")):
                if not (reads and name == "ConsumeAttr"):
                    yield pytest.param(name, engine, reads, id=f"{label}-{when}")


@pytest.mark.parametrize("name, engine, reads", _registry_cases())
def test_every_registry_solver_stops_at_an_expired_deadline(name, engine, reads):
    log, new_tuple, budget = _short_instance()
    solver = make_solver(name, engine=engine)
    with deadline_scope(Deadline(reads + 0.5, clock=SteppingClock())):
        with pytest.raises(DeadlineExceededError) as excinfo:
            solver.solve(VisibilityProblem(log, new_tuple, budget))
    best = excinfo.value.best_known
    if reads and name == "MaxFreqItemSets":
        assert best is not None  # its anytime path always has an answer
    if best is not None:
        assert is_subset(best, new_tuple)
        assert bit_count(best) <= budget


@pytest.mark.parametrize("restrict", [True, False], ids=["projected", "unprojected"])
def test_max_freq_itemsets_interrupted_in_the_miner_answers_consume_attr(restrict):
    """Before the miner yields a candidate there is no incumbent, so the
    ConsumeAttr selection stands in, computed past the expired deadline."""
    log, new_tuple, budget = _short_instance()
    greedy = make_solver("ConsumeAttr").solve(VisibilityProblem(log, new_tuple, budget))
    solver = make_solver("MaxFreqItemSets", restrict_to_satisfiable=restrict)
    # construction reads 0, the opening check 1, the greedy seed's
    # opening check 2 and the miner's first checkpoint 3
    with deadline_scope(Deadline(2.5, clock=SteppingClock())):
        with pytest.raises(DeadlineExceededError, match="maximal-itemset DFS") as excinfo:
            solver.solve(VisibilityProblem(log, new_tuple, budget))
    assert excinfo.value.best_known == greedy.keep_mask


@pytest.mark.parametrize("engine", ["naive", "vertical"])
def test_consume_queries_reads_the_clock_within_a_pass(engine):
    """600 two-attribute queries inside the tuple: no query adds a single
    attribute, so the first pass visits every row, and the row checkpoint
    fires at row 256 of it, before any query is consumed."""
    rng = random.Random(7)
    new_tuple = random_mask(20, 14, rng)
    pairs = [sum(1 << a for a in rng.sample(bit_indices(new_tuple), 2)) for _ in range(600)]
    log = BooleanTable(Schema.anonymous(20), pairs)
    # construction reads 0, the opening check 1, step 1's checkpoint 2
    with deadline_scope(Deadline(2.5, clock=SteppingClock())):
        with pytest.raises(DeadlineExceededError) as excinfo:
            make_solver("ConsumeQueries", engine=engine).solve(
                VisibilityProblem(log, new_tuple, 6)
            )
    assert excinfo.value.best_known == 0
