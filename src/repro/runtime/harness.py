"""Deadline-aware anytime harness over the registry solvers.

:class:`SolverHarness` turns any solver chain into a *total* function:
``run`` always returns a structured :class:`RunOutcome`, never lets an
exception escape, and degrades along a fallback ladder when the
preferred solver is interrupted, crashes, or returns garbage:

1. each chain entry runs under the shared :class:`~repro.common.deadline.Deadline`
   via :func:`~repro.common.deadline.deadline_scope`, so the cooperative
   checkpoints inside every registry solver observe it;
2. :class:`~repro.runtime.faults.TransientFault` failures are retried
   with seeded jittered backoff (never past the deadline);
3. every returned solution passes an **invariant guard** that re-derives
   the objective from the problem itself — a corrupted answer is
   rejected like a crash, not served;
4. interruptions contribute their ``best_known`` incumbent; if the whole
   chain fails but an incumbent exists, the outcome is a valid *anytime*
   solution rather than a failure;
5. when the deadline expires before the terminal (safety-net) solver
   had a chance and no incumbent exists, the terminal solver runs under
   one fresh *grace window* of the same duration — bounding the total
   wall clock at roughly twice the deadline while the fast greedy tier
   still gets to answer.  A zero-length deadline gets no answer: its
   grace window is expired too, and every solver refuses to start past
   an expired deadline.

An optional :class:`~repro.runtime.breaker.CircuitBreaker` skips the
non-terminal tiers entirely while open (serving-path protection), and an
optional :class:`~repro.runtime.faults.FaultPlan` wraps every chain
entry in a :class:`~repro.runtime.faults.FaultySolver` for chaos tests.
"""

from __future__ import annotations

import random
import time
from collections.abc import Sequence
from dataclasses import dataclass, field, replace

from repro.common.bits import bit_count, is_subset
from repro.common.deadline import Deadline, deadline_scope
from repro.common.errors import ReproError, SolverInterrupted, ValidationError
from repro.core.base import Solver
from repro.core.problem import Solution, VisibilityProblem
from repro.core.registry import DEFAULT_FALLBACK_CHAIN, make_solver
from repro.obs.profile import profiled_phase
from repro.obs.recorder import bitmap_ops_snapshot, get_recorder, record_bitmap_ops
from repro.runtime.breaker import CircuitBreaker
from repro.runtime.faults import FaultPlan, FaultySolver, TransientFault

__all__ = ["Attempt", "OutcomeStats", "RunOutcome", "SolverHarness", "make_harness"]


@dataclass(frozen=True)
class Attempt:
    """What happened to one chain entry during one run."""

    solver: str
    #: ``completed`` | ``interrupted`` | ``failed`` | ``rejected`` | ``skipped``
    status: str
    elapsed_s: float
    retries: int = 0
    error: str | None = None
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "solver": self.solver,
            "status": self.status,
            "elapsed_s": self.elapsed_s,
            "retries": self.retries,
            "error": self.error,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class OutcomeStats:
    """Typed run statistics attached to a :class:`RunOutcome`.

    ``fallback_depth`` is the position in the chain of the solver whose
    answer was served (0 = primary), or ``-1`` when nothing completed
    (``anytime`` outcomes built from an incumbent report the position of
    the interrupted solver that produced it).  ``counters`` is the delta
    of every telemetry counter over the run — empty unless a live
    :class:`repro.obs.Recorder` was installed.
    """

    chain: tuple[str, ...] = ()
    attempts: int = 0
    retries: int = 0
    fallback_depth: int = -1
    elapsed_ms: float = 0.0
    counters: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "chain": list(self.chain),
            "attempts": self.attempts,
            "retries": self.retries,
            "fallback_depth": self.fallback_depth,
            "elapsed_ms": self.elapsed_ms,
            "counters": dict(self.counters),
        }


@dataclass(frozen=True)
class RunOutcome:
    """Structured result of one harness run — returned, never raised.

    ``status``:

    * ``exact`` — the primary (first-choice) solver completed;
    * ``fallback`` — a later chain entry completed;
    * ``anytime`` — no entry completed, but an interrupted solver left a
      valid incumbent, served as a best-effort solution;
    * ``failed`` — nothing usable; ``solution`` is ``None``.
    """

    status: str
    solution: Solution | None
    attempts: tuple[Attempt, ...]
    elapsed_s: float
    deadline_s: float | None
    stats: OutcomeStats = field(default_factory=OutcomeStats)

    @property
    def ok(self) -> bool:
        return self.solution is not None

    def to_dict(self) -> dict:
        return {
            "status": self.status,
            "solution": self.solution.to_dict() if self.solution else None,
            "attempts": [attempt.to_dict() for attempt in self.attempts],
            "elapsed_s": self.elapsed_s,
            "deadline_s": self.deadline_s,
            "stats": self.stats.to_dict(),
        }

    def __str__(self) -> str:
        chain = " -> ".join(f"{a.solver}:{a.status}" for a in self.attempts)
        return f"RunOutcome({self.status}, {chain})"


class SolverHarness(Solver):
    """Run a fallback chain of solvers under a shared deadline.

    ``chain`` entries are registry names or :class:`Solver` instances;
    the first entry is the *primary*, the last the *terminal* safety
    net.  ``engine`` is forwarded to engine-aware registry solvers.
    ``deadline_ms`` (``None`` = unbounded) bounds each run; the clock
    and sleep are injectable for deterministic tests.
    """

    name = "Harness"
    optimal = False

    def __init__(
        self,
        chain: Sequence[str | Solver] | None = None,
        *,
        engine: str | None = None,
        deadline_ms: float | None = None,
        retries: int = 1,
        backoff_s: float = 0.005,
        seed: int = 0,
        fault_plan: FaultPlan | None = None,
        breaker: CircuitBreaker | None = None,
        clock=time.monotonic,
        sleep=time.sleep,
    ) -> None:
        if retries < 0:
            raise ValidationError("retries must be non-negative")
        if backoff_s < 0:
            raise ValidationError("backoff_s must be non-negative")
        if deadline_ms is not None and deadline_ms < 0:
            raise ValidationError("deadline_ms must be non-negative")
        entries = list(chain) if chain is not None else list(DEFAULT_FALLBACK_CHAIN)
        if not entries:
            raise ValidationError("the fallback chain must name at least one solver")
        solvers = [
            entry if isinstance(entry, Solver) else make_solver(entry, engine=engine)
            for entry in entries
        ]
        if fault_plan is not None:
            solvers = [FaultySolver(solver, fault_plan, sleep=sleep) for solver in solvers]
        self._solvers = solvers
        self._deadline_s = None if deadline_ms is None else deadline_ms / 1000.0
        self.retries = retries
        self.backoff_s = backoff_s
        self.seed = seed
        self.breaker = breaker
        self._clock = clock
        self._sleep = sleep

    @property
    def chain(self) -> tuple[str, ...]:
        """The solver names, primary first."""
        return tuple(solver.name for solver in self._solvers)

    # -- the run loop ------------------------------------------------------------

    def run(self, problem: VisibilityProblem, deadline_ms: float | None = ...) -> RunOutcome:
        """Solve ``problem`` through the chain; always returns an outcome.

        ``deadline_ms`` overrides the harness default for this run only
        (pass ``None`` for an explicitly unbounded run).
        """
        duration = self._deadline_s if deadline_ms is ... else (
            None if deadline_ms is None else deadline_ms / 1000.0
        )
        recorder = get_recorder()
        if not recorder.enabled:
            return self._run_chain(problem, duration)

        counters_before = recorder.metrics.counter_values()
        ops_before = bitmap_ops_snapshot(problem.log)
        with recorder.span(
            "harness.run", chain=list(self.chain), deadline_s=duration
        ):
            outcome = self._run_chain(problem, duration)
        record_bitmap_ops(recorder, problem.log, ops_before)
        recorder.count("repro_harness_runs_total", 1, {"status": outcome.status})
        recorder.observe("repro_harness_run_seconds", outcome.elapsed_s)
        for attempt in outcome.attempts:
            recorder.count(
                "repro_harness_attempts_total",
                1,
                {"solver": attempt.solver, "status": attempt.status},
            )
            if attempt.retries:
                recorder.count("repro_harness_retries_total", attempt.retries)
                recorder.event(
                    "harness.retry", level="warning",
                    solver=attempt.solver, retries=attempt.retries,
                    status=attempt.status,
                )
            if attempt.status in ("failed", "rejected"):
                recorder.event(
                    "harness.failure", level="warning",
                    solver=attempt.solver, status=attempt.status,
                    error=attempt.error,
                )
        if outcome.status == "fallback":
            recorder.count("repro_harness_fallbacks_total")
            served_by = (
                outcome.solution.algorithm if outcome.solution else None
            )
            recorder.event(
                "harness.fallback", level="warning",
                served_by=served_by, depth=outcome.stats.fallback_depth,
            )
        elif outcome.status in ("anytime", "failed"):
            recorder.event(
                "harness.degraded", level="error",
                status=outcome.status,
                elapsed_s=round(outcome.elapsed_s, 6),
            )
        if duration is not None and outcome.elapsed_s > duration:
            recorder.count("repro_harness_deadline_overruns_total")
            recorder.event(
                "harness.slow_solve", level="warning",
                elapsed_s=round(outcome.elapsed_s, 6), deadline_s=duration,
            )
        counters_after = recorder.metrics.counter_values()
        deltas = {
            name: value - counters_before.get(name, 0.0)
            for name, value in counters_after.items()
            if value != counters_before.get(name, 0.0)
        }
        return replace(outcome, stats=replace(outcome.stats, counters=deltas))

    def _run_chain(
        self, problem: VisibilityProblem, duration: float | None
    ) -> RunOutcome:
        start = self._clock()
        deadline = Deadline(duration, clock=self._clock)
        rng = random.Random(self.seed)
        attempts: list[Attempt] = []
        incumbents: list[tuple[int, str]] = []  # (keep_mask, source solver)

        primary = self._solvers[0]
        terminal = self._solvers[-1]
        chain = list(self._solvers)
        if (
            self.breaker is not None
            and len(chain) > 1
            and not self.breaker.allow()
        ):
            for solver in chain[:-1]:
                attempts.append(Attempt(solver.name, "skipped", 0.0, detail="circuit open"))
            chain = [terminal]

        solution: Solution | None = None
        completed_by: Solver | None = None
        for solver in chain:
            attempt_deadline = deadline
            detail = ""
            if deadline.expired():
                if solver is terminal and not incumbents:
                    # Grace window: the safety net still gets one bounded
                    # shot, keeping total wall clock <= ~2x the deadline.
                    attempt_deadline = Deadline(duration, clock=self._clock)
                    detail = "grace window"
                else:
                    attempts.append(
                        Attempt(solver.name, "skipped", 0.0, detail="deadline expired")
                    )
                    continue
            result, attempt, incumbent = self._attempt(
                solver, problem, attempt_deadline, rng, detail
            )
            attempts.append(attempt)
            if self.breaker is not None and solver is primary:
                if attempt.status == "completed":
                    self.breaker.record_success()
                else:
                    self.breaker.record_failure()
            if incumbent is not None:
                incumbents.append((incumbent, solver.name))
            if result is not None:
                solution = result
                completed_by = solver
                break

        if solution is not None:
            status = "exact" if completed_by is primary else "fallback"
        elif incumbents:
            keep_mask, source = max(
                incumbents, key=lambda pair: problem.evaluate(pair[0])
            )
            solution = Solution(
                problem=problem,
                keep_mask=keep_mask,
                satisfied=problem.evaluate(keep_mask),
                algorithm=source,
                optimal=False,
                stats={"anytime": True},
            )
            status = "anytime"
        else:
            status = "failed"

        if completed_by is not None:
            fallback_depth = self._solvers.index(completed_by)
        elif status == "anytime":
            names = [entry.name for entry in self._solvers]
            fallback_depth = (
                names.index(solution.algorithm) if solution.algorithm in names else -1
            )
        else:
            fallback_depth = -1
        elapsed_s = self._clock() - start
        return RunOutcome(
            status=status,
            solution=solution,
            attempts=tuple(attempts),
            elapsed_s=elapsed_s,
            deadline_s=duration,
            stats=OutcomeStats(
                chain=self.chain,
                attempts=len(attempts),
                retries=sum(attempt.retries for attempt in attempts),
                fallback_depth=fallback_depth,
                elapsed_ms=elapsed_s * 1000.0,
            ),
        )

    def _attempt(
        self,
        solver: Solver,
        problem: VisibilityProblem,
        deadline: Deadline,
        rng: random.Random,
        detail: str,
    ) -> tuple[Solution | None, Attempt, int | None]:
        """One chain entry: retry transient faults, guard the result."""
        name = solver.name
        retries = 0
        start = self._clock()

        def finish(status: str, error: str | None = None) -> Attempt:
            return Attempt(name, status, self._clock() - start, retries, error, detail)

        while True:
            try:
                with deadline_scope(deadline), profiled_phase("solve"):
                    solution = solver.solve(problem)
            except SolverInterrupted as error:
                incumbent = self._valid_incumbent(problem, error.best_known)
                return None, finish("interrupted", _first_line(error)), incumbent
            except TransientFault as error:
                if retries < self.retries and not deadline.expired():
                    retries += 1
                    self._backoff(rng, retries, deadline)
                    continue
                return None, finish("failed", _first_line(error)), None
            except Exception as error:  # crashes, validation bugs, anything
                return None, finish("failed", _first_line(error)), None
            guard_error = self._guard(problem, solution)
            if guard_error is not None:
                return None, finish("rejected", guard_error), None
            return solution, finish("completed"), None

    def _backoff(self, rng: random.Random, attempt: int, deadline: Deadline) -> None:
        """Jittered exponential backoff, capped by the remaining budget."""
        if self.backoff_s <= 0:
            return
        pause = self.backoff_s * (2 ** (attempt - 1)) * rng.uniform(0.5, 1.5)
        pause = min(pause, deadline.remaining())
        if pause > 0:
            self._sleep(pause)

    # -- invariants --------------------------------------------------------------

    @staticmethod
    def _guard(problem: VisibilityProblem, solution: Solution) -> str | None:
        """Reject a solution violating the problem's invariants.

        Re-derives the objective from the problem itself, so a solver
        that lies about ``satisfied`` (or keeps attributes it must not)
        is caught before its answer is served.
        """
        if not isinstance(solution, Solution):
            return f"solver returned {type(solution).__name__}, not a Solution"
        keep_mask = solution.keep_mask
        if not isinstance(keep_mask, int) or keep_mask < 0:
            return "keep_mask is not a non-negative integer"
        if not is_subset(keep_mask, problem.new_tuple):
            return "keep_mask retains attributes the tuple does not have"
        if bit_count(keep_mask) > problem.budget:
            return (
                f"keep_mask retains {bit_count(keep_mask)} attributes, "
                f"budget is {problem.budget}"
            )
        try:
            actual = problem.evaluate(keep_mask)
        except ReproError as error:
            return f"keep_mask failed evaluation: {_first_line(error)}"
        if solution.satisfied != actual:
            return (
                f"objective mismatch: solution claims {solution.satisfied}, "
                f"re-evaluation gives {actual}"
            )
        return None

    @staticmethod
    def _valid_incumbent(problem: VisibilityProblem, best_known: object) -> int | None:
        """``best_known`` as a usable keep-mask, or ``None``."""
        if not isinstance(best_known, int) or best_known < 0:
            return None
        if not is_subset(best_known, problem.new_tuple):
            return None
        if bit_count(best_known) > problem.budget:
            return None
        return best_known

    # -- Solver interface --------------------------------------------------------

    def _solve(self, problem: VisibilityProblem) -> Solution:
        """Adapt :meth:`run` to the plain Solver interface.

        A failed outcome is the one case that must raise here — there is
        no solution object to return.
        """
        outcome = self.run(problem)
        if outcome.solution is None:
            errors = "; ".join(
                f"{a.solver}: {a.error}" for a in outcome.attempts if a.error
            )
            raise ReproError(f"every solver in the fallback chain failed ({errors})")
        return outcome.solution

    def __repr__(self) -> str:
        deadline = (
            "unbounded" if self._deadline_s is None else f"{self._deadline_s * 1000:.0f}ms"
        )
        return f"SolverHarness(chain={list(self.chain)}, deadline={deadline})"


def _first_line(error: BaseException) -> str:
    text = str(error) or type(error).__name__
    return text.splitlines()[0]


def make_harness(
    chain: Sequence[str | Solver] | None = None,
    *,
    engine: str | None = None,
    deadline_ms: float | None = None,
    **options,
) -> SolverHarness:
    """Convenience factory mirroring :func:`repro.core.registry.make_solver`."""
    return SolverHarness(chain, engine=engine, deadline_ms=deadline_ms, **options)
