"""Solver interface shared by all SOC-CB-QL algorithms."""

from __future__ import annotations

import abc
import time

from repro.common.bits import bit_count
from repro.common.deadline import active_deadline
from repro.core.problem import Solution, VisibilityProblem
from repro.obs.recorder import get_recorder

__all__ = ["Solver"]


class Solver(abc.ABC):
    """Base class: handles trivial cases, delegates the rest to `_solve`."""

    #: short name used in experiment tables (subclasses override)
    name: str = "solver"
    #: whether the algorithm guarantees optimality
    optimal: bool = False

    def solve(self, problem: VisibilityProblem) -> Solution:
        """Solve one instance.

        The trivial regimes are resolved here once, so concrete solvers
        may assume ``0 < m < |t|`` and a non-empty log:

        * ``m >= |t|`` — keep the whole tuple (compression is a no-op);
        * ``m == 0``  — keep nothing; only all-empty queries match;
        * empty log   — nothing to satisfy, any ``m`` attributes do.

        A non-trivial solve first checks the ambient deadline, so every
        solver refuses to start past an expired one, including a solver
        whose loop is too short to reach its checkpoint stride.
        """
        if problem.budget >= problem.tuple_size:
            keep = problem.new_tuple
            return self._finish(problem, keep, trivial="budget>=|t|")
        if problem.budget == 0:
            return self._finish(problem, 0, trivial="budget=0")
        if not len(problem.log):
            return self._finish(problem, problem.pad_to_budget(0), trivial="empty log")
        deadline = active_deadline()
        if deadline is not None:
            deadline.check(context=self.name)
        recorder = get_recorder()
        if not recorder.enabled:
            return self._solve(problem)
        start = time.perf_counter()
        with recorder.span(
            "solve",
            algorithm=self.name,
            budget=problem.budget,
            log_size=len(problem.log),
        ):
            solution = self._solve(problem)
        labels = {"algorithm": self.name}
        recorder.count("repro_solver_solves_total", 1, labels)
        recorder.observe(
            "repro_solver_solve_seconds", time.perf_counter() - start, labels
        )
        return solution

    def _finish(self, problem: VisibilityProblem, keep: int, trivial: str) -> Solution:
        return Solution(
            problem=problem,
            keep_mask=keep,
            satisfied=problem.evaluate(keep),
            algorithm=self.name,
            optimal=True,  # trivial regimes are exactly solvable by anyone
            stats={"trivial_case": trivial},
        )

    def make_solution(
        self,
        problem: VisibilityProblem,
        keep_mask: int,
        stats: dict | None = None,
        pad: bool = True,
    ) -> Solution:
        """Wrap a raw attribute mask into a validated :class:`Solution`."""
        if pad and bit_count(keep_mask) < min(problem.budget, problem.tuple_size):
            keep_mask = problem.pad_to_budget(keep_mask)
        return Solution(
            problem=problem,
            keep_mask=keep_mask,
            satisfied=problem.evaluate(keep_mask),
            algorithm=self.name,
            optimal=self.optimal,
            stats=stats or {},
        )

    @abc.abstractmethod
    def _solve(self, problem: VisibilityProblem) -> Solution:
        """Solve a non-trivial instance (see :meth:`solve` for the contract)."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"
