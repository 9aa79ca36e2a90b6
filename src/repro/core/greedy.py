"""Greedy heuristics for SOC-CB-QL (Section IV.D).

Three suboptimal but fast algorithms from the paper, plus one natural
baseline the paper does not include:

* :class:`ConsumeAttrSolver` — rank attributes by individual frequency
  in the query log; keep the top ``m``.
* :class:`ConsumeAttrCumulSolver` — cumulative version: start with the
  most frequent attribute, then repeatedly add the attribute that
  co-occurs most frequently with *all* already-selected attributes.
  The paper leaves ties and all-zero co-occurrence unspecified; we break
  ties (and the all-zero case) by individual frequency, documented here
  and exercised in tests.
* :class:`ConsumeQueriesSolver` — consume whole queries: repeatedly pick
  the query introducing the fewest new attributes and take its
  attributes, until ``m`` are selected.  Each iteration scans the whole
  workload (the cost the paper calls out in Fig 10).  Unspecified
  corners, resolved here: unsatisfiable queries (demanding attributes
  the product lacks) are never picked, queries whose new attributes
  overflow the remaining budget are skipped, and leftover budget is
  filled with arbitrary tuple attributes.
* :class:`CoverageGreedySolver` — *extension, not in the paper*: the
  classic max-coverage greedy; each step keeps the attribute that
  completes the most additional queries.  Used in ablation benchmarks
  as a quality reference for the paper's greedies.

All solvers restrict attention to attributes of the new tuple — the
compressed tuple may only retain attributes the product has.

Every solver runs on one of two engines (constructor argument
``engine``):

* ``"vertical"`` (default) — inner loops over the
  :class:`~repro.booldata.index.VerticalIndex`: counts become popcounts
  of wide bitwise expressions over row bitsets, O(n/64) words per count.
* ``"naive"`` — the paper-literal row-major Python loops, kept as the
  correctness oracle; the engine-equivalence property tests assert both
  return identical selections.
"""

from __future__ import annotations

from repro.booldata.index import validate_engine
from repro.booldata.table import count_attribute_frequencies
from repro.common.bits import bit_count, bit_indices, iter_bit_indices
from repro.common.deadline import active_ticker
from repro.core.base import Solver
from repro.core.problem import Solution, VisibilityProblem
from repro.obs.recorder import get_recorder

__all__ = [
    "ConsumeAttrSolver",
    "ConsumeAttrCumulSolver",
    "ConsumeQueriesSolver",
    "CoverageGreedySolver",
]


class _EngineSolver(Solver):
    """Shared engine plumbing for the engine-aware solvers."""

    def __init__(self, engine: str = "vertical") -> None:
        self.engine = validate_engine(engine)

    def _satisfiable_frequencies(self, problem: VisibilityProblem) -> list[int]:
        """Frequency of each tuple attribute among satisfiable queries.

        One statistic, two engines: column popcounts on the vertical
        index, or the shared row-major counting loop of
        :func:`repro.booldata.table.count_attribute_frequencies`.
        """
        if self.engine == "vertical":
            return problem.index.attribute_frequencies(
                pool=problem.new_tuple, within=problem.satisfiable_tids
            )
        return count_attribute_frequencies(
            problem.satisfiable_queries, problem.width, pool=problem.new_tuple
        )

    def _record_passes(self, passes: int) -> None:
        """One telemetry call per solve: selection passes executed."""
        recorder = get_recorder()
        if recorder.enabled and passes:
            recorder.count(
                "repro_greedy_passes_total", passes, {"algorithm": self.name}
            )


class ConsumeAttrSolver(_EngineSolver):
    """Keep the ``m`` individually most frequent attributes."""

    name = "ConsumeAttr"
    optimal = False

    def _solve(self, problem: VisibilityProblem) -> Solution:
        frequencies = self._satisfiable_frequencies(problem)
        ranked = sorted(
            bit_indices(problem.new_tuple),
            key=lambda attribute: (-frequencies[attribute], attribute),
        )
        keep_mask = 0
        for attribute in ranked[: problem.budget]:
            keep_mask |= 1 << attribute
        reported = {
            attribute: frequencies[attribute]
            for attribute in bit_indices(problem.new_tuple)
            if frequencies[attribute]
        }
        self._record_passes(1)
        return self.make_solution(
            problem, keep_mask, stats={"frequencies": reported}
        )


class ConsumeAttrCumulSolver(_EngineSolver):
    """Cumulative co-occurrence greedy.

    Step 1 picks the most frequent attribute; step ``k`` picks the
    attribute maximizing the number of queries containing it *and* every
    previously selected attribute, breaking ties (including the all-zero
    case, common once the selected set outgrows typical query sizes) by
    individual frequency.

    Vertical engine: the co-occurrence of a candidate with the selected
    set is ``popcount(current & column(a))`` where ``current`` is the
    running AND of the selected columns.  Each step makes one batched
    kernel count, ``attribute_frequencies(pool=unpicked, within=current)``,
    instead of a scan over all satisfiable queries, then narrows
    ``current`` by the picked column.  Step 1 reuses the frequencies,
    since co-occurrence with the empty selection is the frequency.  The
    deadline is checked once per step.
    """

    name = "ConsumeAttrCumul"
    optimal = False

    def _solve(self, problem: VisibilityProblem) -> Solution:
        frequencies = self._satisfiable_frequencies(problem)
        if self.engine == "vertical":
            return self._solve_vertical(problem, frequencies)
        return self._solve_naive(problem, frequencies)

    def _solve_naive(
        self, problem: VisibilityProblem, frequencies: list[int]
    ) -> Solution:
        queries = problem.satisfiable_queries
        candidates = set(bit_indices(problem.new_tuple))
        keep_mask = 0
        # a naive candidate evaluation scans the whole sub-log, so the
        # deadline checkpoint fires once per candidate
        ticker = active_ticker(every=4, context="ConsumeAttrCumul pass")
        for _ in range(problem.budget):
            best_attribute = None
            best_key: tuple[int, int, int] | None = None
            for attribute in candidates:
                ticker.tick(keep_mask)
                bit = 1 << attribute
                together = keep_mask | bit
                cooccurrence = sum(
                    1 for query in queries if query & together == together
                )
                key = (cooccurrence, frequencies[attribute], -attribute)
                if best_key is None or key > best_key:
                    best_key = key
                    best_attribute = attribute
            if best_attribute is None:
                break
            keep_mask |= 1 << best_attribute
            candidates.discard(best_attribute)
        self._record_passes(bit_count(keep_mask))
        return self.make_solution(problem, keep_mask)

    def _solve_vertical(
        self, problem: VisibilityProblem, frequencies: list[int]
    ) -> Solution:
        index = problem.index
        candidates = bit_indices(problem.new_tuple)
        pool = problem.new_tuple  # the candidates, as a mask
        keep_mask = 0
        current = problem.satisfiable_tids  # AND of selected columns so far
        cooccurrence = frequencies  # with the empty selection
        # a step is one batched count, so the clock is read every step
        ticker = active_ticker(every=1, context="ConsumeAttrCumul pass")
        picked = 0  # the previous step's pick
        for _ in range(problem.budget):
            ticker.tick(keep_mask)
            if picked:
                current = index.cooccurring_rows(picked, within=current)
                cooccurrence = index.attribute_frequencies(pool=pool, within=current)
            best_attribute, best_key = -1, (-1, 0, 0)  # any real key beats it
            for attribute in candidates:
                key = (cooccurrence[attribute], frequencies[attribute], -attribute)
                if key > best_key:
                    best_key = key
                    best_attribute = attribute
            picked = 1 << best_attribute
            keep_mask |= picked
            pool ^= picked
            candidates.remove(best_attribute)
        self._record_passes(bit_count(keep_mask))
        return self.make_solution(problem, keep_mask)


class ConsumeQueriesSolver(_EngineSolver):
    """Consume whole queries, cheapest (fewest new attributes) first.

    Deliberately re-scans the whole workload at each iteration, as the
    paper describes — this is why Fig 10 shows it consistently slower
    than the other greedies.  The vertical engine keeps the per-query
    scan but walks only the still-uncovered satisfiable rows (tracked as
    one bitset), skipping satisfiability and coverage re-checks.
    """

    name = "ConsumeQueries"
    optimal = False

    def _solve(self, problem: VisibilityProblem) -> Solution:
        if self.engine == "vertical":
            return self._solve_vertical(problem)
        return self._solve_naive(problem)

    def _solve_naive(self, problem: VisibilityProblem) -> Solution:
        new_tuple = problem.new_tuple
        keep_mask = 0
        budget_left = problem.budget
        consumed = 0
        # the clock is read at every step and every 256 rows of a pass, so
        # neither a short solve nor one long pass runs past a deadline
        step_ticker = active_ticker(every=1, context="ConsumeQueries pass")
        row_ticker = active_ticker(context="ConsumeQueries pass")
        while budget_left > 0:
            step_ticker.tick(keep_mask)
            best_query = None
            best_new = None
            # Full pass over the whole workload each iteration, exactly as
            # the paper describes ("we make a pass on the whole workload at
            # each iteration") — this is what makes it the slowest greedy.
            for query in problem.log:
                row_ticker.tick(keep_mask)
                if query & new_tuple != query:
                    continue  # demands attributes the product lacks
                new_attributes = bit_count(query & ~keep_mask)
                if new_attributes == 0 or new_attributes > budget_left:
                    continue  # already covered, or does not fit the budget
                if best_new is None or new_attributes < best_new:
                    best_new = new_attributes
                    best_query = query
            if best_query is None:
                break  # no remaining query fits the budget
            keep_mask |= best_query
            budget_left = problem.budget - bit_count(keep_mask)
            consumed += 1
        self._record_passes(consumed)
        return self.make_solution(
            problem, keep_mask, stats={"queries_consumed": consumed}
        )

    def _solve_vertical(self, problem: VisibilityProblem) -> Solution:
        log = problem.log
        index = problem.index
        keep_mask = 0
        budget_left = problem.budget
        consumed = 0
        # Satisfiable queries not yet covered by keep_mask.  A query with
        # zero new attributes is exactly a covered one, so the naive
        # engine's eligibility filter becomes bitset maintenance.
        uncovered = problem.satisfiable_tids & ~index.satisfied_rows(keep_mask)
        step_ticker = active_ticker(every=1, context="ConsumeQueries pass")
        row_ticker = active_ticker(context="ConsumeQueries pass")
        while budget_left > 0 and uncovered:
            step_ticker.tick(keep_mask)
            best_query = None
            best_new = None
            for tid in iter_bit_indices(uncovered):
                row_ticker.tick(keep_mask)
                new_attributes = bit_count(log[tid] & ~keep_mask)
                if new_attributes > budget_left:
                    continue
                if best_new is None or new_attributes < best_new:
                    best_new = new_attributes
                    best_query = log[tid]
                    if best_new == 1:
                        break  # an uncovered query introduces >= 1 attribute
            if best_query is None:
                break
            keep_mask |= best_query
            budget_left = problem.budget - bit_count(keep_mask)
            consumed += 1
            uncovered &= ~index.satisfied_rows(keep_mask, within=uncovered)
        self._record_passes(consumed)
        return self.make_solution(
            problem, keep_mask, stats={"queries_consumed": consumed}
        )


class CoverageGreedySolver(_EngineSolver):
    """Extension: classic greedy max-coverage on completed queries.

    Each step keeps the attribute whose addition *completes* the most
    queries (all their attributes selected); ties broken by how many
    still-incomplete queries the attribute appears in, then by index.

    Vertical engine: a query is completed by adding ``a`` iff it avoids
    every other unselected tuple attribute, so per step one prefix/suffix
    OR sweep over the candidate columns yields every candidate's
    "violator" bitset in O(|pool|) wide operations total.
    """

    name = "CoverageGreedy"
    optimal = False

    def _solve(self, problem: VisibilityProblem) -> Solution:
        if self.engine == "vertical":
            return self._solve_vertical(problem)
        return self._solve_naive(problem)

    def _solve_naive(self, problem: VisibilityProblem) -> Solution:
        queries = list(problem.satisfiable_queries)
        keep_mask = 0
        ticker = active_ticker(every=4, context="CoverageGreedy pass")
        for _ in range(problem.budget):
            best_attribute = None
            best_key: tuple[int, int, int] | None = None
            for attribute in bit_indices(problem.new_tuple & ~keep_mask):
                ticker.tick(keep_mask)
                bit = 1 << attribute
                extended = keep_mask | bit
                completed = 0
                touched = 0
                for query in queries:
                    if query & extended == query:
                        completed += 1
                    elif query & bit:
                        touched += 1
                key = (completed, touched, -attribute)
                if best_key is None or key > best_key:
                    best_key = key
                    best_attribute = attribute
            if best_attribute is None:
                break
            keep_mask |= 1 << best_attribute
            queries = [q for q in queries if q & keep_mask != q]
        self._record_passes(bit_count(keep_mask))
        return self.make_solution(problem, keep_mask)

    def _solve_vertical(self, problem: VisibilityProblem) -> Solution:
        index = problem.index
        keep_mask = 0
        # a step is one prefix/suffix sweep, so the clock is read every step
        ticker = active_ticker(every=1, context="CoverageGreedy pass")
        # Still-incomplete satisfiable queries.  The naive engine keeps
        # already-complete (e.g. empty) queries in its list until the
        # first filter pass; they shift every candidate's `completed`
        # count by the same constant, so dropping them up front leaves
        # every comparison — and the selection — unchanged.
        remaining = problem.satisfiable_tids & ~index.satisfied_rows(keep_mask)
        for _ in range(problem.budget):
            ticker.tick(keep_mask)
            pool = bit_indices(problem.new_tuple & ~keep_mask)
            if not pool:
                break
            columns = [index.column(attribute) for attribute in pool]
            # prefix/suffix ORs: violators of candidate i = every other
            # unselected tuple attribute's column
            size = len(pool)
            suffix = [0] * (size + 1)
            for i in range(size - 1, -1, -1):
                suffix[i] = suffix[i + 1] | columns[i]
            best_attribute = None
            best_key: tuple[int, int, int] | None = None
            best_violators = 0
            prefix = 0
            for i, attribute in enumerate(pool):
                violators = prefix | suffix[i + 1]
                completed = (remaining & ~violators).bit_count()
                touched = (remaining & columns[i]).bit_count() - completed
                key = (completed, touched, -attribute)
                if best_key is None or key > best_key:
                    best_key = key
                    best_attribute = attribute
                    best_violators = violators
                prefix |= columns[i]
            keep_mask |= 1 << best_attribute
            remaining &= best_violators  # completed queries leave the pool
        self._record_passes(bit_count(keep_mask))
        return self.make_solution(problem, keep_mask)
