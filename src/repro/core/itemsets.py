"""MaxFreqItemSets-SOC-CB-QL (Section IV.C).

The paper's scalable exact algorithm, reproduced in full:

1. **Complement the query log** — a query satisfies a tuple when it is a
   *subset*; itemset support wants *supersets*.  Over ``~Q`` the support
   of an itemset ``I`` equals ``#{q : q & I == 0}``, i.e. the number of
   queries that a tuple retaining exactly ``~I`` would satisfy.  The
   dense ``~Q`` is never materialised (see
   :class:`~repro.mining.transactions.ComplementedTransactions`).

2. **Mine the maximal frequent itemsets of ~Q** at a support threshold
   ``r``.  Engines: the paper's two-phase random walk
   (``miner="walk"``), the bottom-up walk of [11] (``miner="bottomup"``),
   or a deterministic GenMax-style DFS (``miner="dfs"``, our default —
   exact rather than exact-with-high-probability).

3. **Threshold policy** — ``threshold="adaptive"`` starts high and
   halves until a usable itemset appears (guaranteed optimal, per the
   paper); a fixed ``int`` (absolute) or ``float`` (fraction of ``|Q|``)
   reproduces the fixed-threshold heuristic, returning the best
   compression satisfying at least ``r`` queries or ``None``-like
   failure (we fall back to an arbitrary padding in that case, flagged
   in the stats).

4. **Extract level M - m** — among all frequent itemsets of size
   ``M - m`` that are supersets of ``~t`` (each is a subset of some
   maximal itemset), pick the one with the highest support; the answer
   is its complement.

Preprocessing (Section IV.C "Preprocessing Opportunities") is exposed
separately via :class:`MaximalItemsetIndex`: mine once per (log,
threshold), then answer per-tuple requests from the cached maximal
itemsets.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.booldata.table import BooleanTable
from repro.common.bits import bit_count, bit_indices, mask_complement
from repro.common.combinatorics import binomial, combinations_of_mask
from repro.common.deadline import active_ticker, deadline_scope
from repro.common.errors import (
    SolverBudgetExceededError,
    SolverInterrupted,
    ValidationError,
)
from repro.core.base import Solver
from repro.core.greedy import ConsumeAttrSolver
from repro.core.problem import Solution, VisibilityProblem
from repro.mining.maximal import mine_maximal_dfs, mine_maximal_reference
from repro.obs.recorder import get_recorder
from repro.mining.randomwalk import BottomUpRandomWalkMiner, TwoPhaseRandomWalkMiner
from repro.mining.transactions import ComplementedTransactions, TransactionDatabase

__all__ = ["MaxFreqItemsetsSolver", "MaximalItemsetIndex"]

_MINERS = ("dfs", "walk", "bottomup", "reference")


def _mine_maximal(
    complemented: ComplementedTransactions,
    threshold: int,
    miner: str,
    seed: int | random.Random | None,
    walk_iterations: int,
    walk_min_iterations: int = 0,
) -> dict[int, int]:
    if miner == "dfs":
        return mine_maximal_dfs(complemented, threshold)
    if miner == "reference":
        return mine_maximal_reference(complemented, threshold)
    if miner == "walk":
        mined, _ = TwoPhaseRandomWalkMiner(
            threshold,
            seed=seed,
            max_iterations=walk_iterations,
            min_iterations=walk_min_iterations,
        ).mine(complemented)
        return mined
    if miner == "bottomup":
        mined, _ = BottomUpRandomWalkMiner(
            threshold,
            seed=seed,
            max_iterations=walk_iterations,
            min_iterations=walk_min_iterations,
        ).mine(complemented)
        return mined
    raise ValidationError(f"unknown miner {miner!r}; expected one of {_MINERS}")


@dataclass
class _LevelPick:
    """Best frequent itemset found at level ``M - m``."""

    itemset: int
    support: int
    candidates_checked: int


def _best_level_itemset(
    complemented: ComplementedTransactions,
    maximal_itemsets: dict[int, int],
    complement_tuple: int,
    level: int,
    max_candidates: int,
) -> _LevelPick | None:
    """Pick the best size-``level`` superset of ``~t`` inside any MFI.

    Every frequent itemset of size ``level`` is a subset of some maximal
    frequent itemset, so enumerating, for each MFI ``J ⊇ ~t``, the
    submasks ``I`` with ``~t ⊆ I ⊆ J`` and ``|I| = level`` covers all
    candidates (Fig 4 of the paper).
    """
    best: _LevelPick | None = None
    checked = 0
    seen: set[int] = set()
    ticker = active_ticker(every=64, context="itemset level extraction")
    try:
        for maximal in maximal_itemsets:
            if maximal & complement_tuple != complement_tuple:
                continue  # not a superset of ~t
            if bit_count(maximal) < level:
                continue
            free = maximal & ~complement_tuple
            picks_needed = level - bit_count(complement_tuple)
            if picks_needed < 0 or picks_needed > bit_count(free):
                continue
            combination_count = binomial(bit_count(free), picks_needed)
            if checked + combination_count > max_candidates:
                # best_known is the partial _LevelPick; the solver paths
                # translate it into a valid keep_mask before the error escapes
                raise SolverBudgetExceededError(
                    "level extraction would enumerate more than "
                    f"{max_candidates} itemsets",
                    best_known=best,
                )
            for extra in combinations_of_mask(free, picks_needed):
                itemset = complement_tuple | extra
                if itemset in seen:
                    continue
                seen.add(itemset)
                checked += 1
                support = complemented.support(itemset)
                if best is None or support > best.support:
                    best = _LevelPick(itemset, support, checked)
                ticker.tick(best)
    finally:
        recorder = get_recorder()
        if recorder.enabled and checked:
            recorder.count("repro_itemset_level_candidates_total", checked)
    if best is not None:
        best.candidates_checked = checked
    return best


class MaximalItemsetIndex:
    """Tuple-independent preprocessing for MaxFreqItemSets-SOC-CB-QL.

    Mines the maximal frequent itemsets of ``~Q`` once per threshold and
    caches them; :meth:`lookup` then answers per-tuple requests without
    touching the miner again (the ~0.015 s runtime the paper reports
    when preprocessing is ignored).
    """

    def __init__(
        self,
        log: BooleanTable,
        miner: str = "dfs",
        seed: int | random.Random | None = 0,
        walk_iterations: int = 2_000,
        walk_min_iterations: int = 0,
    ) -> None:
        self.log = log
        self.miner = miner
        self.seed = seed
        self.walk_iterations = walk_iterations
        self.walk_min_iterations = walk_min_iterations
        self._transactions = TransactionDatabase.from_boolean_table(log)
        self._complemented = self._transactions.complement()
        self._cache: dict[int, dict[int, int]] = {}

    @property
    def complemented(self) -> ComplementedTransactions:
        return self._complemented

    def maximal_itemsets(self, threshold: int) -> dict[int, int]:
        """Mine (or fetch cached) MFIs of ``~Q`` at ``threshold``."""
        if threshold not in self._cache:
            self._cache[threshold] = _mine_maximal(
                self._complemented,
                threshold,
                self.miner,
                self.seed,
                self.walk_iterations,
                self.walk_min_iterations,
            )
        return self._cache[threshold]

    def precompute(self, thresholds) -> None:
        """Warm the cache for a ladder of thresholds."""
        for threshold in thresholds:
            self.maximal_itemsets(threshold)

    def lookup(
        self,
        new_tuple: int,
        budget: int,
        threshold: int,
        max_candidates: int = 5_000_000,
    ) -> _LevelPick | None:
        """Best level-(M-m) itemset for a tuple at a fixed threshold.

        Interruptions (budget or deadline) escape with ``best_known``
        already translated into a keep-mask incumbent, not the internal
        :class:`_LevelPick`.
        """
        width = self.log.schema.width
        complement_tuple = mask_complement(new_tuple, width)
        try:
            return _best_level_itemset(
                self._complemented,
                self.maximal_itemsets(threshold),
                complement_tuple,
                width - budget,
                max_candidates,
            )
        except SolverInterrupted as error:
            incumbent = error.best_known
            if isinstance(incumbent, _LevelPick):
                incumbent = mask_complement(incumbent.itemset, width)
            raise type(error)(str(error), best_known=incumbent) from None


class MaxFreqItemsetsSolver(Solver):
    """Exact solver via maximal frequent itemsets of the complemented log."""

    name = "MaxFreqItemSets"
    optimal = True

    def __init__(
        self,
        threshold: int | float | str = "adaptive",
        miner: str = "dfs",
        seed: int | random.Random | None = 0,
        walk_iterations: int = 2_000,
        walk_min_iterations: int = 0,
        restrict_to_satisfiable: bool = True,
        max_candidates: int = 5_000_000,
        index: MaximalItemsetIndex | None = None,
        greedy_seed: bool = True,
    ) -> None:
        if miner not in _MINERS:
            raise ValidationError(f"unknown miner {miner!r}; expected one of {_MINERS}")
        if isinstance(threshold, str) and threshold != "adaptive":
            raise ValidationError(f"unknown threshold policy {threshold!r}")
        if isinstance(threshold, float) and not 0 < threshold <= 1:
            raise ValidationError("fractional threshold must be in (0, 1]")
        if isinstance(threshold, int) and not isinstance(threshold, bool) and threshold < 1:
            raise ValidationError("absolute threshold must be >= 1")
        self.threshold = threshold
        self.miner = miner
        self.seed = seed
        self.walk_iterations = walk_iterations
        self.walk_min_iterations = walk_min_iterations
        self.restrict_to_satisfiable = restrict_to_satisfiable
        self.max_candidates = max_candidates
        #: seed the adaptive threshold with the ConsumeAttr lower bound:
        #: a greedy solution with value L is feasible, so the optimum is
        #: frequent at threshold L and one mining round suffices (our
        #: optimisation on top of the paper's halving ladder; disable to
        #: benchmark the ladder itself)
        self.greedy_seed = greedy_seed
        #: optional shared preprocessing index (forces
        #: ``restrict_to_satisfiable=False`` semantics, as the index is
        #: tuple-independent)
        self.index = index
        if index is not None:
            self.restrict_to_satisfiable = False
        #: fixed-threshold runs that found nothing are heuristic, not exact
        self.optimal = threshold == "adaptive"

    # -- helpers -----------------------------------------------------------------

    def _effective_log(self, problem: VisibilityProblem) -> BooleanTable:
        if not self.restrict_to_satisfiable:
            return problem.log
        return BooleanTable(problem.schema, problem.satisfiable_queries)

    def _resolve_threshold(self, log_size: int) -> int:
        if isinstance(self.threshold, float):
            return max(1, int(self.threshold * log_size))
        if self.threshold == "adaptive":
            return max(1, log_size // 2)
        return int(self.threshold)

    # -- main --------------------------------------------------------------------

    def _solve(self, problem: VisibilityProblem) -> Solution:
        if self.index is not None:
            return self._solve_with_index(problem)
        if self.restrict_to_satisfiable:
            return self._solve_projected(problem)
        return self._solve_unprojected(problem)

    def _anytime(
        self, problem: VisibilityProblem, error: SolverInterrupted, pick_to_mask
    ) -> SolverInterrupted:
        """Rebuild an interruption so ``best_known`` is a usable keep-mask.

        Partial :class:`_LevelPick` incumbents are translated through the
        calling path's own itemset-to-mask conversion; when the
        interruption fired before any candidate existed (e.g. inside the
        miner) the ConsumeAttr selection — always cheap and always a
        valid compression — stands in, so the anytime path never comes
        back empty-handed.  It runs outside the ambient deadline, which
        has already expired and would refuse it at its opening check.
        """
        incumbent = error.best_known
        if isinstance(incumbent, _LevelPick):
            incumbent = pick_to_mask(incumbent)
        if incumbent is None:
            with deadline_scope(None):
                incumbent = ConsumeAttrSolver().solve(problem).keep_mask
        return type(error)(str(error), best_known=incumbent)

    def _solve_projected(self, problem: VisibilityProblem) -> Solution:
        """Fast path: mine in the subspace of the tuple's own attributes.

        Queries not contained in ``t`` can never be satisfied and
        attributes outside ``t`` can never be retained, so the whole
        instance projects onto the ``|t|`` attributes of the new tuple:
        the projected tuple is all-ones (``~t`` becomes empty) and the
        lattice shrinks from ``2^M`` to ``2^|t|``.  Same answer,
        documented as our optimisation over the paper's presentation.
        """
        attributes = bit_indices(problem.new_tuple)
        positions = {attribute: j for j, attribute in enumerate(attributes)}
        projected_queries = []
        for query in problem.satisfiable_queries:
            mask = 0
            remaining = query
            while remaining:
                low = remaining & -remaining
                mask |= 1 << positions[low.bit_length() - 1]
                remaining ^= low
            projected_queries.append(mask)
        if not projected_queries:
            return self.make_solution(problem, 0, stats={"empty_effective_log": True})

        width = len(attributes)

        def lift(pick: _LevelPick) -> int:
            """Map a projected itemset back to a full-schema keep-mask."""
            keep_mask = 0
            remaining = mask_complement(pick.itemset, width)
            while remaining:
                low = remaining & -remaining
                keep_mask |= 1 << attributes[low.bit_length() - 1]
                remaining ^= low
            return keep_mask

        complemented = TransactionDatabase(width, projected_queries).complement()
        level = width - problem.budget  # non-trivial solve: budget < |t|
        try:
            pick, stats = self._mine_and_pick(
                problem, complemented, complement_tuple=0, level=level,
                log_size=len(projected_queries),
            )
        except SolverInterrupted as error:
            raise self._anytime(problem, error, lift) from None
        stats["projected_width"] = width
        if pick is None or pick.support == 0:
            stats["returned_empty"] = True
            return self.make_solution(problem, 0, stats=stats)
        stats["candidates_checked"] = pick.candidates_checked
        return self.make_solution(problem, lift(pick), stats=stats)

    def _solve_unprojected(self, problem: VisibilityProblem) -> Solution:
        """Paper-literal path over the full schema and (optionally) full log."""
        log = self._effective_log(problem)
        if not len(log):
            return self.make_solution(problem, 0, stats={"empty_effective_log": True})
        transactions = TransactionDatabase.from_boolean_table(log)
        complemented = transactions.complement()
        width = problem.width
        complement_tuple = mask_complement(problem.new_tuple, width)
        level = width - problem.budget

        try:
            pick, stats = self._mine_and_pick(
                problem, complemented, complement_tuple, level, len(log)
            )
        except SolverInterrupted as error:
            raise self._anytime(
                problem, error,
                lambda pick: mask_complement(pick.itemset, width),
            ) from None
        stats["effective_log_size"] = len(log)
        if pick is None or pick.support == 0:
            # Fixed threshold too high ("the algorithm will return
            # empty") or genuinely nothing satisfiable: fall back to an
            # arbitrary compression.
            stats["returned_empty"] = True
            return self.make_solution(problem, 0, stats=stats)
        stats["candidates_checked"] = pick.candidates_checked
        keep_mask = mask_complement(pick.itemset, width)
        return self.make_solution(problem, keep_mask, stats=stats)

    def _mine_and_pick(
        self,
        problem: VisibilityProblem,
        complemented: ComplementedTransactions,
        complement_tuple: int,
        level: int,
        log_size: int,
    ) -> tuple[_LevelPick | None, dict]:
        """Shared threshold-policy loop: mine MFIs, extract level M-m."""
        threshold = self._resolve_threshold(log_size)
        adaptive = self.threshold == "adaptive"
        greedy_bound = None
        if adaptive and self.greedy_seed:
            greedy_bound = ConsumeAttrSolver().solve(problem).satisfied
            if greedy_bound >= 1:
                # The optimum is >= the greedy value, hence frequent at
                # this threshold: one mining round is enough.
                threshold = greedy_bound
        rounds = 0
        pick: _LevelPick | None = None
        while True:
            rounds += 1
            maximal = _mine_maximal(
                complemented,
                threshold,
                self.miner,
                self.seed,
                self.walk_iterations,
                self.walk_min_iterations,
            )
            pick = _best_level_itemset(
                complemented, maximal, complement_tuple, level, self.max_candidates
            )
            if pick is not None and (not adaptive or pick.support >= 1):
                break
            if not adaptive or threshold == 1:
                break
            threshold = max(1, threshold // 2)  # paper: halve and retry

        stats = {
            "miner": self.miner,
            "final_threshold": threshold,
            "threshold_rounds": rounds,
        }
        if greedy_bound is not None:
            stats["greedy_seed_bound"] = greedy_bound
        return pick, stats

    def _solve_with_index(self, problem: VisibilityProblem) -> Solution:
        if self.index.log is not problem.log:
            raise ValidationError("preprocessing index was built for a different log")
        threshold = self._resolve_threshold(len(problem.log))
        adaptive = self.threshold == "adaptive"
        rounds = 0
        pick: _LevelPick | None = None
        while True:
            rounds += 1
            try:
                pick = self.index.lookup(
                    problem.new_tuple, problem.budget, threshold, self.max_candidates
                )
            except SolverInterrupted as error:
                # lookup already translated best_known into a keep-mask
                raise self._anytime(problem, error, lambda pick: None) from None
            if pick is not None and (not adaptive or pick.support >= 1):
                break
            if not adaptive or threshold == 1:
                break
            threshold = max(1, threshold // 2)
        stats = {
            "miner": self.miner,
            "final_threshold": threshold,
            "threshold_rounds": rounds,
            "used_index": True,
        }
        if pick is None or pick.support == 0:
            stats["returned_empty"] = True
            return self.make_solution(problem, 0, stats=stats)
        stats["candidates_checked"] = pick.candidates_checked
        keep_mask = mask_complement(pick.itemset, problem.width)
        return self.make_solution(problem, keep_mask, stats=stats)
