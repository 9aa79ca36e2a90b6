"""Random-walk miners for maximal frequent itemsets.

Two walks over the Boolean lattice, both returning maximal frequent
itemsets (MFIs) with high probability when repeated:

* :class:`BottomUpRandomWalkMiner` — the walk of Gunopulos et al. [11]:
  start at a random frequent singleton and add random items while the
  itemset stays frequent.  On dense data (the complemented query log)
  this traverses almost every lattice level, which is the inefficiency
  the paper calls out.
* :class:`TwoPhaseRandomWalkMiner` — the paper's contribution (Fig 3):
  a *down phase* starting from the full itemset removes random items
  until the set becomes frequent, then an *up phase* adds random items
  while frequency is preserved.  On dense data the walk stays near the
  top of the lattice.

Both miners use the paper's Good-Turing-motivated stopping rule: keep
walking until every discovered MFI has been discovered at least twice,
or a walk budget is exhausted.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass

from repro.common.bits import bit_indices
from repro.common.deadline import NULL_TICKER, active_deadline, active_ticker
from repro.common.errors import ValidationError
from repro.common.estimates import good_turing_unseen_estimate
from repro.common.rng import ensure_rng
from repro.obs.recorder import get_recorder

__all__ = ["WalkStatistics", "TwoPhaseRandomWalkMiner", "BottomUpRandomWalkMiner"]


@dataclass
class WalkStatistics:
    """Diagnostics of one mining run."""

    iterations: int
    converged: bool  # stopping rule satisfied within budget
    good_turing_estimate: float  # unseen-mass estimate at stop time
    lattice_steps: int  # total single-item moves across all walks


class _RandomWalkMinerBase:
    """Shared scaffolding: repetition loop + Good-Turing stopping rule."""

    def __init__(
        self,
        threshold: int,
        seed: int | random.Random | None = None,
        max_iterations: int = 2_000,
        min_discoveries: int = 2,
        min_iterations: int = 0,
    ) -> None:
        if threshold < 1:
            raise ValidationError(f"threshold must be >= 1, got {threshold}")
        if min_discoveries < 1:
            raise ValidationError("min_discoveries must be >= 1")
        if min_iterations > max_iterations:
            raise ValidationError("min_iterations cannot exceed max_iterations")
        self.threshold = threshold
        self.rng = ensure_rng(seed)
        self.max_iterations = max_iterations
        self.min_discoveries = min_discoveries
        #: lower bound on walks before the Good-Turing rule may stop the
        #: miner; the paper stops as soon as every MFI is seen twice, but
        #: that can fire before rare MFIs are hit even once.
        self.min_iterations = min_iterations
        self._steps = 0
        self._step_ticker = NULL_TICKER

    def mine(self, database) -> tuple[dict[int, int], WalkStatistics]:
        """Return ``({mfi_mask: support}, statistics)``.

        Every returned itemset is an MFI of ``database`` at
        ``self.threshold``, with its exact support.  Completeness holds
        only with high probability: walks are independent and at least
        ``min_iterations`` of them run, so an MFI that one walk reaches
        with probability ``p`` is missed with probability at most
        ``(1 - p) ** min_iterations``.
        """
        self._steps = 0
        if database.num_transactions < self.threshold:
            return {}, WalkStatistics(0, True, 0.0, 0)

        discoveries: Counter[int] = Counter()
        draws: list[int] = []
        iterations = 0
        # Walks are expensive (many support counts each), so the deadline
        # is read once per walk; single lattice steps checkpoint too.
        deadline = active_deadline()
        self._step_ticker = active_ticker(context="random-walk lattice steps")
        try:
            while iterations < self.max_iterations:
                if deadline is not None:
                    deadline.check(context="random-walk mining")
                if (
                    iterations >= self.min_iterations
                    and discoveries
                    and all(
                        count >= self.min_discoveries
                        for count in discoveries.values()
                    )
                ):
                    break
                itemset = self._walk(database)
                discoveries[itemset] += 1
                draws.append(itemset)
                iterations += 1
        finally:
            # partial work still lands in the counters when the deadline
            # interrupts a walk mid-loop
            recorder = get_recorder()
            if recorder.enabled:
                recorder.count("repro_randomwalk_walks_total", iterations)
                recorder.count("repro_randomwalk_steps_total", self._steps)

        converged = bool(discoveries) and all(
            count >= self.min_discoveries for count in discoveries.values()
        )
        supports = {mask: database.support(mask) for mask in discoveries}
        stats = WalkStatistics(
            iterations=iterations,
            converged=converged,
            good_turing_estimate=good_turing_unseen_estimate(draws),
            lattice_steps=self._steps,
        )
        return supports, stats

    # -- walk pieces ------------------------------------------------------------

    def _walk(self, database) -> int:
        raise NotImplementedError

    def _up_phase(self, database, itemset: int) -> int:
        """Add random items while the itemset stays frequent (paper Fig 3b)."""
        candidates = [
            item
            for item in range(database.width)
            if not itemset >> item & 1
        ]
        self.rng.shuffle(candidates)
        active = True
        while active:
            active = False
            kept = []
            for item in candidates:
                self._step_ticker.tick()
                extended = itemset | (1 << item)
                if database.support(extended) >= self.threshold:
                    itemset = extended
                    self._steps += 1
                    active = True
                else:
                    kept.append(item)
            candidates = kept
        return itemset


class TwoPhaseRandomWalkMiner(_RandomWalkMinerBase):
    """The paper's top-down/up random walk (Section IV.C, Fig 3)."""

    def _walk(self, database) -> int:
        # Down phase: from the full itemset, remove random items until frequent.
        itemset = (1 << database.width) - 1
        present = bit_indices(itemset)
        self.rng.shuffle(present)
        while database.support(itemset) < self.threshold:
            if not present:
                raise ValidationError(
                    "down phase reached the empty itemset while still infrequent; "
                    "threshold exceeds the number of transactions"
                )
            item = present.pop()
            itemset ^= 1 << item
            self._steps += 1
        return self._up_phase(database, itemset)


class BottomUpRandomWalkMiner(_RandomWalkMinerBase):
    """Bottom-up walk of Gunopulos et al. [11]: singleton seed, then grow."""

    def _walk(self, database) -> int:
        frequent_singletons = [
            item
            for item in range(database.width)
            if database.support(1 << item) >= self.threshold
        ]
        if not frequent_singletons:
            return 0  # the empty itemset is the only (degenerate) MFI
        seed_item = self.rng.choice(frequent_singletons)
        return self._up_phase(database, 1 << seed_item)
