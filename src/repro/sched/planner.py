"""Pure campaign planning: long-pole-first ordering, shrinking chunks.

Two classic makespan levers, both result-neutral:

* **LPT ordering.**  Serving the most expensive sweep first means its
  tasks overlap everything else; serving it last means the fleet
  drains and then watches one worker grind the long pole alone.  With
  W workers, one sweep of cost C and fillers totalling F, worst-first
  ordering approaches ``F/W + C`` while long-pole-first approaches
  ``(F + C)/W`` — the gap is why every queue layout is planned by cost.
* **Shrinking chunks.**  Uniform chunking trades claim overhead
  against tail imbalance at one fixed point.  Shrinking chunks take
  big bites while the queue is deep (cheap claims) and halve the
  chunk size as the remaining work drops, so the final tasks are
  single seeds and no worker idles behind one fat last chunk.

:func:`plan_campaign` is the one place a campaign becomes a queue
layout: :func:`repro.simulation.distributed.execute_queued` writes its
plan's chunks, ranks and estimates to the task files verbatim.
Everything here is deterministic and free of I/O, so the Hypothesis
property suite can hammer it: every plan covers every seed exactly
once, ordering is stable under ties, chunk sizes never grow.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence, Tuple

from repro.sched.estimator import CostEstimate
from repro.simulation.parallel import auto_chunk_size


def long_pole_order(costs: Sequence[float]) -> Tuple[int, ...]:
    """Indices of ``costs`` from most to least expensive, ties stable.

    Stability matters for determinism: two sweeps with equal estimates
    keep their submission order, so the plan is a pure function of the
    campaign — reruns produce the same queue layout.
    """
    return tuple(
        sorted(range(len(costs)), key=lambda i: (-float(costs[i]), i))
    )


def shrinking_chunks(
    seeds: Sequence[int], base_chunk: int,
) -> Tuple[Tuple[int, ...], ...]:
    """Shard ``seeds`` into contiguous chunks that shrink near the tail.

    Starts at ``base_chunk`` and halves the size whenever the remaining
    seed count falls to twice the current size, down to single-seed
    chunks — the tail is always fine-grained regardless of how lumpy
    the start was.  Order-preserving and exact: concatenating the
    chunks reproduces ``seeds``.
    """
    if base_chunk < 1:
        raise ValueError(f"base_chunk must be >= 1, got {base_chunk}")
    seed_list = list(seeds)
    total = len(seed_list)
    chunks = []
    size = base_chunk
    index = 0
    while index < total:
        while size > 1 and (total - index) <= 2 * size:
            size = max(1, size // 2)
        chunks.append(tuple(seed_list[index:index + size]))
        index += size
    return tuple(chunks)


@dataclass(frozen=True)
class PlannedSweep:
    """One sweep's slot in a campaign plan.

    ``index`` is the sweep's position in the submitted campaign;
    ``rank`` is its serving position in the queue (0 = first, the
    costliest estimate).  ``chunk_size`` is the base chunk the layout
    was cut from: the chunks start there and shrink toward the tail.
    """

    index: int
    rank: int
    chunk_size: int
    chunks: Tuple[Tuple[int, ...], ...]
    estimate: CostEstimate

    @property
    def seeds(self) -> Tuple[int, ...]:
        return tuple(s for chunk in self.chunks for s in chunk)


@dataclass(frozen=True)
class CampaignPlan:
    """A full campaign plan, sweeps in submission order."""

    sweeps: Tuple[PlannedSweep, ...] = field(default_factory=tuple)

    @property
    def total_seeds(self) -> int:
        return sum(len(sweep.seeds) for sweep in self.sweeps)

    @property
    def estimated_seconds(self) -> float:
        return sum(sweep.estimate.total_seconds for sweep in self.sweeps)


def plan_campaign(
    seed_lists: Sequence[Sequence[int]],
    workers: int,
    estimates: Sequence[CostEstimate],
) -> CampaignPlan:
    """Plan a campaign's queue layout.

    Sweeps are ranked long-pole-first by ``estimates`` (one per sweep;
    equal estimates keep submission order) and each is sharded into
    shrinking chunks from a base chunk the code sizes for ``workers``:
    :func:`~repro.simulation.parallel.auto_chunk_size`, the pool's own
    batch size.  The plan covers exactly the submitted seeds: planning
    moves work, never changes it.
    """
    if len(estimates) != len(seed_lists):
        raise ValueError(
            f"{len(seed_lists)} sweeps but {len(estimates)} estimates"
        )
    order = long_pole_order([est.total_seconds for est in estimates])
    ranks = {sweep_index: rank for rank, sweep_index in enumerate(order)}

    planned = []
    for index, seeds in enumerate(seed_lists):
        base = auto_chunk_size(len(seeds), workers)
        planned.append(PlannedSweep(
            index=index,
            rank=ranks[index],
            chunk_size=base,
            chunks=shrinking_chunks(seeds, base),
            estimate=estimates[index],
        ))
    return CampaignPlan(sweeps=tuple(planned))
