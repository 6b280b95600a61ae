"""Cost-aware campaign scheduling.

The distributed campaign machinery (PR 4/5) enqueues every sweep up
front with uniform chunking onto a fixed worker fleet.  This package
adds the two layers that turn that into a scheduler:

* :mod:`repro.sched.estimator` — per-sweep cost estimates from the
  runtimes the sweep's cached seeds recorded, falling back to
  scenario-family priors when nothing was observed yet.
* :mod:`repro.sched.planner` — :func:`plan_campaign`, the one layout
  the coordinator writes to the queue: order a campaign's sweeps
  (submission order, or long-pole-first) and shard each one into
  chunks (uniform, or shrinking toward the tail so the last tasks are
  fine-grained and no worker idles behind one fat chunk).

The fleet itself is a fixed number of local workers
(:class:`repro.simulation.distributed.LocalFleet`); scheduling only
decides the order and size of the tasks it drains.

Everything here is **result-neutral**: scheduling changes which worker
computes which seed when, never what any seed computes — the
equivalence suite asserts ``schedule="cost"`` bit-identical to FIFO.
"""

from repro.sched.estimator import (
    CostEstimate,
    estimate_sweep_cost,
    prior_seconds_per_seed,
)
from repro.sched.planner import (
    CampaignPlan,
    PlannedSweep,
    long_pole_order,
    plan_campaign,
    shrinking_chunks,
)

__all__ = [
    "CampaignPlan",
    "CostEstimate",
    "PlannedSweep",
    "estimate_sweep_cost",
    "long_pole_order",
    "plan_campaign",
    "prior_seconds_per_seed",
    "shrinking_chunks",
]
