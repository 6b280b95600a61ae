"""Cost-aware campaign planning for the shared work queue.

Every queued campaign (a lone sweep is a campaign of one) is laid out
by the two layers here:

* :mod:`repro.sched.estimator` — per-sweep cost estimates from the
  runtimes the sweep's cached seeds recorded, falling back to
  scenario-family priors when nothing was observed yet.
* :mod:`repro.sched.planner` — :func:`plan_campaign`, the one layout
  the coordinator writes to the queue: serve the costliest sweeps
  first and shard each one into chunks that shrink toward its tail,
  so the last tasks are fine-grained and no worker idles behind one
  fat chunk.

The fleet itself is a fixed number of local workers
(:class:`repro.simulation.distributed.LocalFleet`); planning only
decides the order and size of the tasks it drains.

Everything here is **result-neutral**: planning changes which worker
computes which seed when, never what any seed computes — the
equivalence suite asserts queued campaigns bit-identical to the
sequential oracle.
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
