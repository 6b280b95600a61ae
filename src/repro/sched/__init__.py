"""Cost-aware campaign scheduling and fleet autoscaling.

The distributed campaign machinery (PR 4/5) enqueues every sweep up
front with uniform chunking and a fixed worker fleet.  This package
adds the three layers that turn that into a scheduler:

* :mod:`repro.sched.estimator` — per-sweep cost estimates from the
  runtimes the sweep's cached seeds recorded, falling back to
  scenario-family priors when nothing was observed yet.
* :mod:`repro.sched.planner` — :func:`plan_campaign`, the one layout
  the coordinator writes to the queue: order a campaign's sweeps
  (submission order, or long-pole-first) and shard each one into
  chunks (uniform, or shrinking toward the tail so the last tasks are
  fine-grained and no worker idles behind one fat chunk).
* :mod:`repro.sched.autoscale` — a tick-based scaling policy with
  hysteresis plus the coordinator-side :class:`FleetSupervisor`, the
  one owner of local worker processes: it keeps a fixed fleet at size
  and replaces crashed workers, or spawns/retires them from observed
  queue depth when its bounds differ.

Everything here is **result-neutral**: scheduling changes which worker
computes which seed when, never what any seed computes — the
equivalence suite asserts ``schedule="cost"`` bit-identical to FIFO.
"""

from repro.sched.autoscale import (
    AutoscalePolicy,
    FleetSupervisor,
    QueueSample,
    ScaleDecision,
    load_autoscale_events,
)
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
    "AutoscalePolicy",
    "CampaignPlan",
    "CostEstimate",
    "FleetSupervisor",
    "PlannedSweep",
    "QueueSample",
    "ScaleDecision",
    "estimate_sweep_cost",
    "load_autoscale_events",
    "long_pole_order",
    "plan_campaign",
    "prior_seconds_per_seed",
    "shrinking_chunks",
]
