"""Campaign scheduling benchmark — cost-aware ordering vs FIFO on the
same fixed fleet, on a deliberately mixed campaign.

The campaign is the scheduler's target case: several cheap filler
sweeps submitted first and one expensive long-pole sweep submitted
*last* (``fig15-environment`` with a large ``runs`` override — per-seed
cost scales linearly with ``runs``, which is exactly what the family
priors model).  FIFO serves in submission order, so the fleet drains
the fillers together and then watches the long pole grind at the end;
the cost scheduler ranks the long pole first from its prior, so its
work overlaps everything else.  Both modes run the identical specs on
a fleet of ``workers`` local daemons:

* ``fifo_fixed`` — ``schedule="fifo"``;
* ``cost_fixed`` — ``schedule="cost"``.

The two modes alternate for ``--reps`` rounds (FIFO first in even
rounds, cost first in odd ones), and each mode's makespan is reported
as the median and quartiles over its rounds.  Timing is *recorded,
never asserted* (shared CI runners make timing assertions flaky); it
lands in ``BENCH_campaign.json``.  What **is** asserted — and exits
non-zero from the CLI — is the scheduler's contract: every run of
both modes produces bit-identical per-seed results and means against
the sequential oracle, with zero steals and zero requeues.

Usage::

    PYTHONPATH=src python benchmarks/bench_campaign.py \
        --smoke --reps 10 --out BENCH_campaign.json
    PYTHONPATH=src python -m pytest -o python_files="bench_*.py" \
        benchmarks/bench_campaign.py -s
"""

import argparse
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

from repro.api import ExecutionProfile, SweepSpec
from repro.sched import estimate_sweep_cost
from repro.simulation.cache import code_version
from repro.simulation.sweep import execute_campaign, execute_sweep

SCENARIO = "fig15-environment"
DEFAULT_WORKERS = 3
DEFAULT_REPS = 3
MODES = {"fifo_fixed": "fifo", "cost_fixed": "cost"}

# Smoke scale: the long pole is ~2x any single worker's share of the
# fillers, so FIFO's tail is structural, not noise.
SMOKE = dict(long_runs=3000, long_seeds=1,
             filler_runs=130, filler_sweeps=8, filler_seeds=6)
FULL = dict(long_runs=8000, long_seeds=2,
            filler_runs=400, filler_sweeps=10, filler_seeds=8)


def _build_specs(long_runs, long_seeds, filler_runs, filler_sweeps,
                 filler_seeds):
    """Fillers first, the long pole last — FIFO's worst case."""
    specs = [
        SweepSpec(SCENARIO, seeds=range(1, filler_seeds + 1), smoke=True,
                  overrides={"runs": filler_runs})
        for _ in range(filler_sweeps)
    ]
    specs.append(
        SweepSpec(SCENARIO, seeds=range(1, long_seeds + 1), smoke=True,
                  overrides={"runs": long_runs})
    )
    return specs


def _timed_campaign(specs, profile):
    start = time.perf_counter()
    results = execute_campaign(specs, profile)
    return results, time.perf_counter() - start


def _spread(values):
    """Median and quartiles (one value is its own quartiles)."""
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3}


def run_bench(workers: int = 0, scale: dict = None,
              reps: int = DEFAULT_REPS) -> dict:
    """Both modes, alternated for ``reps`` rounds; returns the
    ``BENCH_campaign.json`` payload.

    Raises ``AssertionError`` if any run diverges from the sequential
    oracle or steals or requeues — the only failure this bench can
    produce.
    """
    workers = workers or DEFAULT_WORKERS
    scale = dict(SMOKE if scale is None else scale)
    specs = _build_specs(**scale)

    oracles = [
        execute_sweep(spec, ExecutionProfile(no_cache=True))
        for spec in specs
    ]

    walls = {name: [] for name in MODES}
    with tempfile.TemporaryDirectory(prefix="bench-campaign-") as tmp:
        for rep in range(reps):
            order = list(MODES) if rep % 2 == 0 else list(MODES)[::-1]
            for name in order:
                profile = ExecutionProfile(
                    workers=workers, backend="distributed", no_cache=True,
                    queue_dir=str(Path(tmp) / f"{name}-{rep}"),
                    schedule=MODES[name],
                )
                results, wall = _timed_campaign(specs, profile)
                # Correctness gate: scheduling moved the work, never
                # changed it.
                for spec, sweep, oracle in zip(specs, results, oracles):
                    assert sweep.per_seed == oracle.per_seed, (
                        f"{name} per-seed results diverge from the "
                        f"oracle on {spec.scenario} "
                        f"x{dict(spec.overrides)}"
                    )
                    assert sweep.mean == oracle.mean, (
                        f"{name} mean diverges from the oracle"
                    )
                    assert sweep.steals == 0, f"{name} stole a lease"
                    assert sweep.requeues == 0, f"{name} requeued a task"
                walls[name].append(wall)

    modes = {
        name: {"schedule": MODES[name], "wall_seconds": walls[name],
               "makespan": _spread(walls[name])}
        for name in MODES
    }
    cost_median = modes["cost_fixed"]["makespan"]["median"]
    estimates = [
        estimate_sweep_cost(spec.scenario, spec.overrides, spec.seeds)
        for spec in specs
    ]
    return {
        "scenario": SCENARIO,
        "workers": workers,
        "reps": reps,
        "scale": scale,
        "sweeps": len(specs),
        "total_seeds": sum(len(spec.seeds) for spec in specs),
        "code_version": code_version(),
        "equivalent": True,
        "modes": modes,
        "speedup": (modes["fifo_fixed"]["makespan"]["median"] / cost_median
                    if cost_median > 0 else float("inf")),
        "estimates": [
            {"scenario": est.scenario, "seeds": est.seeds,
             "seconds_per_seed": est.seconds_per_seed,
             "total_seconds": est.total_seconds, "source": est.source}
            for est in estimates
        ],
    }


def test_campaign_scheduler(once, tmp_path):
    """Bench harness entry: small scale, artifact into the test tmp dir."""
    payload = once(lambda: run_bench(
        workers=2,
        scale=dict(long_runs=600, long_seeds=1,
                   filler_runs=25, filler_sweeps=6, filler_seeds=6),
        reps=2,
    ))
    assert payload["equivalent"]
    assert set(payload["modes"]) == set(MODES)
    assert all(len(mode["wall_seconds"]) == 2
               for mode in payload["modes"].values())
    assert payload["speedup"] > 0.0
    # The long pole's prior dwarfs the fillers', so the planner had a
    # real ordering signal (the makespan itself is never asserted).
    totals = [est["total_seconds"] for est in payload["estimates"]]
    assert totals[-1] == max(totals)
    out = tmp_path / "BENCH_campaign.json"
    out.write_text(json.dumps(payload, indent=2, sort_keys=True))
    print()
    print(_summary(payload))


def _summary(payload: dict) -> str:
    lines = [
        f"campaign scheduling — {payload['sweeps']} sweep(s), "
        f"{payload['total_seeds']} seeds, {payload['workers']} workers, "
        f"{payload['reps']} alternating rep(s) "
        f"(code {payload['code_version']})"
    ]
    for name, mode in payload["modes"].items():
        spread = mode["makespan"]
        lines.append(
            f"  {name:<11} makespan median {spread['median']:7.3f}s "
            f"[q1 {spread['q1']:.3f}s, q3 {spread['q3']:.3f}s]"
            f"  [schedule={mode['schedule']}]"
        )
    lines.append(
        f"  cost vs fifo: {payload['speedup']:.2f}x median makespan"
    )
    long_pole = payload["estimates"][-1]
    lines.append(
        f"  long pole (submitted last): "
        f"~{long_pole['total_seconds']:.2f}s by {long_pole['source']} "
        f"estimate vs ~{sum(e['total_seconds'] for e in payload['estimates'][:-1]):.2f}s of fillers"
    )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Campaign scheduling benchmark; fails only on "
                    "correctness (equivalence), never on timing.",
    )
    parser.add_argument("--workers", type=int, default=0,
                        help=f"fleet size (default {DEFAULT_WORKERS})")
    parser.add_argument("--reps", type=int, default=DEFAULT_REPS,
                        help="alternating rounds of both modes "
                             f"(default {DEFAULT_REPS})")
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized campaign")
    parser.add_argument("--out", default="BENCH_campaign.json",
                        help="artifact path (default BENCH_campaign.json)")
    args = parser.parse_args(argv)
    if args.reps < 1:
        parser.error("--reps must be at least 1")

    try:
        payload = run_bench(
            workers=args.workers,
            scale=SMOKE if args.smoke else FULL,
            reps=args.reps,
        )
    except AssertionError as error:
        print(f"EQUIVALENCE FAILURE: {error}", file=sys.stderr)
        return 1
    Path(args.out).write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
    print(_summary(payload))
    print(f"[artifact written to {args.out}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
