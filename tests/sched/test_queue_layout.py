"""The queue layout ``execute_queued`` writes is ``plan_campaign``'s.

The planner's property suite (``test_planner.py``) only protects
production if production runs the planner.  These tests spy on
:meth:`WorkQueue.create`, read back every task file and manifest the
coordinator wrote, and compare them with the plan computed
independently from the same jobs.  A ``stop`` that is already true
aborts each run before any seed computes, so the whole grid costs
milliseconds per case.

The planner is also driven end to end from the result cache: a
partially cached sweep must be priced from its cached seeds' recorded
runtimes, not from the family prior.
"""

import json

import pytest

from repro.api import ExecutionProfile, SweepSpec
from repro.sched import estimate_sweep_cost, plan_campaign
from repro.simulation import registry
from repro.simulation.cache import SweepCache
from repro.simulation.distributed import (
    QueuedJob,
    SweepAborted,
    WorkQueue,
    execute_queued,
)
from repro.simulation.sweep import execute_campaign

# Three sweeps whose submission order, cost order and auto chunk
# sizes all differ.  By prior alone table1 is the long pole and fig15
# the cheapest; fig15's telemetry (0.3 s/seed) makes it the long pole.
_JOBS = (
    ("fig15-environment", tuple(range(1, 8)), {90: 0.4, 91: 0.2}),
    ("table1-connectivity", (4, 5, 6), {}),
    ("fig7-mutuality", tuple(range(10, 22)), {}),
)


def _jobs(count, telemetry=True, seeds_each=None):
    """The first ``count`` jobs; ``seeds_each`` gives every job that
    many seeds (from its first one) instead of its own list."""
    return [
        QueuedJob(
            scenario=scenario,
            params=registry.get(scenario).params_key(smoke=True),
            seeds=(seeds if seeds_each is None
                   else tuple(range(seeds[0], seeds[0] + seeds_each))),
            runtimes=runtimes if telemetry else {},
        )
        for scenario, seeds, runtimes in _JOBS[:count]
    ]


@pytest.fixture
def written(monkeypatch):
    """Record what every ``WorkQueue.create`` call put on disk."""
    layouts = []
    create = WorkQueue.create.__func__

    def spy(cls, *args, **kwargs):
        queue = create(cls, *args, **kwargs)
        tasks = sorted((queue.sweep_dir / "tasks").glob("task-*.json"))
        layouts.append({
            "manifest": json.loads(
                (queue.sweep_dir / "manifest.json").read_text()
            ),
            "chunks": tuple(
                tuple(json.loads(path.read_text())["seeds"])
                for path in tasks
            ),
        })
        return queue

    monkeypatch.setattr(WorkQueue, "create", classmethod(spy))
    return layouts


def _enqueue_only(jobs, tmp_path, **kwargs):
    with pytest.raises(SweepAborted):
        execute_queued(
            jobs, workers=0, queue_dir=tmp_path / "queue",
            stop=lambda: True, **kwargs,
        )


@pytest.mark.parametrize("sweeps", [1, 2, 3])
# A fleet of one cuts a base chunk of ceil(seeds / 4): these sweep
# sizes give every job a base chunk of 1 to 5 seeds; "own" keeps each
# job's seed list, so the jobs' base chunks differ.
@pytest.mark.parametrize(("seeds_each", "base"), [
    pytest.param(None, None, id="own"),
    pytest.param(4, 1, id="base1"),
    pytest.param(8, 2, id="base2"),
    pytest.param(12, 3, id="base3"),
    pytest.param(16, 4, id="base4"),
    pytest.param(20, 5, id="base5"),
])
@pytest.mark.parametrize("telemetry", [True, False],
                         ids=["telemetry", "priors"])
def test_task_files_are_the_plan(
    written, tmp_path, telemetry, seeds_each, base, sweeps
):
    jobs = _jobs(sweeps, telemetry, seeds_each)
    _enqueue_only(jobs, tmp_path)

    estimates = [
        estimate_sweep_cost(job.scenario, job.params, job.seeds,
                            runtimes=job.runtimes)
        for job in jobs
    ]
    # workers=0: the coordinator drains inline, a fleet of one.
    plan = plan_campaign([job.seeds for job in jobs], 1, estimates)
    assert len(written) == len(plan.sweeps)
    for layout, planned in zip(written, plan.sweeps):
        manifest = layout["manifest"]
        assert layout["chunks"] == planned.chunks
        assert manifest["rank"] == planned.rank
        assert manifest["sweep"].startswith(f"sweep-r{planned.rank:04d}-")
        # The layout starts at the plan's base chunk.
        assert len(layout["chunks"][0]) == planned.chunk_size
        if base is not None:
            assert planned.chunk_size == base
        assert manifest["est_seconds_per_seed"] == pytest.approx(
            planned.estimate.seconds_per_seed
        )
    if sweeps == 3:
        # fig15 is the long pole by telemetry, the cheapest by prior.
        assert plan.sweeps[0].rank == (0 if telemetry else 2)
    # Nothing left behind by the aborted run.
    assert list((tmp_path / "queue").iterdir()) == []


def test_bad_chunk_size_is_rejected_before_anything_is_written(tmp_path):
    # The code sizes every chunk; there is none to pick.
    with pytest.raises(TypeError, match="chunk_size"):
        execute_queued(_jobs(1), workers=0, queue_dir=tmp_path / "queue",
                       chunk_size=0)
    assert not (tmp_path / "queue").exists()


def test_cached_runtimes_price_a_partially_cached_sweep(written, tmp_path):
    """fig15 seeds 1-4 are cached with a recorded 5 s/seed runtime, so
    the queued seeds 5-8 are priced at 5 s/seed (not the family prior
    of ~1 ms) and fig15 outranks fig7's two prior-priced seeds."""
    cache_dir = tmp_path / "cache"
    fig15 = SweepSpec("fig15-environment", range(1, 9), smoke=True)
    fig7 = SweepSpec("fig7-mutuality", [1, 2], smoke=True)
    params = fig15.params_key()
    cache = SweepCache(cache_dir)
    for seed, key in SweepCache.keys_for(
        fig15.scenario, params, range(1, 5)
    ).items():
        cache.put(key, registry.run_reduced(fig15.scenario, params, seed),
                  runtime=5.0)

    profile = ExecutionProfile(
        workers=0, backend="distributed", queue_dir=tmp_path / "queue",
        cache_dir=cache_dir,
    )
    results = execute_campaign([fig15, fig7], profile)

    fig15_layout, fig7_layout = written
    assert fig15_layout["manifest"]["seeds"] == [5, 6, 7, 8]
    assert fig15_layout["manifest"]["est_seconds_per_seed"] == (
        pytest.approx(5.0)
    )
    assert fig15_layout["manifest"]["rank"] == 0
    assert fig7_layout["manifest"]["rank"] == 1
    # Planning moved the work, never changed it.
    oracle = execute_campaign(
        [fig15, fig7], ExecutionProfile(workers=1, no_cache=True),
    )
    assert [r.mean for r in results] == [r.mean for r in oracle]
