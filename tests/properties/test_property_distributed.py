"""Property tests for the distributed sweep layer (Hypothesis).

Three contracts that must hold for *any* input, not just the examples
the unit tests pick:

* **Key stability** — cache/task keys depend on the parameter *set*,
  never on dict insertion order or on whether the parameters took the
  JSON round trip through a task file.
* **Partition invariance** — any chunking of the same seed set merges
  into byte-identical sweep results.
* **Lease exclusivity** — however many claimers race, at most one
  holds the lease.
"""

import json
import threading

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import ExecutionProfile, SweepSpec
from repro.simulation import registry
from repro.simulation.cache import SweepCache
from repro.simulation.distributed import (
    WorkQueue,
    params_signature,
)
from repro.simulation.runner import average_series
from repro.simulation.sweep import execute_sweep

# JSON-native parameter values, as scenario defaults/overrides are.
_SCALARS = st.one_of(
    st.integers(min_value=-10**9, max_value=10**9),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=12),
    st.booleans(),
)
_VALUES = st.one_of(
    _SCALARS,
    st.lists(_SCALARS, max_size=4),
    st.lists(st.lists(_SCALARS, max_size=3), max_size=3),
)
_PARAM_DICTS = st.dictionaries(
    st.text(
        alphabet="abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=10
    ),
    _VALUES,
    max_size=6,
)


class TestKeyStability:
    @given(params=_PARAM_DICTS, data=st.data())
    def test_signature_ignores_insertion_order(self, params, data):
        items = list(params.items())
        shuffled = data.draw(st.permutations(items))
        assert params_signature(items) == params_signature(shuffled)

    @given(params=_PARAM_DICTS, seed=st.integers(0, 2**31))
    def test_cache_key_ignores_insertion_order_and_json_trip(
        self, params, seed
    ):
        signature = params_signature(params)
        reversed_signature = params_signature(
            list(reversed(list(params.items())))
        )
        wire = params_signature(
            json.loads(json.dumps([[k, v] for k, v in signature]))
        )
        key = SweepCache.key("scenario", signature, seed, version="v")
        assert key == SweepCache.key(
            "scenario", reversed_signature, seed, version="v"
        )
        assert key == SweepCache.key("scenario", wire, seed, version="v")

    @given(name=st.sampled_from(registry.names()))
    @settings(max_examples=20, deadline=None)
    def test_every_scenario_params_survive_the_task_file_trip(self, name):
        params = registry.get(name).params_key(smoke=True)
        wire = json.loads(json.dumps([[k, v] for k, v in params]))
        assert params_signature(wire) == params


class TestPartitionInvariance:
    @given(
        seed_count=st.integers(min_value=1, max_value=5),
        chunk_size=st.integers(min_value=1, max_value=7),
    )
    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_any_chunking_merges_to_the_oracle(
        self, tmp_path, seed_count, chunk_size
    ):
        """Distributed execution over any contiguous chunking of any
        seed set is byte-identical to the sequential oracle."""
        seeds = list(range(1, seed_count + 1))
        spec = registry.get("fig15-environment")
        oracle = average_series(spec.bound(smoke=True), seeds)
        sweep = execute_sweep(
            SweepSpec("fig15-environment", seeds, smoke=True),
            ExecutionProfile(
                workers=0, backend="distributed", chunk_size=chunk_size,
                no_cache=True,
                queue_dir=tmp_path / f"q-{seed_count}-{chunk_size}",
            ),
        )
        assert sweep.mean == oracle
        assert sweep.seeds == seeds
        assert [r for r in sweep.per_seed] == [
            spec.run(seed, smoke=True) for seed in seeds
        ]

    @given(
        seeds=st.lists(
            st.integers(min_value=0, max_value=10**6),
            min_size=1, max_size=40, unique=True,
        ),
        chunk_size=st.integers(min_value=1, max_value=9),
    )
    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_sharding_is_a_partition(self, tmp_path, seeds, chunk_size):
        """Task chunks are disjoint, contiguous and cover every seed in
        order — the precondition for order-preserving merges."""
        spec = registry.get("fig15-environment")
        queue = WorkQueue.create(
            tmp_path / "partition", spec.name,
            spec.params_key(smoke=True), seeds, chunk_size,
        )
        chunks = [
            queue.manifest["chunks"][task_id]
            for task_id in queue.task_ids()
        ]
        flattened = [seed for chunk in chunks for seed in chunk]
        assert flattened == seeds
        assert all(len(chunk) <= chunk_size for chunk in chunks)
        assert all(chunk for chunk in chunks)


class TestLeaseExclusivity:
    @given(claimers=st.integers(min_value=2, max_value=10))
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_at_most_one_concurrent_claimer_wins(self, tmp_path, claimers):
        spec = registry.get("fig15-environment")
        queue = WorkQueue.create(
            tmp_path / f"claims-{claimers}", spec.name,
            spec.params_key(smoke=True), [1], 1,
        )
        barrier = threading.Barrier(claimers)
        winners = []
        lock = threading.Lock()

        def contend(name):
            barrier.wait()
            claim = queue.claim("task-0000", name)
            if claim is not None:
                with lock:
                    winners.append(claim)

        threads = [
            threading.Thread(target=contend, args=(f"claimer-{i}",))
            for i in range(claimers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(winners) == 1
        # The lease on disk names the winner, and releasing it lets
        # exactly one next claimer in.
        claim = winners[0]
        assert claim.lease_path.read_text() == claim.owner
        queue.release(claim)
        assert queue.claim("task-0000", "afterwards") is not None
