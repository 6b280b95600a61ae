"""Property test for the retry/quarantine state machine (Hypothesis).

The contract, for *any* mix of healthy, poison, and flaky seeds and any
chunking: the sweep terminates, every healthy seed's result is
bit-identical to the sequential oracle, and ``failed_seeds`` together
with the succeeded seeds exactly partitions the submitted seed set —
no seed lost, no seed double-counted.
"""

import os
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.simulation import registry
from repro.simulation.distributed import WorkQueue, worker_loop

SCENARIO = "fig15-environment"
BUDGET = 2

# healthy | poison (always raises) | flaky-pass (fails BUDGET-1
# attempts, then succeeds) | flaky-fail (outlasts the budget).
_BEHAVIORS = st.sampled_from(
    ["healthy", "poison", "flaky-pass", "flaky-fail"]
)

_ORACLE = {}


def _oracle(seed):
    if seed not in _ORACLE:
        _ORACLE[seed] = registry.get(SCENARIO).run(seed, smoke=True)
    return _ORACLE[seed]


def _cut(seeds, cuts):
    """``seeds`` as contiguous chunks: a new chunk starts at every
    seed whose flag in ``cuts`` (one per seed after the first; extra
    flags are ignored) is true."""
    chunks = [[seeds[0]]]
    for seed, cut in zip(seeds[1:], cuts):
        if cut:
            chunks.append([])
        chunks[-1].append(seed)
    return chunks


def _fault_env(plan):
    specs = []
    for seed, behavior in plan.items():
        if behavior == "poison":
            specs.append(f"raise:{seed}")
        elif behavior == "flaky-pass":
            specs.append(f"flaky:{seed}:{BUDGET - 1}")
        elif behavior == "flaky-fail":
            specs.append(f"flaky:{seed}:{BUDGET + 2}")
    return ",".join(specs)


class TestRetryQuarantinePartition:
    @given(
        behaviors=st.lists(_BEHAVIORS, min_size=2, max_size=4),
        cuts=st.lists(st.booleans(), min_size=3, max_size=3),
    )
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_failed_and_succeeded_partition_the_seed_set(
        self, behaviors, cuts
    ):
        plan = {seed: b for seed, b in enumerate(behaviors, start=1)}
        seeds = sorted(plan)
        expected_failed = {
            seed for seed, behavior in plan.items()
            if behavior in ("poison", "flaky-fail")
        }
        spec = registry.get(SCENARIO)
        previous = os.environ.get("REPRO_WORKER_FAULT")
        with tempfile.TemporaryDirectory() as root:
            queue = WorkQueue.create(
                Path(root) / "queue", SCENARIO,
                spec.params_key(smoke=True), seeds, _cut(seeds, cuts),
                max_attempts=BUDGET,
            )
            os.environ["REPRO_WORKER_FAULT"] = _fault_env(plan)
            try:
                worker_loop(Path(root) / "queue", None, drain=True)
            finally:
                if previous is None:
                    os.environ.pop("REPRO_WORKER_FAULT", None)
                else:
                    os.environ["REPRO_WORKER_FAULT"] = previous
            assert queue.is_complete()  # the sweep terminated
            results, failures, _ = queue.collect()

        # Exact partition: succeeded ∪ failed == seeds, disjoint.
        assert set(results) | set(failures) == set(seeds)
        assert set(results) & set(failures) == set()
        assert set(failures) == expected_failed
        # Healthy (and recovered-flaky) seeds match the oracle's bits.
        for seed in results:
            assert results[seed] == _oracle(seed)
        # Every failure record is attributable and budget-bounded.
        for seed, record in failures.items():
            assert record["seed"] == seed
            assert record["error_type"] == "InjectedFaultError"
            assert 1 <= record["attempts"] <= BUDGET
