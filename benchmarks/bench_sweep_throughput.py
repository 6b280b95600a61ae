"""Sweep throughput benchmark — records the speedups, asserts only
correctness.

Runs one registered scenario (default: ``fig15-environment``, the
cheapest per-seed experiment and therefore the most pool-bound) through
the sweep runtime's execution modes and writes ``BENCH_sweep.json``:

* ``sequential``        — workers=1, the oracle;
* ``parallel_per_seed`` — process pool, ``chunk_size=1`` (PR 1's
  one-task-per-seed scheduling);
* ``parallel_chunked``  — process pool, auto chunking (batched seeds
  amortize task dispatch + pickling);
* ``cold_cache``        — chunked run that also fills a fresh result
  cache;
* ``warm_cache``        — the same sweep again, replayed entirely from
  the cache.

fig15 at ``runs=1`` is deliberately the cache's *worst* case (per-seed
compute barely exceeds the replay cost), so a second section runs the
cold/warm pair on a realistically-priced scenario
(``fig7-mutuality``) where replay is orders of magnitude faster.

Timing is *recorded, never asserted* — shared CI runners make timing
assertions flaky, so the numbers land in the JSON artifact for humans
and regression tooling.  What **is** asserted (and exits non-zero from
the CLI) is correctness: every mode must produce bit-identical per-seed
results and means.

Usage::

    PYTHONPATH=src python benchmarks/bench_sweep_throughput.py \
        --smoke --out BENCH_sweep.json
    PYTHONPATH=src python -m pytest -o python_files="bench_*.py" \
        benchmarks/bench_sweep_throughput.py -s
"""

import argparse
import json
import sys
import tempfile
from pathlib import Path

from repro.api import ExecutionProfile, SweepSpec
from repro.simulation.cache import code_version
from repro.simulation.parallel import default_workers
from repro.simulation.sweep import execute_sweep, seed_range

DEFAULT_SCENARIO = "fig15-environment"
# Enough seeds that scheduling overhead (what the modes contrast)
# accumulates well past pool-startup noise.
SMOKE_SEEDS = 192
FULL_SEEDS = 512
CACHE_SCENARIO = "fig7-mutuality"
CACHE_SEEDS = 16
# Kernel-backend contrast: the python-vs-vectorized pair runs the same
# scenario sequentially, so the ratio is pure per-seed compute.
COMPUTE_SCENARIO = "fig15-environment"


def _mode_payload(sweep) -> dict:
    timing = sweep.timing
    return {
        "wall_seconds": timing.wall_seconds,
        "seeds_per_second": timing.seeds_per_second(),
        "workers": timing.workers,
        "backend": timing.backend,
        "chunk_size": timing.chunk_size,
        "cache_hits": sweep.cache_hits,
        "cache_misses": sweep.cache_misses,
    }


def _ratio(slow: float, fast: float) -> float:
    return slow / fast if fast > 0.0 else float("inf")


def run_bench(
    scenario: str = DEFAULT_SCENARIO,
    seeds: int = SMOKE_SEEDS,
    workers: int = 0,
    smoke: bool = True,
    cache_dir: str = "",
) -> dict:
    """All execution modes once; returns the ``BENCH_sweep.json`` payload.

    Raises ``AssertionError`` if any mode's results diverge from the
    sequential oracle — the only failure this bench can produce.
    """
    # Always exercise a real pool: the modes contrast scheduling
    # overheads, which exist regardless of how many CPUs back the pool.
    workers = workers or max(4, min(8, default_workers()))
    seed_list = seed_range(seeds)

    sequential = execute_sweep(
        SweepSpec(scenario, seed_list, smoke=smoke),
        ExecutionProfile(workers=1, no_cache=True),
    )
    per_seed = execute_sweep(
        SweepSpec(scenario, seed_list, smoke=smoke),
        ExecutionProfile(
            workers=workers, backend="process", chunk_size=1, no_cache=True,
        ),
    )
    chunked = execute_sweep(
        SweepSpec(scenario, seed_list, smoke=smoke),
        ExecutionProfile(workers=workers, backend="process", no_cache=True),
    )

    if cache_dir:
        cache_root = Path(cache_dir)
        cold = execute_sweep(
            SweepSpec(scenario, seed_list, smoke=smoke),
            ExecutionProfile(
                workers=workers, backend="process", cache_dir=cache_root,
            ),
        )
        warm = execute_sweep(
            SweepSpec(scenario, seed_list, smoke=smoke),
            ExecutionProfile(
                workers=workers, backend="process", cache_dir=cache_root,
            ),
        )
    else:
        with tempfile.TemporaryDirectory(prefix="bench-sweep-cache-") as tmp:
            cold = execute_sweep(
                SweepSpec(scenario, seed_list, smoke=smoke),
                ExecutionProfile(
                    workers=workers, backend="process", cache_dir=tmp,
                ),
            )
            warm = execute_sweep(
                SweepSpec(scenario, seed_list, smoke=smoke),
                ExecutionProfile(
                    workers=workers, backend="process", cache_dir=tmp,
                ),
            )

    modes = {
        "sequential": sequential,
        "parallel_per_seed": per_seed,
        "parallel_chunked": chunked,
        "cold_cache": cold,
        "warm_cache": warm,
    }

    # Correctness gate: every mode is bit-identical to the oracle.
    for name, sweep in modes.items():
        assert sweep.per_seed == sequential.per_seed, (
            f"{name} per-seed results diverge from the sequential oracle"
        )
        assert sweep.mean == sequential.mean, (
            f"{name} mean diverges from the sequential oracle"
        )
    assert warm.cache_hits == seeds, "warm cache rerun was not all hits"

    # Cold/warm on a realistically-priced scenario (fig15 is the
    # cache's worst case by construction).
    cache_seed_list = seed_range(CACHE_SEEDS)
    with tempfile.TemporaryDirectory(prefix="bench-sweep-cache2-") as tmp:
        cache_cold = execute_sweep(
            SweepSpec(CACHE_SCENARIO, cache_seed_list, smoke=smoke),
            ExecutionProfile(
                workers=workers, backend="process", cache_dir=tmp,
            ),
        )
        cache_warm = execute_sweep(
            SweepSpec(CACHE_SCENARIO, cache_seed_list, smoke=smoke),
            ExecutionProfile(
                workers=workers, backend="process", cache_dir=tmp,
            ),
        )
    assert cache_warm.per_seed == cache_cold.per_seed, (
        "warm cache replay diverges from the cold run"
    )
    assert cache_warm.mean == cache_cold.mean
    assert cache_warm.cache_hits == CACHE_SEEDS

    # Kernel backends head to head: the same sweep, sequential and
    # uncached on both sides, so the ratio isolates per-seed compute.
    compute_python = execute_sweep(
        SweepSpec(COMPUTE_SCENARIO, seed_list, smoke=smoke),
        ExecutionProfile(workers=1, no_cache=True),
    )
    compute_vectorized = execute_sweep(
        SweepSpec(COMPUTE_SCENARIO + "-vectorized", seed_list, smoke=smoke),
        ExecutionProfile(workers=1, no_cache=True),
    )
    assert compute_vectorized.per_seed == compute_python.per_seed, (
        "vectorized kernels diverge from the python oracle"
    )
    assert compute_vectorized.mean == compute_python.mean

    return {
        "scenario": scenario,
        "seeds": seeds,
        "workers": workers,
        "smoke": smoke,
        "code_version": code_version(),
        "equivalent": True,
        "modes": {name: _mode_payload(sweep)
                  for name, sweep in modes.items()},
        "cache_section": {
            "scenario": CACHE_SCENARIO,
            "seeds": CACHE_SEEDS,
            "cold": _mode_payload(cache_cold),
            "warm": _mode_payload(cache_warm),
        },
        "compute_backends": {
            "scenario": COMPUTE_SCENARIO,
            "seeds": seeds,
            "python": _mode_payload(compute_python),
            "vectorized": _mode_payload(compute_vectorized),
        },
        "speedups": {
            "vectorized_vs_python": _ratio(
                compute_python.timing.wall_seconds,
                compute_vectorized.timing.wall_seconds,
            ),
            "chunked_vs_per_seed": _ratio(
                per_seed.timing.wall_seconds, chunked.timing.wall_seconds
            ),
            "chunked_vs_sequential": _ratio(
                sequential.timing.wall_seconds, chunked.timing.wall_seconds
            ),
            "warm_cache_vs_cold": _ratio(
                cold.timing.wall_seconds, warm.timing.wall_seconds
            ),
            "cache_scenario_warm_vs_cold": _ratio(
                cache_cold.timing.wall_seconds,
                cache_warm.timing.wall_seconds,
            ),
        },
    }


def test_sweep_throughput(once, tmp_path):
    """Bench harness entry: smoke scale, artifact into the test tmp dir."""
    payload = once(lambda: run_bench(
        seeds=16, workers=2, cache_dir=str(tmp_path / "cache"),
    ))
    assert payload["equivalent"]
    assert set(payload["modes"]) == {
        "sequential", "parallel_per_seed", "parallel_chunked",
        "cold_cache", "warm_cache",
    }
    assert payload["modes"]["warm_cache"]["cache_hits"] == 16
    assert payload["cache_section"]["warm"]["cache_hits"] == CACHE_SEEDS
    assert set(payload["compute_backends"]) == {
        "scenario", "seeds", "python", "vectorized",
    }
    assert payload["speedups"]["vectorized_vs_python"] > 0.0
    out = tmp_path / "BENCH_sweep.json"
    out.write_text(json.dumps(payload, indent=2, sort_keys=True))
    print()
    print(_summary(payload))


def _summary(payload: dict) -> str:
    lines = [
        f"sweep throughput — {payload['scenario']}, "
        f"{payload['seeds']} seeds, {payload['workers']} workers "
        f"(code {payload['code_version']})"
    ]
    for name, mode in payload["modes"].items():
        lines.append(
            f"  {name:<18} {mode['wall_seconds']:8.3f}s "
            f"({mode['seeds_per_second']:9.1f} seeds/s)  "
            f"backend={mode['backend']}, chunks of {mode['chunk_size']}"
        )
    cache_section = payload["cache_section"]
    speedups = payload["speedups"]
    lines.append(
        f"  cache on {cache_section['scenario']} "
        f"({cache_section['seeds']} seeds): cold "
        f"{cache_section['cold']['wall_seconds']:.3f}s, warm "
        f"{cache_section['warm']['wall_seconds']:.4f}s"
    )
    lines.append(
        f"  chunked vs per-seed tasks: "
        f"{speedups['chunked_vs_per_seed']:.2f}x, "
        f"warm cache vs cold: {speedups['warm_cache_vs_cold']:.1f}x "
        f"(worst case) / "
        f"{speedups['cache_scenario_warm_vs_cold']:.1f}x "
        f"({cache_section['scenario']})"
    )
    compute = payload["compute_backends"]
    lines.append(
        f"  kernels on {compute['scenario']} ({compute['seeds']} seeds, "
        f"sequential): python "
        f"{compute['python']['seeds_per_second']:.1f} seeds/s, "
        f"vectorized "
        f"{compute['vectorized']['seeds_per_second']:.1f} seeds/s "
        f"({speedups['vectorized_vs_python']:.2f}x)"
    )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Sweep throughput benchmark; fails only on "
                    "correctness (equivalence), never on timing.",
    )
    parser.add_argument("--scenario", default=DEFAULT_SCENARIO,
                        help=f"registered scenario (default "
                             f"{DEFAULT_SCENARIO})")
    parser.add_argument("--seeds", type=int, default=0,
                        help=f"seed count (default: {SMOKE_SEEDS} smoke, "
                             f"{FULL_SEEDS} full)")
    parser.add_argument("--workers", type=int, default=0,
                        help="pool size (default: 4, up to 8 on larger "
                             "machines)")
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized scenario parameters")
    parser.add_argument("--out", default="BENCH_sweep.json",
                        help="artifact path (default BENCH_sweep.json)")
    args = parser.parse_args(argv)

    seeds = args.seeds or (SMOKE_SEEDS if args.smoke else FULL_SEEDS)
    try:
        payload = run_bench(scenario=args.scenario, seeds=seeds,
                            workers=args.workers, smoke=args.smoke)
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
