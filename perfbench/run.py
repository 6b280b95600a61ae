"""The repository benchmark: one command, three workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload campaign-cold --seed 1 \\
        --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` measures its per-layer metrics with the layer wrappers of
:mod:`perfbench.tracing` installed and checks them against the
workload's mechanism/bypass expectations.  Either way every sweep result
is checked against the sequential oracle.  Human-readable lines come
first; the last line of standard output is the JSON result.  The exit
code is non-zero when any result was wrong, any operation failed, or a
bypass expectation broke.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import sys
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if __name__ == "__main__":
    sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]

from perfbench import metrics, processes, tracing, workloads  # noqa: E402


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOAD_TYPES))
    parser.add_argument("--seed", type=int, required=True,
                        help="workload seed: every input derives from it")
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the measuring window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _envelope(args) -> dict:
    from repro.simulation.cache import code_version

    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "code_version": code_version(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv=None) -> int:
    args = _parse(argv)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    # A terminated run still stops its server and removes its files.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    # A shell without job control starts background commands with SIGINT
    # ignored, and children would inherit that: the server could then not
    # be interrupted into its clean shutdown.  A handled signal is reset
    # to its default in every program this one starts.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    # Orphans come back to this process, which waits for all of them.
    processes.become_subreaper()
    work = ROOT / ".perfbench_work" / str(os.getpid())
    work.mkdir(parents=True)
    # Nothing the program writes may leave the checkout.
    os.environ["TMPDIR"] = str(work / "tmp")
    os.environ["REPRO_CACHE_DIR"] = str(work / "default-cache")
    (work / "tmp").mkdir()
    try:
        print("envelope " + json.dumps(_envelope(args)), flush=True)
        outcome = workloads.run(
            args.workload, args.seed, args.seconds, bool(args.trace), work,
        )
        ok = outcome.failed == 0
        print(f"{workloads.WORKLOAD_TYPES[args.workload].operations}: "
              f"attempted {outcome.attempted}, failed {outcome.failed}, "
              f"error_rate "
              f"{metrics.error_rate(outcome.attempted, outcome.failed):.6f}")
        if args.trace:
            values = outcome.layers
            for metric in tracing.LAYER_METRICS:
                print(f"{metric.name:<42} {values[metric.name]:>14.4f} "
                      f"{metric.unit}")
            problems = tracing.bypass_violations(args.workload, values)
            for problem in problems:
                print(f"bypass check failed: {problem}")
            ok = ok and not problems
            reported = {
                metric.name: {"value": values[metric.name],
                              "unit": metric.unit}
                for metric in tracing.LAYER_METRICS
            }
        else:
            summaries = workloads.end_to_end(outcome)
            for name, unit in workloads.END_TO_END.items():
                print(summaries[name].line(name, unit))
            reported = metrics.metric_json(summaries, workloads.END_TO_END)
        print(json.dumps({
            "correct": ok,
            "attempted": outcome.attempted,
            "failed": outcome.failed,
            "metrics": reported,
        }))
        return 0 if ok else 1
    finally:
        processes.stop_children()
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
