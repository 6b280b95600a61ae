"""Run ``repro serve`` with the benchmark's layer wrappers installed.

Usage: ``PERFBENCH_TRACE_DIR=<dir> python3 perfbench/serve.py serve <args>``
takes the arguments of the ``repro`` command line.  The server, its dispatcher
threads and every queue worker it forks record spans; each process
writes them to the trace directory when it ends (the server on SIGINT,
its queue workers when the coordinator retires them).
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]

from perfbench import tracing  # noqa: E402


def main() -> int:
    tracer = tracing.Tracer(os.environ[tracing.ENV_TRACE_DIR])
    tracing.install(tracer)
    tracer.enabled = True
    from repro.cli import main as repro_main

    try:
        return repro_main(sys.argv[1:])
    finally:
        tracer.enabled = False
        tracer.flush()


if __name__ == "__main__":
    sys.exit(main())
