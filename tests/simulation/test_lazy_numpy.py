"""numpy loads on first vectorized use, never on the python path.

Each check runs in a fresh interpreter: ``sys.modules`` of the test
process already holds numpy (other suites import it), so only a new
process can tell whether a code path loads it.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
from repro.core.kernels import HAVE_NUMPY

SRC = str(Path(repro.__file__).resolve().parents[1])

PYTHON_PATH_SCENARIOS = [
    "fig7-mutuality",
    "fig9-transitivity",
    "fig13-delegation",
    "fig15-environment",
    "eq24-selfdelegation",
    "fig8-inference",
    "fig14-activetime",
    "fig16-light",
]


def _run(code: str, *path: str) -> dict:
    """Run ``code`` in a fresh interpreter, with ``path`` ahead of the
    package on ``PYTHONPATH``; the code prints one JSON line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [*path, SRC] + env.get("PYTHONPATH", "").split(os.pathsep)
    ).rstrip(os.pathsep)
    completed = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", PYTHON_PATH_SCENARIOS)
def test_python_path_seed_leaves_numpy_unloaded(name):
    loaded = _run(f"""
        import json, sys
        from repro.simulation import registry

        registry.get({name!r}).run(1, smoke=True)
        print(json.dumps("numpy" in sys.modules))
    """)
    assert loaded is False


def test_imports_and_serve_setup_load_neither_numpy_nor_kernels():
    loaded = _run("""
        import json, sys
        import repro.api, repro.service, repro.simulation.sweep

        print(json.dumps(sorted(
            name for name in ("numpy", "repro.core.kernels")
            if name in sys.modules
        )))
    """)
    assert loaded == []


@pytest.mark.skipif(not HAVE_NUMPY, reason="needs numpy")
def test_vectorized_seed_loads_numpy_and_matches_the_oracle():
    outcome = _run("""
        import json, sys
        from repro.simulation import registry

        vectorized = registry.get("fig7-mutuality-vectorized").run(
            1, smoke=True
        )
        loaded = "numpy" in sys.modules
        oracle = registry.get("fig7-mutuality").run(1, smoke=True)
        print(json.dumps({"loaded": loaded, "equal": vectorized == oracle}))
    """)
    assert outcome == {"loaded": True, "equal": True}


def test_numpyless_host_falls_back_to_the_python_oracle():
    outcome = _run("""
        import json, sys
        sys.modules["numpy"] = None  # blocks every ``import numpy``

        from repro.core import kernels
        from repro.simulation import registry

        vectorized = registry.get("fig15-environment-vectorized").run(
            1, smoke=True
        )
        oracle = registry.get("fig15-environment").run(1, smoke=True)
        print(json.dumps({
            "have_numpy": kernels.HAVE_NUMPY,
            "resolved": kernels.resolve_compute("vectorized"),
            "equal": vectorized == oracle,
        }))
    """)
    assert outcome == {
        "have_numpy": False, "resolved": "python", "equal": True,
    }


def test_broken_numpy_falls_back_on_first_vectorized_use(tmp_path):
    broken = tmp_path / "numpy"
    broken.mkdir()
    (broken / "__init__.py").write_text('raise ImportError("broken")\n')
    outcome = _run("""
        import json
        from repro.core import kernels
        from repro.simulation import registry

        found = kernels.HAVE_NUMPY
        vectorized = registry.get("fig15-environment-vectorized").run(
            1, smoke=True
        )
        oracle = registry.get("fig15-environment").run(1, smoke=True)
        print(json.dumps({
            "found": found,
            "have_numpy": kernels.HAVE_NUMPY,
            "resolved": kernels.resolve_compute("vectorized"),
            "equal": vectorized == oracle,
        }))
    """, str(tmp_path))
    assert outcome == {
        "found": True, "have_numpy": False, "resolved": "python",
        "equal": True,
    }
