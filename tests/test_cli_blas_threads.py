"""The CLI pins BLAS to one thread unless the user set a count.

The effort fits hand scipy's L-BFGS-B problems of a handful of
parameters, where threaded OpenBLAS costs several times its
single-thread time.  ``repro.cli`` therefore defaults
``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and ``MKL_NUM_THREADS`` to
1 before numpy loads, which works only because neither ``import repro``
nor ``import repro.cli`` loads numpy: the variables are set by the time
anything imports it.  Each check runs in a fresh interpreter so the
environment and ``sys.modules`` are the child's own.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

_CLI = """
import os, sys
import repro
assert "numpy" not in sys.modules
import repro.cli
assert "numpy" not in sys.modules
import numpy
print(" ".join(os.environ[v] for v in sys.argv[1:]))
"""


def _run_fresh(code: str, **env_overrides: str) -> str:
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    env.update(env_overrides)
    proc = subprocess.run(
        [sys.executable, "-c", code, *BLAS_VARS],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_cli_defaults_blas_threads_to_one():
    assert _run_fresh(_CLI) == "1 1 1"


def test_explicit_thread_count_wins():
    assert _run_fresh(_CLI, OPENBLAS_NUM_THREADS="3") == "3 1 1"


def test_import_repro_does_not_load_numpy():
    code = "import sys, repro; print('numpy' in sys.modules)"
    assert _run_fresh(code) == "False"
