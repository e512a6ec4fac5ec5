"""Start-up pays only for what the call uses.

The pipeline stages, numpy and the worker pool load on first use, so
importing the CLI, building an ``Engine`` and serving a warm ``lint``
from the memo load none of them.  Each check runs in a fresh interpreter
so ``sys.modules`` is the child's own.

The other side of the rule: a process about to fork workers loads the
pipeline first, so forked workers inherit it instead of importing it
again for every batch.  A ``fork`` pool's workers see the stages already
loaded before their task runs, and the serve daemon has them loaded
before it starts listening.
"""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
LEON3_CACHE = SRC / "repro" / "designs" / "rtl" / "leon3" / "cache.vhd"

#: What a call that measures, synthesizes or pools nothing must not load.
UNUSED = ("numpy", "repro.synth", "repro.flow", "repro.elab", "multiprocessing")
#: What a process about to fork workers must already have loaded.
PIPELINE = ("repro.synth.lower", "repro.flow.metrics", "numpy")

LAZY_PACKAGES = (
    "repro.elab",
    "repro.exec",
    "repro.flow",
    "repro.hdl",
    "repro.lint",
    "repro.obs",
    "repro.synth",
)

_REPORT = """
print(sorted(m for m in {mods!r} if m in sys.modules))
"""

_IMPORT_CLI = """
import sys
import repro.cli
"""

_SETUP = """
import sys
from repro.cache import SynthesisCache
from repro.core.engine import Engine
Engine(cache=SynthesisCache(sys.argv[1]), jobs=1)
"""

_WARM_LINT = """
import sys
import repro.cli
assert repro.cli.main(["lint", sys.argv[2], "--cache-dir", sys.argv[1]]) == 0
"""

_POOL = """
import multiprocessing, sys
multiprocessing.set_start_method("fork")
from repro.exec.pool import run_pool

def probe(inputs, index):
    return sorted(m for m in inputs["mods"] if m in sys.modules), ()

outcomes = run_pool(probe, {"mods": %r}, ["a", "b"], jobs=2)
print([outcome.value for outcome in outcomes])
""" % (PIPELINE,)

_SERVE = """
import sys
import repro.cli, repro.serve

def serve_forever(session, config, ready=None):
    print(sorted(m for m in %r if m in sys.modules))
    return 0

repro.serve.serve_forever = serve_forever
assert repro.cli.main(["serve", "--port", "0", "--no-cache"]) == 0
""" % (PIPELINE,)


def _run_fresh(code: str, *args: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    done = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip().splitlines()[-1]


def _loaded_after(code: str, *args: str) -> str:
    return _run_fresh(code + _REPORT.format(mods=UNUSED), *args)


def test_import_cli_loads_no_stage_numpy_or_pool():
    assert _loaded_after(_IMPORT_CLI) == "[]"


def test_engine_setup_loads_no_stage_numpy_or_pool(tmp_path):
    assert _loaded_after(_SETUP, str(tmp_path)) == "[]"


def test_warm_cli_lint_loads_no_stage_numpy_or_pool(tmp_path):
    cold = _loaded_after(_WARM_LINT, str(tmp_path), str(LEON3_CACHE))
    assert cold != "[]"  # the cold run parses and elaborates
    assert _loaded_after(_WARM_LINT, str(tmp_path), str(LEON3_CACHE)) == "[]"


def test_pool_workers_inherit_the_pipeline():
    expected = sorted(PIPELINE)
    assert _run_fresh(_POOL) == repr([expected, expected])


def test_serve_daemon_loads_the_pipeline_before_listening():
    assert _run_fresh(_SERVE) == repr(sorted(PIPELINE))


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_lazy_package_exports_resolve(package):
    pkg = importlib.import_module(package)
    assert set(pkg.__all__) <= set(dir(pkg))
    star: dict = {}
    exec(f"from {package} import *", star)
    for name in pkg.__all__:
        assert star[name] is getattr(pkg, name)
    with pytest.raises(AttributeError, match="no_such_name"):
        pkg.no_such_name
