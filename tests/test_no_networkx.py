"""The measurement side runs without networkx and without scipy.

networkx is a test-only dependency (the differential oracles under
``tests/flow`` compare against it).  scipy is a runtime dependency, but
only the fitters need it, so ``measure``, ``lint``, ``serve`` and ``gen``
must start without it.  A fresh interpreter imports the CLI, the engine,
the dataflow metrics and the lint rules, measures one bundled component
and lints its sources, runs the ``measure`` and ``lint`` commands, imports
the daemon and the generators, and must have loaded neither library.  A
second fresh interpreter checks that the fit path still loads on demand
through the lazy ``repro`` package.
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

_RUN = """
import sys
import repro.cli, repro.core.engine, repro.flow.metrics, repro.lint.rules
from repro.core.engine import Engine
from repro.core.workflow import ComponentSpec
from repro.designs.catalog import component_specs
from repro.designs.loader import load_sources

spec = next(s for s in component_specs() if s.label == "RAT-Standard")
sources = load_sources(spec)
engine = Engine(cache=None)
component = ComponentSpec(spec.label, tuple(sources), spec.top)
batch = engine.measure_components([component], strict=True)
measured = batch.results[spec.label].unwrap()
assert measured.metrics["SpectralRadius"] > 0.0
engine.lint(sources)

cache = sys.argv[1]
assert repro.cli.main(["measure", cache, "--top", "leon3_cache", "--no-cache"]) == 0
assert repro.cli.main(["lint", cache, "--no-cache"]) == 0
import repro.gen, repro.serve
print("loaded:", [m for m in ("networkx", "scipy") if m in sys.modules])
"""

_FIT = """
import repro, repro.stats
import repro.elab, repro.exec, repro.flow, repro.hdl, repro.lint, repro.obs
import repro.synth
for pkg in (repro, repro.stats, repro.elab, repro.exec, repro.flow,
            repro.hdl, repro.lint, repro.obs, repro.synth):
    assert set(pkg.__all__) <= set(dir(pkg)), pkg.__name__
from repro import fit_dee1, paper_dataset
print(f"{fit_dee1(paper_dataset()).sigma_eps:.2f}")
"""


def _run_fresh(code: str, *args: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    done = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    return done.stdout.strip().splitlines()[-1]


def test_measure_and_lint_never_import_networkx():
    assert _run_fresh(_RUN, str(LEON3_CACHE)) == "loaded: []"


def test_fit_path_loads_on_first_use():
    assert _run_fresh(_FIT) == "0.46"  # Table 4, DEE1 with productivity


@pytest.mark.parametrize("package", ["repro", "repro.stats"])
def test_lazy_package_exports(package):
    pkg = importlib.import_module(package)
    assert set(pkg.__all__) <= set(dir(pkg))
    star: dict = {}
    exec(f"from {package} import *", star)
    for name in pkg.__all__:
        obj = getattr(pkg, name)
        assert getattr(importlib.import_module(obj.__module__), name) is obj
        assert obj.__module__.startswith(package + ".")
        assert star[name] is obj
    with pytest.raises(AttributeError, match="no_such_name"):
        pkg.no_such_name
