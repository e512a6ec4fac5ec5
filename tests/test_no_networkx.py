"""The library runs without networkx.

networkx is a test-only dependency (the differential oracles under
``tests/flow`` compare against it).  A fresh interpreter imports the CLI,
the engine, the dataflow metrics and the lint rules, measures one bundled
component and lints its sources, and must never have loaded networkx.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

_RUN = """
import sys
import repro.cli, repro.core.engine, repro.flow.metrics, repro.lint.rules
from repro.core.engine import Engine
from repro.designs.catalog import component_specs
from repro.designs.loader import load_sources

spec = next(s for s in component_specs() if s.label == "RAT-Standard")
sources = load_sources(spec)
engine = Engine(cache=None)
measured = engine.measure_component(sources, spec.top, name=spec.label)
assert measured.metrics["SpectralRadius"] > 0.0
engine.lint(sources)
print("networkx" in sys.modules)
"""


def test_measure_and_lint_never_import_networkx():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    done = subprocess.run(
        [sys.executable, "-c", _RUN],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    assert done.stdout.strip() == "False"
