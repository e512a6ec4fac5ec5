"""Synthesis metrics must not depend on the interpreter's string hash seed.

Python randomizes ``str`` hashes per process (``PYTHONHASHSEED``), so any
iteration over a set of signal names during lowering leaks into the
netlist's construction order -- and through LUT mapping and power
summation into FanInLC, PowerD and PowerS.  Each bundled component is
measured in two interpreters with different seeds and the metric vectors
are compared exactly (``repr`` of every float), under both accounting
policies (the disabled one synthesizes every instance at its declared
parameters, which exercises different specializations).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

_MEASURE = """
import json, sys
from repro.core.accounting import AccountingPolicy
from repro.core.engine import Engine

engine = Engine()
out = {}
for policy in (AccountingPolicy.recommended(), AccountingPolicy.disabled()):
    measured = engine.measure_catalog(policy)
    for label, m in measured.items():
        out[f"{label}/{policy.minimize_parameters}"] = {
            k: repr(v) for k, v in sorted(m.metrics.items())
        }
json.dump(out, sys.stdout, sort_keys=True)
"""


def _measure_under_seed(seed: int) -> dict[str, dict[str, str]]:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(seed)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    done = subprocess.run(
        [sys.executable, "-c", _MEASURE],
        env=env, capture_output=True, text=True, timeout=600, check=True,
    )
    return json.loads(done.stdout)


def test_bundled_metrics_are_hash_seed_independent():
    first = _measure_under_seed(0)
    second = _measure_under_seed(3)
    assert len(first) == 2 * 18
    diffs = [
        (component, metric, value, second[component][metric])
        for component, metrics in first.items()
        for metric, value in metrics.items()
        if second[component][metric] != value
    ]
    assert not diffs
