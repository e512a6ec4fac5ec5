"""Dataflow metrics must not depend on the interpreter's string hash seed.

The Fiedler value of a disconnected dataflow graph is solved on its
largest component.  Listing that component's nodes by iterating a set
made the LAPACK input -- and so the last bits of ``AlgebraicConn`` --
follow ``PYTHONHASHSEED``.  A generated corpus in both languages (many
small flat modules, most with disconnected graphs) is measured in two
interpreters with different seeds and the six flow metrics are compared
exactly (``repr`` of every float).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

MODULES_PER_LANGUAGE = 24

_MEASURE = f"""
import json, sys
from repro.core.engine import Engine
from repro.flow import FLOW_METRIC_NAMES
from repro.gen import clean_kinds, generate_corpus
from repro.hdl.source import VERILOG, VHDL

modules = generate_corpus(
    VERILOG, {MODULES_PER_LANGUAGE}, seed=1, kinds=clean_kinds(),
    name_prefix="cv",
) + generate_corpus(
    VHDL, {MODULES_PER_LANGUAGE}, seed=2, kinds=clean_kinds(),
    name_prefix="ch",
)
batch = Engine(cache=None, jobs=1).measure_components(
    [gm.spec for gm in modules], strict=True
)
out = {{
    name: {{k: repr(result.value.metrics[k]) for k in FLOW_METRIC_NAMES}}
    for name, result in batch.results.items()
}}
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


def test_flow_metrics_are_hash_seed_independent():
    first = _measure_under_seed(0)
    second = _measure_under_seed(3)
    assert len(first) == 2 * MODULES_PER_LANGUAGE
    diffs = [
        (component, metric, value, second[component][metric])
        for component, metrics in first.items()
        for metric, value in metrics.items()
        if second[component][metric] != value
    ]
    assert not diffs
