"""Tier-2 ``-m par``: pooled runs are byte-identical under each start method.

A pool run's inputs reach its workers only through the worker context,
which ``fork`` inherits but ``forkserver`` and ``spawn`` pickle once per
worker.  A fresh interpreter per start method therefore checks that a
jobs=2 batch measurement (the pool's one grain: a task per component)
equals its jobs=1 result to the byte.  ``forkserver`` is the default
start method on Linux from Python 3.14 on.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

pytestmark = pytest.mark.par

SRC = Path(__file__).resolve().parents[1] / "src"

_RUN = """
import multiprocessing, pickle, sys
multiprocessing.set_start_method(sys.argv[1])

from repro.core.engine import Engine
from repro.gen import corpus_specs, generate_corpus
from repro.hdl.source import VERILOG, VHDL
from repro.obs import metrics as obs_metrics

dispatched = obs_metrics.counter("exec.dispatched")

def same(run):
    # Pickled part by part: equal values unpickled in the parent no
    # longer share string objects, which changes a whole-object pickle.
    sequential = [pickle.dumps(part) for part in run(1)]
    before = dispatched.value
    pooled = [pickle.dumps(part) for part in run(2)]
    return pooled == sequential and dispatched.value > before

specs = corpus_specs(generate_corpus(VERILOG, 2, seed=5)
                     + generate_corpus(VHDL, 2, seed=6))

checks = {
    "batch": same(lambda j: Engine(jobs=j).measure_components(
        specs).results.values()),
}
print(multiprocessing.get_start_method(), checks)
"""


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    return env


@pytest.mark.parametrize("method", ["fork", "forkserver", "spawn"])
def test_pool_equals_sequential(method):
    done = subprocess.run(
        [sys.executable, "-c", _RUN, method],
        env=_env(), capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip().splitlines()[-1] == (
        f"{method} {{'batch': True}}"
    )


_REUSE = """
import multiprocessing, pickle, sys
multiprocessing.set_start_method(sys.argv[1])

from repro.core.engine import Engine
from repro.exec import Supervisor
from repro.gen import corpus_specs, generate_corpus
from repro.hdl.source import VERILOG, VHDL
from repro.obs import metrics as obs_metrics

reused = obs_metrics.counter("exec.workers_reused")
first = corpus_specs(generate_corpus(VERILOG, 2, seed=5))
second = corpus_specs(generate_corpus(VHDL, 2, seed=6))
sources = [s for spec in first + second for s in spec.sources]

def runs(engine):
    # A measure batch, an inline lint run and another measure batch.
    parts = list(engine.measure_components(first).results.values())
    report = engine.lint(sources)
    parts += [*report.findings, *report.errors, report.modules]
    parts += engine.measure_components(second).results.values()
    return [pickle.dumps(part) for part in parts]

with Supervisor(2) as sup:
    held = runs(Engine(jobs=2, supervisor=sup))
print(multiprocessing.get_start_method(), held == runs(Engine(jobs=1)),
      reused.value >= 2, multiprocessing.active_children())
"""


@pytest.mark.parametrize("method", ["forkserver", "spawn"])
def test_kept_workers_equal_sequential(method):
    # A kept worker gets each later run's context in one pickled message.
    done = subprocess.run(
        [sys.executable, "-c", _REUSE, method],
        env=_env(), capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip().splitlines()[-1] == f"{method} True True []"
