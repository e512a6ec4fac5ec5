"""Worker memory ceilings are headroom above the worker's own address space.

A forked worker inherits its parent's whole address space.  A long-lived
parent (a test session, the serve daemon) can hold far more than a
``memory_limit_mb`` budget, so an absolute ``RLIMIT_AS`` would start every
worker over its ceiling.  These tests inflate the parent with a large
anonymous mapping (never touched, so it costs address space, not memory)
and check that the ceiling still leaves the budget as headroom: healthy
work stays exact, and a genuine over-budget allocation still trips it.
"""

import multiprocessing as mp
import os
import resource
from mmap import mmap

import pytest

from repro.core.engine import Engine
from repro.exec import SupervisionPolicy, apply_memory_limit
from repro.gen import corpus_specs, generate_corpus
from repro.gen.oracle import ORACLE_METRICS
from repro.runtime.diagnostics import Severity

pytestmark = pytest.mark.skipif(
    not os.path.exists("/proc/self/statm"), reason="needs /proc/self/statm"
)

#: Untouched address space added to the parent: more than the 1024 MiB
#: ceiling below, so an absolute ceiling would starve every worker.
_INFLATE = 1536 << 20


@pytest.fixture
def inflated_parent():
    with mmap(-1, _INFLATE) as block:
        yield block


def _vm_size() -> int:
    with open("/proc/self/statm", encoding="ascii") as statm:
        return int(statm.read().split()[0]) * os.sysconf("SC_PAGE_SIZE")


def _report_ceiling(conn, limit_mb: int) -> None:
    before = _vm_size()
    applied = apply_memory_limit(limit_mb)
    conn.send((applied, before, *resource.getrlimit(resource.RLIMIT_AS)))


def test_ceiling_is_headroom_above_the_inherited_address_space(
    inflated_parent,
):
    # fork, like the pool's workers: the child must inherit the mapping.
    ctx = mp.get_context("fork")
    ours, theirs = ctx.Pipe()
    child = ctx.Process(target=_report_ceiling, args=(theirs, 256))
    child.start()
    assert ours.poll(30), "child reported nothing"
    applied, before, soft, hard = ours.recv()
    child.join(30)
    assert not child.is_alive()
    assert applied
    assert before > _INFLATE
    assert soft == hard
    assert abs(soft - (before + (256 << 20))) < 16 << 20


@pytest.mark.chaos
def test_inflated_parent_keeps_healthy_exact_and_quarantines_oom(
    inflated_parent,
):
    modules = list(generate_corpus("verilog", 4, seed=5))
    modules += list(generate_corpus("vhdl", 4, seed=5))
    injured = modules[2].name
    policy = SupervisionPolicy(
        deadline_s=30.0,
        memory_limit_mb=1024,
        backoff_base_s=0.01,
        backoff_cap_s=0.05,
        poll_interval_s=0.05,
        chaos={injured: ("oom", 2048)},
    )
    batch = Engine(jobs=2, supervision=policy).measure_components(
        corpus_specs(modules)
    )

    assert set(batch.failures) == {injured}
    for gm in modules:
        if gm.name == injured:
            continue
        measurement = batch.measurements[gm.name]
        for key in ORACLE_METRICS:
            assert measurement.metrics[key] == pytest.approx(
                gm.truth[key], abs=1e-9
            ), f"{gm.name}.{key}"
    (diag,) = batch.results[injured].diagnostics
    assert diag.stage == "exec"
    assert diag.severity == Severity.ERROR
    assert "quarantined" in diag.message
