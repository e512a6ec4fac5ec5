"""Tier-2 chaos acceptance oracle (``pytest -m chaos``).

The ISSUE-level contract for the supervised execution layer, demonstrated
on a real measurement workload: a 100-component generated catalog
(:mod:`repro.gen`, exact metric ground truth by construction) measured
with ``jobs=4`` while chaos faults hang, kill, and OOM specific component
tasks.  Healthy components must come back *exactly* right; injured ones
must come back as structured stage-``"exec"`` quarantine diagnostics --
never a crash, never a wrong number.  An interrupted run must resume from
its journal, re-dispatching only the unfinished components.
"""

import os
import signal
import threading

import pytest

from repro.core.engine import Engine
from repro.exec import RunInterrupted, RunJournal, SupervisionPolicy
from repro.gen import generate_corpus, corpus_specs
from repro.gen.oracle import ORACLE_METRICS
from repro.obs import metrics as obs_metrics
from repro.runtime.diagnostics import Severity

pytestmark = pytest.mark.chaos


def _catalog():
    """100 generated components with exact per-metric ground truth."""
    modules = list(generate_corpus("verilog", 50, seed=3))
    modules += list(generate_corpus("vhdl", 50, seed=3))
    assert len(modules) == 100
    return modules, corpus_specs(modules)


def _assert_exact(batch, modules, names):
    by_name = {gm.name: gm for gm in modules}
    for name in names:
        measurement = batch.measurements[name]
        for key in ORACLE_METRICS:
            assert measurement.metrics[key] == pytest.approx(
                by_name[name].truth[key], abs=1e-9
            ), f"{name}.{key}"


class TestChaosCatalog:
    def test_injected_faults_quarantine_healthy_stay_exact(self):
        modules, specs = _catalog()
        names = [gm.name for gm in modules]
        injured = {
            names[3]: ("hang",),
            names[41]: ("hang",),
            names[17]: ("kill",),
            names[76]: ("kill",),
            names[58]: ("oom", 2048),
        }
        policy = SupervisionPolicy(
            deadline_s=3.0,
            memory_limit_mb=1024,
            backoff_base_s=0.01,
            backoff_cap_s=0.05,
            poll_interval_s=0.05,
            chaos=injured,
        )
        registry = obs_metrics.MetricsRegistry()
        with obs_metrics.using(registry):
            batch = Engine(jobs=4, supervision=policy).measure_components(specs)

        assert set(batch.failures) == set(injured)
        _assert_exact(batch, modules, set(names) - set(injured))
        for name in injured:
            diags = batch.results[name].diagnostics
            assert len(diags) == 1
            assert diags[0].stage == "exec"
            assert diags[0].severity == Severity.ERROR
            assert diags[0].component == name
            assert "quarantined" in diags[0].message
        counters = registry.snapshot()["counters"]
        assert counters["exec.quarantined"] == 5.0
        assert counters["exec.deadline_kills"] == 4.0  # 2 hangs x 2 kills
        assert counters["parallel.tasks"] == 95.0


class TestJournalResume:
    def test_interrupted_run_resumes_redispatching_only_unfinished(
        self, tmp_path
    ):
        modules, specs = _catalog()
        journal_path = tmp_path / "measure.jsonl"
        # Slow every task a little so the batch is mid-flight at interrupt.
        policy = SupervisionPolicy(
            handle_signals=True,
            poll_interval_s=0.05,
            chaos={gm.name: ("slow", 0.08) for gm in modules},
        )
        timer = threading.Timer(0.8, os.kill, (os.getpid(), signal.SIGINT))
        timer.start()
        try:
            with pytest.raises(RunInterrupted):
                Engine(
                    jobs=4, supervision=policy, journal=str(journal_path),
                ).measure_components(specs)
        finally:
            timer.cancel()

        done = len(RunJournal(journal_path))
        assert 0 < done < 100  # genuinely mid-flight

        registry = obs_metrics.MetricsRegistry()
        with obs_metrics.using(registry):
            batch = Engine(
                jobs=4, journal=str(journal_path)
            ).measure_components(specs)
        counters = registry.snapshot()["counters"]
        assert counters["exec.journal_skips"] == float(done)
        assert counters["exec.dispatched"] == float(100 - done)
        assert not batch.failures
        _assert_exact(batch, modules, [gm.name for gm in modules])

    def test_journal_keys_are_content_addressed_across_runs(self, tmp_path):
        modules, specs = _catalog()
        journal_path = tmp_path / "measure.jsonl"
        first = Engine(
            jobs=4, journal=str(journal_path)
        ).measure_components(specs[:60])
        assert not first.failures
        assert len(RunJournal(journal_path)) == 60

        registry = obs_metrics.MetricsRegistry()
        with obs_metrics.using(registry):
            batch = Engine(
                jobs=4, journal=str(journal_path)
            ).measure_components(specs)
        counters = registry.snapshot()["counters"]
        assert counters["exec.journal_skips"] == 60.0
        assert counters["exec.dispatched"] == 40.0
        assert not batch.failures
        _assert_exact(batch, modules, [gm.name for gm in modules])
