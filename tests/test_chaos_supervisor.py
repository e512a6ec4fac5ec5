"""Tier-2 chaos suite: the supervisor under injected failure (``-m chaos``).

Every test drives :class:`repro.exec.Supervisor` directly with trivial
arithmetic tasks whose correct answers are known, injects one failure mode
through the policy's chaos plan (:mod:`repro.runtime.faultinject`), and
asserts the supervision contract: healthy tasks finish with exact values,
injured tasks are retried and then quarantined as structured diagnostics,
and an interrupted run drains and says where its finished work is.
"""

import os
import signal
import threading
import time

import pytest

from repro.exec import (
    QUARANTINE_HINT,
    RunInterrupted,
    SupervisionPolicy,
    Supervisor,
    TaskOutcome,
)
from repro.obs import metrics as obs_metrics
from repro.runtime.diagnostics import Severity

pytestmark = pytest.mark.chaos

#: Fast-retry policy knobs shared by most tests.
_FAST = dict(backoff_base_s=0.01, backoff_cap_s=0.05, poll_interval_s=0.05)


def square_task(x):
    """The picklable unit of work: exact, instant, deterministic."""
    return TaskOutcome(value=x * x)


def slow_square_task(payload):
    delay_s, x = payload
    time.sleep(delay_s)
    return TaskOutcome(value=x * x)


def _run(n, chaos=None, jobs=4, **knobs):
    policy = SupervisionPolicy(chaos=chaos, **{**_FAST, **knobs})
    registry = obs_metrics.MetricsRegistry()
    with obs_metrics.using(registry):
        outcomes = Supervisor(jobs, policy).run(
            square_task,
            list(range(n)),
            labels=[f"t{i}" for i in range(n)],
        )
    return outcomes, registry.snapshot()["counters"]


def _assert_healthy(outcomes, indices):
    for i in indices:
        assert outcomes[i].value == i * i, f"t{i}"
        assert outcomes[i].error is None


def _assert_quarantined(outcome, label):
    assert outcome.value is None and outcome.error is None
    assert len(outcome.diagnostics) == 1
    diag = outcome.diagnostics[0]
    assert diag.severity == Severity.ERROR
    assert diag.stage == "exec"
    assert diag.component == label
    assert diag.hint == QUARANTINE_HINT
    return diag


class TestCleanRuns:
    def test_values_align_with_payloads(self):
        outcomes, counters = _run(20, jobs=4)
        _assert_healthy(outcomes, range(20))
        assert counters["exec.completed"] == 20.0
        assert counters["parallel.tasks"] == 20.0
        assert "exec.quarantined" not in counters
        assert counters["exec.heartbeats"] >= 1.0

    def test_single_job_pool(self):
        outcomes, _ = _run(5, jobs=1)
        _assert_healthy(outcomes, range(5))

    def test_slow_tasks_inside_deadline_complete(self):
        policy = SupervisionPolicy(deadline_s=30.0, **_FAST)
        registry = obs_metrics.MetricsRegistry()
        with obs_metrics.using(registry):
            outcomes = Supervisor(2, policy).run(
                slow_square_task, [(0.05, i) for i in range(4)]
            )
        assert [o.value for o in outcomes] == [0, 1, 4, 9]
        # Deadline margins were observed, and all were comfortably positive.
        histos = registry.snapshot()["histograms"]
        margins = histos["exec.deadline_margin_s"]
        assert margins["count"] == 4
        assert margins["min"] > 0.0


class TestHangsAndDeadlines:
    def test_hung_task_is_killed_then_quarantined(self):
        outcomes, counters = _run(
            6, chaos={"t2": ("hang",)}, deadline_s=0.5
        )
        _assert_healthy(outcomes, [0, 1, 3, 4, 5])
        diag = _assert_quarantined(outcomes[2], "t2")
        assert "deadline" in diag.message
        assert counters["exec.deadline_kills"] == 2.0  # max_task_kills
        assert counters["exec.quarantined"] == 1.0
        assert counters["exec.retries"] == 1.0
        assert counters["exec.respawns"] >= 1.0

    def test_multiple_hangs_do_not_starve_healthy_tasks(self):
        outcomes, counters = _run(
            10, chaos={"t1": ("hang",), "t7": ("hang",)}, deadline_s=0.5,
        )
        _assert_healthy(outcomes, [0, 2, 3, 4, 5, 6, 8, 9])
        _assert_quarantined(outcomes[1], "t1")
        _assert_quarantined(outcomes[7], "t7")
        assert counters["exec.quarantined"] == 2.0


class TestWorkerDeaths:
    def test_killed_worker_quarantines_its_task(self):
        outcomes, counters = _run(6, chaos={"t4": ("kill",)})
        _assert_healthy(outcomes, [0, 1, 2, 3, 5])
        diag = _assert_quarantined(outcomes[4], "t4")
        assert "2 worker kill(s)" in diag.message
        assert counters["exec.worker_deaths"] >= 2.0
        assert counters["exec.respawns"] >= 1.0

    def test_transient_kill_retries_to_success(self, tmp_path):
        sentinel = tmp_path / "first-attempt"
        outcomes, counters = _run(
            6, chaos={"t3": ("kill_once", str(sentinel))}
        )
        _assert_healthy(outcomes, range(6))  # t3 recovered on retry
        assert sentinel.exists()
        assert counters["exec.worker_deaths"] >= 1.0
        assert counters["exec.retries"] >= 1.0
        assert "exec.quarantined" not in counters


class TestSoftFailures:
    def test_deterministic_exception_quarantines(self):
        outcomes, counters = _run(4, chaos={"t0": ("exc", "injected bug")})
        _assert_healthy(outcomes, [1, 2, 3])
        diag = _assert_quarantined(outcomes[0], "t0")
        assert "RuntimeError" in diag.message
        assert "injected bug" in diag.message
        # max_retries=2 -> three attempts, then quarantine; no kills.
        assert counters["exec.retries"] == 2.0
        assert "exec.kills" not in counters

    def test_transient_exception_retries_to_success(self, tmp_path):
        sentinel = tmp_path / "flaky"
        outcomes, counters = _run(
            6, chaos={"t5": ("exc_once", str(sentinel))}
        )
        _assert_healthy(outcomes, range(6))
        assert counters["exec.retries"] == 1.0
        assert "exec.quarantined" not in counters


class TestMemoryCeilings:
    def test_oom_task_quarantined_under_ceiling(self):
        outcomes, counters = _run(
            6, chaos={"t1": ("oom", 2048)}, memory_limit_mb=1024,
        )
        _assert_healthy(outcomes, [0, 2, 3, 4, 5])
        diag = _assert_quarantined(outcomes[1], "t1")
        assert "MemoryError" in diag.message
        assert "exec.quarantined" in counters

    def test_healthy_tasks_fine_under_ceiling(self):
        outcomes, counters = _run(8, memory_limit_mb=1024)
        _assert_healthy(outcomes, range(8))
        assert "exec.quarantined" not in counters


class TestInterrupt:
    def test_interrupt_drains_names_the_cache_and_restores_sigint(self):
        policy = SupervisionPolicy(handle_signals=True, **_FAST)
        timer = threading.Timer(
            0.4, os.kill, (os.getpid(), signal.SIGINT)
        )
        timer.start()
        try:
            with pytest.raises(RunInterrupted) as excinfo:
                Supervisor(2, policy).run(
                    slow_square_task, [(0.3, i) for i in range(8)],
                )
        finally:
            timer.cancel()
        assert excinfo.value.completed < 8
        assert "--cache-dir" in str(excinfo.value)
        # The default SIGINT disposition is restored after the run.
        assert signal.getsignal(signal.SIGINT) is signal.default_int_handler


class TestInlineFallback:
    def test_zero_respawn_budget_degrades_to_inline(self):
        # Kill the only worker's first task; with no respawns allowed the
        # rest of the batch runs inline in the parent -- never wrong.
        outcomes, counters = _run(
            5, chaos={"t0": ("kill",)}, jobs=1, max_respawns=0,
        )
        _assert_healthy(outcomes, [1, 2, 3, 4])
        # The killer task must NOT run inline in the parent -- it already
        # proved it takes its host down; it is quarantined instead.
        _assert_quarantined(outcomes[0], "t0")
        assert counters["parallel.fallback_sequential"] >= 1.0


class TestCliExitCode:
    def _measure_args(self, tmp_path):
        hdl = tmp_path / "t.v"
        hdl.write_text("module t(input a, output y); assign y = a; endmodule")
        return ["measure", str(hdl), "--top", "t", "--jobs", "2"]

    def test_run_interrupted_maps_to_130(self, tmp_path, monkeypatch, capsys):
        from repro import cli
        from repro.core.engine import Engine

        def interrupted(*args, **kwargs):
            raise RunInterrupted(signal.SIGINT, 3, 10)

        monkeypatch.setattr(Engine, "measure_component_safe", interrupted)
        rc = cli.main(self._measure_args(tmp_path))
        assert rc == cli.EXIT_INTERRUPTED == 130
        err = capsys.readouterr().err
        assert "interrupted" in err
        assert "3/10" in err

    def test_keyboard_interrupt_maps_to_130(self, tmp_path, monkeypatch, capsys):
        from repro import cli
        from repro.core.engine import Engine

        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt()

        monkeypatch.setattr(Engine, "measure_component_safe", interrupted)
        rc = cli.main(self._measure_args(tmp_path))
        assert rc == 130
        assert "interrupted" in capsys.readouterr().err
