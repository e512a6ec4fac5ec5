"""The serve dispatcher's kept pool (``pytest -m serve``).

The dispatcher opens one supervisor at its first batch holding a
``/measure`` request and keeps its idle workers warm between requests;
``/lint`` runs inline and never opens one.  :meth:`ServeSession.stop`
must leave no worker behind, on the clean path and on the
forced-interrupt path alike.
"""

import multiprocessing as mp

import pytest

from repro.core.engine import Engine
from repro.exec import SupervisionPolicy, clear_interrupt
from repro.obs import metrics as obs_metrics
from repro.serve import ServeSession
from tests.serve.harness import ServerHarness

pytestmark = pytest.mark.serve

_FAST = dict(backoff_base_s=0.01, backoff_cap_s=0.05, poll_interval_s=0.05)

_ADDER = (
    "module top_adder #(parameter W = 8)(input [W-1:0] a, b,\n"
    "                                    output [W-1:0] s);\n"
    "  assign s = a + b;\n"
    "endmodule\n"
)


_MUX = (
    "module top_mux #(parameter W = 4)(input sel, input [W-1:0] a, b,\n"
    "                                  output [W-1:0] y);\n"
    "  assign y = sel ? a : b;\n"
    "endmodule\n"
)


def _measure_body(name: str) -> dict:
    return {
        "files": [{"name": "adder.v", "text": _ADDER}],
        "top": "top_adder",
        "name": name,
    }


def test_idle_daemon_forks_nothing_and_stop_reaps_the_warm_pool():
    session = ServeSession(Engine(jobs=2))
    session.start()
    try:
        assert session.engine.supervisor is None  # opened on first use
        for name in ("first", "second"):
            _rid, future = session.submit("measure", _measure_body(name))
            status, payload = future.result(timeout=120)
            assert status == 200, payload
        assert len(mp.active_children()) == 1  # one warm worker, kept
    finally:
        assert session.stop()
    assert mp.active_children() == []
    assert session.engine.supervisor is None


def test_lint_forks_no_worker():
    registry = obs_metrics.MetricsRegistry()
    with obs_metrics.using(registry):
        session = ServeSession(Engine(jobs=2))
        session.start()
        try:
            _rid, future = session.submit("lint", {"files": [
                {"name": "adder.v", "text": _ADDER},
                {"name": "mux.v", "text": _MUX},
            ]})
            status, payload = future.result(timeout=120)
            assert status < 500, payload
            assert payload["modules"] == 2
            assert session.engine.supervisor is None
            assert mp.active_children() == []
        finally:
            assert session.stop()
    spawns = registry.snapshot()["histograms"].get("exec.spawn_s", {})
    assert spawns.get("count", 0) == 0
    assert mp.active_children() == []


def test_forced_stop_interrupts_the_run_and_reaps_its_workers():
    engine = Engine(
        jobs=2,
        supervision=SupervisionPolicy(
            chaos={"sleeper": ("hang",)}, deadline_s=None, **_FAST
        ),
    )
    session = ServeSession(engine)
    session.start()
    clear_interrupt()
    try:
        _rid, future = session.submit("measure", _measure_body("sleeper"))
        # The request hangs forever, so the drain must be forced.
        assert not session.stop(grace_s=0.5)
        status, _payload = future.result(timeout=30)
        assert status >= 500
    finally:
        clear_interrupt()
    assert mp.active_children() == []


def test_metrics_show_the_reused_workers():
    registry = obs_metrics.MetricsRegistry()
    with obs_metrics.using(registry):
        with ServerHarness(Engine(jobs=2)) as server:
            for name in ("first", "second", "third"):
                status, _payload = server.post_json(
                    "/measure", _measure_body(name)
                )
                assert status == 200
            status, snapshot = server.get_json("/metrics")
    assert status == 200
    assert snapshot["metrics"]["counters"]["exec.workers_reused"] == 2.0
    assert mp.active_children() == []
