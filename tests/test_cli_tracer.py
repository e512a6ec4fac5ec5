"""The CLI activates a tracer only when ``--trace`` or ``--profile`` asks.

An active tracer keeps every span it is handed, makes each fit record a
:class:`~repro.obs.fittrace.FitTrace`, and makes pool workers capture and
ship their traces.  A command nobody traces, above all a long-lived
``serve`` daemon, must pay none of that.
"""

from __future__ import annotations

import pytest

from repro import cli
from repro.core.engine import Engine
from repro.obs import fittrace
from repro.obs import trace as obs_trace
from repro.serve.session import ServeSession

ADDER = (
    "module add(input [3:0] a, b, output [4:0] s);\n"
    "  assign s = a + b;\nendmodule\n"
)


@pytest.fixture(autouse=True)
def _no_outer_tracer(monkeypatch):
    monkeypatch.setattr(obs_trace, "_ACTIVE", None)


@pytest.fixture
def fit_traces(monkeypatch):
    """The FitTrace objects constructed while the test runs."""
    made = []
    real = fittrace.FitTrace

    def counting(*args, **kwargs):
        made.append(real(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(fittrace, "FitTrace", counting)
    return made


def test_fit_without_trace_builds_no_fit_trace(fit_traces, capsys):
    assert cli.main(["fit"]) == 0
    assert fit_traces == []
    assert obs_trace.active() is None


def test_fit_with_profile_still_builds_fit_traces(fit_traces, capsys):
    assert cli.main(["fit", "--profile"]) == 0
    assert fit_traces
    assert obs_trace.active() is None


@pytest.mark.parametrize(
    "flags, traced",
    [([], False), (["--profile"], True), (["--trace", "{tmp}/t.jsonl"], True)],
)
def test_serve_daemon_is_traced_only_on_request(
    monkeypatch, tmp_path, capsys, flags, traced
):
    seen = []

    def fake_serve(args):
        seen.append(obs_trace.active())
        return 0

    monkeypatch.setattr(cli, "_cmd_serve", fake_serve)
    argv = ["serve", "--port", "0"] + [f.format(tmp=tmp_path) for f in flags]
    assert cli.main(argv) == 0
    assert (seen[0] is not None) is traced


def test_serve_session_without_tracer_keeps_no_spans(monkeypatch):
    started = []
    monkeypatch.setattr(
        obs_trace.Tracer, "start_span",
        lambda self, name, **attrs: started.append(name),
    )
    monkeypatch.setattr(
        obs_trace.Tracer, "record_span",
        lambda self, name, *args, **kwargs: started.append(name),
    )
    session = ServeSession(Engine(cache=None))
    session.start()
    try:
        body = {"files": [{"name": "add.v", "text": ADDER}], "top": "add"}
        futures = [session.submit("measure", body)[1] for _ in range(6)]
        statuses = [future.result(timeout=120)[0] for future in futures]
    finally:
        clean = session.stop()
    assert clean
    assert statuses == [200] * 6
    assert started == []
