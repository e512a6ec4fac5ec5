"""Tests for stage boundaries (fault isolation)."""

import re

import pytest

from repro.cli import build_parser
from repro.obs import trace as obs_trace
from repro.runtime.diagnostics import Result, Severity
from repro.runtime.stages import STAGE_HINTS, StageBoundary


class TestRun:
    def test_returns_value(self):
        b = StageBoundary("alu")
        assert b.run("parse", lambda: 7) == 7
        assert b.diagnostics == []

    def test_captures_exception_as_diagnostic(self):
        b = StageBoundary("alu")
        out = b.run("parse", lambda: 1 / 0, default=-1)
        assert out == -1
        (diag,) = b.diagnostics
        assert diag.severity is Severity.ERROR
        assert diag.stage == "parse"
        assert diag.component == "alu"
        assert diag.hint == STAGE_HINTS["parse"]

    def test_account_hint_names_a_measure_flag(self):
        flags = re.findall(r"--[a-z][a-z-]*", STAGE_HINTS["account"])
        assert flags == ["--no-accounting"]
        args = build_parser().parse_args(["measure", "x.v", "--top", "x", *flags])
        assert args.no_accounting

    def test_explicit_hint_wins(self):
        b = StageBoundary()
        b.run("parse", lambda: 1 / 0, hint="custom")
        assert b.diagnostics[0].hint == "custom"

    def test_strict_reraises_after_recording(self):
        b = StageBoundary(strict=True)
        with pytest.raises(ZeroDivisionError):
            b.run("fit", lambda: 1 / 0)
        assert len(b.diagnostics) == 1

    def test_keyboard_interrupt_propagates(self):
        b = StageBoundary()

        def boom():
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            b.run("parse", boom)
        assert b.diagnostics == []


class TestStageContextManager:
    def test_captures(self):
        b = StageBoundary("x")
        with b.stage("elaborate"):
            raise ValueError("bad width")
        assert b.diagnostics[0].stage == "elaborate"
        assert "bad width" in b.diagnostics[0].message


class TestNotesAndWorst:
    def test_note_and_worst(self):
        b = StageBoundary("alu")
        assert b.worst is None
        b.note("synthesize", "skipped a spec", Severity.WARNING)
        b.note("parse", "file quarantined", Severity.ERROR)
        assert b.worst is Severity.ERROR
        assert all(d.component == "alu" for d in b.diagnostics)


class TestSeverityThresholds:
    """INFO/WARNING notes are informational: they must not degrade a result.

    Regression pins for the severity contract shared by ``Result.ok`` and
    ``BatchMeasurement.degraded``: only ERROR and above flip a result from
    clean to degraded.
    """

    def _result_after_note(self, severity: Severity) -> Result[str]:
        b = StageBoundary("alu")
        b.note("measure", "just letting you know", severity)
        return Result("a value", tuple(b.diagnostics))

    def test_info_note_keeps_result_ok(self):
        res = self._result_after_note(Severity.INFO)
        assert res.ok
        assert not res.degraded

    def test_warning_note_keeps_result_ok(self):
        res = self._result_after_note(Severity.WARNING)
        assert res.ok
        assert not res.degraded

    def test_error_note_degrades_result(self):
        res = self._result_after_note(Severity.ERROR)
        assert not res.ok
        assert res.degraded

    def test_batch_degraded_follows_the_same_threshold(self):
        from repro.core.workflow import BatchMeasurement

        def batch(severity: Severity) -> BatchMeasurement:
            return BatchMeasurement(
                results={"alu": self._result_after_note(severity)}
            )

        assert not batch(Severity.INFO).degraded
        assert not batch(Severity.WARNING).degraded
        assert batch(Severity.ERROR).degraded


class TestSpanIds:
    def test_diagnostics_carry_the_emitting_span_id(self):
        tracer = obs_trace.Tracer()
        with obs_trace.using(tracer):
            b = StageBoundary("alu")
            b.run("parse", lambda: 1 / 0, default=None)
            b.note("measure", "fyi", Severity.INFO)
        failure, note = b.diagnostics
        # The failure was emitted under the stage.parse span...
        (parse_span,) = [sp for sp in tracer.spans if sp.name == "stage.parse"]
        assert failure.span_id == parse_span.span_id
        assert parse_span.status == "error"
        # ...and the note outside any span.
        assert note.span_id is None

    def test_untraced_diagnostics_have_no_span_id(self):
        b = StageBoundary("alu")
        b.run("parse", lambda: 1 / 0, default=None)
        assert b.diagnostics[0].span_id is None
