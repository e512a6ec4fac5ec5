"""Tests for per-iteration fit telemetry (repro.obs.fittrace)."""

import numpy as np
import pytest

from repro.obs import trace as obs_trace
from repro.obs.fittrace import FitTrace, maybe_fit_trace
from repro.obs.trace import Tracer


def quadratic(theta: np.ndarray) -> float:
    return float(theta @ theta)


def quadratic_and_grad(theta: np.ndarray) -> tuple[float, np.ndarray]:
    return quadratic(theta), 2.0 * theta


class TestWatch:
    def test_callback_records_rows(self):
        trace = FitTrace("exact-ml", emit=False)
        cb = trace.watch(quadratic_and_grad, start_index=0)
        cb(np.array([3.0, 4.0]))
        cb(np.array([1.0, 0.0]))
        assert len(trace) == 2
        first, second = trace.rows
        assert first.fitter == "exact-ml"
        assert first.iteration == 0 and second.iteration == 1
        assert first.objective == pytest.approx(25.0)
        assert first.loglik == pytest.approx(-25.0)
        # grad of theta@theta is 2*theta; |(6, 8)| = 10.
        assert first.grad_norm == pytest.approx(10.0)
        assert first.step is None
        assert second.step == pytest.approx(np.hypot(2.0, 4.0))

    def test_starts_are_tracked_separately(self):
        trace = FitTrace("exact-ml", emit=False)
        trace.watch(quadratic, start_index=0)(np.zeros(2))
        cb1 = trace.watch(quadratic, start_index=1)
        cb1(np.ones(2))
        cb1(np.ones(2))
        starts = trace.starts()
        assert sorted(starts) == [0, 1]
        assert [r.iteration for r in starts[1]] == [0, 1]
        # A fresh start's first row has no step even after other starts ran.
        assert starts[1][0].step is None

    def test_gradients_can_be_disabled(self):
        trace = FitTrace("laplace-aghq", record_gradients=False, emit=False)
        trace.watch(quadratic_and_grad, start_index=0)(np.array([1.0]))
        assert trace.rows[0].grad_norm is None

    def test_objective_without_gradient_records_none(self):
        trace = FitTrace("exact-ml", emit=False)
        trace.watch(quadratic, start_index=0)(np.array([1.0]))
        assert trace.rows[0].objective == pytest.approx(1.0)
        assert trace.rows[0].grad_norm is None

    def test_rows_emit_fit_iter_events(self):
        t = Tracer()
        with obs_trace.using(t):
            trace = FitTrace("exact-ml")
            with t.span("fit.exact-ml"):
                trace.watch(quadratic, start_index=0)(np.array([1.0]))
        assert len(t.events) == 1
        ev = t.events[0]
        assert ev["type"] == "fit_iter"
        assert ev["fitter"] == "exact-ml"
        assert ev["span"] == t.spans[0].span_id
        assert ev["loglik"] == pytest.approx(-1.0)

    def test_non_nll_objective_has_no_loglik_field(self):
        t = Tracer()
        with obs_trace.using(t):
            trace = FitTrace("fixed-effects", objective_is_nll=False)
            trace.watch(quadratic, start_index=0)(np.array([2.0]))
        assert "loglik" not in t.events[0]
        assert t.events[0]["objective"] == pytest.approx(4.0)


class TestMaybeFitTrace:
    def test_explicit_trace_wins(self):
        mine = FitTrace("exact-ml", emit=False)
        assert maybe_fit_trace("exact-ml", mine) is mine

    def test_none_without_active_tracer(self):
        assert obs_trace.active() is None
        assert maybe_fit_trace("exact-ml") is None

    def test_auto_created_when_tracer_active(self):
        with obs_trace.using(Tracer()):
            trace = maybe_fit_trace("laplace-aghq", record_gradients=False)
        assert isinstance(trace, FitTrace)
        assert trace.fitter == "laplace-aghq"
        assert trace.record_gradients is False

    def test_empty_trace_is_falsy_but_not_none(self):
        # FitTrace defines __len__, so fitters must test `is not None`,
        # never truthiness -- this pin documents the footgun.
        trace = FitTrace("exact-ml", emit=False)
        assert not trace
        assert trace is not None
