"""The model without productivity adjustments (Section 3.2).

Setting ``rho_i = 1`` for every team removes the random effect, and the
log-scale model becomes an ordinary nonlinear regression::

    y_ij = log(sum_k w_k * m_ijk) + e_ij,   e ~ N(0, sigma_eps^2)

Maximum likelihood reduces to least squares on the log residuals with
``sigma_eps^2 = RSS / n`` (the ML variance estimate, matching what the
mixed-effects fit degenerates to as ``sigma_rho -> 0``).  With one metric
the model is linear in ``log w`` and least squares is closed form:
``log w = mean(y - log m)``.  The paper uses this model only to show that
dropping the productivity adjustment loses a significant amount of
accuracy (the last row of Table 4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy import optimize

from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.obs.fittrace import FitTrace, maybe_fit_trace
from repro.stats.criteria import FitCriteria
from repro.stats.grouping import GroupedData
from repro.stats.lognormal import confidence_interval
from repro.stats.nlme import (
    _LOG_2PI,
    _LOG_W_BOUNDS,
    _REFINE_OPTIONS,
    _drop_idle_metrics,
    _single_metric_start,
    _weight_starts,
)


@dataclass(frozen=True)
class FixedEffectsFit:
    """Result of the rho=1 (no productivity adjustment) fit."""

    weights: np.ndarray
    sigma_eps: float
    loglik: float
    metric_names: tuple[str, ...]
    n_obs: int
    converged: bool = True

    @property
    def n_params(self) -> int:
        """Weights plus sigma_eps."""
        return len(self.weights) + 1

    @property
    def criteria(self) -> FitCriteria:
        return FitCriteria(loglik=self.loglik, n_params=self.n_params, n_obs=self.n_obs)

    @property
    def aic(self) -> float:
        return self.criteria.aic

    @property
    def bic(self) -> float:
        return self.criteria.bic

    def predict_median(self, metrics: np.ndarray) -> np.ndarray:
        metrics = np.atleast_2d(np.asarray(metrics, dtype=float))
        if metrics.shape[1] != len(self.weights):
            raise ValueError(
                f"metrics have {metrics.shape[1]} columns, fit has "
                f"{len(self.weights)} weights"
            )
        return metrics @ self.weights

    def prediction_interval(
        self, metrics: np.ndarray, confidence: float = 0.90
    ) -> list[tuple[float, float]]:
        medians = self.predict_median(metrics)
        return [confidence_interval(m, self.sigma_eps, confidence) for m in medians]


def _rss_and_grad(
    u: np.ndarray, y: np.ndarray, metrics: np.ndarray
) -> tuple[float, np.ndarray]:
    """Residual sum of squares at log-weights ``u``, and its gradient."""
    w = np.exp(u)
    lin = metrics @ w
    r = y - np.log(lin)
    return float(r @ r), -2.0 * w * ((r / lin) @ metrics)


def fit_fixed_effects(
    data: GroupedData,
    n_random_starts: int = 8,
    seed: int = 20050101,
    fit_trace: FitTrace | None = None,
) -> FixedEffectsFit:
    """Fit the rho=1 model by maximum likelihood (nonlinear least squares).

    With one metric the fit is closed form; with more, multi-start
    L-BFGS-B and a refine from the best start.  ``n_random_starts`` and
    ``seed`` have no effect with one metric.
    """
    y = data.log_efforts
    metrics = data.metrics
    n, k = metrics.shape

    with obs_trace.span("fit.fixed-effects", n_obs=n, n_metrics=k) as fit_span:
        # The objective is an RSS, not a log-likelihood, so trace rows
        # carry it as a bare objective (no loglik field).
        trace_sink = maybe_fit_trace(
            "fixed-effects", fit_trace, objective_is_nll=False
        )

        objective = partial(_rss_and_grad, y=y, metrics=metrics)
        iters = obs_metrics.counter("fit.fixed-effects.iterations")
        evals = obs_metrics.counter("fit.fixed-effects.loglik_evals")

        def minimize(u0: np.ndarray, start_index: int, bounds, options=None):
            res = optimize.minimize(
                objective, u0, jac=True, method="L-BFGS-B", bounds=bounds,
                options=options,
                callback=(
                    trace_sink.watch(objective, start_index)
                    if trace_sink is not None else None
                ),
            )
            iters.inc(int(getattr(res, "nit", 0)))
            evals.inc(int(getattr(res, "nfev", 0)))
            return res

        if k == 1:
            u = np.array([_single_metric_start(y, metrics[:, 0])])
            rss, converged = objective(u)[0], True
            evals.inc(1)
            fit_span.set_attr("method", "closed-form")
        else:
            rng = np.random.default_rng(seed)
            bounds = [_LOG_W_BOUNDS] * k
            starts = _weight_starts(y, metrics)
            for _ in range(n_random_starts):
                starts.append(starts[0] + rng.normal(scale=1.5, size=k))
            best = None
            for start_index, u0 in enumerate(starts):
                res = minimize(np.clip(u0, *_LOG_W_BOUNDS), start_index, bounds)
                if best is None or res.fun < best.fun:
                    best = res
            assert best is not None
            refine = minimize(
                _drop_idle_metrics(objective, best.x, metrics, _LOG_W_BOUNDS[0]),
                len(starts),
                [(None, _LOG_W_BOUNDS[1])] * k,
                _REFINE_OPTIONS,
            )
            if refine.fun < best.fun:
                best = refine
            u, rss, converged = best.x, float(best.fun), bool(best.success)
            fit_span.set_attr("method", "multi-start")

    w = np.exp(u)
    sigma2 = max(rss / n, 1e-12)
    loglik = -0.5 * n * (_LOG_2PI + math.log(sigma2) + 1.0)
    return FixedEffectsFit(
        weights=w,
        sigma_eps=math.sqrt(sigma2),
        loglik=loglik,
        metric_names=data.metric_names,
        n_obs=n,
        converged=converged,
    )
