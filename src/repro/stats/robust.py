"""Fitter resilience: convergence verification and the degradation ladder.

``fit_nlme`` reports whatever the optimizer's ``success`` flag says, but a
production estimation service needs stronger evidence before trusting a
fit, and a defined answer when that evidence is missing.  This module
provides both:

* :func:`verify_nlme_convergence` -- post-hoc convergence verification of
  an exact-ML fit: first-order condition (norm of the analytic gradient at
  the reported optimum), second-order condition (Hessian, as central
  differences of that gradient, positive definite), and multi-start
  dispersion (how many independent starts
  reached the same optimum).  A near-singular Hessian also flags
  unidentifiable models, e.g. collinear metric columns.
* :func:`fit_nlme_robust` -- the declared fallback chain::

      exact-ML  --(retry: jittered restarts, widened bounds)-->
      exact-ML  --(degrade)-->  Laplace/AGHQ  --(degrade)-->
      fixed effects (rho = 1)

  Every degradation step is recorded as a structured diagnostic, and the
  returned :class:`RobustFitResult` names the fitter that produced the
  estimate, so downstream tables can mark degraded figures instead of
  silently reporting them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.runtime.diagnostics import Diagnostic, Severity
from repro.stats.fixedeffects import FixedEffectsFit, fit_fixed_effects
from repro.stats.grouping import GroupedData
from repro.stats.laplace import fit_nlme_laplace
from repro.stats.nlme import (
    _LOG_SIGMA_BOUNDS,
    _LOG_W_BOUNDS,
    NlmeFit,
    _objective,
    fit_nlme,
)


@dataclass(frozen=True)
class RetryPolicy:
    """Knobs of the retry ladder and convergence verification."""

    max_attempts: int = 3          # exact-ML tries before degrading
    jitter_scale: float = 0.8      # start jitter added per retry attempt
    widen_step: float = 4.0        # log-bounds widening per retry attempt
    extra_starts: int = 4          # extra random starts per retry attempt
    grad_tol: float = 1e-3         # relative first-order tolerance
    hessian_tol: float = 1e-6      # relative PD tolerance (min eigenvalue)
    support_min: int = 2           # starts that must agree with the optimum
    support_tol: float = 1e-3      # relative objective agreement window


@dataclass(frozen=True)
class ConvergenceReport:
    """Evidence collected when verifying one exact-ML fit."""

    optimizer_success: bool
    grad_norm: float
    grad_tol: float
    min_hessian_eig: float
    hessian_pd: bool
    multistart_support: int
    n_starts: int
    passed: bool
    reasons: tuple[str, ...]

    def summary(self) -> str:
        state = "passed" if self.passed else "FAILED"
        return (
            f"convergence {state}: |grad|={self.grad_norm:.2e} "
            f"(tol {self.grad_tol:.2e}), min Hessian eig="
            f"{self.min_hessian_eig:.2e}, multi-start support "
            f"{self.multistart_support}/{self.n_starts}"
            + ("" if self.passed else f"; reasons: {'; '.join(self.reasons)}")
        )


def _theta_of(fit: NlmeFit) -> np.ndarray:
    return np.concatenate(
        [
            np.log(fit.weights),
            [math.log(fit.sigma_eps), math.log(fit.sigma_rho)],
        ]
    )


def _hessian_block(
    objective, theta: np.ndarray, coords: np.ndarray, h: float = 1e-5
) -> np.ndarray:
    """Symmetrised Hessian of ``objective`` over ``coords``, as central
    differences of its analytic gradient (two gradient calls per
    coordinate)."""
    cols = []
    for i in coords:
        e = np.zeros_like(theta)
        e[i] = h
        cols.append((objective(theta + e)[1] - objective(theta - e)[1])[coords])
    hess = np.column_stack(cols) / (2.0 * h)
    return (hess + hess.T) / 2.0


def verify_nlme_convergence(
    fit: NlmeFit, data: GroupedData, policy: RetryPolicy = RetryPolicy()
) -> ConvergenceReport:
    """Check first/second-order conditions and multi-start agreement.

    Tolerances are relative to ``1 + |nll|`` so they behave uniformly
    across datasets of different likelihood scale.  A clean fit on the
    paper's data shows ``|grad| ~ 1e-7`` and strictly positive Hessian
    eigenvalues, so the defaults have orders of magnitude of headroom.
    """
    with obs_trace.span("fit.verify"):
        return _verify_nlme_convergence(fit, policy, _objective(data))


def _verify_nlme_convergence(
    fit: NlmeFit, policy: RetryPolicy, objective
) -> ConvergenceReport:
    theta = _theta_of(fit)
    nll, grad = objective(theta)
    scale = 1.0 + abs(nll)
    grad_tol = policy.grad_tol * scale

    # Active-set reduction: a parameter pinned at (or collapsed past) its
    # box bound is a legitimate boundary optimum -- e.g. sigma_rho -> 0 when
    # a metric shows no productivity spread -- and the likelihood is flat
    # along it, so first/second-order interior conditions only apply to the
    # free coordinates.
    k = len(fit.weights)
    lower = np.array([_LOG_W_BOUNDS[0]] * k + [_LOG_SIGMA_BOUNDS[0]] * 2)
    upper = np.array([_LOG_W_BOUNDS[1]] * k + [_LOG_SIGMA_BOUNDS[1]] * 2)
    free = (theta > lower + 0.5) & (theta < upper - 0.5)

    grad_norm = float(np.linalg.norm(grad[free])) if free.any() else 0.0

    if free.any():
        sub = _hessian_block(objective, theta, np.flatnonzero(free))
        eigs = np.linalg.eigvalsh(sub)
        min_eig = float(eigs[0])
        max_eig = float(eigs[-1])
    else:
        min_eig = max_eig = 0.0
    hessian_pd = min_eig > -policy.hessian_tol * scale and math.isfinite(min_eig)
    # A numerically singular Hessian (eigenvalue ~ 0 relative to the
    # largest curvature) means some free direction is unidentifiable --
    # the collinear-metrics failure mode.  Clean paper fits condition at
    # ~5e-2; exactly collinear columns at ~1e-9, so 1e-6 splits them with
    # orders of magnitude to spare on both sides.
    if max_eig > 0 and min_eig / max_eig < 1e-6:
        hessian_pd = False

    support = 0
    if fit.start_objectives:
        best = min(fit.start_objectives)
        window = policy.support_tol * (1.0 + abs(best))
        support = sum(1 for f0 in fit.start_objectives if abs(f0 - best) <= window)
    n_starts = len(fit.start_objectives)

    reasons: list[str] = []
    if not fit.converged:
        reasons.append("optimizer did not report success")
    if grad_norm > grad_tol:
        reasons.append(
            f"first-order condition violated (|grad| {grad_norm:.2e} > "
            f"{grad_tol:.2e})"
        )
    if not hessian_pd:
        reasons.append(
            f"Hessian not positive definite (min eigenvalue {min_eig:.2e}); "
            "the model may be unidentifiable (e.g. collinear metrics)"
        )
    if n_starts >= policy.support_min and support < policy.support_min:
        reasons.append(
            f"multi-start dispersion: only {support}/{n_starts} starts "
            "reached the reported optimum"
        )

    return ConvergenceReport(
        optimizer_success=fit.converged,
        grad_norm=grad_norm,
        grad_tol=grad_tol,
        min_hessian_eig=min_eig,
        hessian_pd=hessian_pd,
        multistart_support=support,
        n_starts=n_starts,
        passed=not reasons,
        reasons=tuple(reasons),
    )


@dataclass(frozen=True)
class RobustFitResult:
    """Outcome of the fallback chain, with degradation provenance."""

    fit: NlmeFit | FixedEffectsFit
    fitter: str                 # "exact-ml" | "laplace-aghq" | "fixed-effects"
    attempts: int               # exact-ML attempts made
    degraded: bool              # a fallback produced the estimate
    convergence: ConvergenceReport | None
    diagnostics: tuple[Diagnostic, ...]

    @property
    def sigma_eps(self) -> float:
        return self.fit.sigma_eps

    @property
    def converged(self) -> bool:
        return self.fit.converged

    @property
    def weights(self) -> np.ndarray:
        return self.fit.weights


def _laplace_as_nlme(data: GroupedData, n_quadrature: int = 9) -> NlmeFit:
    """Run the Laplace/AGHQ fitter and repackage as an :class:`NlmeFit`.

    The paper's model has the same parameters under both fitters, so the
    quadrature estimate supports the full prediction API; ``fitter``
    records the provenance.
    """
    lap = fit_nlme_laplace(data, n_quadrature=n_quadrature)
    return NlmeFit(
        weights=lap.weights,
        sigma_eps=lap.sigma_eps,
        sigma_rho=lap.sigma_rho,
        loglik=lap.loglik,
        random_effects=dict(lap.random_effects),
        productivities=dict(lap.productivities),
        metric_names=lap.metric_names,
        n_obs=lap.n_obs,
        converged=lap.converged,
        fitter="laplace-aghq",
    )


def fit_nlme_robust(
    data: GroupedData,
    policy: RetryPolicy = RetryPolicy(),
    seed: int = 20050101,
    component: str | None = None,
) -> RobustFitResult:
    """Fit the mixed-effects model with verification, retries, and fallbacks.

    The chain never raises for fit-quality reasons: it returns the best
    estimate the ladder could produce, plus diagnostics describing every
    degradation taken.  Structural errors (empty metric selection, etc.)
    still raise, as they indicate caller bugs rather than input noise.
    """
    diags: list[Diagnostic] = []

    def note(severity: Severity, message: str, hint: str | None = None) -> None:
        diags.append(
            Diagnostic(
                severity=severity,
                stage="fit",
                message=message,
                component=component,
                hint=hint,
            )
        )

    # Single-team data cannot support a random effect at all: degrade
    # straight to the rho=1 model instead of raising like fit_nlme does.
    if len(data.group_names) < 2:
        note(
            Severity.ERROR,
            "only one team in the dataset; the productivity random effect "
            "is not estimable, degrading to the fixed-effects (rho=1) model",
            hint="collect data from at least two teams to fit productivity "
                 "adjustments",
        )
        obs_metrics.counter("fit.fallback_activations").inc()
        fixed = fit_fixed_effects(data, seed=seed)
        return RobustFitResult(
            fit=fixed, fitter="fixed-effects", attempts=0, degraded=True,
            convergence=None, diagnostics=tuple(diags),
        )

    # Rung 1: exact ML, with jittered/widened retries.
    report: ConvergenceReport | None = None
    attempts = 0
    for attempt in range(policy.max_attempts):
        attempts = attempt + 1
        obs_metrics.counter("fit.attempts").inc()
        try:
            with obs_trace.span(
                "fit.attempt", attempt=attempts, component=component
            ):
                fit = fit_nlme(
                    data,
                    n_random_starts=8 + attempt * policy.extra_starts,
                    seed=seed + 7919 * attempt,
                    bounds_margin=attempt * policy.widen_step,
                    start_jitter=attempt * policy.jitter_scale,
                )
                report = verify_nlme_convergence(fit, data, policy)
        except Exception as exc:  # noqa: BLE001 -- degrade, don't propagate
            note(
                Severity.WARNING,
                f"exact-ML attempt {attempts} raised "
                f"{type(exc).__name__}: {exc}",
            )
            report = None
            continue
        if report.passed:
            if attempt > 0:
                note(
                    Severity.WARNING,
                    f"exact-ML fit converged only after {attempts} attempts "
                    "(jittered restarts / widened bounds)",
                )
            return RobustFitResult(
                fit=fit, fitter="exact-ml", attempts=attempts,
                degraded=False, convergence=report, diagnostics=tuple(diags),
            )
        note(
            Severity.WARNING,
            f"exact-ML attempt {attempts} failed verification: "
            f"{report.summary()}",
        )

    # Rung 2: Laplace/AGHQ quadrature.
    note(
        Severity.ERROR,
        f"exact-ML convergence checks failed after {attempts} attempts; "
        "degrading to the Laplace/AGHQ fitter",
        hint="inspect the dataset for collinear metric columns or extreme "
             "outliers; the quadrature estimate is reported instead",
    )
    obs_metrics.counter("fit.fallback_activations").inc()
    try:
        lap = _laplace_as_nlme(data)
    except Exception as exc:  # noqa: BLE001
        lap = None
        note(
            Severity.WARNING,
            f"Laplace/AGHQ fitter raised {type(exc).__name__}: {exc}",
        )
    if lap is not None and lap.converged:
        return RobustFitResult(
            fit=lap, fitter="laplace-aghq", attempts=attempts,
            degraded=True, convergence=report, diagnostics=tuple(diags),
        )

    # Rung 3: fixed effects (rho = 1) -- always well-posed.
    note(
        Severity.ERROR,
        "Laplace/AGHQ fitter also failed to converge; degrading to the "
        "fixed-effects (rho=1) model -- productivity adjustment is lost",
        hint="the reported sigma_eps excludes the productivity random "
             "effect; treat accuracy comparisons with care",
    )
    obs_metrics.counter("fit.fallback_activations").inc()
    fixed = fit_fixed_effects(data, seed=seed)
    if not fixed.converged:
        note(
            Severity.FATAL,
            "even the fixed-effects fallback did not converge; the estimate "
            "is the best objective value seen but is unverified",
        )
    return RobustFitResult(
        fit=fixed, fitter="fixed-effects", attempts=attempts,
        degraded=True, convergence=report, diagnostics=tuple(diags),
    )
