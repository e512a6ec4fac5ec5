"""Exact maximum-likelihood fitting of the uComplexity mixed-effects model.

The paper's model (Equations 2 and 3) is, for component ``j`` of project
``i`` with metric vector ``m_ij``::

    Eff_ij = (1 / rho_i) * sum_k(w_k * m_ijk) * eps_ij

with ``rho_i`` and ``eps_ij`` lognormal with median 1.  Taking logs (the
transformation in Appendix A)::

    y_ij = b_i + log(sum_k w_k * m_ijk) + e_ij
    y_ij = log(Eff_ij),  b_i = -log(rho_i) ~ N(0, sigma_rho^2),
    e_ij ~ N(0, sigma_eps^2)

Because the random effect enters *additively* on the log scale, the marginal
distribution of the per-group residual vector is multivariate normal with
compound-symmetric covariance ``sigma_eps^2 I + sigma_rho^2 J``.  Its
determinant and inverse are closed form, so the marginal likelihood that
``PROC NLMIXED`` approximates by quadrature is available exactly here, and
so is its gradient; we maximize it directly with multi-start quasi-Newton
optimization.

With one metric the model is linear in ``log w``: ``z = y - log m`` is a
one-way random-intercept model.  The intercept and ``sigma_eps^2`` are
then closed form given ``lambda = sigma_rho^2 / sigma_eps^2``, and the fit
is a 1-D search of the profile likelihood in ``log lambda`` (see
:func:`_profile`).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np
from scipy import optimize

from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.obs.fittrace import FitTrace, maybe_fit_trace
from repro.stats.criteria import FitCriteria
from repro.stats.grouping import GroupedData
from repro.stats.lognormal import confidence_interval

_LOG_2PI = math.log(2.0 * math.pi)
_LOG_EPS = math.log(np.finfo(float).eps)

# Bounds on the log-scale optimization variables.  Weights in the paper's
# fits span roughly 1e-5..1e-1 and the sigmas 0.1..3; these bounds are far
# wider while still preventing numerical overflow.
_LOG_W_BOUNDS = (-35.0, 15.0)
_LOG_SIGMA_BOUNDS = (-8.0, 4.0)

# Indirection over scipy's optimizer so the fault-injection harness
# (repro.runtime.faultinject) can deterministically sabotage convergence
# without monkeypatching scipy itself.
_MINIMIZE = optimize.minimize

# L-BFGS-B tolerances of the final refine from the best start: tight
# enough that the exact gradient, not the stopping rule, decides where
# the optimum is.
_REFINE_OPTIONS = {"ftol": 1e-15, "gtol": 1e-11, "maxiter": 2000}

# The one-metric profile search: grid spacing in t = log(lambda), the
# refine's stopping width in t and iteration cap, and the derivative,
# relative to 1 + |nll|, below which the search reports success.
_PROFILE_STEP = 0.5
_PROFILE_XTOL = 1e-12
_PROFILE_MAXITER = 100
_PROFILE_GTOL = 1e-8


@dataclass(frozen=True)
class NlmeFit:
    """Result of a nonlinear mixed-effects fit.

    Attributes:
        weights: fitted metric weights ``w_k`` (positive).
        sigma_eps: residual (multiplicative-error) log-standard deviation;
            this is the ``sigma_epsilon`` accuracy figure reported throughout
            the paper's evaluation.
        sigma_rho: log-standard deviation of the productivity random effect.
        loglik: maximized marginal log-likelihood.
        random_effects: BLUP of ``b_i = -log(rho_i)`` per team.
        productivities: ``rho_i = exp(-b_i)`` per team (Section 2.4).
        metric_names: metric column labels, aligned with ``weights``.
        n_obs: number of observations fitted.
        converged: whether the optimizer reported convergence.
        fitter: which fitter produced the estimate (``"exact-ml"`` here;
            the robust fallback chain in :mod:`repro.stats.robust` records
            ``"laplace-aghq"`` when it degrades to quadrature).
        start_objectives: final negative log-likelihood of every optimizer
            start, for multi-start dispersion checks.
    """

    weights: np.ndarray
    sigma_eps: float
    sigma_rho: float
    loglik: float
    random_effects: dict[str, float]
    productivities: dict[str, float]
    metric_names: tuple[str, ...]
    n_obs: int
    converged: bool = True
    fitter: str = "exact-ml"
    start_objectives: tuple[float, ...] = ()

    @property
    def n_params(self) -> int:
        """Fitted parameter count: the weights plus the two sigmas."""
        return len(self.weights) + 2

    @property
    def criteria(self) -> FitCriteria:
        return FitCriteria(loglik=self.loglik, n_params=self.n_params, n_obs=self.n_obs)

    @property
    def aic(self) -> float:
        return self.criteria.aic

    @property
    def bic(self) -> float:
        return self.criteria.bic

    def linear_predictor(self, metrics: np.ndarray) -> np.ndarray:
        """Unscaled effort ``sum_k w_k * m_k`` for each metric row."""
        metrics = np.atleast_2d(np.asarray(metrics, dtype=float))
        if metrics.shape[1] != len(self.weights):
            raise ValueError(
                f"metrics have {metrics.shape[1]} columns, fit has "
                f"{len(self.weights)} weights"
            )
        return metrics @ self.weights

    def predict_median(self, metrics: np.ndarray, team: str | None = None) -> np.ndarray:
        """Median design-effort estimate (Equation 1).

        If ``team`` names a team seen during fitting, its productivity
        ``rho_i`` divides the unscaled effort; otherwise ``rho = 1`` is
        assumed (relative estimation mode, Section 3.1.1).
        """
        rho = 1.0
        if team is not None:
            if team not in self.productivities:
                raise KeyError(f"unknown team {team!r}; fitted teams: "
                               f"{sorted(self.productivities)}")
            rho = self.productivities[team]
        return self.linear_predictor(metrics) / rho

    def predict_mean(self, metrics: np.ndarray, team: str | None = None) -> np.ndarray:
        """Mean design-effort estimate (Equation 4)."""
        factor = math.exp((self.sigma_eps**2 + self.sigma_rho**2) / 2.0)
        return self.predict_median(metrics, team) * factor

    def prediction_interval(
        self, metrics: np.ndarray, team: str | None = None, confidence: float = 0.90
    ) -> list[tuple[float, float]]:
        """Per-row multiplicative confidence interval around the median."""
        medians = self.predict_median(metrics, team)
        return [confidence_interval(m, self.sigma_eps, confidence) for m in medians]


def _team_codes(groups: tuple[str, ...]) -> np.ndarray:
    """Each observation's team as an index into the first-appearance
    order of :attr:`GroupedData.group_names`."""
    index: dict[str, int] = {}
    return np.fromiter(
        (index.setdefault(g, len(index)) for g in groups),
        dtype=np.intp,
        count=len(groups),
    )


def _nll_and_grad(
    theta: np.ndarray,
    y: np.ndarray,
    metrics: np.ndarray,
    codes: np.ndarray,
    sizes: np.ndarray,
) -> tuple[float, np.ndarray]:
    """Exact negative marginal log-likelihood at ``theta``, and its gradient.

    ``theta = (u_1..u_k, log sigma_eps, log sigma_rho)`` with ``w = exp(u)``;
    ``codes`` are the teams of the observations (:func:`_team_codes`) and
    ``sizes`` the team sizes ``n_i``.  Per team, with ``T = s2e + n*s2r``,
    ``S = sum r`` and ``Q = sum r^2`` over the log residuals ``r``::

        2*nll_i = n*log(2*pi) + (n-1)*log(s2e) + log(T) + Q/s2e
                  - s2r*S^2/(s2e*T)
    """
    k = metrics.shape[1]
    w = np.exp(theta[:k])
    s2e = math.exp(2.0 * theta[k])
    s2r = math.exp(2.0 * theta[k + 1])
    lin = metrics @ w
    # w > 0 and metrics > 0 guarantee lin > 0.
    r = y - np.log(lin)
    n_obs = r.shape[0]
    s = np.bincount(codes, weights=r, minlength=sizes.shape[0])
    rr = float(r @ r)
    tot = s2e + sizes * s2r
    # Per-team weight of S^2 in the quadratic form.
    c = s2r / (s2e * tot)
    cs2 = c * s * s
    nll = 0.5 * (
        n_obs * _LOG_2PI
        + (n_obs - sizes.shape[0]) * math.log(s2e)
        + float(np.log(tot).sum())
        + rr / s2e
        - float(cs2.sum())
    )
    # d nll / d r_j, chained through r = y - log(metrics @ w).
    g = r / s2e - (c * s)[codes]
    grad = np.empty(k + 2)
    grad[:k] = -w * ((g / lin) @ metrics)
    # d nll / d log sigma = 2 * sigma^2 * d nll / d sigma^2.
    grad[k] = (
        n_obs - sizes.shape[0]
        + float((s2e / tot).sum())
        - rr / s2e
        + float((cs2 * (tot + s2e) / tot).sum())
    )
    grad[k + 1] = s2r * float((sizes / tot - (s / tot) ** 2).sum())
    return nll, grad


def _objective(data: GroupedData) -> Callable[[np.ndarray], tuple[float, np.ndarray]]:
    """``theta -> (nll, gradient)`` for ``data``, team codes computed once."""
    codes = _team_codes(data.groups)
    return partial(
        _nll_and_grad,
        y=data.log_efforts,
        metrics=data.metrics,
        codes=codes,
        sizes=np.bincount(codes).astype(float),
    )


def _drop_idle_metrics(
    objective, theta: np.ndarray, metrics: np.ndarray, floor: float
) -> np.ndarray:
    """``theta`` with every metric that buys no likelihood dropped.

    A metric that explains nothing beside the others has its optimum at
    ``w -> 0``, where the objective is exponentially flat in ``log w``: a
    gradient method stalls there with the weight still well inside the
    box.  Each such metric, one at a time, gets the log-weight at which
    ``w * m`` falls below rounding in every linear predictor (and at
    least the box ``floor``) when that does not raise the objective.
    """
    k = metrics.shape[1]
    best = objective(theta)[0]
    for j in range(k):
        others = np.exp(theta[:k])
        others[j] = 0.0
        lin = metrics @ others
        if not np.all(lin > 0.0):
            continue
        trial = theta.copy()
        vanish = _LOG_EPS + float(np.min(np.log(lin / metrics[:, j])))
        trial[j] = min(theta[j], floor, vanish)
        value = objective(trial)[0]
        if value <= best:
            theta, best = trial, value
    return theta


def _blups(
    w: np.ndarray,
    s2e: float,
    s2r: float,
    data: GroupedData,
) -> dict[str, float]:
    """Empirical-Bayes estimates of the random intercepts ``b_i``."""
    r = data.log_efforts - np.log(data.metrics @ w)
    codes = _team_codes(data.groups)
    sizes = np.bincount(codes).astype(float)
    means = np.bincount(codes, weights=r) / sizes
    shrink = sizes * s2r / (s2e + sizes * s2r)
    return {
        name: float(b) for name, b in zip(data.group_names, shrink * means)
    }


def _single_metric_start(y: np.ndarray, column: np.ndarray) -> float:
    """Closed-form log-weight of a single-metric model.

    With one metric, ``log(w * m) = log w + log m`` and the ML estimate of
    ``log w`` (ignoring grouping) is ``mean(y - log m)``.
    """
    return float(np.mean(y - np.log(column)))


def _weight_starts(y: np.ndarray, metrics: np.ndarray) -> list[np.ndarray]:
    """Deterministic log-weight starts: the single-metric solutions split
    evenly, then all the weight on one metric at a time."""
    k = metrics.shape[1]
    single = np.array([_single_metric_start(y, metrics[:, j]) for j in range(k)])
    u0 = single - math.log(k)
    starts = [u0]
    for j in range(k):
        u = np.full(k, u0[j] - 6.0)
        u[j] = single[j]
        starts.append(u)
    return starts


def _starting_points(
    y: np.ndarray, metrics: np.ndarray, rng: np.random.Generator, n_random: int
) -> list[np.ndarray]:
    k = metrics.shape[1]
    resid_sd = max(float(np.std(y)), 0.05)
    base_sigmas = [math.log(max(resid_sd * 0.7, 1e-3)), math.log(max(resid_sd * 0.5, 1e-3))]
    weight_starts = _weight_starts(y, metrics)
    starts = [np.concatenate([u, base_sigmas]) for u in weight_starts]
    # Random perturbations around the balanced start.
    for _ in range(n_random):
        u = weight_starts[0] + rng.normal(scale=1.5, size=k)
        sig = np.asarray(base_sigmas) + rng.normal(scale=0.5, size=2)
        starts.append(np.concatenate([u, sig]))
    return starts


def _profile(
    t: np.ndarray,
    sums: np.ndarray,
    sizes: np.ndarray,
    within: float,
    n_obs: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The one-metric profile NLL at each ``t = log(lambda)``, vectorised.

    With ``z = y - log m`` centred, ``sums`` its per-team sums ``Sz_i``,
    ``sizes`` the team sizes ``n_i`` and ``within`` its within-team sum of
    squares ``W``; per ``t``, with ``d_i = 1 + n_i*lambda``:

        a       = sum(Sz_i / d_i) / sum(n_i / d_i)         (GLS intercept)
        S_i     = Sz_i - n_i*a
        s2e     = Q / N,  Q = W + sum(S_i^2 / (n_i*d_i))
                    = sum((z - a)^2) - sum(lambda*S_i^2 / d_i)
        nll     = N/2*(log(2*pi) + log(s2e) + 1) + 1/2*sum(log d_i)
        dnll/dt = lambda/2*(sum(n_i/d_i) - sum(S_i^2/(s2e*d_i^2)))

    The derivative is the partial in ``lambda`` at fixed ``(a, s2e)``,
    which the envelope theorem makes exact.  Returns ``(nll, dnll/dt, a,
    s2e)``, one entry per ``t``.
    """
    lam = np.exp(np.asarray(t, dtype=float))[:, None]
    d = 1.0 + sizes * lam
    a = (sums / d).sum(axis=1) / (sizes / d).sum(axis=1)
    s = sums - sizes * a[:, None]
    s2e = (within + (s * s / (sizes * d)).sum(axis=1)) / n_obs
    nll = 0.5 * (n_obs * (_LOG_2PI + np.log(s2e) + 1.0) + np.log(d).sum(axis=1))
    dnll = 0.5 * lam[:, 0] * (
        (sizes / d).sum(axis=1) - (s * s / (d * d)).sum(axis=1) / s2e
    )
    return nll, dnll, a, s2e


def _profile_search(
    profile: Callable[[np.ndarray], tuple[np.ndarray, ...]],
    grid: np.ndarray,
    callback: Callable[[float], None] | None = None,
) -> optimize.OptimizeResult:
    """Minimise a 1-D profile NLL over ``grid`` and refine the best point.

    ``profile`` maps an array of points to ``(nll, dnll, ...)``.  The grid
    scan is global; the refine is Illinois regula falsi on the exact
    derivative inside the grid cell where it changes sign next to the best
    point.  With no sign change there (the optimum at an end of the grid,
    or a flat profile) the best grid point stands.  ``callback(t)`` is
    called at the grid's best point and after every refine step.

    Every grid point counts as a start: the result's ``starts`` holds the
    optimum's NLL for the points whose downhill walk on the grid ends at
    the best point, and its own NLL for every other point, so the
    multi-start dispersion check of :mod:`repro.stats.robust` sees how
    much of the grid the optimum's basin covers.
    """
    nll, dnll = profile(grid)[:2]
    i = int(np.argmin(nll))
    rise = np.diff(nll)
    not_down = np.flatnonzero(rise[:i] >= 0.0)
    not_up = np.flatnonzero(rise[i:] <= 0.0)
    basin = slice(
        not_down[-1] + 1 if not_down.size else 0,
        i + not_up[0] + 1 if not_up.size else grid.size,
    )
    t, f, g = float(grid[i]), float(nll[i]), float(dnll[i])
    if callback is not None:
        callback(t)
    nfev, nit = grid.size, 0
    j = i - 1 if g > 0.0 else i + 1
    if 0 <= j < grid.size and g * dnll[j] < 0.0:
        (lo, g_lo), (hi, g_hi) = sorted([(t, g), (float(grid[j]), float(dnll[j]))])
        side = 0
        while nit < _PROFILE_MAXITER and hi - lo > _PROFILE_XTOL:
            t_new = hi - g_hi * (hi - lo) / (g_hi - g_lo)
            if not lo < t_new < hi:
                break
            nll1, dnll1 = profile(np.array([t_new]))[:2]
            t, f, g = t_new, float(nll1[0]), float(dnll1[0])
            nit += 1
            nfev += 1
            if callback is not None:
                callback(t)
            if g > 0.0:
                hi, g_hi = t, g
                if side == 1:
                    g_lo *= 0.5
                side = 1
            elif g < 0.0:
                lo, g_lo = t, g
                if side == -1:
                    g_hi *= 0.5
                side = -1
            else:
                break
    starts = nll.copy()
    starts[basin] = f
    return optimize.OptimizeResult(
        x=np.array([t]), fun=f, nit=nit, nfev=nfev,
        success=abs(g) <= _PROFILE_GTOL * (1.0 + abs(f)), starts=starts,
    )


# Indirection over the one-metric profile search, for the same reason as
# _MINIMIZE.
_PROFILE_SEARCH = _profile_search


def _one_metric_profile(data: GroupedData):
    """``(profile, theta_at)`` for one-metric ``data``: the vectorised
    :func:`_profile` with the data bound, and the full ``theta`` at which
    the profile NLL at ``t`` is attained."""
    y = data.log_efforts
    column = data.metrics[:, 0]
    z_mean = _single_metric_start(y, column)
    z = y - np.log(column) - z_mean
    codes = _team_codes(data.groups)
    sizes = np.bincount(codes).astype(float)
    sums = np.bincount(codes, weights=z)
    dev = z - (sums / sizes)[codes]
    profile = partial(
        _profile, sums=sums, sizes=sizes, within=float(dev @ dev),
        n_obs=z.shape[0],
    )

    def theta_at(t: float) -> np.ndarray:
        _, _, a, s2e = profile(np.array([t]))
        log_sigma_eps = 0.5 * math.log(s2e[0])
        return np.array([z_mean + a[0], log_sigma_eps, log_sigma_eps + 0.5 * t])

    return profile, theta_at


def _fit_one_metric(
    data: GroupedData, trace_sink: FitTrace | None, objective
) -> optimize.OptimizeResult:
    """The exact one-metric fit: the profile search in ``t = log(lambda)``.

    The grid spans every ratio ``sigma_rho / sigma_eps`` the sigma box
    allows and, below it, down to where ``1 + n_i*lambda`` rounds to 1 and
    the profile is flat, so sigma_rho -> 0 optima stay finite.  Returns
    the search result with ``x`` replaced by the full ``theta``.
    """
    profile, theta_at = _one_metric_profile(data)
    callback = None
    if trace_sink is not None:
        watch = trace_sink.watch(objective, 0)

        def callback(t: float) -> None:
            watch(theta_at(t))

    n_max = max(Counter(data.groups).values())
    span = _LOG_SIGMA_BOUNDS[1] - _LOG_SIGMA_BOUNDS[0]
    floor = min(-2.0 * span, _LOG_EPS - math.log(n_max))
    n_points = int(math.ceil((2.0 * span - floor) / _PROFILE_STEP)) + 1
    res = _PROFILE_SEARCH(
        profile, np.linspace(floor, 2.0 * span, n_points), callback=callback
    )
    res.x = theta_at(float(res.x[0]))
    return res


def fit_nlme(
    data: GroupedData,
    n_random_starts: int = 8,
    seed: int = 20050101,
    bounds_margin: float = 0.0,
    start_jitter: float = 0.0,
    fit_trace: FitTrace | None = None,
) -> NlmeFit:
    """Fit the mixed-effects model by exact marginal maximum likelihood.

    With one metric the fit is the exact profile search of
    :func:`_fit_one_metric`; with more, multi-start L-BFGS-B and a refine
    from the best start.

    Args:
        data: grouped dataset (efforts, metric matrix, team labels).
        n_random_starts: extra randomized optimizer starts on top of the
            deterministic ones; more starts make the global optimum more
            likely on multi-metric models.  No effect with one metric.
        seed: RNG seed for the randomized starts (fits are deterministic for
            a fixed seed).
        bounds_margin: widens the log-scale box constraints by this much on
            each side; the robust retry ladder uses it to escape optima
            pinned at a bound.  No effect with one metric.
        start_jitter: extra N(0, start_jitter) noise added to every start;
            the robust retry ladder uses it for jittered restarts.  No
            effect with one metric.
        fit_trace: per-iteration telemetry sink; when omitted, one is
            created automatically if a tracer is active (see
            :mod:`repro.obs.fittrace`).
    """
    if len(data.group_names) < 2:
        raise ValueError(
            "the mixed-effects model needs at least two teams; "
            "use fit_fixed_effects for single-project data (Section 3.2)"
        )
    y = data.log_efforts
    metrics = data.metrics
    objective = _objective(data)
    rng = np.random.default_rng(seed)
    k = metrics.shape[1]
    w_bounds = (_LOG_W_BOUNDS[0] - bounds_margin, _LOG_W_BOUNDS[1] + bounds_margin)
    s_bounds = (
        _LOG_SIGMA_BOUNDS[0] - bounds_margin,
        _LOG_SIGMA_BOUNDS[1] + bounds_margin,
    )
    bounds = [w_bounds] * k + [s_bounds] * 2

    with obs_trace.span(
        "fit.exact-ml", n_obs=data.n_observations, n_metrics=k
    ) as fit_span:
        trace_sink = maybe_fit_trace("exact-ml", fit_trace)
        iters = obs_metrics.counter("fit.exact-ml.iterations")
        evals = obs_metrics.counter("fit.exact-ml.loglik_evals")

        def minimize(theta0: np.ndarray, start_index: int, bounds, options=None):
            res = _MINIMIZE(
                objective,
                theta0,
                jac=True,
                method="L-BFGS-B",
                bounds=bounds,
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
            best = _fit_one_metric(data, trace_sink, objective)
            iters.inc(best.nit)
            evals.inc(best.nfev)
            # Report the full model's NLL at the returned theta.
            best.fun = objective(best.x)[0]
            start_objectives = best.starts.tolist()
            fit_span.set_attr("method", "profile")
            fit_span.set_attr("n_starts", len(start_objectives))
        else:
            best = None
            start_objectives = []
            starts = _starting_points(y, metrics, rng, n_random_starts)
            for start_index, theta0 in enumerate(starts):
                if start_jitter > 0.0:
                    theta0 = theta0 + rng.normal(scale=start_jitter, size=theta0.shape)
                theta0 = np.clip(theta0, [b[0] for b in bounds], [b[1] for b in bounds])
                res = minimize(theta0, start_index, bounds)
                start_objectives.append(float(res.fun))
                if best is None or res.fun < best.fun:
                    best = res
            assert best is not None
            # Refine the best start to tight tolerances, unbounded below like
            # the optima it must reach: sigma_rho -> 0 for a column with no
            # productivity spread, w -> 0 for a metric that adds nothing.
            refine = minimize(
                _drop_idle_metrics(objective, best.x, metrics, w_bounds[0]),
                len(starts),
                [(None, w_bounds[1])] * k + [(None, s_bounds[1])] * 2,
                _REFINE_OPTIONS,
            )
            if refine.fun < best.fun:
                best = refine
            fit_span.set_attr("method", "multi-start")
            fit_span.set_attr("n_starts", len(starts))
        fit_span.set_attr("nll", float(best.fun))

    theta = best.x
    w = np.exp(theta[:k])
    sigma_eps = math.exp(theta[k])
    sigma_rho = math.exp(theta[k + 1])
    blups = _blups(w, sigma_eps**2, sigma_rho**2, data)
    return NlmeFit(
        weights=w,
        sigma_eps=sigma_eps,
        sigma_rho=sigma_rho,
        loglik=-float(best.fun),
        random_effects=blups,
        productivities={g: math.exp(-b) for g, b in blups.items()},
        metric_names=data.metric_names,
        n_obs=data.n_observations,
        converged=bool(best.success),
        start_objectives=tuple(start_objectives),
    )
