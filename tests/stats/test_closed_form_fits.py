"""The one-metric fits against iterative oracles.

With one metric the rho=1 fit is closed form and the mixed fit is a 1-D
profile-likelihood search (``repro.stats.nlme._profile``).  The oracles
here are what the fitters used to do: multi-start L-BFGS-B on the full
objectives, ``_rss_and_grad`` and ``_nll_and_grad``.  They live in the
test only.
"""

import cProfile
import math
import pstats

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize

from repro.analysis.evaluation import TABLE4_ESTIMATORS, evaluate_estimators
from repro.data.paper import paper_dataset
from repro.stats import simulate_dataset
from repro.stats.fixedeffects import _rss_and_grad, fit_fixed_effects
from repro.stats.grouping import GroupedData
from repro.stats.nlme import _objective, _one_metric_profile, fit_nlme

_TIGHT = {"ftol": 1e-15, "gtol": 1e-11, "maxiter": 2000}


@st.composite
def one_metric_cases(draw):
    """One-metric data: 2-6 unbalanced teams, one-row teams included (but
    not only those, which leave sigma_eps and sigma_rho unidentifiable),
    rows shuffled so teams interleave, sigma_rho from ~0 to 1.5."""
    sizes = draw(st.lists(st.integers(1, 8), min_size=2, max_size=6))
    if max(sizes) < 2:
        sizes[0] = 2
    sigma_rho = draw(st.sampled_from([0.0, 1e-4, 0.05, 0.3, 0.8, 1.5]))
    sigma_eps = draw(st.sampled_from([0.1, 0.5, 1.0]))
    seed = draw(st.integers(0, 2**32 - 1))
    sim = simulate_dataset(
        [math.exp(draw(st.floats(-8.0, 0.0)))], sigma_eps=sigma_eps,
        sigma_rho=sigma_rho, components_per_team=sizes, metric_log_sd=1.5,
        seed=seed,
    ).data
    order = np.random.default_rng(seed).permutation(sim.n_observations)
    return GroupedData(
        efforts=sim.efforts[order],
        metrics=sim.metrics[order],
        groups=tuple(sim.groups[i] for i in order),
    )


def _best_of(objective, starts, bounds) -> float:
    return min(
        optimize.minimize(
            objective, x0, jac=True, method="L-BFGS-B", bounds=bounds,
            options=_TIGHT,
        ).fun
        for x0 in starts
    )


class TestAgainstIterativeOracles:
    @settings(max_examples=100, deadline=None)
    @given(one_metric_cases())
    def test_rho1_rss_not_above_multistart(self, data):
        y, metrics = data.log_efforts, data.metrics
        fit = fit_fixed_effects(data)
        rss, _ = _rss_and_grad(np.log(fit.weights), y, metrics)
        u0 = float(np.mean(y - np.log(metrics[:, 0])))
        oracle = _best_of(
            lambda u: _rss_and_grad(u, y, metrics),
            [np.array([u0 + d]) for d in (-3.0, -0.5, 0.0, 0.5, 3.0)],
            [(-35.0, 15.0)],
        )
        assert rss <= oracle + 1e-12

    @settings(max_examples=100, deadline=None)
    @given(one_metric_cases())
    def test_profile_loglik_not_below_multistart(self, data):
        fit = fit_nlme(data)
        objective = _objective(data)
        assert fit.loglik == pytest.approx(
            -objective(np.log([fit.weights[0], fit.sigma_eps,
                               fit.sigma_rho]))[0], abs=1e-9)
        y, column = data.log_efforts, data.metrics[:, 0]
        u0 = float(np.mean(y - np.log(column)))
        sd = math.log(max(float(np.std(y - np.log(column))), 1e-3))
        starts = [
            np.array([u0 + du, sd + de, sd + dr])
            for du in (-1.0, 0.0, 1.0)
            for de in (-1.0, 0.0)
            for dr in (-4.0, -1.0, 0.0, 1.0)
        ]
        # sigma_rho may go far below the fitters' box, down to the
        # sigma_rho -> 0 optima.
        oracle = _best_of(
            objective, starts, [(-35.0, 15.0), (-8.0, 4.0), (-30.0, 4.0)]
        )
        assert fit.loglik >= -oracle - 1e-9

    @settings(max_examples=100, deadline=None)
    @given(one_metric_cases(), st.floats(-20.0, 8.0))
    def test_profile_derivative_equals_central_differences(self, data, t):
        profile, _ = _one_metric_profile(data)
        h = 1e-5
        nll, dnll = profile(np.array([t - h, t, t + h]))[:2]
        expected = (nll[2] - nll[0]) / (2.0 * h)
        assert dnll[1] == pytest.approx(expected, rel=1e-5, abs=1e-7)

    @settings(max_examples=100, deadline=None)
    @given(one_metric_cases(), st.floats(-20.0, 8.0))
    def test_profile_is_the_full_nll_at_its_theta(self, data, t):
        profile, theta_at = _one_metric_profile(data)
        nll = profile(np.array([t]))[0][0]
        assert nll == pytest.approx(
            _objective(data)(theta_at(t))[0], rel=1e-12, abs=1e-10
        )


def test_one_metric_table4_fits_call_no_minimize():
    one_metric = tuple(
        (name, metrics) for name, metrics in TABLE4_ESTIMATORS
        if len(metrics) == 1
    )
    assert len(one_metric) == 11
    prof = cProfile.Profile()
    result = prof.runcall(
        evaluate_estimators, paper_dataset(), estimators=one_metric
    )
    assert not result.degraded
    called = {
        (path, func) for path, _, func in pstats.Stats(prof).stats
    }
    assert not any(
        func == "minimize" and "scipy" in path for path, func in called
    )
