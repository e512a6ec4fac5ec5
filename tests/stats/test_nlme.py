"""Tests for the exact mixed-effects fitter (repro.stats.nlme)."""

import math

import numpy as np
import pytest

from repro.data import paper_dataset
from repro.stats import fit_nlme, fit_fixed_effects, simulate_dataset
from repro.stats.grouping import GroupedData


@pytest.fixture(scope="module")
def stmts_fit():
    return fit_nlme(paper_dataset().to_grouped(["Stmts"]), n_random_starts=2)


@pytest.fixture(scope="module")
def dee1_fit():
    return fit_nlme(paper_dataset().to_grouped(["Stmts", "FanInLC"]))


class TestAgainstPaper:
    """The published sigma_epsilon values are the ground truth."""

    def test_stmts_sigma(self, stmts_fit):
        assert stmts_fit.sigma_eps == pytest.approx(0.50, abs=0.01)

    def test_dee1_sigma(self, dee1_fit):
        assert dee1_fit.sigma_eps == pytest.approx(0.46, abs=0.01)

    def test_stmts_information_criteria(self, stmts_fit):
        # Section 5.1.1: Stmts AIC 37.0, BIC 39.7.
        assert stmts_fit.aic == pytest.approx(37.0, abs=0.2)
        assert stmts_fit.bic == pytest.approx(39.7, abs=0.2)

    def test_dee1_information_criteria(self, dee1_fit):
        # Section 5.1.1: DEE1 AIC 34.8, BIC 38.4.
        assert dee1_fit.aic == pytest.approx(34.8, abs=0.2)
        assert dee1_fit.bic == pytest.approx(38.4, abs=0.2)

    def test_dee1_beats_stmts(self, stmts_fit, dee1_fit):
        assert dee1_fit.sigma_eps < stmts_fit.sigma_eps
        assert dee1_fit.aic < stmts_fit.aic

    def test_one_productivity_per_team(self, stmts_fit):
        assert set(stmts_fit.productivities) == {"Leon3", "PUMA", "IVM", "RAT"}

    def test_weights_positive(self, dee1_fit):
        assert (dee1_fit.weights > 0).all()


class TestFitMechanics:
    def test_productivity_is_exp_of_negated_blup(self, stmts_fit):
        for team, b in stmts_fit.random_effects.items():
            assert stmts_fit.productivities[team] == pytest.approx(math.exp(-b))

    def test_single_team_rejected(self):
        data = GroupedData(
            efforts=np.array([1.0, 2.0, 3.0]),
            metrics=np.array([[10.0], [20.0], [30.0]]),
            groups=("solo", "solo", "solo"),
        )
        with pytest.raises(ValueError, match="two teams"):
            fit_nlme(data)

    def test_deterministic_for_fixed_seed(self):
        data = paper_dataset().to_grouped(["LoC"])
        fit1 = fit_nlme(data, seed=7)
        fit2 = fit_nlme(data, seed=7)
        assert fit1.sigma_eps == fit2.sigma_eps
        assert np.array_equal(fit1.weights, fit2.weights)

    def test_loglik_not_below_fixed_effects(self):
        # The fixed-effects model is nested in the mixed model (sigma_rho=0),
        # so the mixed ML log-likelihood can never be lower.
        data = paper_dataset().to_grouped(["Nets"])
        mixed = fit_nlme(data, n_random_starts=2)
        fixed = fit_fixed_effects(data)
        assert mixed.loglik >= fixed.loglik - 1e-6

    def test_n_params_counts_weights_and_sigmas(self, dee1_fit, stmts_fit):
        assert dee1_fit.n_params == 4
        assert stmts_fit.n_params == 3


class TestPrediction:
    def test_predict_median_uses_team_productivity(self, dee1_fit):
        m = np.array([[1000.0, 5000.0]])
        neutral = dee1_fit.predict_median(m)[0]
        for team, rho in dee1_fit.productivities.items():
            assert dee1_fit.predict_median(m, team)[0] == pytest.approx(neutral / rho)

    def test_predict_mean_above_median(self, dee1_fit):
        m = np.array([[1000.0, 5000.0]])
        assert dee1_fit.predict_mean(m)[0] > dee1_fit.predict_median(m)[0]

    def test_unknown_team_rejected(self, dee1_fit):
        with pytest.raises(KeyError):
            dee1_fit.predict_median(np.array([[1.0, 1.0]]), team="Intel")

    def test_wrong_metric_count_rejected(self, dee1_fit):
        with pytest.raises(ValueError):
            dee1_fit.predict_median(np.array([[1.0]]))

    def test_prediction_interval_brackets_median(self, dee1_fit):
        m = np.array([[1000.0, 5000.0]])
        med = dee1_fit.predict_median(m)[0]
        (lo, hi), = dee1_fit.prediction_interval(m)
        assert lo < med < hi

    def test_relative_estimation(self, dee1_fit):
        # Section 3.1.1: a component with estimate 2x takes twice as long as
        # one with estimate x (rho-free relative mode).
        m = np.array([[1000.0, 5000.0], [2000.0, 10000.0]])
        est = dee1_fit.predict_median(m)
        assert est[1] == pytest.approx(2.0 * est[0])


class TestParameterRecovery:
    """The fitter must recover ground truth from simulated data."""

    def test_recovers_weights_single_metric(self):
        sim = simulate_dataset(
            weights=[0.004], sigma_eps=0.3, sigma_rho=0.4,
            components_per_team=[12] * 25, seed=42,
        )
        fit = fit_nlme(sim.data, n_random_starts=2)
        assert fit.weights[0] == pytest.approx(0.004, rel=0.25)
        assert fit.sigma_eps == pytest.approx(0.3, abs=0.08)
        assert fit.sigma_rho == pytest.approx(0.4, abs=0.15)

    def test_recovers_weights_two_metrics(self):
        sim = simulate_dataset(
            weights=[0.01, 0.002], sigma_eps=0.2, sigma_rho=0.3,
            components_per_team=[15] * 10, metric_log_sd=1.5, seed=11,
        )
        fit = fit_nlme(sim.data, n_random_starts=4)
        assert fit.weights[0] == pytest.approx(0.01, rel=0.35)
        assert fit.weights[1] == pytest.approx(0.002, rel=0.35)

    def test_productivity_ranking_recovered(self):
        sim = simulate_dataset(
            weights=[0.005], sigma_eps=0.1, sigma_rho=0.8,
            components_per_team=[20] * 5, seed=3,
        )
        fit = fit_nlme(sim.data, n_random_starts=2)
        teams = sorted(sim.true_productivities)
        true_log = np.log([sim.true_productivities[t] for t in teams])
        fitted_log = np.log([fit.productivities[t] for t in teams])
        # Strong agreement between true and recovered productivities
        # (shrinkage keeps BLUPs slightly closer to zero than the truth).
        corr = np.corrcoef(true_log, fitted_log)[0, 1]
        assert corr > 0.95

    def test_no_group_variance_when_rho_constant(self):
        sim = simulate_dataset(
            weights=[0.005], sigma_eps=0.3, sigma_rho=0.0,
            components_per_team=[20] * 5, seed=9,
        )
        fit = fit_nlme(sim.data, n_random_starts=2)
        assert fit.sigma_rho < 0.15


def _with_idle_metric(seed: int) -> tuple[GroupedData, GroupedData]:
    """A one-metric dataset, and the same with a second metric whose
    optimal weight is 0: it is largest exactly where the one-metric fit
    already over-predicts, so any positive weight costs likelihood."""
    sim = simulate_dataset(
        [0.01], sigma_eps=0.4, sigma_rho=0.5,
        components_per_team=[5, 4, 6, 3], seed=seed,
    ).data
    one = fit_nlme(sim)
    resid = (
        sim.log_efforts
        - np.log(sim.metrics @ one.weights)
        - np.array([one.random_effects[g] for g in sim.groups])
    )
    idle = sim.metrics[:, 0] * np.exp(-4.0 * resid / resid.std())
    two = GroupedData(
        efforts=sim.efforts,
        metrics=np.column_stack([sim.metrics[:, 0], idle]),
        groups=sim.groups,
    )
    return sim, two


class TestIdleMetric:
    """A metric that adds nothing sits at w -> 0, where the likelihood is
    exponentially flat in log w; the fit must still reach the nested
    one-metric optimum and pass verification on its first attempt."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_mixed_fit_reaches_nested_optimum(self, seed):
        from repro.stats.robust import fit_nlme_robust

        one, two = _with_idle_metric(seed)
        fit = fit_nlme(two)
        assert fit.loglik >= fit_nlme(one).loglik - 1e-9
        assert math.log(fit.weights[1]) < -35.0
        robust = fit_nlme_robust(two)
        assert robust.fitter == "exact-ml" and robust.attempts == 1

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_rho1_fit_reaches_nested_optimum(self, seed):
        one, two = _with_idle_metric(seed)
        fit = fit_fixed_effects(two)
        assert fit.loglik >= fit_fixed_effects(one).loglik - 1e-9
        assert math.log(fit.weights[1]) < -35.0
