"""The vectorised likelihood and both analytic gradients against the
per-team loop oracle (``_nll_oracle.py``), plus pinned Table 4 optima.

The oracle is the likelihood the fitters used before they had exact
gradients; the pins are the optima those fitters (finite-difference
L-BFGS-B starts plus a Nelder-Mead polish) reached on the paper's data.
"""

import cProfile
import pstats

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.evaluation import evaluate_estimators
from repro.data.paper import paper_dataset
from repro.stats import simulate_dataset
from repro.stats.fixedeffects import _rss_and_grad, fit_fixed_effects
from repro.stats.grouping import GroupedData
from repro.stats.nlme import _objective
from repro.stats.robust import fit_nlme_robust
from tests.stats._nll_oracle import central_gradient, negative_loglik, rss


@st.composite
def grouped_cases(draw):
    """A generated grouped dataset, rows shuffled so teams interleave, and
    a parameter vector to evaluate it at."""
    k = draw(st.integers(1, 3))
    sizes = draw(st.lists(st.integers(1, 6), min_size=2, max_size=5))
    sigma_rho = draw(st.sampled_from([0.0, 1e-6, 1e-3, 0.4, 1.2]))
    seed = draw(st.integers(0, 2**32 - 1))
    weights = np.exp(draw(st.lists(st.floats(-6.0, 0.0), min_size=k, max_size=k)))
    sim = simulate_dataset(
        weights, sigma_eps=0.5, sigma_rho=sigma_rho,
        components_per_team=sizes, metric_log_sd=1.5, seed=seed,
    ).data
    order = np.random.default_rng(seed).permutation(sim.n_observations)
    data = GroupedData(
        efforts=sim.efforts[order],
        metrics=sim.metrics[order],
        groups=tuple(sim.groups[i] for i in order),
    )
    u = np.log(weights) + np.asarray(
        draw(st.lists(st.floats(-1.0, 1.0), min_size=k, max_size=k))
    )
    log_sigma_eps = draw(st.floats(-2.0, 1.0))
    # Down to sigma_rho ~ 5e-5, where the random effect all but vanishes.
    log_sigma_rho = draw(st.floats(-10.0, 1.0))
    return data, np.concatenate([u, [log_sigma_eps, log_sigma_rho]])


def _oracle_nll(data: GroupedData):
    groups = list(data.group_indices().items())
    return lambda theta: negative_loglik(
        theta, data.log_efforts, data.metrics, groups
    )


class TestAgainstLoopOracle:
    @settings(max_examples=150, deadline=None)
    @given(grouped_cases())
    def test_nll_equals_oracle(self, case):
        data, theta = case
        nll, _ = _objective(data)(theta)
        assert nll == pytest.approx(_oracle_nll(data)(theta), rel=1e-12, abs=1e-10)

    @settings(max_examples=150, deadline=None)
    @given(grouped_cases())
    def test_nll_gradient_equals_central_differences(self, case):
        data, theta = case
        _, grad = _objective(data)(theta)
        expected = central_gradient(_oracle_nll(data), theta)
        np.testing.assert_allclose(grad, expected, rtol=1e-5, atol=1e-5)

    @settings(max_examples=150, deadline=None)
    @given(grouped_cases())
    def test_rss_and_gradient_equal_oracle(self, case):
        data, theta = case
        u = theta[: data.n_metrics]
        y, metrics = data.log_efforts, data.metrics
        value, grad = _rss_and_grad(u, y, metrics)
        assert value == pytest.approx(rss(u, y, metrics), rel=1e-12)
        expected = central_gradient(lambda v: rss(v, y, metrics), u)
        np.testing.assert_allclose(grad, expected, rtol=1e-5, atol=1e-5)


def test_fits_take_no_finite_difference_gradients():
    data = paper_dataset().to_grouped(["Stmts", "FanInLC"])
    prof = cProfile.Profile()
    prof.runcall(lambda: (fit_nlme_robust(data), fit_fixed_effects(data)))
    called = {func for _, _, func in pstats.Stats(prof).stats}
    assert "approx_derivative" not in called


#: Table 4 optima of the finite-difference fitters with their Nelder-Mead
#: polish: ((sigma_eps, sigma_rho, loglik) with rho, (sigma_eps, loglik)
#: with rho = 1), per estimator.
PINNED = {
    "DEE1": ((0.45904339993254767, 0.2812992103189279, -13.43746778708367),
             (0.5326852238859956, -14.204050732943362)),
    "Stmts": ((0.503434552735611, 0.3611600614069673, -15.50033711427814),
              (0.6029040215072989, -16.432942859426948)),
    "LoC": ((0.5471499458612746, 0.42857338403262335, -17.241328515191285),
            (0.6893765818830201, -18.845476900024604)),
    "FanInLC": ((0.55099765043573, 0.743999412148505, -19.10626364672413),
                (0.8190134812972246, -21.94710837516903)),
    "Nets": ((0.6727417061225368, 1.0402385021317424, -23.18042995227254),
             (1.079648882515, -26.92033942858337)),
    "Freq": ((0.9373344864029926, 0.7869400517308159, -27.13088216396177),
             (1.1229342676316887, -27.62790613951804)),
    "AreaL": ((1.2255884164187905, 0.6166021215624699, -30.675627016939515),
              (1.351488117709648, -30.962606903507528)),
    "PowerD": ((1.3386255607878186, 1.1439809420329536, -33.59766766779131),
               (1.8203084243745262, -36.32300070980458)),
    "PowerS": ((1.4434890251725294, 2.7386049796604275, -37.672076840127495),
               (3.2057220367267965, -46.50976588814478)),
    "AreaS": ((2.075059772873228, 5.2773339097105264e-08, -38.680712670545816),
              (2.0750597500902774, -38.680712670545816)),
    "Cells": ((2.087503845462653, 1.5913736893282424, -41.267304778879605),
              (2.5481667177145346, -42.37762859258884)),
    "FFs": ((2.1410561585087535, 0.40828920364208476, -39.5442043340965),
            (2.1796586529670976, -39.56592269768039)),
}


@pytest.fixture(scope="module")
def table4():
    return evaluate_estimators(paper_dataset())


@pytest.mark.parametrize("name", sorted(PINNED))
class TestTable4Pins:
    def test_mixed_fit_matches_pin(self, table4, name):
        (sigma_eps, sigma_rho, loglik), _ = PINNED[name]
        acc = table4.mixed[name]
        assert acc.fitter == "exact-ml"
        assert acc.sigma_eps == pytest.approx(sigma_eps, abs=1e-6)
        assert acc.sigma_rho == pytest.approx(sigma_rho, abs=1e-6)
        assert acc.loglik >= loglik - 1e-9

    def test_rho1_fit_matches_pin(self, table4, name):
        _, (sigma_eps, loglik) = PINNED[name]
        acc = table4.fixed[name]
        assert acc.sigma_eps == pytest.approx(sigma_eps, abs=1e-6)
        assert acc.sigma_rho == 0.0
        assert acc.loglik >= loglik - 1e-9
