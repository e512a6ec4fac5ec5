"""Statistics substrate for the uComplexity regression model.

This package replaces the SAS ``PROC NLMIXED`` / R ``nlme`` programs listed
in Appendix A of the paper.  It provides:

* :mod:`repro.stats.lognormal` -- lognormal distribution helpers used for the
  productivity factor ``rho`` and the multiplicative error ``epsilon``
  (Figures 2, 3, and 4 of the paper).
* :mod:`repro.stats.grouping` -- containers for grouped (per-team) data.
* :mod:`repro.stats.nlme` -- the nonlinear mixed-effects fitter.  The paper's
  model, once log-transformed, has an additive normal random intercept per
  team, so the marginal likelihood is available in closed form
  (compound-symmetric covariance); we maximize it exactly.
* :mod:`repro.stats.laplace` -- a generic Laplace / adaptive Gauss-Hermite
  fitter for models where the random effect enters nonlinearly.  On the
  paper's model it must agree with the exact fitter.
* :mod:`repro.stats.fixedeffects` -- the "no productivity adjustment" model
  of Section 3.2 (``rho_i = 1`` for all teams).
* :mod:`repro.stats.criteria` -- log-likelihood based model-selection
  criteria (AIC and BIC, Section 5.1.1).
* :mod:`repro.stats.simulate` -- a generator that draws synthetic datasets
  from the paper's generative model, used to validate the fitters.
* :mod:`repro.stats.robust` -- convergence verification (gradient norm,
  Hessian definiteness, multi-start dispersion) and the fallback chain
  exact-ML -> Laplace/AGHQ -> fixed effects, with degradation recorded.
"""

from repro import lazy_exports

#: Public name -> defining module, imported on first attribute access
#: (PEP 562): only the fitters pull in scipy, and only when used.
_EXPORTS = {
    "BootstrapResult": "repro.stats.bootstrap",
    "ConvergenceReport": "repro.stats.robust",
    "FitCriteria": "repro.stats.criteria",
    "FixedEffectsFit": "repro.stats.fixedeffects",
    "GroupedData": "repro.stats.grouping",
    "LaplaceFit": "repro.stats.laplace",
    "LognormalSpec": "repro.stats.lognormal",
    "NlmeFit": "repro.stats.nlme",
    "RetryPolicy": "repro.stats.robust",
    "RobustFitResult": "repro.stats.robust",
    "SyntheticDataset": "repro.stats.simulate",
    "aic": "repro.stats.criteria",
    "bic": "repro.stats.criteria",
    "bootstrap_sigma": "repro.stats.bootstrap",
    "compare_fits": "repro.stats.criteria",
    "confidence_factors": "repro.stats.lognormal",
    "confidence_interval": "repro.stats.lognormal",
    "fit_fixed_effects": "repro.stats.fixedeffects",
    "fit_nlme": "repro.stats.nlme",
    "fit_nlme_laplace": "repro.stats.laplace",
    "fit_nlme_robust": "repro.stats.robust",
    "lognormal_mean": "repro.stats.lognormal",
    "lognormal_median": "repro.stats.lognormal",
    "lognormal_mode": "repro.stats.lognormal",
    "lognormal_pdf": "repro.stats.lognormal",
    "median_to_mean_factor": "repro.stats.lognormal",
    "simulate_dataset": "repro.stats.simulate",
    "verify_nlme_convergence": "repro.stats.robust",
}

__all__ = sorted(_EXPORTS)

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
