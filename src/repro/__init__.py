"""uComplexity: measuring and estimating processor design effort.

A complete reproduction of *uComplexity: Estimating Processor Design
Effort* (MICRO 2005): the accounting procedure, the nonlinear mixed-effects
regression with per-team productivity, and the full measurement substrate
(uVerilog/uVHDL frontends, elaboration with parameter-scaling degeneracy
analysis, and ASIC + FPGA synthesis flows) that produces the Table 3
metrics, plus the paper's published evaluation data and bundled synthetic
versions of its four designs.

Quick start::

    from repro import fit_dee1, paper_dataset

    dee1 = fit_dee1(paper_dataset())
    print(dee1.sigma_eps)                       # ~0.46, Table 4
    est = dee1.estimate({"Stmts": 950, "FanInLC": 6100}, team="IVM")
    lo, hi = dee1.interval({"Stmts": 950, "FanInLC": 6100}, team="IVM")
"""

from repro.core.accounting import AccountingPolicy
from repro.core.engine import Engine
from repro.core.estimator import DesignEffortEstimator, fit_dee1
from repro.core.productivity import ProductivityLedger, calibrate_productivity
from repro.data.dataset import EffortDataset, EffortRecord
from repro.data.paper import paper_dataset
from repro.stats.lognormal import confidence_factors, confidence_interval
from repro.stats.nlme import fit_nlme
from repro.stats.fixedeffects import fit_fixed_effects

__version__ = "1.0.0"

__all__ = [
    "AccountingPolicy",
    "DesignEffortEstimator",
    "EffortDataset",
    "EffortRecord",
    "Engine",
    "ProductivityLedger",
    "calibrate_productivity",
    "confidence_factors",
    "confidence_interval",
    "fit_dee1",
    "fit_fixed_effects",
    "fit_nlme",
    "paper_dataset",
]
