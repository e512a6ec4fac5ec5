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

The public names resolve on first access (PEP 562), so measuring, linting
and serving never import the fitters or scipy.
"""

import importlib

__version__ = "1.0.0"

#: Public name -> defining module, imported on first attribute access.
_EXPORTS = {
    "AccountingPolicy": "repro.core.accounting",
    "DesignEffortEstimator": "repro.core.estimator",
    "EffortDataset": "repro.data.dataset",
    "EffortRecord": "repro.data.dataset",
    "Engine": "repro.core.engine",
    "ProductivityLedger": "repro.core.productivity",
    "calibrate_productivity": "repro.core.productivity",
    "confidence_factors": "repro.stats.lognormal",
    "confidence_interval": "repro.stats.lognormal",
    "fit_dee1": "repro.core.estimator",
    "fit_fixed_effects": "repro.stats.fixedeffects",
    "fit_nlme": "repro.stats.nlme",
    "paper_dataset": "repro.data.paper",
}

__all__ = sorted(_EXPORTS)


def lazy_exports(namespace: dict, exports: dict[str, str]):
    """PEP 562 ``__getattr__`` and ``__dir__`` for a package's ``namespace``.

    ``exports`` maps each public name to its defining module, imported on
    the first access to the name; the value is then cached in
    ``namespace``.  The package keeps its ``__all__``.
    """

    def __getattr__(name: str):
        if name not in exports:
            raise AttributeError(
                f"module {namespace['__name__']!r} has no attribute {name!r}"
            )
        value = getattr(importlib.import_module(exports[name]), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(namespace["__all__"]))

    return __getattr__, __dir__


__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
