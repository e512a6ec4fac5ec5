"""The accounting-procedure ablation (Section 5.3 / Figure 6).

The paper gathers every measurement twice -- once with the Section 2.2
accounting procedure (each component counted once, parameters minimized)
and once without (every instance counted at instantiated parameters) -- and
compares the resulting estimator accuracies.  We do the same on the bundled
designs: metrics come from our own measurement pipeline, efforts from the
paper's Table 2.

Expected shape (the paper's findings): the synthesis-metric estimators
(FanInLC, Nets, ...) lose substantial accuracy without the procedure,
driven mainly by the replication-heavy IVM design; LoC and Stmts are
untouched (they are source-text metrics); DEE1 moves little because the
regression leans on its Stmts term.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.evaluation import (
    TABLE4_ESTIMATORS,
    EvaluationResult,
    evaluate_estimators,
)
from repro.core.accounting import AccountingPolicy
from repro.data.dataset import EffortDataset
from repro.designs.loader import measured_dataset


@dataclass(frozen=True)
class AblationResult:
    """Estimator accuracy with and without the accounting procedure."""

    with_accounting: EvaluationResult
    without_accounting: EvaluationResult

    def sigma_pairs(self) -> dict[str, tuple[float, float]]:
        """Estimator -> (sigma with procedure, sigma without)."""
        return {
            name: (
                self.with_accounting.mixed[name].sigma_eps,
                self.without_accounting.mixed[name].sigma_eps,
            )
            for name in self.with_accounting.mixed
            if name in self.without_accounting.mixed
        }

    def degradations(self) -> dict[str, float]:
        """Estimator -> sigma increase when the procedure is dropped."""
        return {
            name: without - with_
            for name, (with_, without) in self.sigma_pairs().items()
        }


def run_accounting_ablation(
    with_dataset: EffortDataset | None = None,
    without_dataset: EffortDataset | None = None,
    jobs: int = 1,
    cache=None,
) -> AblationResult:
    """Measure the bundled designs both ways and fit every estimator.

    Pre-measured datasets can be injected (the benchmarks cache them); by
    default the bundled designs are measured on the fly -- ``jobs``/``cache``
    (see :mod:`repro.exec.pool` / :mod:`repro.cache`) speed that path up.
    """
    if with_dataset is None:
        with_dataset = measured_dataset(
            AccountingPolicy.recommended(), jobs=jobs, cache=cache
        )
    if without_dataset is None:
        without_dataset = measured_dataset(
            AccountingPolicy.disabled(), jobs=jobs, cache=cache
        )
    return AblationResult(
        with_accounting=evaluate_estimators(with_dataset, TABLE4_ESTIMATORS),
        without_accounting=evaluate_estimators(without_dataset, TABLE4_ESTIMATORS),
    )
