"""Evaluation drivers reproducing the paper's Section 5.

* :mod:`repro.analysis.evaluation` -- the Table 4 engine: fit every
  estimator with and without the productivity adjustment.
* :mod:`repro.analysis.combos` -- the two-metric combination sweep that
  selects DEE1 (Section 5.1.1).
* :mod:`repro.analysis.ablation` -- the accounting-procedure ablation
  (Figure 6), driven by measurements of the bundled RTL designs.
* :mod:`repro.analysis.crossval` -- leave-one-out validation (extension).
* :mod:`repro.analysis.tables` -- ASCII rendering of tables and figures.

The package re-exports nothing, so ``measure`` can render a table without
importing the evaluation code and its fitters.
"""
