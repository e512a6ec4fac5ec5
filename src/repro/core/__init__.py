"""The uComplexity methodology (the paper's primary contribution).

The methodology has three parts (Section 2):

1. an **accounting procedure** (:mod:`repro.core.accounting`) that decides
   which component instances to measure -- each reused component once, with
   every parameter scaled down to its minimal non-degenerate value;
2. a **statistical regression** of measured metrics against reported design
   effort (:mod:`repro.core.estimator`, on top of :mod:`repro.stats`);
3. a **productivity adjustment** (:mod:`repro.core.productivity`) that
   rescales estimates to a particular design team.

:mod:`repro.core.metrics` declares the Table 3 metric registry,
:mod:`repro.core.timeline` models the Figure 1 development timeline, and
:mod:`repro.core.engine` wires the whole flow (RTL in, effort estimates
out) together.  The package re-exports nothing: importing the engine must
not import the estimator, whose fitters need scipy.
"""
