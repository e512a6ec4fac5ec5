"""Fit benchmark: the Table 4 evaluation on the paper's dataset.

Records one series in BENCH_obs.json:

* ``stats.fit_ms`` -- CPU milliseconds of one
  ``evaluate_estimators(paper_dataset())``: 12 estimators, each fitted
  with productivity (through verification and the retry ladder) and with
  rho = 1, which makes 22 closed-form fits and DEE1's 2 iterative fits
  (lower is better; best of three passes).  The passes run with no
  tracer installed, as a plain library call has: under the
  harness's session tracer every fit would also record a ``FitTrace``
  and emit ``fit_iter`` events, and the series would time that telemetry.

Correctness is asserted: every mixed-effects fit is a verified exact-ML
fit, and every sigma_eps is within the paper's two printed decimals.
"""

import time

from repro import obs
from repro.analysis.evaluation import evaluate_estimators
from repro.data.paper import (
    PAPER_SIGMA_EPS,
    PAPER_SIGMA_EPS_NO_RHO,
    paper_dataset,
)

PASSES = 3


def test_table4_fit(bench_series, report):
    dataset = paper_dataset()
    best = float("inf")
    with obs.using(None):
        for _ in range(PASSES):
            t0 = time.process_time()
            result = evaluate_estimators(dataset)
            best = min(best, time.process_time() - t0)

    assert not result.degraded
    for name, (with_rho, no_rho) in result.sigma_table().items():
        assert abs(with_rho - PAPER_SIGMA_EPS[name]) <= 0.015, name
        assert abs(no_rho - PAPER_SIGMA_EPS_NO_RHO[name]) <= 0.015, name
    bench_series("stats.fit_ms", best * 1000)
    report(
        "Table 4 fit",
        f"{len(result.mixed)} estimators x 2 models: {best * 1000:.0f}ms CPU "
        f"(best of {PASSES})",
    )
