#!/usr/bin/env python3
"""Self-tests of the benchmark's own instruments.

Usage (from the repository root)::

    python3 ucbench/selftest.py

Checks, on small inputs (a few seconds in all):

1. the oracles pass on the program's real outputs;
2. a planted wrong truth (one catalog metric, one Table 4 sigma) is
   counted as exactly one failed operation, so ``error_rate`` rises;
3. a planted delay inside one wrapped layer (nested in another) shows
   up in that layer's self time and in no other layer's.

Exit code 0 when every check passes.
"""

from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"

import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from corpora import (  # noqa: E402
    Tally,
    _fit_paper,
    catalog_corpus,
    check_measurements,
)
from layers import LAYERS, LayerTracer  # noqa: E402

#: The layer the delay is planted in, and the delay per call.  It is
#: nested inside ``flow.report_s``, so a wrapper that failed to subtract
#: child time would leak the delay into the parent.
PLANTED_LAYER = "flow.spectral_s"
PLANTED_DELAY_S = 0.02
#: Other layers may move by at most this share of the planted cost.
LEAK_TOLERANCE = 0.1


def _measure(corpus, tracer: LayerTracer) -> tuple[dict, float]:
    from repro.core.engine import Engine
    from repro.obs import metrics as obs_metrics

    registry = obs_metrics.MetricsRegistry()
    engine = Engine(cache=None, jobs=1)
    with obs_metrics.using(registry), tracer.phase() as phase:
        results = engine.measure_components(corpus.specs).results
    calls = registry.snapshot()["counters"]["synth.specializations"]
    return {"results": results, **phase}, calls


def check_oracles(corpus) -> list[str]:
    from repro.core.engine import Engine
    from repro.data.paper import PAPER_SIGMA_EPS, PAPER_SIGMA_EPS_NO_RHO

    errors = []
    results = Engine(cache=None, jobs=1).measure_components(
        corpus.specs
    ).results

    clean = Tally()
    check_measurements(corpus, results, clean, "clean")
    if clean.failed:
        errors.append(f"clean catalog failed its oracle: {clean.notes}")

    victim = corpus.specs[0].name
    corpus.truths[victim] = dict(
        corpus.truths[victim], Stmts=corpus.truths[victim]["Stmts"] + 1
    )
    planted = Tally()
    check_measurements(corpus, results, planted, "planted")
    if planted.failed != 1 or planted.error_rate <= 0:
        errors.append(
            f"planted catalog truth: {planted.failed} failures, want 1"
        )

    fit = Tally()
    wrong = dict(PAPER_SIGMA_EPS, DEE1=PAPER_SIGMA_EPS["DEE1"] + 0.1)
    _fit_paper({}, fit, expected=(wrong, PAPER_SIGMA_EPS_NO_RHO))
    if fit.failed != 1:
        errors.append(f"planted Table 4 sigma: {fit.failed} failures, want 1")
    return errors


def check_attribution(corpus) -> list[str]:
    plain, slow = LayerTracer(), LayerTracer(
        delays={PLANTED_LAYER: PLANTED_DELAY_S}
    )
    runs: dict[str, list[dict]] = {"plain": [], "slow": []}
    calls = 0.0
    for _ in range(3):
        for name, tracer in (("plain", plain), ("slow", slow)):
            tracer.install()
            try:
                phase, calls = _measure(corpus, tracer)
            finally:
                tracer.uninstall()
            runs[name].append(phase)
    planted = calls * PLANTED_DELAY_S
    errors = []
    for layer in [lay.metric for lay in LAYERS] + ["engine.self_s"]:
        delta = statistics.median(r[layer] for r in runs["slow"]) \
            - statistics.median(r[layer] for r in runs["plain"])
        if layer == PLANTED_LAYER:
            if delta < 0.9 * planted:
                errors.append(
                    f"{layer} grew {delta:.4f}s, planted {planted:.4f}s"
                )
        elif abs(delta) > LEAK_TOLERANCE * planted:
            errors.append(
                f"{layer} moved {delta:+.4f}s under a delay planted in "
                f"{PLANTED_LAYER} ({planted:.4f}s)"
            )
    return errors


def main() -> int:
    scratch = HERE.parent / ".ucbench_tmp"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        os.environ["TMPDIR"] = tmp
        tempfile.tempdir = None
        corpus = catalog_corpus(seed=5, size=16)
        errors = check_attribution(corpus) + check_oracles(corpus)
    try:
        scratch.rmdir()
    except OSError:
        pass
    for line in errors:
        print(f"FAIL {line}")
    print("selftest", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
