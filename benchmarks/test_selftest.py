"""Self-test benchmarks: generator throughput at scale + recovery bias.

Two series the harness tracks in BENCH_obs.json:

* ``gen.corpus_throughput`` -- components/second pushing the 200-module
  generated catalog (100 Verilog + 100 VHDL) through
  ``Engine.measure_components`` with ``jobs`` and a cold content-addressed
  cache; the scale workload the ISSUE asks for.
* ``gen.recovery_bias`` -- max absolute relative weight bias of the
  exact-ML fitter on a small seeded recovery study (no bootstrap; the
  coverage half lives in the tier-2 suite).  Drift in this series flags
  a fitter regression long before the paper tables move.
"""

import time

from repro.cache import SynthesisCache
from repro.core.engine import Engine
from repro.gen import corpus_specs, generate_corpus, run_recovery_study
from repro.hdl.source import VERILOG, VHDL

JOBS = 4
CATALOG_SIZE = 100  # per language -> 200 components total


def test_generated_catalog_throughput(bench_series, report, tmp_path):
    corpus = (generate_corpus(VERILOG, CATALOG_SIZE, seed=2005)
              + generate_corpus(VHDL, CATALOG_SIZE, seed=2006))
    specs = corpus_specs(corpus)
    cache = SynthesisCache(tmp_path / "cache")

    t0 = time.perf_counter()
    batch = Engine(jobs=JOBS, cache=cache).measure_components(specs)
    elapsed = time.perf_counter() - t0

    assert not batch.failures
    assert len(batch.measurements) == 2 * CATALOG_SIZE
    # The ground truth must hold at scale, not just in the tier-1 suite.
    measured = batch.measurements
    for gm in corpus:
        for key, expected in gm.truth.items():
            assert measured[gm.name].metrics[key] == expected, \
                f"{gm.name} {key}"

    throughput = len(specs) / elapsed if elapsed > 0 else 0.0
    bench_series("gen.corpus_throughput", throughput)

    t0 = time.perf_counter()
    warm = Engine(jobs=JOBS, cache=cache).measure_components(specs)
    warm_elapsed = time.perf_counter() - t0
    assert len(warm.measurements) == 2 * CATALOG_SIZE

    report(
        "generated catalog (200 components)",
        f"cold {elapsed:.2f}s ({throughput:.1f} comp/s, jobs={JOBS}), "
        f"warm cache {warm_elapsed:.2f}s",
    )


def test_recovery_bias_series(bench_series, report):
    study = run_recovery_study(
        fitters=("exact-ml",), n_datasets=6, n_bootstrap=0, seed=2005)
    ml = study.fitter("exact-ml")
    assert ml.n_datasets_fit == 6
    bench_series("gen.recovery_bias", ml.max_abs_rel_bias)
    report(
        "recovery bias (exact-ML, 6 seeded datasets)",
        f"max |rel bias| {ml.max_abs_rel_bias:.3f}",
    )
