"""Lint benchmarks: the §2.2 audit at catalog scale.

Both run on a 200-component generated catalog (the clean tile pool, so
the run exercises every rule without tripping any) and record into
BENCH_obs.json:

* ``lint.throughput_components_per_s`` -- modules audited per wall second
  (lint runs inline at any ``jobs``).  Correctness of the run is
  asserted (no errors, no findings beyond genuine random-draw ACC001
  collisions); speed is the series.
* ``lint.warm_ms`` -- process CPU milliseconds of a warm run through the
  whole-run lint memo (best of :data:`REPEATS`).  The warm report must
  equal the cold one and no file may be parsed.
"""

import time

import pytest

from repro.cache import SynthesisCache
from repro.gen import clean_kinds, generate_corpus
from repro.hdl.source import VERILOG, VHDL
from repro.lint import lint_sources
from repro.obs import metrics as obs_metrics

COMPONENTS = 200
REPEATS = 5


@pytest.fixture(scope="module")
def sources():
    half = COMPONENTS // 2
    corpus = (
        generate_corpus(VERILOG, half, seed=91, kinds=clean_kinds())
        + generate_corpus(VHDL, COMPONENTS - half, seed=92,
                          kinds=clean_kinds())
    )
    return [src for gm in corpus for src in gm.sources]


def test_lint_throughput(bench_series, report, sources):
    t0 = time.perf_counter()
    audit = lint_sources(sources)
    elapsed = time.perf_counter() - t0

    # 200 random draws from a finite tile pool can produce genuinely
    # isomorphic modules (a correct ACC001); anything else is a lint bug.
    assert not audit.errors, [e.message for e in audit.errors]
    assert all(f.rule == "ACC001" for f in audit.findings), [
        str(f) for f in audit.findings
    ]
    audited = audit.modules
    assert audited >= COMPONENTS

    throughput = audited / elapsed if elapsed > 0 else 0.0
    bench_series("lint.throughput_components_per_s", throughput)
    report(
        "lint throughput",
        f"{audited} modules in {elapsed:.2f}s "
        f"-> {throughput:.1f} components/s",
    )


def test_lint_warm(bench_series, report, sources, tmp_path):
    cache = SynthesisCache(tmp_path / "cache")
    cold = lint_sources(sources, cache=cache)
    assert not cold.errors, [e.message for e in cold.errors]
    assert len(cache.lint_entries()) == 1

    best = float("inf")
    for _ in range(REPEATS):
        with obs_metrics.using(obs_metrics.MetricsRegistry()):
            t0 = time.process_time()
            warm = lint_sources(sources, cache=cache)
            cpu = time.process_time() - t0
            parsed = obs_metrics.counter("hdl.files_parsed").value
        assert parsed == 0
        assert warm == cold
        best = min(best, cpu)

    bench_series("lint.warm_ms", best * 1000.0)
    report(
        "lint warm",
        f"{warm.modules} modules from one memo entry in "
        f"{best * 1000.0:.2f} ms CPU (best of {REPEATS}), 0 files parsed",
    )
