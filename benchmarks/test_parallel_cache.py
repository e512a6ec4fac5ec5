"""Parallel-measurement and synthesis-cache benchmarks.

Two trajectories the paper's harness tracks in BENCH_obs.json:

* ``parallel.speedup_jobsN`` -- wall-time ratio of a sequential catalog
  measurement over a pooled one, on a **cold cache** (no memo, no
  synthesis entries) so the pool is doing all the work.  The ratio is
  bounded by the machine: ``parallel.effective_cpus`` rides along so a
  reader can tell a 1-core container's ~1.0 from a real regression.
  The CI gate enforces the floor (``benchdiff.toml``: the speedup must
  never sink below 1.0 -- parallel slower than sequential is a bug).
* ``cache.hit_rate_warm`` / ``cache.synth_skip_fraction`` -- how much of
  the synthesize stage a warm content-addressed cache elides on an
  unchanged catalog (the acceptance bar is >= 0.9 skipped).
* ``exec.pool_cpu_ratio`` -- user CPU of a cold ``jobs=2`` measure of a
  200-module generated catalog (the parent plus the workers it reaps)
  over the user CPU of the same measure inline, each into a fresh
  cache; the median over :data:`RATIO_PAIRS` back-to-back pairs.  What
  the pool adds to the work, in CPU rather than wall time (lower is
  better; 1.0 would be a free pool).
* ``cache.store_ms`` -- process CPU (user + sys) milliseconds of storing
  what one cold measure of a 200-component catalog of flat generated
  modules writes (200 synthesis reports and 200 pristine measurements)
  into a fresh cache: the write path alone, with no synthesis around it
  (lower is better; best of :data:`REPEATS`).
* ``cache.load_ms`` -- process CPU milliseconds of loading those same
  400 entries back (the read path: open, read, unpickle, validate;
  lower is better; best of :data:`REPEATS`).
"""

import gc
import os
import pickle
import resource
import statistics
import time

from repro.cache import SynthesisCache, hit_rate
from repro.core.engine import Engine
from repro.gen import clean_kinds, corpus_specs, generate_corpus
from repro.obs import metrics as obs_metrics

JOBS = 4

#: Cold-cache speedup catalog: 200 generated components, both languages.
CORPUS_SIZE = 100
CORPUS_SEED = 11

#: Best-of-N timing repeats (pool warm-up and scheduler noise average out
#: poorly on shared runners; the minimum is the honest machine capability).
REPEATS = 2

#: Inline/pooled pairs behind ``exec.pool_cpu_ratio``.  A shared host's
#: speed drifts by tens of percent between runs, so each pair runs back
#: to back and the series is the median of the pairs' ratios.
RATIO_PAIRS = 5


def _speedup_specs():
    modules = generate_corpus(
        "verilog", CORPUS_SIZE, seed=CORPUS_SEED, name_prefix="bv"
    ) + generate_corpus(
        "vhdl", CORPUS_SIZE, seed=CORPUS_SEED, name_prefix="bh"
    )
    return corpus_specs(modules)


def _timed(fn, repeats=REPEATS):
    best, result = float("inf"), None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def test_parallel_catalog_speedup(bench_series, report):
    specs = _speedup_specs()
    # cache=None keeps every repeat cold: no measurement memo, no
    # synthesis entries, so the pooled run cannot hide behind the cache.
    t_seq, sequential = _timed(lambda: Engine().measure_components(specs))
    t_par, pooled = _timed(lambda: Engine(jobs=JOBS).measure_components(specs))

    # Equivalence is the contract; speed is the series.
    assert list(pooled.results) == list(sequential.results)
    for name, result in sequential.results.items():
        assert pickle.dumps(pooled.results[name]) == pickle.dumps(result), name

    speedup = t_seq / t_par if t_par > 0 else 0.0
    cpus = float(os.cpu_count() or 1)
    bench_series(f"parallel.speedup_jobs{JOBS}", speedup)
    bench_series("parallel.effective_cpus", cpus)
    report(
        "parallel catalog measurement (cold cache, 200 components)",
        f"sequential {t_seq:.2f}s, jobs={JOBS} {t_par:.2f}s "
        f"-> speedup {speedup:.2f}x on {cpus:.0f} cpu(s)",
    )


def _user_cpu_s() -> float:
    """User CPU seconds of this process plus the children it reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + kids.ru_utime


def _clean_catalog_specs(prefix: str):
    return corpus_specs(generate_corpus(
        "verilog", CORPUS_SIZE, seed=CORPUS_SEED, kinds=clean_kinds(),
        name_prefix=f"{prefix}v",
    ) + generate_corpus(
        "vhdl", CORPUS_SIZE, seed=CORPUS_SEED, kinds=clean_kinds(),
        name_prefix=f"{prefix}h",
    ))


def test_pool_cpu_ratio(bench_series, report, tmp_path):
    specs = _clean_catalog_specs("p")
    Engine().measure_components(specs[:4])  # load the pipeline once
    ratios, results = [], {}
    for repeat in range(RATIO_PAIRS):
        spent = {}
        for jobs in (1, 2):
            engine = Engine(cache=SynthesisCache(tmp_path / f"{jobs}.{repeat}"),
                            jobs=jobs)
            gc.collect()
            with obs_metrics.using(obs_metrics.MetricsRegistry()):
                t0 = _user_cpu_s()
                results[jobs] = engine.measure_components(specs).results
                spent[jobs] = _user_cpu_s() - t0
        ratios.append(spent[2] / spent[1])
    for name, result in results[1].items():
        assert pickle.dumps(results[2][name]) == pickle.dumps(result), name

    ratio = statistics.median(ratios)
    bench_series("exec.pool_cpu_ratio", ratio)
    report(
        "pool CPU (cold catalog, 200 components, fresh cache)",
        f"jobs=2 over inline user CPU (parent + workers): median {ratio:.3f} "
        f"of {RATIO_PAIRS} back-to-back pairs "
        f"({', '.join(f'{r:.3f}' for r in ratios)})",
    )


def _cold_catalog_cache(directory):
    """A cache holding what one cold measure of a 200-component clean
    catalog writes, with its report keys and its memo keys."""
    specs = _clean_catalog_specs("s")
    cache = SynthesisCache(directory)
    with obs_metrics.using(obs_metrics.MetricsRegistry()):
        Engine(cache=cache).measure_components(specs)
    reports = [path.stem for path in cache.entries()]
    memos = [path.stem for path in cache.measurement_entries()]
    assert len(reports) >= len(specs)
    assert len(memos) == len(specs)
    return cache, reports, memos


def test_cache_store_cpu(bench_series, report, tmp_path):
    seed, report_keys, memo_keys = _cold_catalog_cache(tmp_path / "seed")
    with obs_metrics.using(obs_metrics.MetricsRegistry()):
        entries = [(key, seed.load(key).value) for key in report_keys] + [
            (key, seed.load_measurement(key)) for key in memo_keys
        ]
    reports = len(report_keys)

    best = float("inf")
    for repeat in range(REPEATS):
        cache = SynthesisCache(tmp_path / f"fresh{repeat}")
        with obs_metrics.using(obs_metrics.MetricsRegistry()):
            t0 = time.process_time()
            for i, (key, value) in enumerate(entries):
                if i < reports:
                    cache.store(key, value)
                else:
                    cache.store_measurement(key, value)
            elapsed = time.process_time() - t0
            stored = obs_metrics.snapshot()["counters"]
        best = min(best, elapsed)
        assert stored.get("cache.errors", 0.0) == 0.0
        assert stored["cache.stores"] == reports
        assert stored["cache.measure_stores"] == len(memo_keys)

    bench_series("cache.store_ms", best * 1000)
    report(
        "cache write path (cold catalog)",
        f"{len(entries)} entries ({reports} reports, {len(memo_keys)} "
        f"measurements) stored in {best * 1000:.0f}ms CPU "
        f"(best of {REPEATS})",
    )


def test_cache_load_cpu(bench_series, report, tmp_path):
    cache, reports, memos = _cold_catalog_cache(tmp_path / "cache")
    best = float("inf")
    for _ in range(REPEATS):
        with obs_metrics.using(obs_metrics.MetricsRegistry()):
            t0 = time.process_time()
            for key in reports:
                cache.load(key)
            for key in memos:
                cache.load_measurement(key)
            elapsed = time.process_time() - t0
            loaded = obs_metrics.snapshot()["counters"]
        best = min(best, elapsed)
        assert loaded.get("cache.errors", 0.0) == 0.0
        assert loaded["cache.hits"] == len(reports)
        assert loaded["cache.measure_hits"] == len(memos)

    bench_series("cache.load_ms", best * 1000)
    report(
        "cache read path (cold catalog's entries)",
        f"{len(reports) + len(memos)} entries ({len(reports)} reports, "
        f"{len(memos)} measurements) loaded in {best * 1000:.1f}ms CPU "
        f"(best of {REPEATS})",
    )


def test_cache_warm_hit_rate(bench_series, report, tmp_path):
    cache = SynthesisCache(tmp_path / "cache")

    with obs_metrics.using(obs_metrics.MetricsRegistry()):
        Engine(cache=cache).measure_catalog()
        cold = obs_metrics.snapshot()["counters"]
    with obs_metrics.using(obs_metrics.MetricsRegistry()):
        warm_run = Engine(cache=cache).measure_catalog()
        warm = obs_metrics.snapshot()["counters"]

    cold_synth = cold.get("synth.specializations", 0.0)
    warm_synth = warm.get("synth.specializations", 0.0)
    assert cold_synth > 0
    skip_fraction = 1.0 - warm_synth / cold_synth
    warm_rate = hit_rate(warm) or 0.0

    # The warm run must elide at least 90% of the synthesize stage.
    assert skip_fraction >= 0.9, (cold_synth, warm_synth)
    assert warm_rate >= 0.9
    assert len(warm_run) == 18

    bench_series("cache.hit_rate_warm", warm_rate)
    bench_series("cache.synth_skip_fraction", skip_fraction)
    report(
        "synthesis cache",
        f"cold synthesized {cold_synth:.0f} specializations, warm "
        f"{warm_synth:.0f} (skip {skip_fraction:.0%}, hit rate {warm_rate:.0%})",
    )
