"""Tier-2 ``-m par``: generated corpora are execution-strategy invariant.

Extends the PR 3 parallel/cache equivalence suite with a synthetic
workload: a mixed Verilog+VHDL corpus must measure to *identical* metric
vectors (and match its constructed ground truth) whether the batch runs
sequentially, across four workers, or through a cold-then-warm synthesis
cache.
"""

from pathlib import Path

import pytest

from repro.cache import SynthesisCache
from repro.core.engine import Engine
from repro.gen import corpus_specs, generate_corpus
from repro.hdl.source import VERILOG, VHDL

pytestmark = pytest.mark.par


@pytest.fixture(scope="module")
def corpus():
    return (generate_corpus(VERILOG, 12, seed=77)
            + generate_corpus(VHDL, 12, seed=78))


def _metrics_by_name(batch):
    return {name: dict(m.metrics)
            for name, m in batch.measurements.items()}


def test_jobs4_equals_jobs1(corpus):
    specs = corpus_specs(corpus)
    seq = Engine(jobs=1).measure_components(specs)
    par = Engine(jobs=4).measure_components(specs)
    assert _metrics_by_name(seq) == _metrics_by_name(par)
    assert len(seq.failures) == len(par.failures) == 0


def test_jobs4_matches_ground_truth(corpus):
    batch = Engine(jobs=4).measure_components(corpus_specs(corpus))
    measured = _metrics_by_name(batch)
    for gm in corpus:
        for key, expected in gm.truth.items():
            assert measured[gm.name][key] == pytest.approx(expected), (
                f"{gm.name} {key} wrong under jobs=4")


def test_cold_vs_warm_cache(corpus, tmp_path: Path):
    specs = corpus_specs(corpus)
    cache = SynthesisCache(tmp_path / "cache")
    cold = Engine(jobs=1, cache=cache).measure_components(specs)
    warm = Engine(jobs=1, cache=cache).measure_components(specs)
    assert _metrics_by_name(cold) == _metrics_by_name(warm)
    # The cold pass must have populated the store (so the warm pass had
    # something to hit).
    assert any(p.is_file() for p in (tmp_path / "cache").rglob("*"))


def test_warm_cache_under_jobs4(corpus, tmp_path: Path):
    specs = corpus_specs(corpus)
    cache = SynthesisCache(tmp_path / "cache")
    cold = Engine(jobs=4, cache=cache).measure_components(specs)
    warm = Engine(jobs=4, cache=cache).measure_components(specs)
    assert _metrics_by_name(cold) == _metrics_by_name(warm)
