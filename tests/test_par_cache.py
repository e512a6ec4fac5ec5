"""Tier-2 cache suite: hit/miss/invalidation/corruption (``pytest -m par``).

The synthesis cache is content-addressed, so invalidation is structural:
editing a source, changing a parameter binding, or bumping a pipeline
version must change the key; an unchanged rerun must hit; a poisoned entry
must degrade to a recompute with a WARNING diagnostic, never crash.
"""

import pytest

from repro.cache import SynthesisCache, hit_rate
from repro.core.engine import Engine
from repro.core.workflow import ComponentSpec
from repro.hdl.source import SourceFile
from repro.obs import metrics as obs_metrics
from repro.runtime.diagnostics import Severity
from repro.runtime.faultinject import poison_cache
from tests._measure import measure_one, measure_strict

pytestmark = pytest.mark.par

_SRC = SourceFile(
    "alu.v",
    """
    module alu #(parameter W = 8)(input [W-1:0] a, b, input op,
                                  output [W-1:0] y);
      assign y = op ? a - b : a + b;
    endmodule

    module top_alu(input [7:0] a, b, input op, output [7:0] y0, y1);
      alu #(.W(8)) u0 (.a(a), .b(b), .op(op), .y(y0));
      alu #(.W(8)) u1 (.a(b), .b(a), .op(op), .y(y1));
    endmodule
    """,
)


@pytest.fixture()
def cache(tmp_path):
    return SynthesisCache(tmp_path / "cache")


def _counters():
    return obs_metrics.snapshot()["counters"]


def _drop_memos(cache):
    """Delete the whole-component memo entries, so the next measurement
    probes the synthesis entries this suite is about instead of being
    served whole from the memo."""
    for path in cache.measurement_entries():
        path.unlink()


def _synthesis_hit_rate(counters):
    """:func:`hit_rate` over the synthesis-entry probes alone, without
    the miss of the memo :func:`_drop_memos` dropped."""
    return hit_rate(
        {k: counters.get(k, 0) for k in ("cache.hits", "cache.misses")}
    )


def _measure(cache, source=_SRC, *, memo=False):
    """One cached measurement plus the counters it produced; unless
    ``memo``, the memo is dropped first (:func:`_drop_memos`)."""
    if not memo:
        _drop_memos(cache)
    with obs_metrics.using(obs_metrics.MetricsRegistry()):
        result = measure_one(Engine(cache=cache), [source], "top_alu")
        counters = _counters()
    assert result.ok
    return result, counters


class TestHitMiss:
    def test_cold_run_misses_and_stores(self, cache):
        _, counters = _measure(cache)
        assert counters.get("cache.hits", 0) == 0
        assert counters["cache.misses"] == counters["cache.stores"] > 0
        assert counters["synth.specializations"] > 0
        assert len(cache.entries()) == counters["cache.stores"]

    def test_warm_run_hits_and_skips_synthesis(self, cache):
        cold, _ = _measure(cache)
        warm, counters = _measure(cache)
        assert counters.get("cache.misses", 0) == 0
        assert counters.get("synth.specializations", 0) == 0
        assert _synthesis_hit_rate(counters) == 1.0
        assert warm.value.metrics == cold.value.metrics
        # The warm run stored the memo, which now serves the component
        # whole: no synthesis entry is probed at all.
        served, counters = _measure(cache, memo=True)
        assert counters["cache.measure_hits"] == 1
        assert counters.get("cache.hits", 0) == 0
        assert hit_rate(counters) == 1.0
        assert served.value.metrics == cold.value.metrics

    def test_raising_path_shares_the_key_space(self, cache):
        _measure(cache)  # warm through the fault-tolerant path
        _drop_memos(cache)
        with obs_metrics.using(obs_metrics.MetricsRegistry()):
            measurement = measure_strict(Engine(cache=cache), [_SRC], "top_alu")
            counters = _counters()
        assert counters.get("cache.misses", 0) == 0
        assert counters.get("synth.specializations", 0) == 0
        assert measurement.metrics


class TestInvalidation:
    def test_source_edit_invalidates(self, cache):
        _measure(cache)
        edited = SourceFile(_SRC.name, _SRC.text.replace("a - b", "b - a"))
        _, counters = _measure(cache, source=edited)
        assert counters["cache.misses"] > 0
        assert counters["synth.specializations"] > 0

    def test_parameter_binding_changes_the_key(self, cache):
        texts = (_SRC.text,)
        assert cache.key(texts, "alu", {"W": 8}) != cache.key(
            texts, "alu", {"W": 16}
        )
        assert cache.key(texts, "alu", {"W": 8}) != cache.key(
            texts, "top_alu", {"W": 8}
        )

    def test_version_salt_changes_the_key(self, cache):
        other = SynthesisCache(cache.directory, salt=cache.salt + "|bumped")
        texts = (_SRC.text,)
        assert cache.key(texts, "alu", {}) != other.key(texts, "alu", {})

    def test_version_salt_changes_the_memo_key(self, cache):
        # A re-salted cache must not serve whole-component memos stored
        # under the old salt, just as it serves no old synthesis entry.
        other = SynthesisCache(cache.directory, salt=cache.salt + "|bumped")
        spec = ComponentSpec("alu", (_SRC,), "top_alu")
        assert cache.measurement_key(spec) != other.measurement_key(spec)
        Engine(cache=cache).measure_components([spec])
        assert cache.load_measurement(cache.measurement_key(spec)) is not None
        assert other.load_measurement(other.measurement_key(spec)) is None


class TestCorruption:
    @pytest.mark.parametrize("fault", ["truncate", "garbage", "wrong_type"])
    def test_poisoned_entry_degrades_to_recompute(self, cache, fault):
        cold, _ = _measure(cache)
        assert poison_cache(cache, fault) > 0
        recomputed, counters = _measure(cache)

        # Same numbers as the cold run, recomputed rather than served.
        assert recomputed.value.metrics == cold.value.metrics
        assert counters["cache.errors"] > 0
        assert counters["synth.specializations"] > 0

        # The degradation is reported, not silent.
        warnings = [
            d
            for d in recomputed.diagnostics
            if d.stage == "cache" and d.severity is Severity.WARNING
        ]
        assert warnings and "recompute" in warnings[0].message

    def test_poisoned_entries_are_evicted_and_restored(self, cache):
        _measure(cache)
        n_entries = len(cache.entries())
        poison_cache(cache, "garbage")
        _measure(cache)  # evicts every poisoned entry, re-stores fresh ones
        assert len(cache.entries()) == n_entries
        _, counters = _measure(cache)
        assert _synthesis_hit_rate(counters) == 1.0

    def test_clear_empties_the_cache(self, cache):
        _measure(cache)
        assert cache.clear() == len(cache.entries()) or not cache.entries()
        assert cache.entries() == []
