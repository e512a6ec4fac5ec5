"""Warm-pool regression suite: cache-aware dispatch (``pytest -m par``).

The fix behind these tests: a fully-warm measurement memo must resolve in
the *parent* -- zero tasks handed to the worker pool -- and a warm pool
must stay byte-identical to the sequential path, fault quarantine and
chaos included.  A regression here is the old "parallel slowdown" coming
back through the cache door.
"""

import pickle

import pytest

from repro.cache import SynthesisCache
from repro.core.engine import Engine
from repro.core.workflow import ComponentSpec
from repro.exec import SupervisionPolicy
from repro.hdl.source import SourceFile
from repro.obs import metrics as obs_metrics
from repro.runtime.faultinject import truncate_source

pytestmark = pytest.mark.par

_ADDER = SourceFile(
    "adder.v",
    """
    module top_adder #(parameter W = 8)(input [W-1:0] a, b,
                                        output [W-1:0] s);
      assign s = a + b;
    endmodule
    """,
)

_MUX = SourceFile(
    "mux.v",
    """
    module top_mux #(parameter W = 4)(input sel, input [W-1:0] a, b,
                                      output [W-1:0] y);
      assign y = sel ? a : b;
    endmodule
    """,
)

_COUNTER = SourceFile(
    "counter.v",
    """
    module top_counter #(parameter W = 4)(input clk, rst,
                                          output reg [W-1:0] q);
      always @(posedge clk) begin
        if (rst)
          q <= 0;
        else
          q <= q + 1;
      end
    endmodule
    """,
)


def _specs():
    return [
        ComponentSpec("adder", (_ADDER,), "top_adder"),
        ComponentSpec("mux", (_MUX,), "top_mux"),
        ComponentSpec("counter", (_COUNTER,), "top_counter"),
    ]


def _specs_with_fault():
    return _specs() + [
        ComponentSpec("corrupt", (truncate_source(_ADDER, 0.5),), "top_adder"),
    ]


def _assert_byte_identical(reference, candidate):
    assert list(candidate.results) == list(reference.results)
    for name, result in reference.results.items():
        assert pickle.dumps(candidate.results[name]) == pickle.dumps(result), name


def _counters(fn):
    registry = obs_metrics.MetricsRegistry()
    with obs_metrics.using(registry):
        value = fn()
    return value, registry.snapshot()["counters"]


class TestWarmDispatch:
    def test_fully_warm_run_dispatches_zero_pool_tasks(self, tmp_path):
        cache = SynthesisCache(tmp_path / "cache")
        cold = Engine(cache=cache).measure_components(_specs())

        warm, counters = _counters(
            lambda: Engine(jobs=4, cache=cache).measure_components(_specs())
        )
        # Every component resolved from the memo in the parent: the pool
        # never saw a task (no dispatch, no spawn, no pickling).
        assert counters.get("exec.dispatched", 0.0) == 0.0
        assert counters.get("exec.payload_bytes", 0.0) == 0.0
        assert counters["cache.measure_hits"] == 3.0
        _assert_byte_identical(cold, warm)

    def test_warm_sequential_and_warm_pool_agree(self, tmp_path):
        cache = SynthesisCache(tmp_path / "cache")
        Engine(cache=cache).measure_components(_specs())

        warm_seq = Engine(cache=cache).measure_components(_specs())
        warm_par = Engine(jobs=4, cache=cache).measure_components(_specs())
        _assert_byte_identical(warm_seq, warm_par)

    def test_faulty_component_still_dispatches_and_quarantines(self, tmp_path):
        cache = SynthesisCache(tmp_path / "cache")
        # Warm the three healthy components; the corrupt one can never be
        # memoized (its result carries diagnostics).
        Engine(cache=cache).measure_components(_specs())

        sequential = Engine().measure_components(_specs_with_fault())
        warm_par, counters = _counters(
            lambda: Engine(jobs=4, cache=cache).measure_components(
                _specs_with_fault()
            )
        )
        # Exactly the corrupt component went to the pool.
        assert counters["cache.measure_hits"] == 3.0
        assert counters["cache.measure_misses"] == 1.0
        assert set(warm_par.failures) == {"corrupt"}
        _assert_byte_identical(sequential, warm_par)
        # Still quarantined with the same structured parse diagnostics.
        diag = warm_par.results["corrupt"].diagnostics
        assert any(d.stage == "parse" and d.span is not None for d in diag)

    def test_memo_never_stores_degraded_results(self, tmp_path):
        cache = SynthesisCache(tmp_path / "cache")
        Engine(cache=cache).measure_components(_specs_with_fault())
        # Three pristine memo entries; the quarantined one recomputes.
        assert len(cache.measurement_entries()) == 3
        _, counters = _counters(
            lambda: Engine(cache=cache).measure_components(_specs_with_fault())
        )
        assert counters["cache.measure_hits"] == 3.0
        assert counters["cache.measure_misses"] == 1.0


@pytest.mark.chaos
class TestWarmPoolUnderChaos:
    def test_partially_warm_run_survives_a_worker_kill(self, tmp_path):
        cache = SynthesisCache(tmp_path / "cache")
        # Warm only the adder: mux and counter must go through the pool,
        # where chaos kills the mux task's worker once.
        Engine(cache=cache).measure_components(_specs()[:1])

        sequential = Engine().measure_components(_specs())
        policy = SupervisionPolicy(
            backoff_base_s=0.01, backoff_cap_s=0.05, poll_interval_s=0.05,
            chaos={"mux": ("kill_once", str(tmp_path / "first-attempt"))},
        )
        warm_par, counters = _counters(
            lambda: Engine(
                jobs=4, cache=cache, supervision=policy
            ).measure_components(_specs())
        )
        assert counters["cache.measure_hits"] == 1.0
        assert counters["exec.worker_deaths"] >= 1.0
        _assert_byte_identical(sequential, warm_par)
