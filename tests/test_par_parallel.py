"""Tier-2 parallel suite: pool-vs-sequential equivalence (``pytest -m par``).

The process pool is an execution strategy, not a semantics change: a
parallel batch must produce the *same* ``BatchMeasurement`` -- values,
diagnostics, quarantine decisions -- as the sequential loop, and a traced
parallel run must lose none of the counters the workers bump.
"""

import multiprocessing as mp
import pickle

import pytest

from repro import obs
from repro.cache import SynthesisCache
from repro.core.engine import Engine
from repro.core.workflow import ComponentSpec
from repro.designs.catalog import component_specs
from repro.designs.loader import load_sources
from repro.gen import clean_kinds, corpus_specs, generate_corpus, violation_corpus
from repro.hdl.source import VERILOG, VHDL, SourceFile
from repro.obs import metrics as obs_metrics
from repro.runtime.faultinject import truncate_source
from tests._measure import measure_one

pytestmark = pytest.mark.par

_ADDER = SourceFile(
    "adder.v",
    """
    module adder #(parameter W = 8)(input [W-1:0] a, b,
                                    output [W-1:0] s);
      assign s = a + b;
    endmodule

    module top_adder(input [7:0] a, b, output [7:0] s0, s1);
      adder #(.W(8)) u0 (.a(a), .b(b), .s(s0));
      adder #(.W(8)) u1 (.a(b), .b(a), .s(s1));
    endmodule
    """,
)

_MUX = SourceFile(
    "mux.vhd",
    """
    library ieee;
    use ieee.std_logic_1164.all;

    entity top_mux is
      port (sel : in std_logic;
            a, b : in std_logic_vector(7 downto 0);
            y : out std_logic_vector(7 downto 0));
    end entity;

    architecture rtl of top_mux is
    begin
      y <= a when sel = '1' else b;
    end architecture;
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


def _assert_byte_identical(sequential, parallel):
    """Each component's ``Result`` pickles to the same bytes either way.

    Compared per result: the whole-batch dict is not a fair target, because
    pickle memoizes objects *shared between* results in-process and the
    worker round-trip legitimately breaks that identity sharing without
    changing any content.
    """
    assert list(parallel.results) == list(sequential.results)
    for name, result in sequential.results.items():
        assert pickle.dumps(parallel.results[name]) == pickle.dumps(result), name


class TestEquivalence:
    def test_parallel_batch_is_byte_identical(self):
        sequential = Engine().measure_components(_specs())
        parallel = Engine(jobs=4).measure_components(_specs())
        _assert_byte_identical(sequential, parallel)

    def test_faulty_component_quarantined_identically_under_jobs4(self):
        sequential = Engine().measure_components(_specs_with_fault())
        parallel = Engine(jobs=4).measure_components(_specs_with_fault())
        assert set(parallel.failures) == {"corrupt"}
        assert set(parallel.measurements) == {"adder", "mux", "counter"}
        _assert_byte_identical(sequential, parallel)
        # The quarantine report survives the process boundary intact.
        diag = parallel.results["corrupt"].diagnostics
        assert any(d.stage == "parse" and d.span is not None for d in diag)

    def test_strict_parallel_reraises_faithfully(self):
        from repro.hdl.source import HdlError

        with pytest.raises(HdlError) as seq_exc:
            Engine().measure_components(_specs_with_fault(), strict=True)
        with pytest.raises(HdlError) as par_exc:
            Engine(jobs=4).measure_components(_specs_with_fault(), strict=True)
        assert str(par_exc.value) == str(seq_exc.value)
        assert par_exc.value.file == seq_exc.value.file
        assert par_exc.value.line == seq_exc.value.line
        assert par_exc.value.hint == seq_exc.value.hint

    def test_one_component_and_lint_run_inline_at_any_jobs(self):
        # The pool's unit of work is a component: one component's
        # specialization sweep and a whole lint run dispatch nothing at
        # jobs=2 and give the jobs=1 bytes.
        spec = next(s for s in component_specs() if s.label == "Leon3-Cache")
        sources = load_sources(spec)
        linted, _ = violation_corpus(VERILOG, seed=31)
        linted += [
            src
            for gm in generate_corpus(VERILOG, 12, seed=32, kinds=clean_kinds())
            for src in gm.sources
        ]

        def run(jobs):
            engine = Engine(jobs=jobs)
            measured = measure_one(
                engine, sources, spec.top, name=spec.label
            )
            report = engine.lint(linted)
            return [
                pickle.dumps(part)
                for part in (measured, *report.findings, *report.suppressed,
                             *report.errors, report.modules, report.files)
            ]

        sequential = run(1)
        dispatched = obs_metrics.counter("exec.dispatched")
        before = dispatched.value
        assert run(2) == sequential
        assert dispatched.value == before
        assert mp.active_children() == []


class TestWorkerTelemetry:
    #: Counters that must survive the worker -> parent merge losslessly.
    _COUNTERS = (
        "hdl.files_parsed",
        "synth.specializations",
        "elab.elaborations",
        "hdl.tokens_lexed",
        "flow.dfg_builds",
    )
    #: Bumped in the workers by the cache stores of a cold batch.
    _CACHE_COUNTERS = ("cache.misses", "cache.stores", "cache.measure_stores")

    def _traced_run(self, jobs):
        tracer = obs.Tracer()
        registry = obs_metrics.MetricsRegistry()
        with obs_metrics.using(registry):
            with obs.using(tracer):
                batch = Engine(jobs=jobs).measure_components(_specs_with_fault())
        return batch, registry.snapshot()["counters"], tracer

    def test_traced_parallel_run_loses_no_counts(self):
        _, seq_counters, _ = self._traced_run(jobs=1)
        batch, par_counters, tracer = self._traced_run(jobs=4)
        for name in self._COUNTERS:
            assert name in seq_counters
            assert par_counters[name] == seq_counters[name], name

        # Grafted span ids never collide, and are namespaced per worker.
        span_ids = [sp.span_id for sp in tracer.spans]
        assert len(span_ids) == len(set(span_ids))
        workers = {
            sp.attrs["worker"] for sp in tracer.spans if "worker" in sp.attrs
        }
        assert len(workers) == len(_specs_with_fault())

        # Diagnostics point at spans that actually exist in the merged tree.
        referenced = {
            d.span_id
            for result in batch.results.values()
            for d in result.diagnostics
            if d.span_id is not None
        }
        assert referenced <= set(span_ids)

    def test_untraced_parallel_run_still_merges_counters(self):
        registry = obs_metrics.MetricsRegistry()
        with obs_metrics.using(registry):
            Engine(jobs=4).measure_components(_specs())
        counters = registry.snapshot()["counters"]
        assert counters["hdl.files_parsed"] == 3.0
        assert counters["parallel.tasks"] == 3.0

    def test_cached_catalog_batch_merges_every_counter(self, tmp_path):
        specs = corpus_specs(
            generate_corpus(VERILOG, 6, seed=3)
            + generate_corpus(VHDL, 6, seed=4)
        )
        counters, histograms = {}, {}
        for jobs in (1, 2):
            registry = obs_metrics.MetricsRegistry()
            with obs_metrics.using(registry):
                Engine(
                    cache=SynthesisCache(tmp_path / f"jobs{jobs}"), jobs=jobs
                ).measure_components(specs)
            snapshot = registry.snapshot()
            counters[jobs] = snapshot["counters"]
            histograms[jobs] = snapshot["histograms"]
        for name in self._COUNTERS + self._CACHE_COUNTERS:
            assert name in counters[1], name
            assert counters[2][name] == counters[1][name], name
        assert counters[2]["cache.measure_stores"] == len(specs)
        # One worker-compute observation per completed task.
        completed = counters[2]["exec.completed"]
        assert completed == len(specs)
        assert histograms[2]["exec.worker_compute_s"]["count"] == completed
