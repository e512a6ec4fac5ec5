"""Refactor-equivalence suite for :class:`repro.core.engine.Engine`.

The pipeline entry points used to be per-call free functions; they now
live on one long-lived object so the CLI and the serve daemon share one
code path, and strict measurement is the fault-tolerant pipeline with
``strict=True``.  These tests pin the contract: going through an Engine
-- any combination of cache, jobs, and pool forcing -- produces results
byte-identical (``pickle.dumps``) to the original per-call functions,
quarantined components included.  The free functions are gone, so their
side of each comparison is frozen as the sha256 of what they returned
(``pickle.dumps(..., protocol=4)``), recorded before their removal.
"""

import pickle

import pytest

from repro.cache import SynthesisCache
from repro.core.engine import Engine
from repro.core.workflow import ComponentSpec
from repro.designs.loader import load_sources
from repro.exec import SupervisionPolicy
from repro.hdl.source import HdlError, SourceFile
from repro.obs import metrics as obs_metrics
from repro.runtime.faultinject import truncate_source
from tests.core.test_golden_measure import INLINE, digest

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


#: Two specializations, so ``jobs > 1`` synthesizes them in the pool.
_HIER = SourceFile(
    "hier.v",
    """
    module leaf(input [3:0] a, output [3:0] y);
      assign y = ~a;
    endmodule

    module top_adder(input [3:0] a, b, output [3:0] s);
      wire [3:0] na;
      leaf u0 (.a(a), .y(na));
      assign s = na + b;
    endmodule
    """,
)


def _specs():
    return [
        ComponentSpec("adder", (_ADDER,), "top_adder"),
        ComponentSpec("mux", (_MUX,), "top_mux"),
        ComponentSpec(
            "corrupt", (truncate_source(_ADDER, 0.5),), "top_adder"
        ),
    ]


#: Frozen outputs of the removed free functions.
_FREE_FUNCTION = {
    "measure_component(adder)":
        "d89d20fdbb7e024a70546a6bfbacf0258827925cbbef9987e6b2edd59c2379f3",
    "measure_component_safe(adder)":
        "7164db7e1e7be562fba5d055dee00b8fc37fcb1b789255af9a989127c405be82",
    "measure_component_safe(corrupt adder)":
        "8fb6544907ef20d5c9fe23d680428943d0ddb1f07770724111456fc885edf18c",
    "measure_components(cache)": {
        "adder":
            "7eba185345028b1635d65b2447b1ed75c701a2917a691f80ddb51bee1385686b",
        "mux":
            "0cbeec42824d838c77e10b667014b3cf484ceef7d16b559a554d56bd686bfdf6",
        "corrupt":
            "bc2afcccd448a60d5acc11faa364e8a79137e03364a4b9a5eefa7c677851ffbc",
    },
}


def _same_batch(reference, candidate):
    assert list(candidate.results) == list(reference.results)
    for name, result in reference.results.items():
        assert pickle.dumps(candidate.results[name]) == pickle.dumps(result), name


class TestEngineEquivalence:
    def test_measure_component_matches_free_function(self):
        via_engine = Engine().measure_component(
            [_ADDER], "top_adder", name="adder"
        )
        assert digest(via_engine) == _FREE_FUNCTION["measure_component(adder)"]

    def test_measure_component_safe_matches_free_function(self):
        corrupt = truncate_source(_ADDER, 0.5)
        for sources, label in (
            ([_ADDER], "adder"), ([corrupt], "corrupt adder"),
        ):
            via_engine = Engine().measure_component_safe(sources, "top_adder")
            assert digest(via_engine) == _FREE_FUNCTION[
                f"measure_component_safe({label})"
            ]

    def test_measure_components_sequential_matches(self, tmp_path):
        engine = Engine(cache=SynthesisCache(tmp_path / "cache"))
        batch = engine.measure_components(_specs())
        assert {
            name: digest(result) for name, result in batch.results.items()
        } == _FREE_FUNCTION["measure_components(cache)"]
        assert list(batch.results) == [spec.name for spec in _specs()]

    def test_measure_components_pool_matches_sequential(self, tmp_path):
        sequential = Engine().measure_components(_specs())
        pooled = Engine(
            cache=SynthesisCache(tmp_path / "cache"), jobs=4
        ).measure_components(_specs())
        _same_batch(sequential, pooled)

    def test_forced_pool_single_spec_matches_inline(self):
        spec = _specs()[0]
        inline = Engine().measure_components([spec], pool=False)
        forced = Engine().measure_components([spec], pool=True)
        _same_batch(inline, forced)

    def test_warm_engine_reuse_is_stable(self, tmp_path):
        engine = Engine(cache=SynthesisCache(tmp_path / "cache"))
        cold = engine.measure_components(_specs())
        warm = engine.measure_components(_specs())
        _same_batch(cold, warm)

    def test_measure_catalog_matches_loader(self, tmp_path):
        # The loader's catalog measurement was the strict per-component
        # measure, whose outputs test_golden_measure pins.
        via_engine = Engine(
            cache=SynthesisCache(tmp_path / "cache")
        ).measure_catalog(designs=("PUMA",))
        assert list(via_engine) == [
            "PUMA-Fetch", "PUMA-Decode", "PUMA-ROB", "PUMA-Execute",
            "PUMA-Memory",
        ]
        for label, measurement in via_engine.items():
            assert digest(measurement) == INLINE[label]

    def test_measure_catalog_matches_per_component_measures(self):
        from repro.designs.catalog import component_specs

        via_engine = Engine().measure_catalog(designs=("PUMA",))
        for spec in component_specs():
            if spec.design != "PUMA":
                continue
            direct = Engine().measure_component(
                load_sources(spec), spec.top, name=spec.label
            )
            assert pickle.dumps(via_engine[spec.label]) == pickle.dumps(direct)

    def test_lint_matches_free_function(self):
        from repro.lint import lint_sources

        via_function = lint_sources([_ADDER, _MUX])
        via_engine = Engine().lint([_ADDER, _MUX])
        assert pickle.dumps(via_engine) == pickle.dumps(via_function)

    def test_fit_estimator_memoizes(self):
        from repro.data.paper import paper_dataset

        engine = Engine()
        dataset = paper_dataset()
        first = engine.fit_estimator(
            dataset, ["Stmts", "FanInLC"], dataset_key="paper"
        )
        again = engine.fit_estimator(
            dataset, ["Stmts", "FanInLC"], dataset_key="paper"
        )
        assert again is first
        assert engine.stats()["cached_fits"] == 1


class TestStrictQuarantine:
    @pytest.mark.parametrize(("strict", "lint", "expected"), [
        (False, False,
         "f0ec09ed9394a9ad77b9897e44a39e7cd900fe8a69a3ae372e7894e5a29c0c75"),
        (True, True,
         "13d9a39ea394fba1491aa6f1f3e072b12c30fe131d6ae4018cf1017086099da2"),
    ])
    def test_measurement_key_is_unchanged(self, tmp_path, monkeypatch,
                                          strict, lint, expected):
        # A changed formula would silently turn every existing cache
        # entry into a miss.
        monkeypatch.setattr(
            "repro.cache.SALT", "ucx-cache1|verilog1|vhdl1|elab1|synth2|flow2"
        )
        spec = ComponentSpec(
            "m", (SourceFile("m.v", "module m; endmodule"),), "m"
        )
        key = SynthesisCache(tmp_path).measurement_key(spec, strict, lint)
        assert key == expected

    @pytest.mark.chaos
    def test_strict_raises_on_supervisor_quarantine(self):
        policy = SupervisionPolicy(
            poll_interval_s=0.05, chaos={"adder:leaf": ("kill",)},
        )
        engine = Engine(jobs=2, supervision=policy)
        degraded = engine.measure_component_safe(
            [_HIER], "top_adder", name="adder"
        )
        assert degraded.degraded
        assert "exec" in {d.stage for d in degraded.diagnostics}
        with pytest.raises(
            RuntimeError, match="task quarantined by the supervisor"
        ):
            engine.measure_component_safe(
                [_HIER], "top_adder", name="adder", strict=True
            )


class TestDuplicateNames:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_repeated_name_raises_before_any_work(self, tmp_path, jobs):
        cache = SynthesisCache(tmp_path / "cache")
        specs = [
            ComponentSpec("c", (_ADDER,), "top_adder"),
            ComponentSpec("c", (_MUX,), "top_mux"),
        ]
        registry = obs_metrics.MetricsRegistry()
        with obs_metrics.using(registry), \
                pytest.raises(ValueError, match="'c'"):
            Engine(cache=cache, jobs=jobs).measure_components(specs)
        assert "cache.measure_misses" not in registry.dump()["counters"]


class TestStoreWhereComputed:
    """Each pristine product is cached by the process that computed it,
    so the cache is also the resume log of an interrupted batch."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_cold_batch_stores_each_pristine_result_once(self, tmp_path,
                                                         jobs):
        cache = SynthesisCache(tmp_path / "cache")
        engine = Engine(cache=cache, jobs=jobs)
        registry = obs_metrics.MetricsRegistry()
        with obs_metrics.using(registry):
            batch = engine.measure_components(_specs())
        counters = registry.snapshot()["counters"]
        pristine = [r for r in batch.results.values()
                    if r.value is not None and not r.diagnostics]
        assert len(pristine) == 2  # the corrupt component is degraded
        assert counters["cache.measure_stores"] == 2.0
        assert len(cache.measurement_entries()) == 2

        registry = obs_metrics.MetricsRegistry()
        with obs_metrics.using(registry):
            engine.measure_components(_specs())
        counters = registry.snapshot()["counters"]
        assert counters["cache.measure_hits"] == 2.0
        assert "cache.measure_stores" not in counters

    @pytest.mark.parametrize(("jobs", "cached"), [
        (1, {"adder"}),           # fail-fast: mux never ran
        (2, {"adder", "mux"}),    # the pool ran every task before the raise
    ])
    def test_strict_batch_that_raises_keeps_pristine_siblings(
            self, tmp_path, jobs, cached):
        cache = SynthesisCache(tmp_path / "cache")
        specs = [_specs()[0], _specs()[2], _specs()[1]]  # adder, corrupt, mux
        with pytest.raises(HdlError):
            Engine(cache=cache, jobs=jobs).measure_components(
                specs, strict=True
            )
        stored = {
            spec.name for spec in specs
            if cache.load_measurement(
                cache.measurement_key(spec, strict=True)
            ) is not None
        }
        assert stored == cached
