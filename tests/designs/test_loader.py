"""Tests for measuring the bundled designs end-to-end."""

import pytest

from repro.core.accounting import AccountingPolicy
from repro.designs.catalog import CATALOG, component_specs
from repro.core.engine import Engine
from repro.designs.loader import load_sources, measured_dataset

from repro.flow.metrics import FLOW_METRIC_NAMES
from tests._measure import measure_strict

ALL_METRIC_KEYS = {
    "LoC", "Stmts", "FanInLC", "Nets", "Cells", "AreaL", "AreaS",
    "PowerD", "PowerS", "Freq", "FFs",
} | set(FLOW_METRIC_NAMES)


@pytest.fixture(scope="session")
def dataset_with():
    return measured_dataset(AccountingPolicy.recommended())


@pytest.fixture(scope="session")
def dataset_without():
    return measured_dataset(AccountingPolicy.disabled())


class TestEveryComponentMeasures:
    @pytest.mark.parametrize(
        "spec", component_specs(), ids=lambda s: s.label
    )
    def test_component_full_pipeline(self, spec):
        m = measure_strict(
            Engine(), load_sources(spec), spec.top, name=spec.label
        )
        assert set(m.metrics) == ALL_METRIC_KEYS
        assert m.metrics["LoC"] > 0
        assert m.metrics["Stmts"] > 0
        assert m.metrics["Nets"] > 0
        assert m.metrics["Freq"] > 0


class TestMeasuredDataset:
    def test_all_18_components(self, dataset_with):
        assert len(dataset_with) == 18
        assert dataset_with.teams == ("Leon3", "PUMA", "IVM", "RAT")

    def test_efforts_are_published_values(self, dataset_with):
        assert dataset_with.record("Leon3-Pipeline").effort == 24.0
        assert dataset_with.record("PUMA-Memory").effort == 1.0

    def test_pipeline_is_biggest_leon3_component(self, dataset_with):
        leon3 = [r for r in dataset_with if r.team == "Leon3"]
        pipeline = dataset_with.record("Leon3-Pipeline")
        for rec in leon3:
            assert pipeline.metrics["Stmts"] >= rec.metrics["Stmts"]
            assert pipeline.metrics["FanInLC"] >= rec.metrics["FanInLC"]

    def test_cache_is_storage_dominated(self, dataset_with):
        cache = dataset_with.record("Leon3-Cache")
        # Like the paper's cache row: big RAM, small logic.
        assert cache.metrics["AreaS"] > 5 * cache.metrics["AreaL"]

    def test_execute_is_biggest_puma_component(self, dataset_with):
        puma = [r for r in dataset_with if r.team == "PUMA"]
        execute = dataset_with.record("PUMA-Execute")
        for rec in puma:
            assert execute.metrics["Stmts"] >= rec.metrics["Stmts"]

    def test_ivm_execute_has_no_flipflops(self, dataset_with):
        # Table 4: IVM-Execute FFs = 0 (combinational pipes; latching is in
        # the surrounding stages).  Our IVM-Execute mirrors that.
        assert dataset_with.record("IVM-Execute").metrics["FFs"] == 0

    def test_sliding_rat_bigger_than_standard(self, dataset_with):
        std = dataset_with.record("RAT-Standard").metrics
        sld = dataset_with.record("RAT-Sliding").metrics
        assert sld["LoC"] > std["LoC"]
        assert sld["Stmts"] > std["Stmts"]
        assert sld["FanInLC"] > std["FanInLC"]


class TestAccountingEffects:
    def test_software_metrics_never_change(self, dataset_with, dataset_without):
        for rec in dataset_with:
            other = dataset_without.record(rec.label)
            assert rec.metrics["LoC"] == other.metrics["LoC"]
            assert rec.metrics["Stmts"] == other.metrics["Stmts"]

    def test_synthesis_metrics_inflate_without_accounting(
        self, dataset_with, dataset_without
    ):
        # Dropping the procedure can only add instances / grow parameters.
        for rec in dataset_with:
            other = dataset_without.record(rec.label)
            assert other.metrics["Cells"] >= rec.metrics["Cells"]
            assert other.metrics["FanInLC"] >= rec.metrics["FanInLC"]

    def test_ivm_is_main_contributor(self, dataset_with, dataset_without):
        """Section 5.3: the replication-heavy IVM dominates the difference;
        the streamlined Leon3 has practically none."""
        def inflation(team):
            with_total = sum(
                r.metrics["Cells"] for r in dataset_with if r.team == team
            )
            without_total = sum(
                r.metrics["Cells"] for r in dataset_without if r.team == team
            )
            return without_total / max(with_total, 1.0)

        assert inflation("IVM") > inflation("Leon3")
        assert inflation("IVM") > inflation("PUMA")
        assert inflation("Leon3") < 2.0

    def test_leon3_cache_untouched_by_accounting(
        self, dataset_with, dataset_without
    ):
        a = dataset_with.record("Leon3-Cache").metrics
        b = dataset_without.record("Leon3-Cache").metrics
        assert a == b
