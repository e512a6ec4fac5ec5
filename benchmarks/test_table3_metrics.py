"""Table 3: the metrics gathered for each component, and the measurement
flow that produces them.

Prints the metric registry (metric, description, producing tool) and a live
measurement of the bundled RAT-Standard design; benchmarks the full
measurement pipeline (parse -> elaborate -> accounting -> ASIC + FPGA
synthesis -> metric vector) on that component.
"""

from repro.analysis.tables import render_table
from repro.core.metrics import METRIC_REGISTRY
from repro.core.engine import Engine
from repro.core.workflow import ComponentSpec
from repro.designs.catalog import CATALOG
from repro.designs.loader import load_sources


def test_table3_metric_registry(report, benchmark):
    rows = [
        [d.name, d.description, d.source.value, d.unit or "-"]
        for d in METRIC_REGISTRY.values()
    ]
    report(
        "Table 3: metrics gathered for each component",
        render_table(["metric", "description", "tool", "unit"], rows),
    )

    spec = CATALOG["RAT"].components[0]
    component = ComponentSpec(spec.label, tuple(load_sources(spec)), spec.top)

    batch = benchmark.pedantic(
        lambda: Engine().measure_components([component], strict=True),
        rounds=3, iterations=1,
    )
    measurement = batch.results[spec.label].unwrap()
    rows = [[k, f"{v:.1f}"] for k, v in sorted(measurement.metrics.items())]
    report(
        f"Live measurement of {spec.label}",
        render_table(["metric", "value"], rows),
    )
    assert set(measurement.metrics) == set(METRIC_REGISTRY)
