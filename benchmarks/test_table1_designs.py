"""Table 1: characteristics of the processor designs.

Prints the published design characteristics next to the bundled designs'
actual component structure, and benchmarks parsing + elaborating the whole
bundled catalog (the front of the measurement flow).
"""

from repro.analysis.tables import render_table
from repro.data.paper import DESIGN_CHARACTERISTICS
from repro.designs.catalog import CATALOG, component_specs
from repro.designs.loader import load_sources
from repro.elab import elaborate
from repro.hdl import ast, parse_source


def test_table1_characteristics(report, benchmark):
    rows = []
    for name, chars in DESIGN_CHARACTERISTICS.items():
        rows.append([
            name, chars["isa"], chars["execution"], chars["pipeline_stages"],
            f"{chars['fetch_width']},{chars['issue_width']}",
            f"{chars['dispatch_width']},{chars['retire_width']}",
            chars["branch_predictor"], chars["hdl"],
        ])
    report(
        "Table 1: design characteristics",
        render_table(
            ["design", "ISA", "execution", "stages", "FE,IS", "DI,RE",
             "predictor", "HDL"],
            rows,
        ),
    )

    rows = [
        [d.name, d.hdl, len(d.components),
         ", ".join(c.name for c in d.components)]
        for d in CATALOG.values()
    ]
    report(
        "Bundled designs",
        render_table(["design", "HDL", "components", "breakdown"], rows),
    )

    def parse_and_elaborate_catalog():
        for spec in component_specs():
            design = ast.Design()
            for source in load_sources(spec):
                design = design.merge(parse_source(source))
            elaborate(design, spec.top)

    benchmark.pedantic(parse_and_elaborate_catalog, rounds=2, iterations=1)
    assert set(CATALOG) == set(DESIGN_CHARACTERISTICS)
