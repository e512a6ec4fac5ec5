"""Accounting benchmark: the minimal-parameter search over the bundled RTL.

Records one series in BENCH_obs.json:

* ``account.minimal_search_ms`` -- wall milliseconds for cold
  ``minimal_parameters`` over every module of the 18 bundled components,
  each component on a freshly parsed design (lower is better; best of
  three passes, parsing excluded).

Correctness is asserted: every answer, values and blockers, equals the
linear-scan oracle of ``tests/elab/_linear_search.py``.
"""

import time

from repro.designs.catalog import component_specs
from repro.designs.loader import load_sources
from repro.elab import minimal_parameters
from repro.hdl import ast, parse_source
from tests.elab._linear_search import linear_search

PASSES = 3


def _parse(sources) -> ast.Design:
    design = ast.Design()
    for source in sources:
        design = design.merge(parse_source(source))
    return design


def test_minimal_search(bench_series, report):
    components = [load_sources(spec) for spec in component_specs()]
    best = float("inf")
    for _ in range(PASSES):
        designs = [_parse(sources) for sources in components]
        t0 = time.perf_counter()
        answers = [
            {m: minimal_parameters(design, m) for m in design.modules}
            for design in designs
        ]
        best = min(best, time.perf_counter() - t0)

    modules = 0
    for sources, found in zip(components, answers):
        design = _parse(sources)
        for module, result in found.items():
            oracle = linear_search(design, module, 3)
            assert result.values == oracle.values, module
            assert result.blockers == oracle.blockers, module
            modules += 1
    bench_series("account.minimal_search_ms", best * 1000)
    report(
        "minimal-parameter search",
        f"{modules} modules in {len(components)} components: "
        f"{best * 1000:.1f}ms (best of {PASSES})",
    )
