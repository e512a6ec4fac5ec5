"""Dataflow-graph benchmarks: build throughput and spectral solve cost.

Records two series in BENCH_obs.json:

* ``flow.dfg_build_throughput`` -- modules per wall second building the
  signal-level dataflow graph over a 120-component generated catalog
  (higher is better);
* ``flow.spectral_ms`` -- wall milliseconds for one deterministic
  Laplacian eigensolve (radius + Fiedler value) on the catalog's
  aggregate-scale graph (lower is better).

Correctness is asserted (every graph non-trivial, spectra finite); the
timings are the series.
"""

import math
import time

from repro.elab import elaborate
from repro.flow import build_dfg
from repro.flow.metrics import laplacian_stats
from repro.gen import clean_kinds, generate_corpus
from repro.hdl import parse_source
from repro.hdl.source import VERILOG

COMPONENTS = 120


def _specs():
    corpus = generate_corpus(
        VERILOG, COMPONENTS, seed=97, kinds=clean_kinds(), comment_level=0.0
    )
    out = []
    for gm in corpus:
        design = parse_source(gm.sources[0])
        out.append((elaborate(design, gm.name, None).top, design))
    return out


def test_dfg_build_throughput(bench_series, report):
    specs = _specs()

    t0 = time.perf_counter()
    graphs = [build_dfg(spec, design) for spec, design in specs]
    elapsed = time.perf_counter() - t0

    assert all(g.n_nodes > 0 and g.n_edges > 0 for g in graphs)
    throughput = len(graphs) / elapsed if elapsed > 0 else 0.0
    bench_series("flow.dfg_build_throughput", throughput)
    report(
        "dfg build throughput",
        f"{len(graphs)} modules in {elapsed:.2f}s "
        f"-> {throughput:.1f} modules/s",
    )


def test_spectral_solve(bench_series, report):
    # One union graph at catalog scale: the worst spectral solve the
    # measurement pipeline sees in one component.  Nodes are numbered in
    # order of first appearance in the edge lists.
    index: dict[str, int] = {}
    edges = []
    for i, (spec, design) in enumerate(_specs()):
        dfg = build_dfg(spec, design)
        for edge in dfg.edges:
            src = index.setdefault(f"{i}:{edge.src}", len(index))
            dst = index.setdefault(f"{i}:{edge.dst}", len(index))
            edges.append((src, dst))
    names = list(index)

    t0 = time.perf_counter()
    radius, fiedler = laplacian_stats(names, edges)
    elapsed_ms = (time.perf_counter() - t0) * 1000.0

    assert math.isfinite(radius) and radius > 0.0
    assert math.isfinite(fiedler) and fiedler >= 0.0
    bench_series("flow.spectral_ms", elapsed_ms)
    n_edges = len({(min(e), max(e)) for e in edges if e[0] != e[1]})
    report(
        "spectral solve",
        f"{len(names)} nodes / {n_edges} edges "
        f"in {elapsed_ms:.1f}ms (radius {radius:.2f})",
    )
