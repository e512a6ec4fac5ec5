"""Differential tests: edge-list spectra and lint graph walks against the
networkx-based code they replaced (``tests/flow/_nx_oracle.py``).

* Spectra: on random undirected graphs with string node names the
  spectral radius is bit-identical to the old formula, and so is the
  Fiedler value of a connected graph.  On a disconnected graph the old
  code solved the largest component in the order networkx iterates a
  subgraph view -- the component *set*, so hash order, when it is under
  half the graph.  The new value is dense ``eigvalsh`` of that component
  in node order, and agrees with the old one to 1e-12 relative.
* Lint: on random dataflow digraphs W003 and W007 report exactly the
  findings of the old rule bodies.
* A path graph reproduces its closed-form spectrum.
"""

import networkx as nx
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.flow.dfg import DataflowGraph, DfgEdge, DfgNode, DriveSite
from repro.flow.metrics import _dense_laplacian, laplacian_stats
from repro.hdl import parse_verilog
from repro.hdl.source import SourceFile
from repro.lint.rules import ModuleContext, check_comb_loops, check_dead_cones
from tests.flow import _nx_oracle as oracle

_NAMES = st.text(alphabet="abcdxyz_01", min_size=1, max_size=4)


@st.composite
def _graphs(draw, max_nodes=24):
    names = draw(st.lists(_NAMES, max_size=max_nodes, unique=True))
    n = len(names)
    if n == 0:
        return names, []
    index = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(index, index), max_size=3 * n))
    return names, edges


def _largest_in_node_order(names, edges):
    """Dense Fiedler value of the largest component, rows in node order."""
    graph = oracle.graph_from(names, edges)
    largest = max(nx.connected_components(graph), key=lambda c: (len(c), min(c)))
    comp = [i for i, name in enumerate(names) if name in largest]
    if len(comp) < 2:
        return 0.0
    lap = _dense_laplacian(len(names), [(i, j) for i, j in edges if i != j])
    return float(np.linalg.eigvalsh(lap[np.ix_(comp, comp)])[1])


@settings(max_examples=300, deadline=None)
@given(_graphs())
def test_spectra_match_networkx(graph):
    names, edges = graph
    radius, fiedler = laplacian_stats(names, edges)
    nx_graph = oracle.graph_from(names, edges)
    old_radius, old_fiedler = oracle.laplacian_stats(nx_graph)
    assert repr(radius) == repr(old_radius)
    if not names:
        assert fiedler == 0.0
        return
    if nx.is_connected(nx_graph):
        assert repr(fiedler) == repr(old_fiedler)
    else:
        assert repr(fiedler) == repr(_largest_in_node_order(names, edges))
        assert fiedler == pytest.approx(old_fiedler, rel=1e-12, abs=0.0)


def test_path_graph_matches_closed_form_spectrum():
    # Path P_n: Laplacian eigenvalues 2 - 2cos(k*pi/n), k = 0..n-1.
    n = 257
    names = [f"p{i}" for i in range(n)]
    radius, fiedler = laplacian_stats(names, [(i, i + 1) for i in range(n - 1)])
    exact = 2.0 - 2.0 * np.cos(np.arange(n) * np.pi / n)
    assert radius == pytest.approx(exact[-1], rel=1e-12)
    assert fiedler == pytest.approx(exact[1], rel=1e-9)


_KINDS = (
    "wire", "wire", "wire", "wire", "reg", "reg", "input", "output", "memory",
    "instance",
)


@st.composite
def _dfgs(draw):
    names = draw(st.lists(_NAMES, min_size=1, max_size=12, unique=True))
    nodes = {}
    for name in names:
        kind = draw(st.sampled_from(_KINDS))
        clocks = ("clk",) if kind == "reg" else ()
        nodes[name] = DfgNode(name=name, kind=kind, clocks=clocks)
    pick = st.sampled_from(names)
    edges = tuple(
        DfgEdge(
            src=draw(pick), dst=draw(pick),
            kind=draw(st.sampled_from(("comb", "comb", "comb", "seq"))),
            line=draw(st.integers(0, 40)),
            addr=draw(st.booleans()) and draw(st.booleans()),
        )
        for _ in range(draw(st.integers(0, 4 * len(names))))
    )
    undriven = set(draw(st.lists(pick, max_size=3)))
    return DataflowGraph(
        module="m",
        nodes=nodes,
        edges=edges,
        drive_sites={
            name: (DriveSite(kind="assign", line=draw(st.integers(0, 40))),)
            for name in names
            if name not in undriven
        },
        reset_signals=frozenset(draw(st.lists(pick, max_size=2))),
        clock_signals=frozenset(draw(st.lists(pick, max_size=2))),
    )


_DESIGN = parse_verilog(SourceFile("m.v", "module m;\nendmodule\n"))


@settings(max_examples=300, deadline=None)
@given(_dfgs())
def test_lint_graph_rules_match_networkx(dfg):
    # Outside this case the old W003 search followed successors in hash
    # order (see cycle_order_depends_on_hash); the new one always uses
    # insertion order, which the old one used everywhere else.
    assume(not oracle.cycle_order_depends_on_hash(oracle.comb_graph(dfg)))
    ctx = ModuleContext(
        design=_DESIGN, module=_DESIGN.module("m"), spec=None, dfg=dfg
    )
    assert check_comb_loops(ctx) == oracle.check_comb_loops(ctx)
    # Finding order was set order in the old W007; the engine sorts.
    assert sorted(check_dead_cones(ctx), key=repr) == sorted(
        oracle.check_dead_cones(ctx), key=repr
    )
