"""Dataflow metric families: logic depth, degree entropy, Laplacian spectra.

These are the graph/spectral families of DESIGN.md §15, scored
against DEE1 by the cross-validation harness.  Three sources:

* **logic-depth distribution** -- levelized unit-delay depths of the
  synthesized netlist, measured at every cone sink (the same levelization
  the timing analyzer uses, but keeping the per-sink histogram instead of
  just the max);
* **fan-in / fan-out entropy** -- Shannon entropy (bits) of the in- and
  out-degree distributions of the signal-level dataflow graph;
* **Laplacian spectra** -- spectral radius of the undirected DFG Laplacian
  and the algebraic connectivity (Fiedler value) of its largest connected
  component.

Everything is computed from the :class:`~repro.flow.dfg.DataflowGraph`
edge list with no graph library: nodes are indexed in ``dfg.nodes``
order, self-loops and repeated ``(src, dst)`` pairs are dropped, and one
pass yields the degree lists and the index edges of a dense ``D - A``
Laplacian; union-find finds the components.  That canonical node order
makes every value independent of the interpreter's string hash seed.
The solves are dense ``eigvalsh``: one when the graph is connected, else
a second on the largest component's rows and columns.  The results are
deterministic, so pool-vs-sequential and serve byte-identity hold.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.elab.elaborator import ElaboratedModule
from repro.flow.dfg import DataflowGraph, build_dfg
from repro.hdl import ast
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.synth.netlist import CONST0, CONST1, Netlist

#: The dataflow metric names, in registry order.
FLOW_METRIC_NAMES = (
    "LogicDepthMax",
    "LogicDepthMean",
    "FanInEntropy",
    "FanOutEntropy",
    "SpectralRadius",
    "AlgebraicConn",
)


@dataclass(frozen=True)
class FlowReport:
    """Dataflow metrics for one specialization."""

    module: str
    n_nodes: int
    n_edges: int
    n_sinks: int
    logic_depth_max: int
    logic_depth_mean: float
    fanin_entropy: float
    fanout_entropy: float
    spectral_radius: float
    algebraic_connectivity: float

    def metrics(self) -> dict[str, float]:
        return {
            "LogicDepthMax": float(self.logic_depth_max),
            "LogicDepthMean": self.logic_depth_mean,
            "FanInEntropy": self.fanin_entropy,
            "FanOutEntropy": self.fanout_entropy,
            "SpectralRadius": self.spectral_radius,
            "AlgebraicConn": self.algebraic_connectivity,
        }


# ---------------------------------------------------------------------------
# Logic-depth distribution (netlist levelization)
# ---------------------------------------------------------------------------


def sink_depths(netlist: Netlist) -> list[int]:
    """Unit-delay logic depth at every cone sink.

    The same worklist levelization as the timing analyzer's level count,
    but reporting the depth reached at each sink (primary output, DFF D
    pin, memory port input, blackboxed child input) instead of only the
    deepest.  Sinks fed directly by sources have depth 0.
    """
    level: dict[int, int] = {CONST0: 0, CONST1: 0}
    for net in netlist.cone_sources():
        level[net] = 0
    comb = netlist.combinational_cells()
    consumers: dict[int, list[int]] = {}
    missing = []
    for ci, cell in enumerate(comb):
        count = sum(1 for inp in cell.inputs if inp not in level)
        for inp in cell.inputs:
            if inp not in level:
                consumers.setdefault(inp, []).append(ci)
        missing.append(count)
    ready = deque(ci for ci, m in enumerate(missing) if m == 0)
    while ready:
        ci = ready.popleft()
        cell = comb[ci]
        level[cell.output] = max(level[i] for i in cell.inputs) + 1
        for consumer in consumers.pop(cell.output, ()):
            missing[consumer] -= 1
            if missing[consumer] == 0:
                ready.append(consumer)
    return [level.get(sink, 0) for sink in netlist.cone_sinks()]


# ---------------------------------------------------------------------------
# Degree entropies
# ---------------------------------------------------------------------------


def _degree_entropy(degrees: Sequence[int]) -> float:
    """Shannon entropy (bits) of a degree distribution."""
    if not degrees:
        return 0.0
    counts = Counter(degrees)
    total = float(len(degrees))
    entropy = 0.0
    for count in counts.values():
        p = count / total
        entropy -= p * float(np.log2(p))
    return max(entropy, 0.0)


def _simple_edges(dfg: DataflowGraph) -> tuple[list[str], list[tuple[int, int]]]:
    """Node names in DFG order and the distinct non-loop ``(src, dst)``
    index pairs of the value digraph, in first-occurrence order."""
    index = {name: i for i, name in enumerate(dfg.nodes)}
    pairs = {
        (index[edge.src], index[edge.dst]): None
        for edge in dfg.edges
        if edge.src != edge.dst
    }
    return list(index), list(pairs)


# ---------------------------------------------------------------------------
# Laplacian spectra
# ---------------------------------------------------------------------------


def _largest_component(
    names: Sequence[str], edges: Sequence[tuple[int, int]]
) -> list[int]:
    """Node indices of the largest connected component, in node order.

    Union-find over the undirected edges; ties on size go to the
    component whose smallest name is largest, the ``(len, min(name))``
    order the metric has always used.
    """
    parent = list(range(len(names)))
    for i, j in edges:
        # Path halving: ``parent[i] = i = ...`` rebinds ``i`` after the
        # store, so each step points a node at its grandparent.
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        while parent[j] != j:
            parent[j] = j = parent[parent[j]]
        if i < j:
            parent[j] = i
        elif j < i:
            parent[i] = j
    groups: dict[int, list[int]] = {}
    for node in range(len(names)):
        root = node
        while parent[root] != root:
            root = parent[root]
        groups.setdefault(root, []).append(node)
    size = max(map(len, groups.values()))
    tied = [c for c in groups.values() if len(c) == size]
    if len(tied) == 1:
        return tied[0]
    return max(tied, key=lambda c: min(names[i] for i in c))


def _dense_laplacian(n: int, edges: Sequence[tuple[int, int]]) -> np.ndarray:
    """``D - A`` over the undirected 0/1 adjacency of the index edges."""
    lap = np.zeros((n, n))
    if edges:
        lap.reshape(-1)[
            [i * n + j for i, j in edges] + [j * n + i for i, j in edges]
        ] = -1.0
        # Positive integer degrees (a negated row sum would put -0.0 on
        # an isolated node's diagonal).
        lap[np.diag_indices(n)] = np.count_nonzero(lap, axis=1)
    return lap


def laplacian_stats(
    names: Sequence[str], edges: Sequence[tuple[int, int]]
) -> tuple[float, float]:
    """(spectral radius, algebraic connectivity) of an undirected graph.

    ``names`` lists the nodes; ``edges`` are ``(i, j)`` index pairs into
    it, read as undirected (self-loops and repeats are ignored).  The
    radius is the largest Laplacian eigenvalue of the whole graph; the
    connectivity is the Fiedler value of the largest connected component
    (0.0 for components with < 2 nodes), solved with the component's
    nodes in ``names`` order so the result does not depend on the
    interpreter's hash seed.  Deterministic by construction -- see the
    module docstring.
    """
    n = len(names)
    if n == 0:
        return 0.0, 0.0
    edges = [(i, j) for i, j in edges if i != j]
    comp = _largest_component(names, edges)
    lap = _dense_laplacian(n, edges)
    eig = np.linalg.eigvalsh(lap)
    radius = float(eig[-1])
    if len(comp) < 2:
        return radius, 0.0
    if len(comp) < n:
        eig = np.linalg.eigvalsh(lap[np.ix_(comp, comp)])
    return radius, float(eig[1])


# ---------------------------------------------------------------------------
# Report + aggregation
# ---------------------------------------------------------------------------


def flow_report(
    netlist: Netlist,
    spec: ElaboratedModule,
    design: ast.Design | None = None,
    dfg: DataflowGraph | None = None,
) -> FlowReport:
    """Compute the dataflow metric families for one specialization."""
    with obs_trace.span("flow.metrics", module=spec.name):
        if dfg is None:
            dfg = build_dfg(spec, design)
        depths = sink_depths(netlist)
        names, edges = _simple_edges(dfg)
        fanin = [0] * len(names)
        fanout = [0] * len(names)
        for i, j in edges:
            fanout[i] += 1
            fanin[j] += 1
        with obs_trace.span("flow.spectral", module=spec.name) as sp:
            radius, fiedler = laplacian_stats(names, edges)
        if sp.wall_s is not None:
            obs_metrics.histogram("flow.spectral_wall_s").observe(sp.wall_s)
        return FlowReport(
            module=spec.name,
            n_nodes=dfg.n_nodes,
            n_edges=dfg.n_edges,
            n_sinks=len(depths),
            logic_depth_max=max(depths, default=0),
            logic_depth_mean=(
                sum(depths) / len(depths) if depths else 0.0
            ),
            fanin_entropy=_degree_entropy(fanin),
            fanout_entropy=_degree_entropy(fanout),
            spectral_radius=radius,
            algebraic_connectivity=fiedler,
        )


def aggregate_flow(flows: Sequence[FlowReport]) -> dict[str, float]:
    """Fold per-occurrence flow reports into component-level metrics.

    Unlike the Table 3 counts (which sum), each family has its natural
    reducer: depth max and spectral radius take the worst module,
    depth mean is sink-weighted, entropies are node-weighted, and
    algebraic connectivity takes the most fragmented module (min).
    """
    if not flows:
        return {name: 0.0 for name in FLOW_METRIC_NAMES}
    total_sinks = sum(f.n_sinks for f in flows)
    total_nodes = sum(f.n_nodes for f in flows)

    def _weighted(values: list[tuple[float, int]], total: int) -> float:
        if total <= 0:
            return 0.0
        return sum(v * w for v, w in values) / total

    return {
        "LogicDepthMax": float(max(f.logic_depth_max for f in flows)),
        "LogicDepthMean": _weighted(
            [(f.logic_depth_mean, f.n_sinks) for f in flows], total_sinks
        ),
        "FanInEntropy": _weighted(
            [(f.fanin_entropy, f.n_nodes) for f in flows], total_nodes
        ),
        "FanOutEntropy": _weighted(
            [(f.fanout_entropy, f.n_nodes) for f in flows], total_nodes
        ),
        "SpectralRadius": max(f.spectral_radius for f in flows),
        "AlgebraicConn": min(f.algebraic_connectivity for f in flows),
    }
