"""The networkx-based dataflow code the library used before it computed
spectra and lint graph walks from the edge list directly.

Kept verbatim (modulo taking plain inputs) as a differential oracle for
``tests/flow/test_networkx_oracle.py``; networkx is a test-only
dependency.  Not imported by the library.
"""

from __future__ import annotations

import networkx as nx
import numpy as np

from repro.flow.dfg import DataflowGraph
from repro.lint.rules import RULES, LintFinding, ModuleContext


def graph_from(names, edges) -> "nx.Graph":
    """The undirected graph the old ``flow_report`` handed to
    ``laplacian_stats``: every node first, then the non-loop edges."""
    graph = nx.Graph()
    graph.add_nodes_from(names)
    for i, j in edges:
        if i != j:
            graph.add_edge(names[i], names[j])
    return graph


def _dense_radius(graph: "nx.Graph") -> float:
    lap = nx.laplacian_matrix(graph).toarray().astype(float)
    return float(np.linalg.eigvalsh(lap)[-1])


def _dense_fiedler(graph: "nx.Graph") -> float:
    lap = nx.laplacian_matrix(graph).toarray().astype(float)
    eig = np.linalg.eigvalsh(lap)
    return float(eig[1]) if len(eig) > 1 else 0.0


def laplacian_stats(graph: "nx.Graph") -> tuple[float, float]:
    n = graph.number_of_nodes()
    if n == 0:
        return 0.0, 0.0
    largest_cc = graph.subgraph(
        max(nx.connected_components(graph), key=lambda c: (len(c), min(c)))
    )
    radius = _dense_radius(graph)
    fiedler = (
        _dense_fiedler(largest_cc)
        if largest_cc.number_of_nodes() > 1
        else 0.0
    )
    return radius, fiedler


def comb_graph(dfg: DataflowGraph) -> "nx.DiGraph":
    graph = nx.DiGraph()
    for edge in dfg.edges:
        if edge.kind != "comb" or edge.addr:
            continue
        src = dfg.nodes.get(edge.src)
        dst = dfg.nodes.get(edge.dst)
        if src is None or dst is None:
            continue
        if src.kind in ("memory", "instance") or dst.kind in (
            "memory", "instance"
        ):
            continue
        if not graph.has_edge(edge.src, edge.dst):
            graph.add_edge(edge.src, edge.dst, line=edge.line)
    return graph


def check_comb_loops(ctx: ModuleContext) -> list[LintFinding]:
    graph = comb_graph(ctx.dfg)

    findings: list[LintFinding] = []
    seen: set[tuple[str, ...]] = set()
    for component in nx.strongly_connected_components(graph):
        nodes = sorted(component)
        if len(nodes) == 1 and not graph.has_edge(nodes[0], nodes[0]):
            continue
        sub = graph.subgraph(component)
        order = [edge[0] for edge in nx.find_cycle(sub, source=nodes[0])]
        pivot = order.index(min(order))
        order = order[pivot:] + order[:pivot]
        canon = tuple(order)
        if canon in seen:
            continue
        seen.add(canon)
        chain = " -> ".join(order + [order[0]])
        hops = []
        lines = []
        for a, b in zip(order, order[1:] + [order[0]]):
            line = int(graph.edges[a, b].get("line", 0))
            lines.append(line)
            hops.append(f"{a}->{b} line {line}")
        findings.append(
            LintFinding(
                rule="W003",
                message=f"combinational loop: {chain} ({', '.join(hops)})",
                severity=RULES["W003"].severity,
                module=ctx.module.name,
                file=ctx.file,
                line=min((ln for ln in lines if ln), default=0),
            )
        )
    return findings


def check_dead_cones(ctx: ModuleContext) -> list[LintFinding]:
    dfg = ctx.dfg
    alive = dfg.alive()
    dead = {
        name
        for name, node in dfg.nodes.items()
        if name not in alive
        and node.kind in ("wire", "reg")
        and name in dfg.drive_sites
        and dfg.succ(name)
        and name not in dfg.clock_signals
        and name not in dfg.reset_signals
    }
    if not dead:
        return []
    cones = nx.Graph()
    cones.add_nodes_from(dead)
    for edge in dfg.edges:
        if edge.src in dead and edge.dst in dead and edge.src != edge.dst:
            cones.add_edge(edge.src, edge.dst)
    findings: list[LintFinding] = []
    for component in nx.connected_components(cones):
        members = sorted(component)
        lines = [
            site.line
            for name in members
            for site in dfg.drive_sites.get(name, ())
            if site.line
        ]
        findings.append(
            LintFinding(
                rule="W007",
                message=(
                    f"dead logic cone {{{', '.join(members)}}}: driven and "
                    "read, but no path reaches any output"
                ),
                severity=RULES["W007"].severity,
                module=ctx.module.name,
                file=ctx.file,
                line=min(lines, default=0),
            )
        )
    return findings


def cycle_order_depends_on_hash(graph: "nx.DiGraph") -> bool:
    """Whether the old W003 cycle search could follow successors in set
    order: networkx iterates a subgraph view's adjacency over the
    component set (hash order) when the component is under half a
    node's full successor list.  Only matters when two or more of those
    successors lie in the component."""
    for component in nx.strongly_connected_components(graph):
        for node in component:
            succ = graph.succ[node]
            inside = sum(1 for s in succ if s in component)
            if 2 * len(component) < len(succ) and inside > 1:
                return True
    return False
