"""Unit tests for the dataflow metric families."""

import pytest

from repro.elab import elaborate
from repro.flow import FLOW_METRIC_NAMES, aggregate_flow, flow_report, sink_depths
from repro.flow.metrics import FlowReport, laplacian_stats
from repro.hdl import parse_verilog
from repro.hdl.source import SourceFile
from repro.synth import synthesize_module


def _prep(text, top):
    design = parse_verilog(SourceFile("t.v", text))
    hierarchy = elaborate(design, top, None)
    return synthesize_module(hierarchy), hierarchy.top, design


XOR_CHAIN = """
module chain(input [3:0] a, output y);
  wire t0;
  wire t1;
  wire t2;
  assign t0 = a[0] ^ a[1];
  assign t1 = t0 ^ a[2];
  assign t2 = t1 ^ a[3];
  assign y = t2;
endmodule
"""


class TestSinkDepths:
    def test_chain_depth(self):
        netlist, _, _ = _prep(XOR_CHAIN, "chain")
        depths = sink_depths(netlist)
        assert len(depths) == len(netlist.cone_sinks())
        assert max(depths) == 3  # three chained XOR2 levels

    def test_wire_through_is_depth_zero(self):
        netlist, _, _ = _prep(
            "module thru(input a, output y);\n  assign y = a;\nendmodule\n",
            "thru",
        )
        assert set(sink_depths(netlist)) <= {0}


def _path(n, prefix=""):
    """Names and index edges of the path graph on ``n`` nodes."""
    return [f"{prefix}{i}" for i in range(n)], [(i, i + 1) for i in range(n - 1)]


class TestLaplacianStats:
    def test_path_graph_spectrum(self):
        # P2 Laplacian eigenvalues are {0, 2}; P3's are {0, 1, 3}.
        assert laplacian_stats(*_path(2)) == (
            pytest.approx(2.0), pytest.approx(2.0)
        )
        radius, fiedler = laplacian_stats(*_path(3))
        assert radius == pytest.approx(3.0)
        assert fiedler == pytest.approx(1.0)

    def test_fiedler_uses_largest_component(self):
        names, edges = _path(4)
        names += ["i0", "i1"]  # a smaller disconnected component
        edges += [(4, 5)]
        _, fiedler = laplacian_stats(names, edges)
        expected = laplacian_stats(*_path(4))[1]
        assert fiedler == pytest.approx(expected)

    def test_empty_and_singleton(self):
        assert laplacian_stats([], []) == (0.0, 0.0)
        assert laplacian_stats(["x"], []) == (0.0, 0.0)


class TestFlowReport:
    def test_metric_names_match_registry_families(self):
        netlist, spec, design = _prep(XOR_CHAIN, "chain")
        report = flow_report(netlist, spec, design)
        assert tuple(report.metrics()) == FLOW_METRIC_NAMES
        assert report.metrics()["LogicDepthMax"] == 3.0
        assert report.n_nodes > 0 and report.n_edges > 0

    def test_deterministic(self):
        netlist, spec, design = _prep(XOR_CHAIN, "chain")
        a = flow_report(netlist, spec, design)
        b = flow_report(netlist, spec, design)
        assert a == b


def _fr(module, n_nodes, n_sinks, depth_max, depth_mean, fanin, fanout,
        radius, conn):
    return FlowReport(
        module=module, n_nodes=n_nodes, n_edges=0, n_sinks=n_sinks,
        logic_depth_max=depth_max, logic_depth_mean=depth_mean,
        fanin_entropy=fanin, fanout_entropy=fanout,
        spectral_radius=radius, algebraic_connectivity=conn,
    )


class TestAggregateFlow:
    def test_family_reducers(self):
        a = _fr("a", n_nodes=10, n_sinks=2, depth_max=4, depth_mean=2.0,
                fanin=1.0, fanout=2.0, radius=5.0, conn=0.5)
        b = _fr("b", n_nodes=30, n_sinks=6, depth_max=9, depth_mean=6.0,
                fanin=3.0, fanout=1.0, radius=3.0, conn=0.1)
        agg = aggregate_flow([a, b])
        assert agg["LogicDepthMax"] == 9.0  # worst module
        assert agg["SpectralRadius"] == 5.0  # worst module
        assert agg["AlgebraicConn"] == 0.1  # most fragmented
        # Sink-weighted mean: (2*2 + 6*6) / 8.
        assert agg["LogicDepthMean"] == pytest.approx(5.0)
        # Node-weighted means: (1*10 + 3*30) / 40 and (2*10 + 1*30) / 40.
        assert agg["FanInEntropy"] == pytest.approx(2.5)
        assert agg["FanOutEntropy"] == pytest.approx(1.25)

    def test_empty_is_all_zero(self):
        agg = aggregate_flow([])
        assert set(agg) == set(FLOW_METRIC_NAMES)
        assert all(v == 0.0 for v in agg.values())
