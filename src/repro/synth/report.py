"""Per-module synthesis report: the nine synthesis metrics of Table 3.

Matches the tool split of Table 3: Nets, Cells, AreaL, AreaS, PowerD, and
PowerS come from the ASIC flow; FanInLC, Freq, and FFs from the FPGA flow
(FanInLC via the paper's LUT-input-sum estimate; the direct latch-to-latch
cone count is also reported for cross-checking).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.obs import trace as obs_trace
from repro.synth.area import AreaReport, area_report
from repro.synth.cones import fanin_logic_cones
from repro.synth.fpga import FpgaReport, map_to_luts
from repro.synth.netlist import Netlist
from repro.synth.power import PowerReport, power_report
from repro.synth.timing import TimingReport, timing_report

if TYPE_CHECKING:
    from repro.elab.elaborator import DesignHierarchy
    from repro.flow.metrics import FlowReport
    from repro.hdl import ast


@dataclass(frozen=True)
class SynthesisReport:
    """Everything the two synthesis flows report for one module.

    ``flow`` carries the dataflow metric families (:mod:`repro.flow`)
    when the report was produced with the elaborated module in hand; it
    is None for netlist-only analyses.  Flow metrics are deliberately
    *not* part of :meth:`metrics` -- the Table 3 vector sums across
    specializations, while each flow family has its own reducer
    (:func:`repro.flow.metrics.aggregate_flow`).
    """

    name: str
    n_nets: int
    n_cells: int
    n_flipflops: int
    area: AreaReport
    power: PowerReport
    timing: TimingReport
    fpga: FpgaReport
    fanin_lc_asic: int
    flow: "FlowReport | None" = None

    def metrics(self) -> dict[str, float]:
        """The Table 3 synthesis metrics as a metric vector."""
        return {
            "FanInLC": float(self.fpga.fanin_lc),
            "Nets": float(self.n_nets),
            "Cells": float(self.n_cells),
            "AreaL": self.area.logic_um2,
            "AreaS": self.area.storage_um2,
            "PowerD": self.power.dynamic_mw,
            "PowerS": self.power.static_uw,
            "Freq": self.fpga.frequency_mhz,
            "FFs": float(self.n_flipflops),
        }


def synthesis_metrics(
    netlist: Netlist,
    hierarchy: "DesignHierarchy | None" = None,
    design: "ast.Design | None" = None,
) -> SynthesisReport:
    """Run every analysis over a lowered netlist.

    With ``hierarchy`` (the specialization the netlist was lowered from)
    the dataflow families are computed too and attached as ``flow``.
    """
    flow: "FlowReport | None" = None
    if hierarchy is not None:
        from repro.flow.metrics import flow_report

        flow = flow_report(  # spanned as flow.metrics
            netlist,
            hierarchy.top,
            design if design is not None else hierarchy.design,
        )
    with obs_trace.span("synth.timing"):
        timing = timing_report(netlist)
    with obs_trace.span("synth.area"):
        area = area_report(netlist)
    with obs_trace.span("synth.power"):
        power = power_report(netlist, timing.frequency_mhz)
    with obs_trace.span("synth.lut_map"):
        fpga = map_to_luts(netlist)
    with obs_trace.span("synth.cones"):
        fanin_lc_asic = fanin_logic_cones(netlist)
    return SynthesisReport(
        name=netlist.name,
        n_nets=netlist.n_nets,
        n_cells=netlist.n_cells,
        n_flipflops=netlist.n_flipflops,
        area=area,
        power=power,
        timing=timing,
        fpga=fpga,
        fanin_lc_asic=fanin_lc_asic,
        flow=flow,
    )
