"""Per-module synthesis report: the nine synthesis metrics of Table 3.

Matches the tool split of Table 3: Nets, Cells, AreaL, AreaS, PowerD, and
PowerS come from the ASIC flow; FanInLC, Freq, and FFs from the FPGA flow
(FanInLC via the paper's LUT-input-sum estimate; the direct latch-to-latch
cone count is also reported for cross-checking).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cache
from operator import attrgetter
from typing import TYPE_CHECKING, Any

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


# -- compact cache records -----------------------------------------------------
#
# A cache entry (:mod:`repro.cache`) holds a report as one call of
# :func:`rebuild_report` on plain fields, not as six pickled dataclasses:
# unpickling looks each class up by module and name, which cost more than
# the rest of a warm hit.  The constructors set fields in declaration
# order, as the report was built, so a rebuilt report pickles
# byte-identically to the one stored.

_PARTS = (AreaReport, PowerReport, TimingReport, FpgaReport)


def _getter(cls: type) -> attrgetter:
    return attrgetter(*(f.name for f in fields(cls)))


_PART_FIELDS = tuple(_getter(cls) for cls in _PARTS)


@cache
def _flow_codec() -> tuple[type, attrgetter]:
    from repro.flow.metrics import FlowReport

    return FlowReport, _getter(FlowReport)


def report_fields(report: Any) -> tuple | None:
    """``report`` as :func:`rebuild_report`'s arguments, its parts as
    tuples of their fields; None unless the report and every part are
    exactly the classes the rebuild makes."""
    if type(report) is not SynthesisReport:
        return None
    parts = (report.area, report.power, report.timing, report.fpga)
    flow_cls, flow_fields = _flow_codec()
    flow = report.flow
    if tuple(map(type, parts)) != _PARTS or (
        flow is not None and type(flow) is not flow_cls
    ):
        return None
    return (
        report.name, report.n_nets, report.n_cells, report.n_flipflops,
        *(get(part) for get, part in zip(_PART_FIELDS, parts)),
        report.fanin_lc_asic,
        None if flow is None else flow_fields(flow),
    )


def rebuild_report(name, n_nets, n_cells, n_flipflops, area, power, timing,
                   fpga, fanin_lc_asic, flow) -> SynthesisReport:
    """The report :func:`report_fields` encoded; a part with the wrong
    number of fields raises ``TypeError``."""
    return SynthesisReport(
        name, n_nets, n_cells, n_flipflops, AreaReport(*area),
        PowerReport(*power), TimingReport(*timing), FpgaReport(*fpga),
        fanin_lc_asic, None if flow is None else _flow_codec()[0](*flow),
    )


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
