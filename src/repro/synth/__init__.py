"""Synthesis substrate.

Replaces the commercial tools of Table 3:

* the ASIC flow (Synopsys Design Compiler in the paper):
  :mod:`repro.synth.lower` maps an elaborated module onto the 180 nm-style
  standard-cell library of :mod:`repro.synth.library`, producing a
  gate-level :mod:`repro.synth.netlist`; :mod:`repro.synth.cones`,
  :mod:`repro.synth.timing`, :mod:`repro.synth.area`, and
  :mod:`repro.synth.power` compute FanInLC, Freq, AreaL/AreaS, and
  PowerD/PowerS from it;
* the FPGA flow (Synplify Pro in the paper): :mod:`repro.synth.fpga` packs
  the same netlist into <=8-input LUTs and reports the paper's LUT-input
  estimate of FanInLC, the flip-flop count, and the FPGA frequency.

:mod:`repro.synth.report` bundles everything into the per-component metric
vector used by the uComplexity regression.
"""

from repro import lazy_exports

#: Public name -> defining module, imported on first attribute access
#: (PEP 562): a cache probe or an annotation loads no netlist code.
_EXPORTS = {
    "CELL_LIBRARY": "repro.synth.library",
    "Cell": "repro.synth.netlist",
    "CellSpec": "repro.synth.library",
    "FpgaReport": "repro.synth.fpga",
    "InterpreterError": "repro.synth.interp",
    "Memory": "repro.synth.netlist",
    "Netlist": "repro.synth.netlist",
    "NetlistSimulator": "repro.synth.sim",
    "RtlInterpreter": "repro.synth.interp",
    "SynthesisError": "repro.synth.lower",
    "SynthesisReport": "repro.synth.report",
    "fanin_logic_cones": "repro.synth.cones",
    "map_to_luts": "repro.synth.fpga",
    "synthesis_metrics": "repro.synth.report",
    "synthesize_module": "repro.synth.lower",
}

__all__ = sorted(_EXPORTS)

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
