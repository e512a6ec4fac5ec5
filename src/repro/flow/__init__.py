"""Signal-level dataflow analysis: graphs, deep lint substrate, metrics.

``build_dfg`` turns one elaborated module into a :class:`DataflowGraph`
(signals as nodes, combinational/sequential dependencies as edges,
annotated with clock/reset domains and source lines).  The deep lint
rules (W003/W005/W006/W007 in :mod:`repro.lint.rules`) and the dataflow
metric families (:mod:`repro.flow.metrics`) both run over it.
"""

from repro import lazy_exports

#: Public name -> defining module, imported on first attribute access
#: (PEP 562): only a dataflow build or metric loads the graph code and numpy.
_EXPORTS = {
    "DataflowGraph": "repro.flow.dfg",
    "DfgEdge": "repro.flow.dfg",
    "DfgNode": "repro.flow.dfg",
    "DriveSite": "repro.flow.dfg",
    "FLOW_METRIC_NAMES": "repro.flow.metrics",
    "FLOW_VERSION": "repro.versions",
    "FlowReport": "repro.flow.metrics",
    "INSTANCE_PREFIX": "repro.flow.dfg",
    "aggregate_flow": "repro.flow.metrics",
    "build_dfg": "repro.flow.dfg",
    "flow_report": "repro.flow.metrics",
    "sink_depths": "repro.flow.metrics",
}

__all__ = sorted(_EXPORTS)

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
