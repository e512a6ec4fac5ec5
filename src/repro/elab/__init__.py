"""Elaboration substrate.

Elaboration turns parsed modules into concrete, parameter-resolved
specializations: parameters and constants are evaluated
(:mod:`repro.elab.consteval`), generate loops are unrolled and generate
conditionals selected, the instance hierarchy is walked
(:mod:`repro.elab.elaborator`), and the constant-propagation/dead-code
degeneracy analysis behind the paper's parameter-scaling rule runs
(:mod:`repro.elab.degeneracy`).
"""

from repro import lazy_exports

#: Public name -> defining module, imported on first attribute access
#: (PEP 562): a lint memo hit or a cache key loads no elaborator.
_EXPORTS = {
    "BlockedMinimization": "repro.elab.degeneracy",
    "ConstEvalError": "repro.elab.consteval",
    "DegeneracyEvent": "repro.elab.degeneracy",
    "DesignHierarchy": "repro.elab.elaborator",
    "ElaboratedInstance": "repro.elab.elaborator",
    "ElaboratedModule": "repro.elab.elaborator",
    "ElaborationError": "repro.elab.elaborator",
    "MinimalParameters": "repro.elab.degeneracy",
    "SignalInfo": "repro.elab.elaborator",
    "degeneracy_events": "repro.elab.degeneracy",
    "elaborate": "repro.elab.elaborator",
    "eval_const": "repro.elab.consteval",
    "is_degenerate": "repro.elab.degeneracy",
    "minimal_parameters": "repro.elab.degeneracy",
    "substitute": "repro.elab.consteval",
}

__all__ = sorted(_EXPORTS)

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
