"""HDL accounting linter: static audit of the Section 2.2 procedure.

The paper's effort model is only as good as its inputs, and Section 2.2
prescribes exactly how those inputs must be collected: count each component
once, measure parameterized components at the smallest non-degenerate
parameter values, and let no dead code inflate the size metrics.  This
package audits a component catalog against that procedure *statically*,
over the same shared AST the measurement pipeline consumes:

* ``ACC001`` duplicate component (structural-hash isomorphism),
* ``ACC002`` non-minimal parameters (vs :func:`repro.elab.degeneracy.
  minimal_parameters`, with blocker provenance),
* ``ACC003`` dead code under parameter-independent constants,

plus the RTL hygiene rules ``W001`` (unused/undriven), ``W002`` (inferred
latch), ``W003`` (combinational loop), ``W004`` (width mismatch).

Entry points: :func:`lint_sources` (parse + audit files),
:func:`lint_design` (audit a parsed design), the ``ucomplexity lint`` CLI
subcommand, and the ``lint=True`` flag on the measurement workflow.
Configuration -- rule toggles, severities, baseline suppressions -- comes
from ``.ucomplexity-lint.toml`` (:mod:`repro.lint.config`).
"""

from repro import lazy_exports

#: Public name -> defining module, imported on first attribute access
#: (PEP 562): a memo hit loads neither the elaborator nor the dataflow graph.
_EXPORTS = {
    "ACC_RULES": "repro.lint.catalog",
    "CONFIG_FILENAME": "repro.lint.config",
    "HYGIENE_RULES": "repro.lint.catalog",
    "LintConfig": "repro.lint.config",
    "LintConfigError": "repro.lint.config",
    "LintFinding": "repro.lint.catalog",
    "LintReport": "repro.lint.engine",
    "LintRule": "repro.lint.catalog",
    "ModuleContext": "repro.lint.rules",
    "ModuleLintResult": "repro.lint.engine",
    "RULES": "repro.lint.catalog",
    "Suppression": "repro.lint.config",
    "design_hashes": "repro.lint.hashing",
    "discover_config": "repro.lint.config",
    "lint_design": "repro.lint.engine",
    "lint_module": "repro.lint.engine",
    "lint_sources": "repro.lint.engine",
    "load_config": "repro.lint.config",
    "structural_hash": "repro.lint.hashing",
    "write_baseline": "repro.lint.config",
}

__all__ = sorted(_EXPORTS)

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
