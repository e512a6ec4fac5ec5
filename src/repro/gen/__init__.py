"""Ground-truth generators and the harnesses that check the pipeline
against them.

Two generators, one idea: produce inputs whose correct answers are known
*by construction*, then demand the pipeline reproduce them exactly.

* :mod:`repro.gen.tiles` / :mod:`repro.gen.hdlgen` — synthetic
  Verilog-2001 and VHDL modules with closed-form ``LoC``/``Stmts``/
  ``Nets``/``Cells``/``FFs``/``FanInLC``;
* :mod:`repro.gen.oracle` — the differential oracle over
  ``Engine.measure_components``;
* :mod:`repro.gen.recovery` — effort-model parameter-recovery studies
  (weight bias + bootstrap-CI coverage for all three fitters);
* :mod:`repro.gen.selftest` — the orchestrated ``repro selftest``
  report;
* :mod:`repro.gen.violations` — violation-injecting variants with exact
  lint-finding ground truth (the ``repro.lint`` oracle).
"""

from repro.gen.hdlgen import (
    GeneratedModule,
    generate_corpus,
    generate_module,
)
from repro.gen.oracle import (
    ORACLE_METRICS,
    OracleMismatch,
    OracleReport,
    corpus_specs,
    run_differential_oracle,
)
from repro.gen.recovery import (
    FITTER_NAMES,
    FitterRecovery,
    RecoveryStudy,
    run_recovery_study,
)
from repro.gen.selftest import (
    BIAS_TOLERANCE,
    COVERAGE_BAND,
    CheckResult,
    SelfTestReport,
    run_selftest,
)
from repro.gen.violations import (
    VIOLATION_KINDS,
    VIOLATION_RULES,
    InjectedViolation,
    clean_kinds,
    inject_violation,
    violation_corpus,
)

__all__ = [
    "BIAS_TOLERANCE",
    "COVERAGE_BAND",
    "CheckResult",
    "FITTER_NAMES",
    "FitterRecovery",
    "GeneratedModule",
    "InjectedViolation",
    "ORACLE_METRICS",
    "OracleMismatch",
    "OracleReport",
    "RecoveryStudy",
    "SelfTestReport",
    "VIOLATION_KINDS",
    "VIOLATION_RULES",
    "clean_kinds",
    "corpus_specs",
    "generate_corpus",
    "generate_module",
    "inject_violation",
    "run_differential_oracle",
    "run_recovery_study",
    "run_selftest",
    "violation_corpus",
]
