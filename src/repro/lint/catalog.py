"""The lint rule catalog: codes, severities, hints and findings.

What a lint run needs without running a rule: the registry
(:data:`RULES`) that keys the lint memo and renders a finding's hint,
the :class:`LintFinding` values a memo entry holds, and the catalog-scope
``ACC001`` duplicate check, which reads only module hashes.  It imports
no elaborator and no dataflow graph, so a warm ``ucomplexity lint``
loads neither; the module-scope checks live in :mod:`repro.lint.rules`
and load on a memo miss.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.runtime.diagnostics import Diagnostic, Severity, SourceSpan


# ---------------------------------------------------------------------------
# Findings and rule metadata
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LintFinding:
    """One rule violation, anchored to a module and (when known) a line."""

    rule: str
    message: str
    severity: Severity
    module: str = ""
    file: str = ""
    line: int = 0

    def to_diagnostic(self, span_id: int | str | None = None) -> Diagnostic:
        span = SourceSpan(self.file, self.line) if self.file else None
        return Diagnostic(
            severity=self.severity,
            stage="lint",
            message=f"{self.rule}: {self.message}",
            span=span,
            component=self.module or None,
            hint=RULES[self.rule].hint if self.rule in RULES else None,
            span_id=span_id,
        )


@dataclass(frozen=True)
class LintRule:
    """Catalog entry for one rule.

    A module-scope rule's check is ``CHECKS[code]`` in
    :mod:`repro.lint.rules`; ``ACC001`` is :func:`check_duplicates`.
    """

    code: str
    name: str
    severity: Severity
    description: str
    hint: str
    scope: str = "module"  # "module" | "catalog"


# ---------------------------------------------------------------------------
# ACC001 -- duplicate components (catalog scope)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HashedModule:
    """One catalog module's identity for duplicate detection."""

    module: str
    file: str
    hash: str


def check_duplicates(hashed: Sequence[HashedModule]) -> list[LintFinding]:
    """ACC001: group catalog modules by structural hash, flag collisions.

    One finding per duplicate *beyond the first occurrence*; the message
    names the original so a fix (drop one, or record the reuse) is obvious.
    Identical (module, file) pairs listed twice are reported once.
    """
    first: dict[str, HashedModule] = {}
    findings: list[LintFinding] = []
    seen: set[tuple[str, str, str]] = set()
    for hm in hashed:
        if hm.hash not in first:
            first[hm.hash] = hm
            continue
        orig = first[hm.hash]
        if (hm.module, hm.file, hm.hash) in seen or (
            hm.module == orig.module and hm.file == orig.file
        ):
            continue
        seen.add((hm.module, hm.file, hm.hash))
        where = f" ({orig.file})" if orig.file else ""
        findings.append(
            LintFinding(
                rule="ACC001",
                message=(
                    f"module '{hm.module}' is structurally identical to "
                    f"'{orig.module}'{where}; a reused component must be "
                    "accounted once"
                ),
                severity=RULES["ACC001"].severity,
                module=hm.module,
                file=hm.file,
            )
        )
    return findings


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


RULES: dict[str, LintRule] = {
    rule.code: rule
    for rule in (
        LintRule(
            code="ACC001",
            name="duplicate-component",
            severity=Severity.ERROR,
            description="structurally isomorphic modules counted twice",
            hint="account reused components once (Section 2.2): drop the "
                 "copy or suppress the pair in .ucomplexity-lint.toml if "
                 "the designs genuinely diverged after measurement",
            scope="catalog",
        ),
        LintRule(
            code="ACC002",
            name="non-minimal-parameters",
            severity=Severity.ERROR,
            description="declared parameter defaults exceed the minimal "
                        "non-degenerate values",
            hint="measure at the smallest non-degenerate parameter values; "
                 "the finding names the construct blocking further "
                 "minimization",
        ),
        LintRule(
            code="ACC003",
            name="dead-code",
            severity=Severity.ERROR,
            description="statements eliminated by constant propagation at "
                        "every parameterization",
            hint="delete the dead branch (or make its condition depend on "
                 "a parameter); dead statements inflate Stmts/LoC without "
                 "adding design effort",
        ),
        LintRule(
            code="W001",
            name="unused-signal",
            severity=Severity.WARNING,
            description="unused or undriven signal/port",
            hint="delete the dangling declaration or connect it; dead nets "
                 "inflate the net count",
        ),
        LintRule(
            code="W002",
            name="inferred-latch",
            severity=Severity.WARNING,
            description="incomplete assignment in a combinational process",
            hint="assign the signal on every path (add an else/default or "
                 "a leading unconditional assignment)",
        ),
        LintRule(
            code="W003",
            name="combinational-loop",
            severity=Severity.WARNING,
            description="cycle in the combinational net dependency graph "
                        "(the ordered cycle with per-hop source lines)",
            hint="break the loop with a register or restructure the logic",
        ),
        LintRule(
            code="W004",
            name="width-mismatch",
            severity=Severity.WARNING,
            description="assignment target and expression widths differ",
            hint="resize or slice the expression explicitly; implicit "
                 "truncation/extension hides bugs",
        ),
        LintRule(
            code="W005",
            name="clock-domain-crossing",
            severity=Severity.WARNING,
            description="register data path originates in a disjoint clock "
                        "domain without a synchronizer stage",
            hint="insert a 2-flop synchronizer (two bare flop-to-flop "
                 "copies in the receiving domain) or move the logic into "
                 "one domain; metastability corrupts unsynchronized "
                 "crossings",
        ),
        LintRule(
            code="W006",
            name="multiply-driven-net",
            severity=Severity.WARNING,
            description="signal driven from multiple sites with overlapping "
                        "bits",
            hint="merge the drivers into one assignment/process (or make "
                 "the written bit ranges disjoint); conflicting drivers "
                 "are contention in hardware",
        ),
        LintRule(
            code="W007",
            name="dead-logic-cone",
            severity=Severity.WARNING,
            description="driven-and-read logic cone with no path to any "
                        "output",
            hint="delete the cone or connect it to an output; dead cones "
                 "inflate Nets/Cells/FFs without adding observable "
                 "behavior",
        ),
    )
}

ACC_RULES: tuple[str, ...] = tuple(c for c in RULES if c.startswith("ACC"))
HYGIENE_RULES: tuple[str, ...] = tuple(c for c in RULES if c.startswith("W"))

#: Rules that run over the dataflow graph (skipped with a diagnostic when
#: the DFG cannot be built).
DEEP_RULES: tuple[str, ...] = ("W003", "W005", "W006", "W007")
