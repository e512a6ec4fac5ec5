"""Lint configuration: rule toggles, severity map, baseline suppressions.

Configuration lives in a ``.ucomplexity-lint.toml`` file next to the linted
sources (or anywhere above them; :func:`discover_config` walks upward).
The format:

.. code-block:: toml

    [rules]
    W004 = false            # disable a rule entirely

    [severity]
    W001 = "error"          # promote/demote a rule's findings

    [[suppress]]            # baseline: silence one existing finding
    rule = "ACC002"
    module = "fifo"         # optional, matches any module when omitted
    file = "rtl/fifo.v"     # optional, suffix match
    reason = "grandfathered; measured before the minimization rule landed"

Suppressed findings are dropped from the report (and from the exit code)
but counted, so a run can still say "3 findings, 2 suppressed".
:func:`write_baseline` turns a run's findings into ``[[suppress]]`` entries
-- the adopt-a-linter-on-a-legacy-catalog workflow.
"""

from __future__ import annotations

import tomllib
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.runtime.diagnostics import Severity

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine imports us)
    from repro.lint.catalog import LintFinding

#: The discovered configuration file name.
CONFIG_FILENAME = ".ucomplexity-lint.toml"

_SEVERITIES = {
    "info": Severity.INFO,
    "warning": Severity.WARNING,
    "error": Severity.ERROR,
}


class LintConfigError(ValueError):
    """Raised for malformed configuration files."""


@dataclass(frozen=True)
class Suppression:
    """One baseline entry: silences findings it matches."""

    rule: str
    module: str = ""
    file: str = ""
    reason: str = ""

    def matches(self, finding: "LintFinding") -> bool:
        if self.rule != finding.rule:
            return False
        if self.module and self.module != finding.module:
            return False
        if self.file and not finding.file.endswith(self.file):
            return False
        return True


@dataclass(frozen=True)
class LintConfig:
    """Resolved lint configuration (picklable: workers carry it whole)."""

    disabled: frozenset[str] = frozenset()
    severities: dict[str, Severity] = field(default_factory=dict)
    suppressions: tuple[Suppression, ...] = ()
    path: str = ""

    def enabled(self, code: str) -> bool:
        return code not in self.disabled

    def severity_for(self, code: str, default: Severity) -> Severity:
        return self.severities.get(code, default)

    def suppressed(self, finding: "LintFinding") -> bool:
        return any(s.matches(finding) for s in self.suppressions)

    def with_rules(
        self,
        only: Iterable[str] | None = None,
        disable: Iterable[str] = (),
    ) -> "LintConfig":
        """A copy restricted to ``only`` (if given) minus ``disable``."""
        from repro.lint.catalog import RULES

        disabled = set(self.disabled)
        if only is not None:
            keep = set(only)
            disabled |= {code for code in RULES if code not in keep}
        disabled |= set(disable)
        return LintConfig(
            disabled=frozenset(disabled),
            severities=dict(self.severities),
            suppressions=self.suppressions,
            path=self.path,
        )


def _parse_severity(code: str, raw: object) -> Severity:
    if not isinstance(raw, str) or raw.lower() not in _SEVERITIES:
        raise LintConfigError(
            f"severity for {code} must be one of {sorted(_SEVERITIES)}, "
            f"got {raw!r}"
        )
    return _SEVERITIES[raw.lower()]


def load_config(path: str | Path) -> LintConfig:
    """Parse a ``.ucomplexity-lint.toml`` file."""
    from repro.lint.catalog import RULES

    path = Path(path)
    try:
        data = tomllib.loads(path.read_text(encoding="utf-8"))
    except tomllib.TOMLDecodeError as exc:
        raise LintConfigError(f"{path}: {exc}") from None

    unknown = set(data) - {"rules", "severity", "suppress"}
    if unknown:
        raise LintConfigError(
            f"{path}: unknown sections {sorted(unknown)}; expected "
            "[rules], [severity], [[suppress]]"
        )

    disabled: set[str] = set()
    for code, enabled in data.get("rules", {}).items():
        if code not in RULES:
            raise LintConfigError(f"{path}: unknown rule {code!r} in [rules]")
        if not isinstance(enabled, bool):
            raise LintConfigError(
                f"{path}: [rules] {code} must be true/false, got {enabled!r}"
            )
        if not enabled:
            disabled.add(code)

    severities: dict[str, Severity] = {}
    for code, raw in data.get("severity", {}).items():
        if code not in RULES:
            raise LintConfigError(
                f"{path}: unknown rule {code!r} in [severity]"
            )
        severities[code] = _parse_severity(code, raw)

    suppressions: list[Suppression] = []
    for i, entry in enumerate(data.get("suppress", [])):
        if not isinstance(entry, dict) or "rule" not in entry:
            raise LintConfigError(
                f"{path}: [[suppress]] entry {i} needs at least a rule key"
            )
        if entry["rule"] not in RULES:
            raise LintConfigError(
                f"{path}: unknown rule {entry['rule']!r} in [[suppress]]"
            )
        suppressions.append(
            Suppression(
                rule=str(entry["rule"]),
                module=str(entry.get("module", "")),
                file=str(entry.get("file", "")),
                reason=str(entry.get("reason", "")),
            )
        )

    return LintConfig(
        disabled=frozenset(disabled),
        severities=severities,
        suppressions=tuple(suppressions),
        path=str(path),
    )


def discover_config(start: str | Path) -> LintConfig:
    """Find and load the nearest config at/above ``start`` (empty if none).

    ``start`` may be a file or a directory; the walk stops at the
    filesystem root.
    """
    here = Path(start).resolve()
    if here.is_file():
        here = here.parent
    for directory in (here, *here.parents):
        candidate = directory / CONFIG_FILENAME
        if candidate.is_file():
            return load_config(candidate)
    return LintConfig()


def _toml_escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"')


def write_baseline(
    findings: Sequence["LintFinding"],
    path: str | Path,
    reason: str = "baselined existing finding",
) -> int:
    """Write (overwrite) ``path`` with a suppression for every finding.

    Returns the number of suppression entries written; duplicates (same
    rule/module/file triple) collapse to one entry.
    """
    lines = [
        "# Lint baseline: generated by `ucomplexity lint --write-baseline`.",
        "# Each entry silences one pre-existing finding; delete entries as",
        "# the violations they cover are fixed.",
        "",
    ]
    seen: set[tuple[str, str, str]] = set()
    count = 0
    for finding in findings:
        key = (finding.rule, finding.module, finding.file)
        if key in seen:
            continue
        seen.add(key)
        count += 1
        lines.append("[[suppress]]")
        lines.append(f'rule = "{_toml_escape(finding.rule)}"')
        if finding.module:
            lines.append(f'module = "{_toml_escape(finding.module)}"')
        if finding.file:
            lines.append(f'file = "{_toml_escape(finding.file)}"')
        lines.append(f'reason = "{_toml_escape(reason)}"')
        lines.append("")
    Path(path).write_text("\n".join(lines), encoding="utf-8")
    return count
