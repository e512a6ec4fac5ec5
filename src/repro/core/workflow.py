"""End-to-end component measurement: RTL in, Table 3 metric vector out.

This is the uComplexity measurement flow of Section 2:

1. parse the component's HDL sources;
2. measure the software metrics (LoC, Stmts) on the source text;
3. elaborate the hierarchy and apply the **accounting procedure** -- count
   each sub-component once, at minimal non-degenerate parameters (or, with
   the policy disabled, every instance at instantiated parameters, which is
   the Figure 6 ablation);
4. synthesize each selected specialization (own logic only; children are
   black boxes measured separately) through both the ASIC and FPGA flows;
5. aggregate the per-specialization synthesis metrics into the component's
   compounded index.

The pipeline itself runs on :class:`repro.core.engine.Engine` (one
long-lived object holding the cache, pool width and supervision policy;
the cache doubles as the resume log of an interrupted run).  This module holds the data it passes around: batch specs,
measurements, and batch results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

from repro.core.accounting import AccountingPolicy
from repro.hdl.source import SourceFile
from repro.runtime.diagnostics import Diagnostic, Result, render_report
from repro.synth.report import SynthesisReport

#: A specialization's dict key: (module name, sorted parameter items).
SpecKey = tuple


@dataclass
class ComponentMeasurement:
    """All metrics for one component, plus per-specialization detail."""

    name: str
    top: str
    policy: AccountingPolicy
    metrics: dict[str, float]
    specializations: list[tuple[str, Mapping[str, int]]]
    reports: dict[tuple, SynthesisReport] = field(default_factory=dict)


@dataclass(frozen=True)
class ComponentSpec:
    """One batch entry: a named component and its sources/top/policy."""

    name: str
    sources: tuple[SourceFile, ...]
    top: str
    policy: AccountingPolicy = AccountingPolicy.recommended()

    @classmethod
    def single(cls, name: str, source: SourceFile, *,
               top: str | None = None,
               policy: AccountingPolicy | None = None) -> "ComponentSpec":
        """Spec for a single-file component (top defaults to ``name``)."""
        return cls(
            name=name,
            sources=(source,),
            top=name if top is None else top,
            policy=AccountingPolicy.recommended() if policy is None
            else policy,
        )


def catalog_specs(
    directory: str | Path,
    policy: AccountingPolicy | None = None,
    limit: int | None = None,
) -> list[ComponentSpec]:
    """Batch specs for every module of a generated catalog directory.

    Reads the ``manifest.json`` written by ``ucomplexity gen`` (or
    :func:`repro.gen.generate_corpus` callers) and resolves each module's
    source files relative to ``directory``.  The result feeds straight
    into :meth:`Engine.measure_components
    <repro.core.engine.Engine.measure_components>`, which is how ``ucomplexity measure
    --catalog DIR`` (and the profiling walkthrough in the README) turns a
    synthetic corpus into a realistic parallel workload.

    Raises ``ValueError`` for a missing/unreadable manifest or a module
    whose listed files are absent -- a catalog is generated data, so any
    mismatch means the directory is stale, not a measurement problem.
    """
    import json

    root = Path(directory)
    manifest_path = root / "manifest.json"
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ValueError(
            f"cannot read catalog manifest {manifest_path}: {exc}"
        ) from exc
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"invalid catalog manifest {manifest_path}: {exc}"
        ) from exc
    modules = manifest.get("modules")
    if not isinstance(modules, dict) or not modules:
        raise ValueError(f"catalog manifest {manifest_path} lists no modules")
    policy = AccountingPolicy.recommended() if policy is None else policy
    specs: list[ComponentSpec] = []
    for name in sorted(modules):
        entry = modules[name]
        files = entry.get("files") or []
        if not files:
            raise ValueError(f"catalog module {name!r} lists no files")
        try:
            sources = tuple(
                SourceFile.from_path(root / fname) for fname in files
            )
        except OSError as exc:
            raise ValueError(
                f"catalog module {name!r}: missing source file: {exc}"
            ) from exc
        specs.append(
            ComponentSpec(
                name=name,
                sources=sources,
                top=str(entry.get("top", name)),
                policy=policy,
            )
        )
        if limit is not None and len(specs) >= limit:
            break
    return specs


@dataclass
class BatchMeasurement:
    """Partial results plus per-component failure reports for one batch."""

    results: dict[str, Result[ComponentMeasurement]]

    @property
    def measurements(self) -> dict[str, ComponentMeasurement]:
        """Every component that produced a (possibly degraded) measurement."""
        return {
            name: res.value
            for name, res in self.results.items()
            if res.value is not None
        }

    @property
    def failures(self) -> dict[str, tuple[Diagnostic, ...]]:
        """Components with no usable measurement at all."""
        return {
            name: res.diagnostics
            for name, res in self.results.items()
            if res.failed
        }

    @property
    def diagnostics(self) -> tuple[Diagnostic, ...]:
        out: list[Diagnostic] = []
        for res in self.results.values():
            out.extend(res.diagnostics)
        return tuple(out)

    @property
    def ok(self) -> bool:
        return all(res.ok for res in self.results.values())

    @property
    def degraded(self) -> bool:
        return not self.ok and bool(self.measurements)

    def report(self) -> str:
        return render_report(self.diagnostics)
