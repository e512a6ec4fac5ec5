"""Loading and measuring the bundled designs."""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING

from repro.core.accounting import AccountingPolicy
from repro.data.dataset import EffortDataset, EffortRecord
from repro.designs.catalog import ComponentSpec, component_specs
from repro.hdl.source import SourceFile

if TYPE_CHECKING:
    from repro.cache import SynthesisCache

_RTL_ROOT = Path(__file__).parent / "rtl"


def load_sources(spec: ComponentSpec) -> list[SourceFile]:
    """Read a component's RTL files from the package data."""
    return [SourceFile.from_path(_RTL_ROOT / rel) for rel in spec.files]


def measured_dataset(
    policy: AccountingPolicy = AccountingPolicy.recommended(),
    jobs: int = 1,
    cache: "SynthesisCache | None" = None,
) -> EffortDataset:
    """The bundled designs as an effort dataset.

    Efforts are the paper's reported person-months (Table 2); metrics are
    *our* measurements of the bundled RTL through the full pipeline.  This
    dataset drives the accounting-procedure ablation (Figure 6) and the
    end-to-end examples.
    """
    from repro.core.engine import Engine

    measurements = Engine(cache=cache, jobs=jobs).measure_catalog(policy)
    records = []
    for spec in component_specs():
        m = measurements[spec.label]
        records.append(
            EffortRecord(
                team=spec.design,
                component=spec.name,
                effort=spec.effort,
                metrics=dict(m.metrics),
            )
        )
    return EffortDataset(tuple(records))
