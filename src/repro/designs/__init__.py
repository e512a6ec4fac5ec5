"""Bundled processor designs.

Synthetic RTL mirroring the structure, style, and component breakdown of
the four designs the paper evaluates (Section 4.1): the Leon3-like in-order
SPARC-style core (uVHDL), the PUMA-like 2-issue and IVM-like 4-issue
out-of-order cores (verbose Verilog-95 with explicit replication), and the
two RAT rename units (compact Verilog-2001 with generate).

:mod:`repro.designs.catalog` lists every design and component with its
reported effort; :mod:`repro.designs.loader` reads their RTL and turns
their measurements (:meth:`repro.core.engine.Engine.measure_catalog`)
into an effort dataset.
"""

from repro.designs.catalog import (
    CATALOG,
    ComponentSpec,
    DesignSpec,
    component_specs,
)
from repro.designs.loader import load_sources, measured_dataset

__all__ = [
    "CATALOG",
    "ComponentSpec",
    "DesignSpec",
    "component_specs",
    "load_sources",
    "measured_dataset",
]
