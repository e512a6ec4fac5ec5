"""HDL frontend substrate.

The designs the paper measures are written in VHDL (Leon3), Verilog-95
(PUMA, IVM), and Verilog-2001 (RAT).  This package provides frontends for
synthesizable subsets of those languages -- uVerilog and uVHDL -- that both
produce the *same* language-neutral AST (:mod:`repro.hdl.ast`), so the
elaborator and synthesis pipeline downstream are language-agnostic.

:mod:`repro.hdl.metrics` measures the two software metrics of Table 3
(``LoC`` and ``Stmts``) from source text and AST respectively.
"""

from dataclasses import fields, is_dataclass

from repro import lazy_exports
from repro.hdl.source import (
    VERILOG,
    VHDL,
    HdlSyntaxError,
    SourceFile,
    detect_language,
)
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace

#: Public name -> defining module, imported on first attribute access
#: (PEP 562): reading a source file or a cache key loads no parser.
_EXPORTS = {
    "Design": "repro.hdl.ast",
    "Module": "repro.hdl.ast",
    "count_loc": "repro.hdl.metrics",
    "count_statements": "repro.hdl.metrics",
    "parse_verilog": "repro.hdl.verilog",
    "parse_vhdl": "repro.hdl.vhdl",
    "software_metrics": "repro.hdl.metrics",
}

__all__ = sorted([
    *_EXPORTS,
    "HdlSyntaxError",
    "SourceFile",
    "VERILOG",
    "VHDL",
    "detect_language",
])

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)


def _count_ast_nodes(node: object) -> int:
    """Recursive dataclass-node count (only run when a tracer is active)."""
    if is_dataclass(node) and not isinstance(node, type):
        return 1 + sum(
            _count_ast_nodes(getattr(node, f.name)) for f in fields(node)
        )
    if isinstance(node, (tuple, list)):
        return sum(_count_ast_nodes(v) for v in node)
    if isinstance(node, dict):
        return sum(_count_ast_nodes(v) for v in node.values())
    return 0


def parse_source(source: "SourceFile") -> "Design":
    """Parse an HDL file, dispatching via :func:`detect_language`.

    Extension wins (.v/.sv vs .vhd/.vhdl); a file with an unknown suffix is
    recognized from its contents, so the LoC counter (which shares the same
    dispatch) always strips comments with the rules of the language the
    parser actually used.
    """
    language = detect_language(source)
    with obs_trace.span("parse.file", file=source.name) as sp:
        if language == VHDL:
            from repro.hdl.vhdl import parse_vhdl

            design = parse_vhdl(source)
        elif language == VERILOG:
            from repro.hdl.verilog import parse_verilog

            design = parse_verilog(source)
        else:
            raise ValueError(
                f"cannot infer HDL language from file name {source.name!r} "
                "or its contents; expected a .v/.sv or .vhd/.vhdl extension "
                "(or recognizable Verilog/VHDL text)"
            )
        obs_metrics.counter("hdl.files_parsed").inc()
        if obs_trace.active() is not None:
            obs_metrics.counter("hdl.ast_nodes").inc(_count_ast_nodes(design))
            sp.set_attr("modules", len(design.modules))
        return design
