"""Software metrics (Table 3): lines of code and statement counts.

* ``LoC`` counts source lines that contain something other than whitespace
  or comments -- the conventional "non-blank, non-comment" definition.
* ``Stmts`` counts statements in the parsed AST: declarations, continuous
  assignments, instantiations, and procedural statements (assignments,
  ifs, cases, loops), counted once per appearance in the source (generate
  bodies are *not* multiplied out -- these are source-text metrics, so the
  accounting procedure of Section 2.2 does not affect them).
"""

from __future__ import annotations

import re

from repro.hdl import ast
from repro.hdl.source import VERILOG, VHDL, SourceFile, detect_language


#: One alternation per language: a string literal (kept verbatim) or a
#: comment (dropped).  Matching strings first is what keeps comment
#: starters inside them (``"//not a comment"``, ``"1--0"``) as code.  A
#: string ends at its closing quote or, unterminated, before the newline;
#: Verilog honors backslash escapes, VHDL a doubled quote.  An unterminated
#: ``/*`` runs to the end of the text.
_COMMENT_RES = {
    VERILOG: re.compile(
        r'"(?:\\[\s\S]|[^"\\\n])*"?|//[^\n]*|/\*[\s\S]*?(?:\*/|\Z)'
    ),
    VHDL: re.compile(r'"(?:""|[^"\n])*"?|--[^\n]*'),
}


def _blank_comment(match: re.Match) -> str:
    # A comment becomes the newlines it spanned, so line structure holds.
    text = match.group()
    return text if text[0] == '"' else "\n" * text.count("\n")


def strip_comments(text: str, language: str) -> str:
    """``text`` with every comment blanked out and line structure kept."""
    pattern = _COMMENT_RES.get(language)
    if pattern is None:
        raise ValueError(f"unknown HDL language {language!r}")
    return pattern.sub(_blank_comment, text)


def count_loc(source: SourceFile, language: str | None = None) -> int:
    """Non-blank, non-comment lines in an HDL source file.

    Comment syntax is chosen by ``language`` (``"verilog"``/``"vhdl"``),
    defaulting to :func:`~repro.hdl.source.detect_language` -- the same
    dispatch the parser uses -- so a VHDL source without a ``.vhd`` suffix
    is stripped with VHDL rules, not Verilog's.  An unrecognizable source
    falls back to Verilog rules (the historical behavior) rather than
    failing a metrics pass.
    """
    if language is None:
        language = detect_language(source) or VERILOG
    text = strip_comments(source.text, language)
    return sum(1 for line in text.splitlines() if line.strip())


def count_statements(design: ast.Design | ast.Module) -> int:
    """Statement count over a module or a whole design."""
    if isinstance(design, ast.Module):
        modules = [design]
    else:
        modules = list(design.modules.values())
    total = 0
    for module in modules:
        total += len(module.ports)
        total += _count_items(module.items)
    return total


def _count_items(items: tuple[ast.Item, ...]) -> int:
    count = 0
    for item in items:
        if isinstance(item, (ast.ParamDecl, ast.SignalDecl, ast.Instance)):
            count += 1
        elif isinstance(item, ast.ContinuousAssign):
            count += 1
        elif isinstance(item, ast.ProcessBlock):
            count += 1 + _count_stmts(item.body)
        elif isinstance(item, ast.GenerateFor):
            count += 1 + _count_items(item.body)
        elif isinstance(item, ast.GenerateIf):
            count += 1 + _count_items(item.then_body) + _count_items(item.else_body)
        else:
            raise TypeError(f"unknown item {type(item).__name__}")
    return count


def _count_stmts(stmts: tuple[ast.Stmt, ...]) -> int:
    count = 0
    for stmt in stmts:
        if isinstance(stmt, ast.Assign):
            count += 1
        elif isinstance(stmt, ast.If):
            count += 1 + _count_stmts(stmt.then_body) + _count_stmts(stmt.else_body)
        elif isinstance(stmt, ast.Case):
            count += 1
            for item in stmt.items:
                count += _count_stmts(item.body)
        elif isinstance(stmt, ast.For):
            count += 1 + _count_stmts(stmt.body)
        else:
            raise TypeError(f"unknown statement {type(stmt).__name__}")
    return count


def software_metrics(
    sources: list[SourceFile], design: ast.Design
) -> dict[str, float]:
    """``LoC`` and ``Stmts`` for a component's source files."""
    return {
        "LoC": float(sum(count_loc(s) for s in sources)),
        "Stmts": float(count_statements(design)),
    }
