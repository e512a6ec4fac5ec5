"""Reference comment strippers: the original character scanners, kept as a
test-only oracle for the single-regex strippers of :mod:`repro.hdl.metrics`.

The scanning code is the original, verbatim apart from the function names.
``test_strip_oracle.py`` checks that both produce identical text on any
input, so LoC counting (``splitlines()`` + ``strip()``) is unchanged.
"""

from __future__ import annotations


def strip_verilog_comments(text: str) -> str:
    """Blank out ``//`` and ``/* */`` comments, preserving line structure.

    A character scanner rather than a regex so that comment starters inside
    string literals (``"//not a comment"``) survive, and strings inside
    comments don't confuse the stripper.  Backslash escapes are honored
    inside strings; an unterminated string ends at the newline.
    """
    out: list[str] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == '"':
            out.append(ch)
            i += 1
            while i < n and text[i] != "\n":
                out.append(text[i])
                if text[i] == "\\" and i + 1 < n:
                    out.append(text[i + 1])
                    i += 2
                    continue
                if text[i] == '"':
                    i += 1
                    break
                i += 1
        elif ch == "/" and i + 1 < n and text[i + 1] == "/":
            while i < n and text[i] != "\n":
                i += 1
        elif ch == "/" and i + 1 < n and text[i + 1] == "*":
            i += 2
            while i < n and not (text[i] == "*" and i + 1 < n and text[i + 1] == "/"):
                if text[i] == "\n":
                    out.append("\n")
                i += 1
            i = min(i + 2, n)
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def strip_vhdl_comments(text: str) -> str:
    """Blank out ``--`` comments, preserving string literals.

    ``--`` inside a string literal (``"1--0"``) is data, not a comment; a
    doubled quote is VHDL's in-string escape.  Character literals need no
    tracking: they hold exactly one character, so no ``--`` fits inside.
    """
    out: list[str] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == '"':
            out.append(ch)
            i += 1
            while i < n and text[i] != "\n":
                out.append(text[i])
                if text[i] == '"':
                    if i + 1 < n and text[i + 1] == '"':
                        out.append(text[i + 1])
                        i += 2
                        continue
                    i += 1
                    break
                i += 1
        elif ch == "-" and i + 1 < n and text[i + 1] == "-":
            while i < n and text[i] != "\n":
                i += 1
        else:
            out.append(ch)
            i += 1
    return "".join(out)
