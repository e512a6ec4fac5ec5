"""Cache key formulas are part of the on-disk format: pin them.

A key that silently changes orphans every existing entry (a cold cache
after an upgrade that changed nothing semantic), so the formulas are
restated here independently of :mod:`repro.cache`.
"""

from __future__ import annotations

import hashlib

from repro.cache import SynthesisCache, content_key
from repro.hdl.source import SourceFile
from repro.lint.rules import LINT_VERSION

SOURCES = (
    SourceFile("a.v", "module a; endmodule\n"),
    SourceFile("b.v", "module b(input x); endmodule\n"),
    SourceFile("empty.v", ""),
)
RULES = ["W002", "ACC001", "ACC002"]


def _reference_lint_key(salt, sources, enabled_rules):
    """The whole-run lint key formula, hashed from scratch."""
    parts = [
        salt,
        f"lint{LINT_VERSION}",
        "rules=" + ",".join(sorted(set(enabled_rules))),
    ]
    parts += [f"{source.name}\x00{source.text}" for source in sources]
    h = hashlib.sha256()
    for part in parts:
        h.update(b"\x00part\x00")
        h.update(part.encode("utf-8"))
    return h.hexdigest()


def test_lint_key_matches_reference_formula(tmp_path):
    for cache in (SynthesisCache(tmp_path),
                  SynthesisCache(tmp_path, salt="pinned-salt")):
        assert cache.lint_key(SOURCES, RULES) == _reference_lint_key(
            cache.salt, SOURCES, RULES
        )
        # Any iterables: the key reads each exactly once.
        assert cache.lint_key(iter(SOURCES), iter(RULES)) == (
            cache.lint_key(SOURCES, RULES)
        )
    unicode = (SourceFile("unicode_é.v", "// é\nmodule é; endmodule\n"),)
    assert SynthesisCache(tmp_path).lint_key(unicode, []) == (
        _reference_lint_key(SynthesisCache(tmp_path).salt, unicode, [])
    )


def test_lint_key_separates_names_order_texts_and_rules(tmp_path):
    cache = SynthesisCache(tmp_path)
    base = cache.lint_key(SOURCES, RULES)
    renamed = (SourceFile("renamed.v", SOURCES[0].text),) + SOURCES[1:]
    assert cache.lint_key(renamed, RULES) != base
    assert cache.lint_key(tuple(reversed(SOURCES)), RULES) != base
    assert cache.lint_key(SOURCES[:2], RULES) != base
    edited = (SourceFile("a.v", "module a2; endmodule\n"),) + SOURCES[1:]
    assert cache.lint_key(edited, RULES) != base
    assert cache.lint_key(SOURCES, RULES[:2]) != base
    # A name/text boundary cannot shift between the two.
    assert cache.lint_key([SourceFile("ab", "c")], RULES) != cache.lint_key(
        [SourceFile("a", "bc")], RULES
    )
    # Rule order (and repeats) are canonicalized.
    assert cache.lint_key(SOURCES, list(reversed(RULES))) == base
    assert cache.lint_key(SOURCES, RULES + RULES[:1]) == base


class TestContentKey:
    def test_deterministic(self):
        assert content_key("a", "b") == content_key("a", "b")

    def test_parts_are_unambiguous(self):
        # "ab" + "c" must not collide with "a" + "bc".
        assert content_key("ab", "c") != content_key("a", "bc")
        assert content_key("a") != content_key("a", "")
