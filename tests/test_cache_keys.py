"""Cache key formulas are part of the on-disk format: pin them.

A key that silently changes orphans every existing entry (a cold cache
after an upgrade that changed nothing semantic), so the formulas are
restated here independently of :mod:`repro.cache`.
"""

from __future__ import annotations

import hashlib

from repro.cache import SynthesisCache
from repro.lint.rules import LINT_VERSION

SOURCES = ("module a; endmodule\n", "module b(input x); endmodule\n", "")
RULES = ["W002", "ACC001", "ACC002"]


def _reference_lint_key(salt, source_texts, module, enabled_rules):
    """The per-module lint key formula, hashed from scratch."""
    h = hashlib.sha256()
    h.update(salt.encode("utf-8"))
    h.update(f"\x00lint{LINT_VERSION}\x00".encode("utf-8"))
    for text in source_texts:
        h.update(b"\x00source\x00")
        h.update(text.encode("utf-8"))
    h.update(b"\x00module\x00" + module.encode("utf-8"))
    for rule in sorted(enabled_rules):
        h.update(f"\x00rule\x00{rule}".encode("utf-8"))
    return h.hexdigest()


def test_lint_key_matches_reference_formula(tmp_path):
    cache = SynthesisCache(tmp_path)
    for module in ("a", "b", "unicode_é"):
        assert cache.lint_key(SOURCES, module, RULES) == _reference_lint_key(
            cache.salt, SOURCES, module, RULES
        )


def test_lint_keys_batch_equals_per_module_keys(tmp_path):
    cache = SynthesisCache(tmp_path, salt="pinned-salt")
    modules = ["a", "b", "c", "a"]
    assert cache.lint_keys(iter(SOURCES), modules, iter(RULES)) == [
        _reference_lint_key("pinned-salt", SOURCES, m, RULES) for m in modules
    ]
    assert cache.lint_keys(SOURCES, [], RULES) == []


def test_lint_keys_separate_modules_rules_and_sources(tmp_path):
    cache = SynthesisCache(tmp_path)
    base = cache.lint_key(SOURCES, "a", RULES)
    assert cache.lint_key(SOURCES, "b", RULES) != base
    assert cache.lint_key(SOURCES, "a", RULES[:2]) != base
    assert cache.lint_key(SOURCES[:2], "a", RULES) != base
    # Rule order is canonicalized.
    assert cache.lint_key(SOURCES, "a", list(reversed(RULES))) == base
