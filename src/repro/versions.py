"""Pipeline stage revisions: the version salt of the on-disk cache.

Each constant is one stage's algorithm revision.  Bump it whenever that
stage changes what it produces for an accepted input; the cache
(:mod:`repro.cache`) folds every revision into its keys, so a bump starts
a fresh key space instead of serving stale products.  The stage modules
re-export their own constant under its old name
(``repro.synth.lower.SYNTH_VERSION``, ...).

This module imports nothing, so building a cache key loads no stage.
"""

#: uVerilog frontend: bump when parsing changes the AST of accepted sources.
VERILOG_PARSER_VERSION = 1

#: uVHDL frontend: bump when parsing changes the AST of accepted sources.
VHDL_PARSER_VERSION = 1

#: Elaboration: bump when its semantics change downstream synthesis products.
ELAB_VERSION = 1

#: Lowering and cell library: bump when they change the netlists produced.
SYNTH_VERSION = 2

#: Dataflow graph (:mod:`repro.flow`): synthesis reports embed its metrics.
FLOW_VERSION = 2

#: Lint rules: bump when any rule's semantics or message format changes.
LINT_VERSION = 2
