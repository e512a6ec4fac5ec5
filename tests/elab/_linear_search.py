"""Reference search: the linear minimal-parameter scan, kept as a
test-only oracle for :func:`repro.elab.degeneracy.minimal_parameters`.

``linear_search`` is the original ``_search_minimal``, verbatim apart
from its name: every candidate from 1 upward costs one full
``degeneracy_events`` trial.  ``test_minimal_oracle.py`` checks that the
production search, which skips candidates the module header already
proves degenerate, returns equal ``values`` and ``blockers``.
"""

from __future__ import annotations

from repro.elab.consteval import eval_const
from repro.elab.degeneracy import (
    MAX_PARAM_SEARCH,
    BlockedMinimization,
    DegeneracyEvent,
    MinimalParameters,
    degeneracy_events,
)
from repro.hdl import ast


def linear_search(
    design: ast.Design, module_name: str, max_rounds: int
) -> MinimalParameters:
    """The uncached fixpoint search behind :func:`minimal_parameters`."""
    module = design.module(module_name)
    params = [p.name for p in module.params]
    if not params:
        return MinimalParameters()
    defaults: dict[str, int] = {}
    env: dict[str, int] = {}
    for p in module.params:
        defaults[p.name] = eval_const(p.default, env)
        env[p.name] = defaults[p.name]

    current = dict(defaults)
    blocked: dict[str, BlockedMinimization] = {}
    for _ in range(max_rounds):
        previous = dict(current)
        for name in params:
            chosen = None
            last_events: tuple[DegeneracyEvent, ...] = ()
            last_candidate = 0
            for candidate in range(1, MAX_PARAM_SEARCH + 1):
                trial = dict(current)
                trial[name] = candidate
                events = degeneracy_events(design, module_name, trial)
                if not events:
                    chosen = candidate
                    break
                last_events = tuple(events)
                last_candidate = candidate
            current[name] = chosen if chosen is not None else defaults[name]
            if last_candidate:
                blocked[name] = BlockedMinimization(
                    parameter=name,
                    rejected_value=last_candidate,
                    events=last_events,
                )
            else:
                blocked.pop(name, None)
        if current == previous:
            break
    return MinimalParameters(
        values=current,
        blockers=tuple(blocked[n] for n in params if n in blocked),
    )
