"""One component measured the only way the engine offers: a batch of one
through :meth:`repro.core.engine.Engine.measure_components`."""

from repro.core.accounting import AccountingPolicy
from repro.core.workflow import ComponentSpec


def measure_one(engine, sources, top, *, name=None,
                policy=AccountingPolicy.recommended(), strict=False,
                lint=False):
    """The ``Result`` for ``sources`` measured as the component ``name``
    (default ``top``); with ``engine.cache``, a memo hit when warm."""
    spec = ComponentSpec(name or top, tuple(sources), top, policy)
    batch = engine.measure_components([spec], strict=strict, lint=lint)
    return batch.results[spec.name]


def measure_strict(engine, sources, top, **kwargs):
    """:func:`measure_one` in strict mode, unwrapped: the first failure
    raises."""
    return measure_one(engine, sources, top, strict=True, **kwargs).unwrap()
