"""Golden measurements: strict results on every bundled component are pinned.

The sha256 of ``pickle.dumps(measurement, protocol=4)`` for each of the 18
bundled Table 2 components, measured strictly (a batch of one through
``Engine.measure_components``, no cache).  The values were recorded through the former raising pipeline
before it was folded into the fault-tolerant one, so they are the
reference that keeps that merge honest.

One component's specializations run inline at any pool width (the pool's
unit of work is a whole component), so an ``Engine(jobs=2)`` measurement
must give the very bytes pinned for ``jobs=1``: nothing is dispatched,
so nothing is unpickled into separate copies where the inline result
shares references.

A changed hash means measurement changed; bump ``repro.cache.SALT`` with
the new hashes.  The pins were recorded on CPython 3.11 with numpy 2.4
(scipy-openblas); the dataflow metrics come from LAPACK eigenvalue
solves, so a different BLAS build may move a last bit and show up here
without any pipeline change.
"""

import hashlib
import pickle

import pytest

from repro.core.engine import Engine
from repro.designs.catalog import component_specs
from repro.designs.loader import load_sources
from tests._measure import measure_strict

#: sha256 of the pickled strict measurement, at any ``jobs``.
INLINE = {
    "IVM-Decode": "4ca2d0256c4f2800cb351acc23464db5e4a66bc2165053e162ed8ce606df9931",
    "IVM-Execute": "3188c576d5be714dced10e1a8dea5d803ee3d213dfc0b0b0881cc365553c7eee",
    "IVM-Fetch": "8c3cf56575b8df23575bd5274a4f1ef2e4832a74df45a23368f6d4b1bcb7ab80",
    "IVM-Issue": "7adc17279919e548201d65f95b3ef620feb38254eebe9605ec4c0a6f819ae98b",
    "IVM-Memory": "ac8c2a1ef25ec553918fd9b46993a017b201e8b2c967dbe0d0c9825379e36b4a",
    "IVM-Rename": "02917e4860412f7586a15e1cf024910a12acf267394f19aed44c5e98deb3e5ae",
    "IVM-Retire": "34a5708ec4839d538f52e5a5df5182078d549aeb5bd49460cd15ed9c44884098",
    "Leon3-Cache": "1a2d037337ed0bb9c4beef105d295a2b9f1f592da6a4d4d0f56d8f7bd99404d6",
    "Leon3-MMU": "e9f344894fce4a46a2cec8eb74778191ea889524babbfa56ecd2d2a3e07bdc5c",
    "Leon3-MemCtrl": "68bc882d97b7e0a527f9625629e15456c261d274d6184d0f06f1d1180569572e",
    "Leon3-Pipeline": "e7ee784b83e40177acdac50c8ab4c8f74475cf9a0052c12a6b7563de204a86c4",
    "PUMA-Decode": "a34bc52c46d1fb56320c20a469bdd1a4deb8eb734b1515fe046d552d98b3749b",
    "PUMA-Execute": "399c16e4a7a6e1fa8f87e6941933efed18570ec6acd578690efd01358933dcd7",
    "PUMA-Fetch": "a3008ed34505979b3049dbf0ac7a1e546ccc1908cbe8734ed70ee7d3cf7a28d5",
    "PUMA-Memory": "6a390394e9c66d600b134ad973d202b3f7f1452b4afcc158f18ed68777f9373d",
    "PUMA-ROB": "f84f797b229b6de586c0407b1cc027c9b50f31f6555955f9d220c2a293865953",
    "RAT-Sliding": "08f1b6305e9451beb4a44ca4dd62fab64f1aba94d94f20959c52ef4e33a6e19b",
    "RAT-Standard": "e78587e61ffe6e5ae9953b90d212e43dc098b35aea3320067866b8a391e9fb83",
}

_SPECS = {spec.label: spec for spec in component_specs()}


def digest(measurement) -> str:
    return hashlib.sha256(pickle.dumps(measurement, protocol=4)).hexdigest()


def _measure(label: str, jobs: int):
    spec = _SPECS[label]
    return measure_strict(
        Engine(jobs=jobs), load_sources(spec), spec.top, name=spec.label
    )


def test_every_bundled_component_is_pinned():
    assert set(_SPECS) == set(INLINE)


@pytest.mark.parametrize("label", sorted(INLINE))
def test_inline_measurement_is_byte_identical(label):
    assert digest(_measure(label, jobs=1)) == INLINE[label]


@pytest.mark.parametrize("label", sorted(INLINE))
def test_pool_measurement_is_byte_identical(label):
    # A pool-width engine measures one component inline: the inline pin.
    assert digest(_measure(label, jobs=2)) == INLINE[label]
