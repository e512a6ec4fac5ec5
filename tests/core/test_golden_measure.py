"""Golden measurements: strict results on every bundled component are pinned.

The sha256 of ``pickle.dumps(measurement, protocol=4)`` for each of the 18
bundled Table 2 components, measured strictly (``Engine.measure_component``,
no cache) inline (``jobs=1``) and through the supervised specialization
pool (``jobs=2``).  The values were recorded through the former raising
pipeline before it was folded into the fault-tolerant one, so they are the
reference that keeps that merge honest.

Inline and pool pickles of one component are pinned separately and never
compared with each other: every per-specialization report pickles equal on
both paths, but a whole pool measurement holds separate (unpickled) copies
where the inline one shares references, so the two byte streams differ.

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

#: ``jobs=1``: sha256 of the pickled strict inline measurement.
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

#: ``jobs=2``: sha256 of the pickled strict pool measurement.
POOL = {
    "IVM-Decode": "efb02fa5c884e789c9ca114dfb5572360c4b112ed944ee76906e0a9b0cde5353",
    "IVM-Execute": "c6bb7487f7bc919a877a313abbf51e1fa0dc4adfb6a88e1bb3419da2b31d79fd",
    "IVM-Fetch": "851cfe94c71c6fb6707385204235c87088f95eee7e286170df0f96b56bef15ad",
    "IVM-Issue": "31ea5259e400713b1a83856e968d41d77f861630af1b46d19c073eb5eebb46b6",
    "IVM-Memory": "a547bf12e8270a6cd6c47965782765dcac3dceb7bfe4611047a720d6916aec2c",
    "IVM-Rename": "ee2ec5369c377cbcdac0d6f6edda800f6588a0e06c0f8021a37321c7e8b105bc",
    "IVM-Retire": "fc1e11f387ab4c1804ff66912a548cf7a9d8a6c56e12a8fa52454816b85952db",
    "Leon3-Cache": "ff2051cd1422d7fc8e2be22ba6957505e2d5106540caba60f0b33c224f07bd3e",
    "Leon3-MMU": "94092786f6933e6b50deddf81d08f3c76cd129d6873dcfb7540efe0bef476f30",
    "Leon3-MemCtrl": "ae8c661376bf93c450587f5b89a20ce193911bf5d87030a94de4fbe220e41cd7",
    "Leon3-Pipeline": "a942f13dbaa02c4858dd86f226c8412eb848532444a1294269065c3c621d3710",
    "PUMA-Decode": "49efe6c19d760680ba416482c96d8e7500cb4dbb2a7b53e7aeb1376757fbc56d",
    "PUMA-Execute": "c2f1fec971d6dc3be3f3a86e543bff89f7a274c663c314bc12372f59b9d41c5e",
    "PUMA-Fetch": "c6679df1de146b0f531c0b9558ecae49878b33a8f8893d0695eeeb278fe00636",
    "PUMA-Memory": "2b53efc9e2d11e006cfd02c3ea106305ddaabfb2f6f453a60a063341b26d77be",
    "PUMA-ROB": "db1f82480af481269e1a60667832cce09cb6239bc8c6cae337f43b9e553b34df",
    "RAT-Sliding": "50295c712976c30016fde52466f35b37dbc76b96dedd0396baab94eb4481c261",
    "RAT-Standard": "0b43ed12fed35cd3e939db4f0129e77151671fa9e1573416bbd2f913855b58b0",
}

_SPECS = {spec.label: spec for spec in component_specs()}


def digest(measurement) -> str:
    return hashlib.sha256(pickle.dumps(measurement, protocol=4)).hexdigest()


def _measure(label: str, jobs: int):
    spec = _SPECS[label]
    return Engine(jobs=jobs).measure_component(
        load_sources(spec), spec.top, name=spec.label
    )


def test_every_bundled_component_is_pinned():
    assert set(_SPECS) == set(INLINE) == set(POOL)


@pytest.mark.parametrize("label", sorted(INLINE))
def test_inline_measurement_is_byte_identical(label):
    assert digest(_measure(label, jobs=1)) == INLINE[label]


@pytest.mark.parametrize("label", sorted(POOL))
def test_pool_measurement_is_byte_identical(label):
    assert digest(_measure(label, jobs=2)) == POOL[label]
