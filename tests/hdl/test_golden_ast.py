"""Golden ASTs: the pickled design of every bundled RTL file is pinned.

The frontend's output feeds every cache key and every metric.  A change in
any of these hashes means parsing changed an accepted source's AST, and
``PARSER_VERSION`` (both frontends) must be bumped with the new hashes.
"""

import hashlib
import pickle
from pathlib import Path

import pytest

from repro.hdl import parse_source
from repro.hdl.source import SourceFile
from repro.hdl.verilog.parser import PARSER_VERSION as VERILOG_PARSER_VERSION
from repro.hdl.vhdl.parser import PARSER_VERSION as VHDL_PARSER_VERSION

RTL = Path(__file__).resolve().parents[2] / "src" / "repro" / "designs" / "rtl"

#: sha256 of ``pickle.dumps(parse_source(file), protocol=4)``.
GOLDEN = {
    "ivm/decode.v": "cfa5c8dd5ccb220625aa3a1a35cd7a902232a4c3b6ca4e8243c5b7b44028a6dd",
    "ivm/execute.v": "f66ccbdddb5acc3824643e8eac47e747f8bfe1a172002e00180123001f62a49b",
    "ivm/fetch.v": "3a5e1d5387d5e3d394f6c34eec9864aff032fdad2fe1a684310711971f5ec5cb",
    "ivm/issue.v": "20d6779319f69b502b5fdb3ec1ec3323c062d141438f920fe40ff2c37882cdda",
    "ivm/memory.v": "5ecd7e474f0e29572e73ad46ccd267c88eba7a2c10713e24afce22b3b65e53e0",
    "ivm/rename.v": "906f5d8cc432951744823f5ae3cfea871c9ccf6537c7ade834461215eb40fdce",
    "ivm/retire.v": "e0e362c109826793a9c459a347fadd2b6ee8cfc09ed2b64f6583b847f8dd3dfb",
    "leon3/cache.vhd": "513556081aed9c64ec33bfdafa319c6b26fa5d33021a7c0c7c6b364ac8a13513",
    "leon3/memctrl.vhd": "e944e89f901a9f95cf741a775e371ddcba9031a1d00c3b829131df328656e8d4",
    "leon3/mmu.vhd": "de0cf38f0a52b0d9f7f628225d9125c860091a30f4a2287455e9183017548136",
    "leon3/pipeline.vhd": "77c4b7d65ec58e22918f5c991ae5a1dd0ea6a5d4c463f426246fcea0f9ecdf6e",
    "puma/decode.v": "d5093bf5349bc0bd58601a46db70ede5e6fa33a1762debd504324839a88dc926",
    "puma/execute.v": "1a05533a5c7727e509cacf3055c167ab04cf4f8b97ad1fb488bedcb502adc770",
    "puma/fetch.v": "ff67d77da2d5bd7fad75355fb4ddb4e272c649c6bb49ec38251a3a622067a3d1",
    "puma/memory.v": "97b6052db5868d90aa9478f3db92a0436ab8513cf6f6e64dff8385e7e9b390b2",
    "puma/rob.v": "23a6bf45321e4b0069ae7f7a15161f89c557e2d148c19c1040f849b0da1336f1",
    "rat/rat_sliding.v": "fc3964bf922b39f6f4e923d18d48174a5e9716d5e4f816d331be36a0d2a60841",
    "rat/rat_standard.v": "dc2d0b657659307beb2fcd6464f7bdac3222cc4d84237583f08b2fd8c68cbe5f",
}


def test_every_bundled_file_is_pinned():
    bundled = {p.relative_to(RTL).as_posix() for p in RTL.rglob("*.v*")}
    assert bundled == set(GOLDEN)


def test_parser_versions_match_the_pins():
    assert VERILOG_PARSER_VERSION == VHDL_PARSER_VERSION == 1


@pytest.mark.parametrize("rel", sorted(GOLDEN))
def test_pickled_design_is_byte_identical(rel):
    design = parse_source(SourceFile.from_path(RTL / rel))
    digest = hashlib.sha256(pickle.dumps(design, protocol=4)).hexdigest()
    assert digest == GOLDEN[rel]
