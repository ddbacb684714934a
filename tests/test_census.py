"""The census golden of `tests/census.py` on SMALL_CORPUS (3,464 towers, six
commands each); the corpus driver checks DRIVER_CORPUS."""

import copy

import census
from corpus import SMALL_CORPUS, small_towers


def test_every_small_tower_gives_the_recorded_bytes():
    towers, bad = census.census_mismatches(SMALL_CORPUS)
    assert bad == [] and towers == 3464


def test_a_mismatch_names_its_command_and_first_differing_block(monkeypatch):
    forged = copy.deepcopy(census.golden())
    entry = forged["p=1 depth=3"]["fan"]
    entry["sha256"], entry["blocks"][1] = "0" * 64, "0" * 64
    monkeypatch.setattr(census, "golden", lambda: forged)
    towers, bad = census.census_mismatches(((1, 3),))
    assert towers == len(small_towers(1, 3)) == 156
    first = " ".join(census.emit_tower(small_towers(1, 3)[100]).split())
    assert bad == [f"fan p=1 depth=3: block 1 (towers 100..155) differs; its first document: {first}"]
