"""The corpus driver of `tests/corpus.py`, on the 6 towers over p = 1 of depth 2."""

import importlib

import pytest

import corpus

NETS = ("facet", "node levels", "regular faces", "lc", "certificate", "support", "halfspace memos", "cartier routes",
        "volumes", "census")


@pytest.fixture
def built(monkeypatch):
    """The towers build_model is called on while the driver runs on the tiny corpus."""
    monkeypatch.setattr(corpus, "DRIVER_CORPUS", ((1, 2),))
    monkeypatch.setattr(corpus, "SMALL_CORPUS", ((1, 2),))
    monkeypatch.setattr(corpus, "MEMO_SEEDS", range(1))
    monkeypatch.setattr(corpus, "REFINED_PRODUCTS", 2)
    calls, inner = [], corpus.build_model
    monkeypatch.setattr(corpus, "build_model", lambda spec: calls.append(spec) or inner(spec))
    corpus.models.cache_clear()
    yield calls
    corpus.models.cache_clear()


def test_the_driver_prints_one_line_per_net_and_builds_each_tower_once(built, capsys):
    assert corpus.main() == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == list(NETS)
    # a one-cone level 1 and level 2 per tower, and the one-cone regular subfan below each of the 5 node moves
    assert lines[0] == "facet: 6 towers, 17 cones, 0 mismatches"
    assert all(line.endswith((" 0 mismatches", " 0 face-mask mismatches", " 0 with a negative ray or an uncertified cone"))
               for line in lines)
    assert built == corpus.small_towers(1, 2)  # every net and both corpora share one build


# (module, mismatch function, what it returns with one forged mismatch)
FORGED = [
    ("test_facet_net", "facet_mismatches", (1, ["forged"])),
    ("corpus", "node_level_mismatches", (1, ["forged"])),
    ("test_regular_face_net", "regular_face_mismatches", (1, ["forged"])),
    ("test_regular_face_net", "face_mask_mismatches", ["forged"]),
    ("test_lc_net", "lc_mismatches", (1, ["forged"])),
    ("corpus", "uncertified_levels", ["forged"]),
    ("test_support_net", "support_mismatches", (1, 1, ["forged"])),
    ("corpus", "halfspace_memo_mismatches", (1, 1, ["forged"])),
    ("corpus", "cartier_route_mismatches", (1, 1, ["forged"])),
    ("corpus", "volume_mismatches", (1, ["forged"])),
    ("census", "census_mismatches", (1, ["forged"])),
]


@pytest.mark.parametrize("module, name, forged", FORGED, ids=[name for _, name, _ in FORGED])
def test_the_driver_fails_on_a_mismatch_in_any_net(built, monkeypatch, capsys, module, name, forged):
    monkeypatch.setattr(importlib.import_module(module), name, lambda *args: forged)
    assert corpus.main() == 1
    # a census mismatch prints its own line below the census line
    assert len(capsys.readouterr().out.splitlines()) == len(NETS) + (name == "census_mismatches")
