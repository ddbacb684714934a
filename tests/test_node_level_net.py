"""Each node level build_model makes, against the two-step route it replaced.

build_model lifts the maximal regular faces of the level below straight
into a node level: `toric._regular_faces`, then one `lattice.derived_fan`,
one Fan per level.  `tests/oracles.py` keeps the old route, the regularity
subfan (by the walk oracle) built as a fan of its own and then lifted, and
`corpus.node_level_mismatches` compares rays, maximal cones, cone
generators and every facet mask.  The net is every tower over base
dimension p <= 2 of depth 2 or 3 with node exponents in [-2, 2] (3,464
towers), the stress tower, the 8-cube tower, 30 draws of the stress shape
and depth-5 draws where a node move keeps faces of several cones; the
corpus driver runs it on the p = 1, depth 4 extension (19,656 more towers)
outside tier-1.
"""

import random

import torictower.tower as tower
from corpus import CUBE_TOWER, SMALL_CORPUS, STRESS_TOWER, corpus_models, node_level_mismatches, shaped_tower
from torictower.lattice import Fan
from torictower.toric import _regular_faces
from torictower.tower import NodeMove, ProductMove, TowerSpec, build_model


def near_cap_specs():
    rng = random.Random(20261021)
    return [STRESS_TOWER, CUBE_TOWER] + [shaped_tower(rng) for _ in range(30)]


def test_node_levels_match_the_two_step_route_on_every_small_tower():
    models = corpus_models(SMALL_CORPUS)
    assert len(models) == 3464
    levels, bad = node_level_mismatches(models)
    assert bad == [] and levels > len(models)


def test_node_levels_match_the_two_step_route_on_near_cap_towers():
    models = [build_model(spec) for spec in near_cap_specs()]
    levels, bad = node_level_mismatches(models)
    assert bad == [] and levels > len(models)


def test_node_levels_match_the_two_step_route_where_faces_come_from_several_cones():
    # in the towers above every kept face is found under the first maximal cone; here level 2 is a
    # cone over a square, and a move above it often keeps a face found under another cone
    rng = random.Random(20261022)
    draw = lambda n: tuple(rng.randint(-2, 2) for _ in range(n))  # noqa: E731
    specs = [
        TowerSpec(2, (NodeMove((), (rng.randint(1, 2), rng.randint(1, 2))), NodeMove(draw(1), draw(2)),
                      NodeMove(draw(2), draw(2)), ProductMove()))
        for _ in range(300)
    ]
    models = [build_model(spec) for spec in specs]
    elsewhere = [
        (model.spec, i) for model in models for i, move in enumerate(model.spec.moves)
        if isinstance(move, NodeMove) and any(k for k, _ in _regular_faces(model.levels[i].fan, move.lattice_exponents()))
    ]
    assert len(elsewhere) >= 30
    assert node_level_mismatches(models)[1] == []


def test_build_model_builds_one_fan_per_level(monkeypatch):
    """One Fan per level with no level kept, and only the orthant again once
    every level above it is kept."""
    built, inner = [], Fan.__init__
    monkeypatch.setattr(Fan, "__init__", lambda self, *args: built.append(self) or inner(self, *args))
    for spec in near_cap_specs() + [model.spec for model in corpus_models(SMALL_CORPUS)]:
        tower._LEVELS.clear()
        built.clear()
        model = build_model(spec)
        assert len(built) == model.depth == spec.depth, spec
        assert [level.fan for level in model.levels] == built
        built.clear()
        assert build_model(spec).levels[1:] == model.levels[1:] and len(built) == 1, spec
