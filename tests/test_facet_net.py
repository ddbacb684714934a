"""The facet masks build_model derives, against a double description per cone.

A level fan takes each cone's facets from the level below (see
`Fan.facet_masks` and the `tower` module docstring), so the net is every
cone of every level fan and of the regularity subfan below each node move, on
every tower over base dimension p <= 2 of depth 2 or 3 with node exponents
in [-2, 2] (3,464 towers), the near-cap stress tower, 30 draws of the stress
shape, the 8-cube tower and depth-5 draws where moves lift several cones;
and on the regularity subfans of complete fans.  The towers and their models
come from `tests/corpus.py`, whose driver runs the p = 1, depth 4 extension
(19,656 more towers) outside tier-1.  The halfspaces that the fan builders
and star subdivision set on a cone are checked here too, against a double
description of the cone's generators (`corpus.halfspace_memo_mismatches`).
"""

import itertools
import random

import torictower.lattice
from corpus import (
    CUBE_TOWER,
    SMALL_CORPUS,
    STRESS_TOWER,
    corpus_models,
    halfspace_memo_mismatches,
    shaped_tower,
    small_towers,
)
from oracles import facet_masks_oracle, star_subdivision_oracle
from test_golden import run_cli
from torictower.documents import emit_tower
from torictower.lattice import Fan, fan_validate, orthant_fan, product_fan, projective_fan
from torictower.toric import boundary_divisor, cartier_data, regularity_subfan, star_subdivision
from torictower.tower import NodeMove, ProductMove, TowerSpec, build_model


def facet_mismatches(models):
    """(number of cones, [(tower, fan, cone index)] whose derived facet masks
    differ from the oracle's), over the level fans and the regularity subfan
    of the level below each node move."""
    cones, bad = 0, []
    for model in models:
        spec, levels = model.spec, model.levels
        fans = [(f"level {i + 1}", level.fan) for i, level in enumerate(levels)]
        fans += [(f"regular in level {i + 1}", regularity_subfan(levels[i].fan, move.lattice_exponents()))
                 for i, move in enumerate(spec.moves) if isinstance(move, NodeMove)]
        for where, fan in fans:
            for k in range(len(fan.maximal_cones)):
                cones += 1
                if fan.facet_masks(k) != facet_masks_oracle(fan, k):
                    bad.append((spec, where, k))
    return cones, bad


def test_derived_facet_masks_match_oracle_on_every_small_tower():
    models = corpus_models(SMALL_CORPUS)
    assert len(models) == 3464
    cones, bad = facet_mismatches(models)
    assert bad == [] and cones > len(models)


def test_derived_facet_masks_match_oracle_on_near_cap_towers():
    rng = random.Random(20261018)
    specs = [STRESS_TOWER, CUBE_TOWER] + [shaped_tower(rng) for _ in range(30)]
    assert facet_mismatches(map(build_model, specs))[1] == []
    assert len(build_model(CUBE_TOWER).levels[-1].fan.all_rays) == 256


def test_derived_facet_masks_match_oracle_where_a_move_meets_several_cones():
    # below depth 4 every move lifts a one-cone level; here level 2 is a cone
    # over a square, so levels 3 and 4 often have several cones
    rng = random.Random(20261020)
    draw = lambda n: tuple(rng.randint(-2, 2) for _ in range(n))  # noqa: E731
    specs = [
        TowerSpec(2, (NodeMove((), (rng.randint(1, 2), rng.randint(1, 2))), NodeMove(draw(1), draw(2)),
                      NodeMove(draw(2), draw(2)), ProductMove()))
        for _ in range(300)
    ]
    models = [build_model(spec) for spec in specs]
    assert sum(len(model.levels[2].fan.maximal_cones) > 1 for model in models) >= 30
    assert sum(len(model.levels[3].fan.maximal_cones) > 1 for model in models) >= 30
    assert facet_mismatches(models)[1] == []


def test_regularity_subfan_facets_match_oracle_on_complete_fans():
    for fan in [projective_fan(n) for n in (2, 3, 4)] + [product_fan(projective_fan(1), projective_fan(2))]:
        for m in itertools.product(range(-1, 2), repeat=fan.ambient_dim):
            sub = regularity_subfan(fan, m)
            for k in range(len(sub.maximal_cones)):
                assert sub.facet_masks(k) == facet_masks_oracle(sub, k), (fan, m, k)


def test_star_subdivision_of_derived_level_fans_matches_oracle():
    rng = random.Random(20261019)
    specs = small_towers(2, 3)[::97] + [shaped_tower(rng)]
    subdivided = 0
    for spec in specs:
        for level in build_model(spec).levels[:5]:
            fan = level.fan
            cone = rng.choice(fan.maximal_cones)
            if not cone.generators:
                continue
            subset = rng.sample(cone.generators, rng.randint(1, len(cone.generators)))
            coeffs = [rng.randint(1, 2) for _ in subset]
            v = tuple(sum(c * g[i] for c, g in zip(coeffs, subset)) for i in range(fan.ambient_dim))
            assert star_subdivision(fan, v) == star_subdivision_oracle(fan, v), (spec, v)
            subdivided += 1
    assert subdivided > 50


def test_build_model_and_local_model_run_no_double_description(monkeypatch):
    calls = []
    inner = torictower.lattice.halfspace_intersection
    monkeypatch.setattr(torictower.lattice, "halfspace_intersection", lambda *a: calls.append(a) or inner(*a))
    levels = build_model(STRESS_TOWER).levels
    for level in levels:
        level.fan.face_masks()
    assert run_cli(["local-model", "--input", "-"], emit_tower(STRESS_TOWER))["exit"] == 0
    assert calls == []
    top = levels[-1].fan
    Fan(top.ambient_dim, top.maximal_cones).facet_masks(0)  # the same cone in a plain Fan: one DD
    assert len(calls) == 1


def test_carried_halfspace_memos_match_the_double_description():
    # seeds 0-7 here; tests/corpus.py's driver runs MEMO_SEEDS, 8-99
    carried, left, bad = halfspace_memo_mismatches(range(8))
    assert bad == []
    assert carried > 10_000 and left > 0  # a lower-dimensional cone's pieces and products keep no memo


def test_refined_products_run_no_double_description(monkeypatch):
    calls = []
    inner = torictower.lattice.halfspace_intersection
    monkeypatch.setattr(torictower.lattice, "halfspace_intersection", lambda *a: calls.append(a) or inner(*a))
    for fan in (product_fan(projective_fan(2), projective_fan(3)), product_fan(orthant_fan(2), projective_fan(2))):
        for k in range(4):
            cone = fan.maximal_cones[7 * k % len(fan.maximal_cones)]
            fan = star_subdivision(fan, tuple(map(sum, zip(*cone.generators[:2 + k]))))
        assert fan_validate(fan) == []
        assert cartier_data(fan, boundary_divisor(fan)).cartier_index == 1
        assert all(fan.cone_index(u) is not None for u in fan.all_rays)
    assert calls == []
