"""The directed regular-face search (`toric._regular_faces`, read here
through `regularity_subfan`) and the shared walk of `Fan.face_masks`,
against the walks they replaced.

The search steps from a face only to its intersections with the
facets that miss its lowest irregular ray, and `Fan.face_masks` walks a
face shared by several maximal cones once; `tests/oracles.py` keeps the
walk of every non-regular face and the per-cone union.  A subfan matches
when its maximal cones and the facet masks its rule derives are the
oracle's.  The net is every level fan of every tower over base dimension
p <= 2 of depth 2 or 3 with node exponents in [-2, 2] (3,464 towers), with
the character of the node move above it and three seeded characters, the
near-cap stress tower, 30 draws of the stress shape, the 8-cube tower and
two cube-cone fans.  The towers, their models and the cube-cone fans come
from `tests/corpus.py`, whose driver runs the p = 1, depth 4 extension
(19,656 more towers) outside tier-1.
"""

import itertools
import random

from corpus import CUBE_TOWER, SMALL_CORPUS, SPAN, STRESS_TOWER, _cube_cone_fan, corpus_models, shaped_tower
from oracles import face_masks_oracle, regularity_subfan_walk_oracle
from torictower.toric import regularity_subfan
from torictower.tower import NodeMove, build_model


def tower_fans(models):
    """[(level fan, character of the node move above it or None)]."""
    out = []
    for model in models:
        for level, move in zip(model.levels, model.spec.moves + (None,)):
            out.append((level.fan, move.lattice_exponents() if isinstance(move, NodeMove) else None))
    return out


def characters(fans, seed):
    """[(fan, character)]: each fan's node character, if any, and three drawn from SPAN."""
    rng = random.Random(seed)
    cases = []
    for fan, node in fans:
        cases += [(fan, node)] if node is not None else []
        cases += [(fan, tuple(rng.choice(SPAN) for _ in range(fan.ambient_dim))) for _ in range(3)]
    return cases


def regular_face_mismatches(cases):
    """(number of subfan cones, [(fan, character)] whose subfan's maximal
    cones or derived facet masks differ from the walk oracle's)."""
    cones, bad = 0, []
    for fan, m in cases:
        got, want = regularity_subfan(fan, m), regularity_subfan_walk_oracle(fan, m)
        cones += len(got.maximal_cones)
        facets = [got.facet_masks(k) for k in range(len(got.maximal_cones))]
        if got != want or facets != [want.facet_masks(k) for k in range(len(want.maximal_cones))]:
            bad.append((fan, m))
    return cones, bad


def face_mask_mismatches(fans):
    """[fan] whose face masks differ from the per-cone union."""
    return [fan for fan in fans if fan.face_masks() != face_masks_oracle(fan)]


def test_regular_faces_match_the_walk_on_every_small_tower():
    models = corpus_models(SMALL_CORPUS)
    assert len(models) == 3464
    fans = tower_fans(models)
    cases = characters(fans, 20261201)
    cones, bad = regular_face_mismatches(cases)
    assert bad == [] and cones > len(cases) // 2
    assert face_mask_mismatches([fan for fan, _ in fans]) == []


def test_regular_faces_match_the_walk_on_near_cap_towers():
    rng = random.Random(20261202)
    fans = tower_fans(map(build_model, [STRESS_TOWER, CUBE_TOWER] + [shaped_tower(rng) for _ in range(30)]))
    cases = characters(fans, 20261203)
    # the stress tower's last move keeps several proper faces of its level-8 cones
    below = build_model(STRESS_TOWER).levels[-2].fan
    assert len(regularity_subfan(below, STRESS_TOWER.moves[-1].lattice_exponents()).maximal_cones) > 1
    assert regular_face_mismatches(cases)[1] == []
    assert face_mask_mismatches([fan for fan, _ in fans]) == []


def test_regular_faces_match_the_walk_on_cube_cones():
    rng = random.Random(20261018)
    cube3, cube4 = _cube_cone_fan(3), _cube_cone_fan(4)
    cases = [(cube3, m) for m in itertools.product((-1, 0, 1), repeat=4)]
    cases += [(cube4, tuple(rng.randint(-1, 1) for _ in range(5))) for _ in range(60)]
    assert regular_face_mismatches(cases)[1] == []
    assert face_mask_mismatches([cube3, cube4]) == []
