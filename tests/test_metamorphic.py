"""Metamorphic relations on whole towers: a symmetry of the input maps each
command's report by the same symmetry.

Permuting the base coordinates t_1..t_p in every node move's t_exponents
permutes the first p coordinates of every level lattice.  The character
<m, v> of a node move is unchanged when m and v are permuted alike, so every
level fan is the image of the old one, and `build`, `fan`, `map-to-proj` and
`local-model` agree after relabeling.  `lc-check` is left out: its samples
follow the cone order, which the relabeling does not keep.

Appending a product move multiplies the top level by an affine line: every
earlier level is unchanged, each maximal cone sigma gives the one maximal
cone sigma x cone(e_new), and each face F gives the two faces F and
F + cone(e_new).
"""

import itertools
import json
from collections import Counter

import pytest

from test_exit_codes import run_main
from torictower.documents import emit_tower, random_tower
from torictower.tower import NodeMove, ProductMove, build_model

P = 3
TOWERS = 300
PERMUTATIONS = list(itertools.permutations(range(P)))[1:]  # the identity is no test


def _permute_base(spec, pi):
    moves = tuple(
        mv._replace(t_exponents=tuple(mv.t_exponents[i] for i in pi))
        if isinstance(mv, NodeMove)
        else mv
        for mv in spec.moves
    )
    return spec._replace(moves=moves)


def _reports(spec):
    text = emit_tower(spec)
    out = {}
    for command in ("build", "fan", "map-to-proj", "local-model"):
        code, report = run_main([command], text)
        assert code in (0, 1)
        out[command] = json.loads(report)["data"] if report else None
    return out


def _relabeled(pi, reports):
    """The reports' geometric content, every ray's first P coordinates
    permuted by `pi`, in orders that do not depend on the ray order."""

    def ray(r):
        r = tuple(map(int, r))
        return tuple(r[i] for i in pi) + r[P:]

    fans = [
        sorted(tuple(sorted(ray(level["rays"][int(i)]) for i in cone)) for cone in level["maximal_cones"])
        for level in reports["fan"]["levels"]
    ]
    support = Counter((ray(e["ray"]), e["supported"]) for e in reports["map-to-proj"]["level_d_rays_in_support"])
    local = [
        Counter((e["kind"], tuple(sorted(map(ray, e["rays"])))) for e in level["cones"])
        for level in reports["local-model"]["levels"]
    ]
    return reports["build"]["levels"], fans, support, local


@pytest.mark.parametrize("pi", PERMUTATIONS)
def test_permuting_the_base_coordinates_relabels_every_report(pi):
    identity = tuple(range(P))
    moved = 0
    for seed in range(PERMUTATIONS.index(pi), TOWERS, len(PERMUTATIONS)):
        spec = random_tower(P, 4, 2, seed)
        permuted = _permute_base(spec, pi)
        before, after = _reports(spec), _reports(permuted)
        assert _relabeled(pi, before) == _relabeled(identity, after)
        moved += before["fan"] != after["fan"]
    assert moved  # some towers are not symmetric in t_1..t_p, so the relation is tested


def test_appending_a_product_move_doubles_the_top_faces():
    for seed in range(TOWERS):
        spec = random_tower(P, 4, 2, seed)
        before = build_model(spec).levels
        after = build_model(spec._replace(moves=spec.moves + (ProductMove(),))).levels
        assert [level.fan for level in after[:-1]] == [level.fan for level in before]
        top, new_top = before[-1].fan, after[-1].fan
        assert len(new_top.maximal_cones) == len(top.maximal_cones)
        assert len(new_top.face_masks()) == 2 * len(top.face_masks())
