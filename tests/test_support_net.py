"""Each level fan's support, lattice point by lattice point, against the
construction the tower module docstring states.

`build_model` makes every level from the one below through face masks and
the facet rules they carry.  This net checks the result against the
definition alone: a lattice point x = (v, s) of the box [-1, 1]^(n+1) lies
in the support of the level a move builds from an n-dimensional level iff
- for a node move with character m, v lies in the support of the
  geometric `regularity_subfan_oracle` of the level below, and
  0 <= s <= <m, v>;
- for a product move, v lies in the support of the level below, and s >= 0.
The level-1 orthant holds exactly the points with no negative coordinate.
Membership is `verify.in_cone_fm` on every side, a Fourier-Motzkin test that
shares no code with the double description or the masks.  The net is every
tower over base dimension p = 1 of depth 2 or 3 with node exponents in
[-2, 2] (162 towers).  The towers and their models come from
`tests/corpus.py`, whose driver runs all 3,464 towers with p <= 2 outside
tier-1.
"""

import itertools

from corpus import corpus_models
from oracles import regularity_subfan_oracle
from torictower.lattice import dot
from torictower.tower import NodeMove
from torictower.verify import in_cone_fm

BOX = (-1, 0, 1)


def in_support(fan, x):
    return any(in_cone_fm(cone.generators, x) for cone in fan.maximal_cones)


def support_mismatches(models):
    """(points checked, points in a level's support, [(tower, level, point)]
    where a level fan's support and the construction disagree)."""
    points, inside, bad = 0, 0, []
    for model in models:
        spec, levels = model.spec, [level.fan for level in model.levels]
        for x in itertools.product(BOX, repeat=spec.base_dim):
            got = in_support(levels[0], x)
            points, inside = points + 1, inside + got
            if got != (min(x) >= 0):
                bad.append((spec, 1, x))
        for level, (move, below, fan) in enumerate(zip(spec.moves, levels, levels[1:]), 2):
            m = move.lattice_exponents() if isinstance(move, NodeMove) else None
            region = below if m is None else regularity_subfan_oracle(below, m)
            for v in itertools.product(BOX, repeat=below.ambient_dim):
                below_v = in_support(region, v)
                top = BOX[-1] if m is None else dot(m, v)  # a product move bounds s below only
                for s in BOX:
                    got = in_support(fan, v + (s,))
                    points, inside = points + 1, inside + got
                    if got != (below_v and 0 <= s <= top):
                        bad.append((spec, level, v + (s,)))
    return points, inside, bad


def test_level_supports_match_the_construction_on_every_p1_tower():
    models = corpus_models(((1, 2), (1, 3)))
    assert len(models) == 162
    points, inside, bad = support_mismatches(models)
    assert bad == []
    assert 0 < inside < points  # the supports are neither empty nor everything
