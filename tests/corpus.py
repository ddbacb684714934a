"""The tower corpora of the five tower nets, each model built once per
process, and the driver that runs every net on the large corpora.

The nets (`test_facet_net`, `node_level_mismatches` here, whose tier-1
tests are in `test_node_level_net`, `test_regular_face_net`, `test_lc_net`,
`test_support_net`) take built models, so a corpus is built once however
many nets read it.  Tier-1 runs them on the 3,464 towers over base dimension
p <= 2 of depth 2 or 3 with node exponents in SPAN (SMALL_CORPUS).  The
driver, outside tier-1, runs the facet, node-level, regular-face and lc
nets and the certificate invariant on the 19,656 towers over p = 1 of
depth 4, then the support net on the 3,464 towers, the halfspace-memo
net (`halfspace_memo_mismatches`, on fans, not towers) on MEMO_SEEDS, the
Cartier-route net (`cartier_route_mismatches`) on the distinct level fans
of the 19,656 and on refined products of projective fans, the volume net
(`volume_mismatches`) on those products, and the census golden
(`tests/census.py`) on the 19,656; the regular-face net checks each
distinct level fan and each distinct (fan, character) once.  It prints one
line per net and exits 1 on any mismatch:

    PYTHONPATH=src python tests/corpus.py

A reference pipeline plugs in here: one more net over the same models.
"""

import functools
import gc
import itertools
import random
import sys
from fractions import Fraction

from oracles import node_level_oracle, normalized_volume_per_simplex_oracle
from torictower.lattice import Cone, Fan, dot, halfspace_intersection, orthant_fan, product_fan, projective_fan
from torictower.polytope import LatticePolytope, divisor_polytope, normalized_volume
from torictower.toric import NotQCartier, ToricDivisor, boundary_divisor, cartier_data, star_subdivision
from torictower.tower import NodeMove, ProductMove, TowerSpec, build_model

SPAN = range(-2, 3)
DRIVER_CORPUS = ((1, 4),)  # (p, depth) of the driver's facet, regular-face and lc nets: 19,656 towers
SMALL_CORPUS = ((1, 2), (1, 3), (2, 2), (2, 3))  # tier-1's nets and the driver's support net: 3,464 towers
MEMO_SEEDS = range(8, 100)  # the driver's halfspace-memo chains; tier-1 runs seeds 0-7
REFINED_PRODUCTS = 48  # the driver's refined products of projective fans in the Cartier-route and volume nets


def small_towers(p, depth):
    """Every tower over base dimension p of this depth with node exponents in SPAN."""
    choices = [
        [ProductMove()] + [NodeMove(e[p:], e[:p]) for e in itertools.product(SPAN, repeat=p + k)]
        for k in range(depth - 1)
    ]
    return [TowerSpec(p, moves) for moves in itertools.product(*choices)]


@functools.cache
def models(p, depth):
    """The models of `small_towers(p, depth)`, built once per process."""
    return tuple(build_model(spec) for spec in small_towers(p, depth))


def corpus_models(corpus):
    """The models of every (p, depth) in `corpus`, in that order."""
    return [model for p, depth in corpus for model in models(p, depth)]


def shaped_tower(rng):
    """A tower of shape N N P N N X over p = 2: growth node exponents in
    {1, 2}, final node exponents in {-1, 1} (the benchmark's stress shape)."""
    moves = []
    for k, kind in enumerate("NNPNNX"):
        values = (1, 2) if kind == "N" else (-1, 1)
        if kind == "P":
            moves.append(ProductMove())
        else:
            alpha = tuple(rng.choice(values) for _ in range(k))
            moves.append(NodeMove(alpha, tuple(rng.choice(values) for _ in range(2))))
    return TowerSpec(2, tuple(moves))


# seven node moves with t = (1, 1): the top fan is one cone over an 8-cube
CUBE_TOWER = TowerSpec(2, tuple(NodeMove((0,) * k, (1, 1)) for k in range(7)))

# base_dim 2; its top fan has 104 rays and 8 maximal cones.
STRESS_TOWER = TowerSpec(
    base_dim=2,
    moves=(
        NodeMove((), (2, 2)),
        NodeMove((0,), (2, 2)),
        ProductMove(),
        NodeMove((1, 1, 1), (2, 1)),
        NodeMove((2, 0, 1, 0), (1, 2)),
        ProductMove(),
        NodeMove((2, 2, 2, 0, 1, 0), (1, 2)),
        NodeMove((1, -1, 1, -1, 1, -1, 1), (1, -1)),
    ),
)


def near_cap_tower(seed):
    """A node-only tower near the caps: base dimension p in 1..3, depth
    11 - p (top dimension 10), every exponent in 0..3; move k draws its k
    alpha exponents, then its p t exponents.  Seed 57 gives p = 1 and a top
    fan of one cone with 500 rays."""
    rng = random.Random(seed)
    p = rng.randint(1, 3)
    moves = []
    for k in range(10 - p):
        alpha = tuple(rng.randint(0, 3) for _ in range(k))
        moves.append(NodeMove(alpha, tuple(rng.randint(0, 3) for _ in range(p))))
    return TowerSpec(p, tuple(moves))


def _cube_cone_fan(k):
    """The cone over a k-cube at height 1: 2^k rays, 2k facets."""
    rays = tuple(sorted(v + (1,) for v in itertools.product((-1, 1), repeat=k)))
    return Fan(k + 1, (Cone(k + 1, rays),))


def certified(gens):
    """Whether a non-empty cone carries lc-check's certificate: <w, g> > 0
    for every ray g, w the sum of the rays."""
    w = tuple(map(sum, zip(*gens)))
    return all(dot(w, g) > 0 for g in gens)


def uncertified_levels(tower_models):
    """[(tower, level)] where a ray has a negative coordinate or a non-empty
    maximal cone lacks the certificate.  Every ray of build_model's levels is
    nonnegative (see `tower.lc_place_transfer_check`), so this is empty."""
    return [
        (model.spec, i)
        for model in tower_models
        for i, level in enumerate(model.levels, 1)
        if any(min(ray) < 0 for ray in level.fan.all_rays)
        or not all(certified(cone.generators) for cone in level.fan.maximal_cones if cone.generators)
    ]


def fan_data(fan):
    """A fan's rays, maximal cones as masks and as generators, and every facet mask."""
    cones = range(len(fan.maximal_cones))
    return fan.all_rays, fan.tops, [c.generators for c in fan.maximal_cones], [fan.facet_masks(k) for k in cones]


def node_level_mismatches(tower_models):
    """(number of node levels, [(tower, level)] whose fan differs from the
    two-step `node_level_oracle` on the level below, by `fan_data`)."""
    levels, bad = 0, []
    for model in tower_models:
        for i, move in enumerate(model.spec.moves):
            if isinstance(move, NodeMove):
                levels += 1
                want = node_level_oracle(model.levels[i].fan, move.lattice_exponents())
                if fan_data(model.levels[i + 1].fan) != fan_data(want):
                    bad.append((model.spec, i + 2))
    return levels, bad


def memo_start_fans():
    """The start fans of the halfspace-memo net, each of dimension at most 6:
    P^n, P^a x P^b, A^a x P^b, non-simplicial one-cone fans (cones over
    cubes, and one times P^1), and a fan with a 2-dimensional maximal cone
    in R^3 alone and times P^1, whose cones carry no memo."""
    low = Fan(3, (orthant_fan(3).maximal_cones[0], Cone(3, ((-1, 0, 0), (0, -1, 0)))))
    return ([projective_fan(n) for n in range(1, 7)]
            + [product_fan(projective_fan(a), projective_fan(b)) for a in range(1, 6) for b in range(1, 7 - a)]
            + [product_fan(orthant_fan(a), projective_fan(b)) for a in range(1, 6) for b in range(1, 7 - a)]
            + [_cube_cone_fan(k) for k in range(2, 6)] + [product_fan(_cube_cone_fan(2), projective_fan(1))]
            + [low, product_fan(low, projective_fan(1))])


def halfspace_memo_mismatches(seeds, steps=4):
    """(cones with a memo, cones without one, [(seed, start fan, step, cone)]
    whose memo differs from `halfspace_intersection` of its generators).
    Per seed, each start fan runs a chain of `steps` star subdivisions; each
    centre is a positive combination of a random subset of a random maximal
    cone's rays, so it lies inside a face of any dimension.  Every cone of a
    start fan and every cone a step creates is checked once."""
    carried, left, bad = 0, 0, []
    for seed in seeds:
        rng = random.Random(seed)
        for start, fan in enumerate(memo_start_fans()):
            old = ()
            for step in range(steps + 1):
                for cone in fan.maximal_cones:
                    if any(cone is c for c in old):
                        continue
                    if cone._halfspaces is None:
                        left += 1
                    else:
                        carried += 1
                        if cone._halfspaces != halfspace_intersection(cone.generators, fan.ambient_dim):
                            bad.append((seed, start, step, cone))
                if step < steps:
                    gens = rng.choice(fan.maximal_cones).generators
                    subset = rng.sample(gens, rng.randint(1, len(gens)))
                    coeffs = [rng.randint(1, 3) for _ in subset]
                    v = tuple(sum(c * g[i] for c, g in zip(coeffs, subset)) for i in range(fan.ambient_dim))
                    old, fan = fan.maximal_cones, star_subdivision(fan, v)
    return carried, left, bad


def refined_products(seed, count, steps=4):
    """`count` seeded refinements of products of projective fans, like the
    benchmark's complete fans: fan j is P^a x P^(n-a), n = 5 + j % 2 and
    a = 1 + (j // 2) % (n - 1), refined by `steps` star subdivisions, each
    centre a combination with coefficients 1 or 2 of a random subset of a
    random maximal cone's rays."""
    rng = random.Random(seed)
    fans = []
    for j in range(count):
        n = 5 + j % 2
        a = 1 + (j // 2) % (n - 1)
        fan = product_fan(projective_fan(a), projective_fan(n - a))
        for _ in range(steps):
            gens = rng.choice(fan.maximal_cones).generators
            subset = rng.sample(gens, rng.randint(1, len(gens)))
            coeffs = [rng.randint(1, 2) for _ in subset]
            fan = star_subdivision(fan, tuple(sum(c * g[i] for c, g in zip(coeffs, subset)) for i in range(n)))
        fans.append(fan)
    return fans


def carries_normals(cone):
    """Whether `cartier_data` solves `cone` from the normals it carries: n of them, no equation, n rays."""
    memo = cone._halfspaces
    return memo is not None and not memo[1] and len(memo[0]) == cone.ambient_dim == len(cone.generators)


def cartier_routes(fan):
    """Two copies of `fan`: one whose cones carry their halfspaces (a builder's
    memo, else the DD's), so every simplicial full-dimensional cone is solved
    from its normals, and one whose cones carry none, so every cone is solved
    by its Hermite form."""
    n = fan.ambient_dim
    memoized = []
    for cone in fan.maximal_cones:
        memoized.append(Cone(n, cone.generators))
        memoized[-1]._halfspaces = cone._halfspaces or halfspace_intersection(cone.generators, n)
    return Fan(n, memoized), Fan(n, [Cone(n, cone.generators) for cone in fan.maximal_cones])


def cartier_outcome(cd):
    """Cartier data's vectors and index, or the failing cone's generators and message."""
    if isinstance(cd, NotQCartier):
        return cd.cone.generators, cd.message
    return cd.vectors, cd.cartier_index


def cartier_route_mismatches(fans, seed):
    """(cones that carry normals, cones that do not, [(fan, divisor
    coefficients)] where the two `cartier_routes` of a fan differ), on each
    fan's canonical divisor and on a seeded rational divisor with
    coefficients p/q, p in [-6, 6] and q in [1, 4]."""
    rng = random.Random(seed)
    with_normals = without = 0
    bad = []
    for fan in fans:
        memoized, bare = cartier_routes(fan)
        solved = sum(map(carries_normals, memoized.maximal_cones))
        with_normals, without = with_normals + solved, without + len(fan.maximal_cones) - solved
        drawn = {u: Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for u in fan.all_rays}
        for coeffs in ({u: -1 for u in fan.all_rays}, drawn):
            got = cartier_outcome(cartier_data(memoized, ToricDivisor(memoized, coeffs)))
            if got != cartier_outcome(cartier_data(bare, ToricDivisor(bare, coeffs))):
                bad.append((fan, coeffs))
    return with_normals, without, bad


def padded(poly):
    """`poly` with its centroid and the midpoint of each lex-consecutive pair of its points added, none a vertex."""
    verts, n = poly.vertices, poly.ambient_dim
    centroid = tuple(sum(v[i] for v in verts) / len(verts) for i in range(n))
    midpoints = [tuple((x + y) / 2 for x, y in zip(v, w)) for v, w in zip(verts, verts[1:])]
    return LatticePolytope(n, tuple(sorted(set(verts) | {centroid} | set(midpoints))))


def volume_mismatches(fans):
    """(number of fans, [fan] where the volume of its anticanonical polytope,
    or of the `padded` polytope with every third point repeated, differs from
    `normalized_volume_per_simplex_oracle` of the polytope)."""
    bad = []
    for fan in fans:
        poly = divisor_polytope(fan, boundary_divisor(fan))
        more = padded(poly)
        want = normalized_volume_per_simplex_oracle(poly)
        if normalized_volume(poly) != want or normalized_volume(LatticePolytope(
                poly.ambient_dim, more.vertices + more.vertices[::3])) != want:
            bad.append(fan)
    return len(fans), bad


def main():
    """Run every net on its corpus, print one line per net, and return 1 on any mismatch."""
    # the corpus lives until the end: build it with the cyclic collector off, then freeze it, so no
    # collection walks it again (on a 2-core container the build took 2.4 s so, and 5.7-6.7 s without)
    gc.disable()
    try:
        towers = corpus_models(DRIVER_CORPUS)
        gc.freeze()
        gc.enable()
        return run_nets(towers)
    finally:
        gc.enable()
        gc.unfreeze()


def run_nets(towers):
    """Run the facet, node-level, regular-face and lc nets and the
    certificate check on `towers`, the support net on SMALL_CORPUS, the
    halfspace-memo net on MEMO_SEEDS, the Cartier-route net on the distinct
    level fans of `towers` and REFINED_PRODUCTS refined products, the volume
    net on those products, and the census on DRIVER_CORPUS; print one line
    per net (and one per census mismatch), and return 1 on any mismatch."""
    from census import COMMANDS, census_mismatches
    from test_facet_net import facet_mismatches
    from test_lc_net import lc_mismatches
    from test_regular_face_net import characters, face_mask_mismatches, regular_face_mismatches, tower_fans
    from test_support_net import support_mismatches

    cones, bad = facet_mismatches(towers)
    print(f"facet: {len(towers)} towers, {cones} cones, {len(bad)} mismatches", flush=True)
    failed = bool(bad)

    levels, bad = node_level_mismatches(towers)
    print(f"node levels: {len(towers)} towers, {levels} node levels, {len(bad)} mismatches", flush=True)
    failed |= bool(bad)

    # a check on an equal fan with an equal character repeats one: the characters are drawn per level
    # fan as on every fan, and each distinct fan and each distinct (fan, character) is checked once
    fans = tower_fans(towers)
    distinct = list(dict.fromkeys(fan for fan, _ in fans))
    cases = list(dict.fromkeys(characters(fans, 20261204)))
    cones, bad = regular_face_mismatches(cases)
    bad_fans = face_mask_mismatches(distinct)
    print(f"regular faces: {len(fans)} level fans ({len(distinct)} distinct), {len(cases)} distinct characters, "
          f"{cones} subfan cones, {len(bad)} subfan and {len(bad_fans)} face-mask mismatches", flush=True)
    failed |= bool(bad or bad_fans)

    checked, bad = lc_mismatches(towers, 20261105)
    print(f"lc: {len(towers)} towers, {checked} vectors checked, {len(bad)} mismatches", flush=True)
    failed |= bool(bad)

    bad = uncertified_levels(towers)
    levels = sum(len(model.levels) for model in towers)
    print(f"certificate: {levels} levels, {len(bad)} with a negative ray or an uncertified cone", flush=True)
    failed |= bool(bad)

    small = corpus_models(SMALL_CORPUS)
    points, inside, bad = support_mismatches(small)
    print(f"support: {len(small)} towers, {points} lattice points, {inside} in a level's support, "
          f"{len(bad)} mismatches", flush=True)
    failed |= bool(bad)

    carried, left, bad = halfspace_memo_mismatches(MEMO_SEEDS)
    print(f"halfspace memos: {carried} carried, {left} left to the DD, {len(bad)} mismatches", flush=True)
    failed |= bool(bad)

    # equal level fans give equal Cartier data, so each is solved once
    products = refined_products(20261021, REFINED_PRODUCTS)
    with_normals, without, bad = cartier_route_mismatches(distinct + products, 20261022)
    print(f"cartier routes: {len(distinct)} level fans and {REFINED_PRODUCTS} refined products, {with_normals} cones "
          f"with normals, {without} without, {len(bad)} mismatches", flush=True)
    failed |= bool(bad)

    count, bad = volume_mismatches(products)
    print(f"volumes: {count} anticanonical polytopes of refined products and their padded copies, "
          f"{len(bad)} mismatches", flush=True)
    failed |= bool(bad)

    count, bad = census_mismatches(DRIVER_CORPUS)
    print(f"census: {count} towers, {len(COMMANDS)} commands, {len(bad)} mismatches", flush=True)
    for line in bad:
        print(f"  {line}", flush=True)
    return 1 if failed or bad else 0


if __name__ == "__main__":
    sys.exit(main())
