"""Special toric towers: validation, inductive fan construction, the
congruent birational identification with projective space over the base,
base change to a curve germ, local model descriptors, and the lc-place
transfer check.

Lattice conventions.  Level i lives in N_i = Z^(p+i-1) with coordinates
ordered (t_1..t_p, a_2, ..., a_i): each level appends its new coordinate
at the end, and the projection N_i -> N_(i-1) drops the last coordinate.
A node move's character over the level-(i-1) torus therefore has exponent
vector t_exponents + alpha_exponents in these coordinates.

A node move with character exponent m keeps, of the level below, its
maximal regular faces sigma (<m,u> >= 0 on every ray u), which a directed
search finds without walking every face that holds a ray with <m,u> < 0
(see toric._regular_faces), and lifts each to

    sigma~ = {(v, s) : v in sigma, 0 <= s <= <m, v>},

generated by (u, 0) and (u, <m,u>) over the rays u of sigma.  This is the
fan of the chart carved out by the node equation: its dual is the semigroup
cone spanned by sigma-dual x {0}, the new coordinate, and (m, -1), whose
dual node_chart_dual_violations checks is sigma~ again (biduality).  A
product move lifts each cone sigma to sigma x cone(e_new).

So each level's face lattice is fixed by the level below, and build_model
derives every level cone's facets from those below, with no double
description and one fan per level: the orthant of level 1 has the facets
that leave out one ray, and every other level is one `lattice.derived_fan`
of the level below (its maximal cones by u -> (u, 0) with apex e_new for a
product move, its maximal regular faces by u -> (u, 0) and u -> (u, <m, u>)
for a node move).
"""

import functools
import random
import sys
from collections import namedtuple

from .lattice import (
    Cone,
    DEFAULT_MAX_DIM,
    DEFAULT_MAX_RAYS,
    LatticeError,
    ResourceCapError,
    _Record,
    _is_int,
    _shown,
    check_count,
    check_samples,
    check_seed,
    derived_fan,
    dot,
    dual_cone,
    is_zero,
    orthant_fan,
    primitive,
    product_fan,
    projective_fan,
    unit_vector,
)
from .toric import _regular_faces, cartier_data, regularity_subfan  # the last two: unused; the benchmark traces them


class ProductMove(namedtuple("ProductMove", "")):
    """Multiply the previous level by an affine line."""

    __slots__ = ()

    def __bool__(self):  # a move, not an empty sequence
        return True


class NodeMove(_Record, namedtuple("NodeMove", "alpha_exponents t_exponents")):
    """Carve the node equation a*a' = lambda out of the previous level.

    The character lambda has exponents over (a_2..a_(i-1), t_1..t_p); both
    tuples may contain negative entries and the trivial character is allowed.
    """

    __slots__ = ()

    def lattice_exponents(self):
        """Exponent vector in level-(i-1) lattice coordinates (t's first)."""
        return self.t_exponents + self.alpha_exponents


class TowerSpec(_Record, namedtuple("TowerSpec", "base_dim moves")):
    """Symbolic tower description: base dimension and ordered moves.

    Move k (0-based) builds level k+2; a node move there may reference the
    variables a_2..a_(k+1), so its alpha_exponents must have length k and its
    t_exponents base_dim.  base_dim and every exponent are ints, not bools,
    and moves and each exponent field are lists or tuples, kept as tuples;
    construction raises LatticeError naming each failure.
    """

    __slots__ = ()

    def __new__(cls, base_dim, moves):
        details = []
        if not _is_int(base_dim):
            details.append(f"base_dim {_shown(base_dim)} is not an int")
        elif base_dim < 1:
            details.append(f"base_dim {_shown(base_dim)} must be >= 1")
        if not isinstance(moves, (list, tuple)):
            details.append(f"moves {_shown(moves)} is not a sequence")
        for k, move in enumerate(moves if isinstance(moves, (list, tuple)) else ()):
            where = f"move {k} (level {k + 2})"
            if isinstance(move, ProductMove):
                continue
            if not isinstance(move, NodeMove):
                details.append(f"move {k} has unknown type {type(move).__name__}")
                continue
            loose = [f"{where}: {f} {_shown(e)} is not a sequence"
                     for f, e in zip(move._fields, move) if not isinstance(e, (list, tuple))]
            if loose:
                details += loose
                continue
            if len(move.alpha_exponents) != k:
                details.append(f"{where}: alpha_exponents has length {len(move.alpha_exponents)}, expected {k} "
                               f"(only a_2..a_{k + 1} are defined)")
            if len(move.t_exponents) != base_dim:
                details.append(f"{where}: t_exponents has length {len(move.t_exponents)}, expected {_shown(base_dim)}")
            inexact = [e for e in (*move.alpha_exponents, *move.t_exponents) if not _is_int(e)]
            if inexact:
                details.append(f"{where}: exponent {_shown(inexact[0])} is not an int")
        if details:
            raise LatticeError("invalid tower: " + "; ".join(details))
        return super().__new__(cls, base_dim, moves)

    @property
    def depth(self):
        return len(self.moves) + 1


class CurveGermData(_Record, namedtuple("CurveGermData", "orders on_boundary")):
    """Vanishing orders (c_1..c_p) of the base coordinates along a curve germ,
    and whether the germ centre lies on the boundary of the curve."""

    __slots__ = ()


class TowerLevel(namedtuple("TowerLevel", "fan")):
    """One level of a tower model.  Its toric boundary, `boundary_divisor(fan)`,
    and its map to the level below, which drops the last coordinate, follow
    from the fan; neither is stored, so no copy can disagree with the fan."""

    __slots__ = ()


class TowerModel(namedtuple("TowerModel", "spec levels")):
    __slots__ = ()

    @property
    def depth(self):
        return len(self.levels)


class CheckOutcome:
    """Aggregated result of a batch check: counts plus violation witnesses.

    `check` and `skip` are the one rule that counts a check; `add_violation`
    and `add_skip` only append (`add_skip` counts the skip, not the check),
    and a bulk count enters through the constructor or `merge`.
    """

    def __init__(self, checked=0, passed=0):
        self.checked, self.passed, self.skipped = checked, passed, 0
        self.violations, self.skips = [], []

    def __eq__(self, other):
        return vars(self) == vars(other) if type(other) is type(self) else NotImplemented

    def ok(self):
        return not self.violations

    def check(self, ok, kind=None, detail=None, **witness):
        """Count one check: passed if `ok`, else failed with this violation,
        or with none when `kind` is None (the check added its violations)."""
        self.checked += 1
        if ok:
            self.passed += 1
        elif kind is not None:
            self.add_violation(kind, detail, **witness)

    def skip(self, reason, **witness):
        """Count one check, skipped for `reason`."""
        self.checked += 1
        self.add_skip(reason, **witness)

    def add_violation(self, kind, detail, **witness):
        self.violations.append({"kind": kind, "detail": detail, **witness})

    def add_skip(self, reason, **witness):
        self.skipped += 1
        self.skips.append({"reason": reason, **witness})

    def merge(self, other, **tags):
        """Add `other`'s counts, violations and skips (each tagged with `tags`) to this one."""
        self.checked += other.checked
        self.passed += other.passed
        self.skipped += other.skipped
        self.violations += [{**v, **tags} for v in other.violations]
        self.skips += [{**s, **tags} for s in other.skips]
        return self


@functools.cache
def _power_of_ten(k):
    return 10**k


def _check_digits(values):
    """ResourceCapError when an int in `values` has more decimal digits than
    the interpreter prints (sys.get_int_max_str_digits(); 0 is no limit), so
    no later step computes with a number that no report could hold."""
    limit = sys.get_int_max_str_digits()
    if limit and any(abs(v) >= _power_of_ten(limit) for v in values):
        raise ResourceCapError(f"a coordinate has more than {limit} decimal digits")


def build_model(spec, max_rays=DEFAULT_MAX_RAYS, max_dim=DEFAULT_MAX_DIM):
    """Realize the tower as one fan per level; level i+1 maps to level i by
    dropping the last coordinate.

    Both caps are counts.  Raises ResourceCapError when the top level's
    ambient dimension p + d - 1 exceeds max_dim, a level fan (the level-1
    orthant too) has more than max_rays rays, or a node move's new coordinate
    <m, u> has more digits than the interpreter prints.
    """
    check_count(max_rays, "max_rays")
    check_count(max_dim, "max_dim")
    check_count(spec.base_dim + spec.depth - 1, "tower ambient dimension", cap=max_dim)
    levels = [_capped_level(orthant_fan(spec.base_dim), max_rays)]
    for move in spec.moves:
        prev = levels[-1].fan
        n = prev.ambient_dim + 1
        if isinstance(move, ProductMove):  # sigma x cone(e_new)
            fan = derived_fan(prev, n, enumerate(prev.tops), [lambda u: u + (0,)], unit_vector(n, n - 1))
        else:  # sigma~, over each maximal regular face sigma of the level below
            m = move.lattice_exponents()
            fan = derived_fan(prev, n, _regular_faces(prev, m), [lambda u: u + (0,), lambda u: u + (dot(m, u),)])
            _check_digits(u[-1] for u in fan.all_rays)  # the heights <m, u> of the kept rays
        levels.append(_capped_level(fan, max_rays))
    return TowerModel(spec=spec, levels=tuple(levels))


def _capped_level(fan, max_rays):
    if len(fan.all_rays) > max_rays:
        raise ResourceCapError(f"level fan has {len(fan.all_rays)} rays, exceeding cap {max_rays}")
    return TowerLevel(fan=fan)


def projective_model(spec):
    """The fan of the congruent birational model A^p x P^(d-1) (A^p at d = 1).
    It shares the tower's torus coordinates t_1..t_p, a_2..a_d, so its lattice
    identification is the identity; its boundary is the sum of its ray divisors."""
    p, d = spec.base_dim, spec.depth
    if d == 1:
        return orthant_fan(p)
    return product_fan(orthant_fan(p), projective_fan(d - 1))


def in_projective_support(spec, v):
    """Whether v lies in |Sigma_P| = {x_1..x_p >= 0}, for A^p and A^p x P^(d-1) alike."""
    return min(v[: spec.base_dim]) >= 0


def lc_place_transfer_check(model, samples, seed):
    """Check that toric valuations of the model's (V_d, C_d) are lc places of (P, G).

    Both pairs are log Calabi-Yau: K + C has coefficient -1 + 1 = 0 on every
    ray, so K + C is the zero divisor and every log discrepancy is 0 on both
    sides.  What is left is the fan-level claim |Sigma_V| within |Sigma_P| =
    {x_1..x_p >= 0}: every ray of the level-d fan and `samples` seeded
    primitive vectors in its support must pass that sign test, or give a
    "no-centre-on-P" violation carrying the vector.  A sample is a random
    maximal cone and a random non-negative integer combination (entries
    <= 10) of its rays, primitivized; an all-zero draw, or any draw from the
    zero cone, is a skip.  The sign test cuts out a convex cone, so each cone
    decides its samples once: when its rays pass and w = the sum of its rays
    has <w, g> > 0 on every ray g, no nonzero draw sums to zero and every one
    passes, with no vector built.  Only a draw from any other cone is built
    and tested.  The cone and each entry are drawn by inline loops, which give
    randrange's stream straight from the Mersenne Twister bits; with no
    maximal cone to draw, any sample is a LatticeError.  On build_model output
    every ray of every level is nonnegative (level 1 has the unit vectors; a
    product move adds (u, 0) and e_new, a node move (u, 0) and (u, <m,u>) with
    <m,u> >= 0), so every ray g of a non-empty cone has <w, g> >= <g, g> > 0:
    every such cone carries the certificate, and no vector is built.  The test
    guards any other model, such as a forged one.  The sample count is
    checked first, then the seed.
    """
    check_samples(samples)
    check_seed(seed)
    spec = model.spec
    out = CheckOutcome()
    fan_v = model.levels[-1].fan
    cones = [c.generators for c in fan_v.maximal_cones]
    if samples and not cones:  # as randrange(0) is; bits(0) is always 0, so the draw would never end
        raise LatticeError("the top fan has no maximal cone to sample")
    outside = "vector lies in |Sigma_V| but not in |Sigma_P|"
    for r in fan_v.all_rays:
        out.check(in_projective_support(spec, r), "no-centre-on-P", outside, vector=list(r), origin="ray")
    safe = []
    for gens in cones:
        w = tuple(map(sum, zip(*gens)))
        safe.append(all(in_projective_support(spec, g) and dot(w, g) > 0 for g in gens))
    bits, n, width = random.Random(seed).getrandbits, len(cones), len(cones).bit_length()
    certified = 0
    for _ in range(samples):
        while (k := bits(width)) >= n:  # randrange(n): n.bit_length() bits, drawn again while >= n
            pass
        draws = []
        for _ in cones[k]:  # randint(0, 10) is randrange(11): 4 bits, drawn again while >= 11
            while (r := bits(4)) >= 11:
                pass
            draws.append(r)
        if safe[k] and any(draws):
            certified += 1
            continue
        v = (0,) * fan_v.ambient_dim
        for c, u in zip(draws, cones[k]):
            if c:
                v = tuple(x + c * y for x, y in zip(v, u))
        if is_zero(v):
            out.skip("degenerate sample (zero vector)", origin="sample")
        else:
            v = primitive(v)
            out.check(in_projective_support(spec, v), "no-centre-on-P", outside, vector=list(v), origin="sample")
    return out.merge(CheckOutcome(checked=certified, passed=certified))


def base_change_to_curve(spec, germ):
    """Base change of the tower to a curve germ, as a symbolic transform.

    Each node character with t-exponents (n_1..n_p) becomes a character in
    the single parameter t with exponent sum(c_j * n_j); alpha exponents and
    product moves are untouched.  Unit factors never change exponents, so the
    germ is fully described by its vanishing orders and boundary flag.  A
    new exponent with more digits than the interpreter prints is a
    ResourceCapError.
    """
    if not isinstance(germ.orders, (list, tuple)):
        raise LatticeError(f"orders {_shown(germ.orders)} is not a sequence")
    if len(germ.orders) != spec.base_dim:
        raise LatticeError(f"germ has {len(germ.orders)} orders, tower base dimension is {spec.base_dim}")
    for c in germ.orders:
        check_count(c, "vanishing order")
    if not germ.on_boundary and any(c != 0 for c in germ.orders):
        raise LatticeError("a germ off the boundary has no vanishing: all orders must be 0")
    moves = []
    for move in spec.moves:
        if isinstance(move, ProductMove):
            moves.append(move)
        else:
            t_exp = sum(c * nu for c, nu in zip(germ.orders, move.t_exponents))
            _check_digits((t_exp,))
            moves.append(NodeMove(move.alpha_exponents, (t_exp,)))
    return TowerSpec(base_dim=1, moves=moves)


def orbit_classifier(move, rays):
    """The kind of a torus orbit's fibration-local model at the level built
    by `move` ("smooth_plain", "smooth_on_section" or "node"), as a function
    of the orbit's cone given as a mask over `rays`.

    Product move: smooth_on_section iff the cone contains the new-coordinate
    ray e_new (the vanishing section of the new variable); e_new is a ray of
    every maximal cone there, so a face contains it iff it is one of the
    face's generators.  Node move: node iff both branch coordinates vanish on
    the orbit, i.e. some ray has positive last coordinate and some ray (v, s)
    has <m, v> - s > 0; otherwise smooth_plain.
    """
    if isinstance(move, ProductMove):
        section = sum(1 << i for i, g in enumerate(rays) if g[-1] == 1 and not any(g[:-1]))
        return lambda mask: "smooth_on_section" if mask & section else "smooth_plain"
    m = move.lattice_exponents()
    alpha = sum(1 << i for i, g in enumerate(rays) if g[-1] > 0)
    alpha_prime = sum(1 << i for i, g in enumerate(rays) if dot(m, g[:-1]) - g[-1] > 0)
    return lambda mask: "node" if mask & alpha and mask & alpha_prime else "smooth_plain"


def local_model_at(model, level, cone):  # no caller in src/; the benchmark traces it
    """The kind of the torus orbit of a level-`level` cone relative to the
    fibration to the previous level, by `orbit_classifier`.

    The level must be a count from 2 to the depth, and the cone a face of a
    maximal cone of the level fan (its rays in any order), else LatticeError.
    """
    check_count(level, "level", low=1)
    if level == 1:
        raise LatticeError("base level has no fibration structure")
    if level > model.depth:
        raise LatticeError(f"level {level} out of range 2..{model.depth}")
    fan = model.levels[level - 1].fan
    mask = fan.face_mask(cone)
    if mask is None:
        raise LatticeError("cone does not belong to the level fan")
    return orbit_classifier(model.spec.moves[level - 2], fan.all_rays)(mask)


def torus_splitting_check(model):
    """Fan-level shadow of the torus splitting and fiber integrality under the
    projection that drops the last coordinate: each level adds exactly one
    coordinate, every cone maps into a cone below, and the fiber over the
    zero cone is {0} or a single new ray."""
    out = CheckOutcome()
    for i in range(1, model.depth):
        level = model.levels[i]
        prev = model.levels[i - 1]
        n_prev = prev.fan.ambient_dim
        if level.fan.ambient_dim != n_prev + 1:
            out.check(False, "splitting", f"level {i + 1}: projection is not the coordinate projection "
                      "dropping one new coordinate", level=i + 1)
            continue
        before = len(out.violations)
        for cone in level.fan.maximal_cones:
            nonzero = [g[:n_prev] for g in cone.generators if not is_zero(g[:n_prev])]
            if nonzero and prev.fan.cone_index(*nonzero) is None:
                out.add_violation(
                    "projection",
                    f"level {i + 1}: cone {list(cone.generators)} does not project "
                    "into a cone of the previous level",
                    level=i + 1,
                )
            fiber_rays = [g for g in cone.generators if is_zero(g[:n_prev])]
            if len(fiber_rays) > 1:
                out.add_violation(
                    "fiber",
                    f"level {i + 1}: cone over the zero cone has "
                    f"{len(fiber_rays)} independent fiber rays",
                    level=i + 1,
                )
        out.check(len(out.violations) == before)
    return out


def node_chart_dual_violations(model):
    """Cross-check each node-move chart against its semigroup presentation.

    For every maximal cone sigma~ of a node level, the dual of sigma~ must
    equal P = cone(sigma-dual x {0}, e_new, (m, -1)), where sigma is spanned
    by the projected generators; by biduality, P-dual must be sigma~.  Two
    double description passes, sigma-dual and P-dual, capped at the model's
    top dimension (build_model held it to its cap), give P-dual's canonical
    generators, which must equal the chart's: build_model made those
    canonical, and sigma~ is pointed.
    """
    out = CheckOutcome()
    max_dim = model.levels[-1].fan.ambient_dim
    for i, move in enumerate(model.spec.moves):
        if not isinstance(move, NodeMove):
            continue
        level = model.levels[i + 1]
        n_prev = model.levels[i].fan.ambient_dim
        m = move.lattice_exponents()
        for cone in level.fan.maximal_cones:
            sigma_dual = dual_cone(Cone(n_prev, [g[:n_prev] for g in cone.generators]), max_dim)
            presentation = [g + (0,) for g in sigma_dual.generators]
            presentation += [unit_vector(n_prev + 1, n_prev), tuple(m) + (-1,)]
            out.check(dual_cone(Cone(n_prev + 1, presentation), max_dim).generators == cone.generators,
                      "node-chart-dual", f"dual of node chart {list(cone.generators)} does not match the "
                      "semigroup presentation", level=i + 2)
    return out
