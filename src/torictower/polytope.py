"""Relative degrees and volumes on projective-space fibers, and lattice
polytopes of nef toric divisors with exact normalized volumes.

Degrees and volumes target the projective-space models produced by the
tower engine: a divisor on P^n over the base is a combination of the
coordinate hyperplane classes plus a vertical part that contributes
nothing to the generic fiber.
"""

import math
from collections import namedtuple
from fractions import Fraction
from operator import mul

from .lattice import DEFAULT_MAX_DIM, MAX_FACES, LatticeError, ResourceCapError, bareiss_step, bit_indices, check_count
from .lattice import _Record, _halfspace_rows, _rational, _sequence, _shown, det_int, halfspace_intersection
from .lattice import maximal_masks
from .toric import _same_fan


class UnboundedPolytopeError(Exception):
    """The divisor polyhedron has a nonzero recession cone."""


class LatticePolytope:
    """A polytope by its points (exact rational coordinates, lex-sorted).

    `divisor_polytope` lists exactly the vertices; `normalized_volume` also
    accepts points that are not vertices, which leave the volume unchanged.
    Its integer point rows and its inequality rows are memoized outside
    equality, hash and repr: a divisor polytope carries both from its one DD
    pass, and a bare point list pays one DD pass for its inequalities.
    """

    __slots__ = ("ambient_dim", "vertices", "_rows", "_inequalities")

    def __init__(self, ambient_dim, vertices):
        self.ambient_dim, self.vertices, self._rows, self._inequalities = ambient_dim, vertices, None, None

    def _key(self):
        return self.ambient_dim, self.vertices

    def __eq__(self, other):
        return self._key() == other._key() if type(other) is LatticePolytope else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"LatticePolytope(ambient_dim={self.ambient_dim!r}, vertices={self.vertices!r})"

    def rows(self):
        """The `_homogenized` rows (w, den) of the points (memoized)."""
        if self._rows is None:
            self._rows = _homogenized(self.ambient_dim, self.vertices)
        return self._rows

    def inequalities(self):
        """Integer rows a with the polytope = {x : <a, (x, 1)> >= 0} (memoized)."""
        if self._inequalities is None:
            dual = halfspace_intersection(self.rows(), self.ambient_dim + 1)
            self._inequalities = tuple(_halfspace_rows(*dual))
        return self._inequalities


def _homogenized(n, points):
    """(w, den) with w / den = v and den > 0 minimal, per distinct point v in lex order; n is a count,
    the points and each point are sequences, and a coordinate is read by the rational rule (no float)."""
    check_count(n, "ambient dimension")
    points = sorted({tuple(map(_rational, _sequence(v, "point"))) for v in _sequence(points, "points")})
    dens = [math.lcm(*(x.denominator for x in v)) for v in points]
    return tuple(tuple(x.numerator * (den // x.denominator) for x in v) + (den,) for v, den in zip(points, dens))


class ProjectiveDivisorData(_Record, namedtuple("ProjectiveDivisorData", "fiber_dim hyperplane_coefficients polarization")):
    """A divisor on a projective-space fiber by its hyperplane-class
    coefficients, and the polarization degree a with A = a * hyperplane.

    Vertical components (pulled back from the base) restrict to zero on the
    generic fiber, so they change no relative degree or volume and are not
    part of the data.
    """

    __slots__ = ()

    def __new__(cls, fiber_dim, hyperplane_coefficients, polarization=1):
        check_count(fiber_dim, "fiber dimension", low=1, cap=DEFAULT_MAX_DIM)
        check_count(polarization, "polarization degree", low=1)
        if not isinstance(hyperplane_coefficients, (list, tuple)):
            raise LatticeError(f"hyperplane_coefficients {_shown(hyperplane_coefficients)} is not a sequence")
        return super().__new__(cls, fiber_dim, tuple(map(_rational, hyperplane_coefficients)), polarization)


def divisor_polytope(fan, divisor):
    """Vertices of P_D = {m : <m, u> >= -d_u} over the fan rays, lex-sorted.

    One double description pass on the homogenized cone
    {(m, s) : <m, u> + d_u s >= 0, s >= 0}, whose extreme rays (m, s) with
    s > 0 are the vertices m / s.  A ray with s = 0 or a lineality direction
    is a nonzero recession direction, so the rays must span R^n positively
    (the fan is complete in the fiber directions); otherwise a structured
    failure is raised, also when P_D is empty.  The polytope carries the
    constraint rows as its inequalities and the rays as its point rows, so
    its volume needs no second pass and no conversion.  Another fan's
    divisor is a LatticeError."""
    _same_fan(fan, divisor)
    n = fan.ambient_dim
    constraints = []
    for u in fan.all_rays:
        d = divisor.coefficient(u)
        constraints.append(tuple(d.denominator * x for x in u) + (d.numerator,))
    constraints.append((0,) * n + (1,))
    rays, lineality = halfspace_intersection(constraints, n + 1)
    if lineality or any(r[-1] == 0 for r in rays):
        raise UnboundedPolytopeError("divisor not bounded above")
    # a primitive ray (m, s) is the row of m / s: gcd(m, s) = 1 forces den = s; since s > 0, the
    # vertices' lex order is that of the integer vectors m * (lcd / s), lcd the lcm of every s
    lcd = math.lcm(*(r[-1] for r in rays))
    rows = tuple(sorted(rays, key=lambda r: [x * (lcd // r[-1]) for x in r[:-1]]))
    poly = LatticePolytope(ambient_dim=n, vertices=tuple(tuple(Fraction(x, r[-1]) for x in r[:-1]) for r in rows))
    poly._rows, poly._inequalities = rows, tuple(constraints)
    return poly


def normalized_volume(polytope):
    """n! times the Euclidean volume, exact.  Empty or lower-dimensional
    polytopes have volume 0: an inequality tight on every point is an equation.

    A pulling triangulation on `polytope.rows()` and the point masks of
    `polytope.inequalities()` (no DD and no conversion for a divisor
    polytope).  The facets of a face G are the inclusion-maximal proper
    nonempty G & F over the masks F (a non-facet row masks to a face inside a
    facet); the apex is G's lowest point, and a d-face with d + 1 points is a
    simplex.  Each apex is eliminated once (`bareiss_step`) for all simplices
    below it, and a polygon finishes each two-point edge in closed form.  With
    q = lcd // den over the rows, a simplex weighs |det| * prod(q), its volume
    times lcd^(n + 1).  Each face is triangulated once, rescaled per chain:
    its residual rows under any apex chain are one linear image of its rows,
    so its weight over that of its reference simplex is the same on every
    chain.  ResourceCapError once the call has visited more than MAX_FACES
    faces, each memo hit and each closed-form edge counting as one.
    """
    rows, n = polytope.rows(), polytope.ambient_dim
    full = (1 << len(rows)) - 1
    # unchecked pairings: the DD read every inequality and every row at length n + 1
    if not rows or full in (masks := {sum(1 << i for i, r in enumerate(rows) if not sum(map(mul, a, r)))
                                      for a in polytope.inequalities()}):
        return Fraction(0)
    lcd = math.lcm(*(r[-1] for r in rows))
    q = [lcd // r[-1] for r in rows]
    memo, visited = {}, 0

    def weight(points, residual, prev):
        return abs(det_int([residual[i] for i in points], prev)) * math.prod(q[i] for i in points)

    def walk(face, dim, residual, prev, cuts):
        """(S, t, ref): the face's weight under this chain, its reference simplex and that simplex's weight."""
        nonlocal visited
        visited += 1
        if face in memo:
            s, t, ref = memo[face]
            t2 = weight(ref, residual, prev)
            return s * t2 // t, t2, ref
        points = bit_indices(face)
        if len(points) == dim + 1:
            s = weight(points, residual, prev)
            return s, s, points
        apex, rest = points[0], points[1:]
        pivot = residual[apex]
        c = next(j for j, x in enumerate(pivot) if x)  # an apex lies off the affine hull of every face below it
        below = dict(zip(rest, bareiss_step(pivot, c, prev, [residual[i] for i in rest])))
        p, s, ref = pivot[c], 0, None
        cuts = {face & f for f in cuts} - {0, face}  # a stacked face carries the masks that properly cut its parent
        for sub in maximal_masks(cuts):
            if sub >> apex & 1:
                continue
            if dim == 2 and sub.bit_count() == 2:  # an edge of a polygon: its triangle with the apex
                visited += 1
                i, j = edge = bit_indices(sub)
                (a, b), (x, y) = below[i], below[j]
                w = abs((a * y - b * x) // p) * q[i] * q[j]
                part = w, w, edge
            else:
                part = walk(sub, dim - 1, below, p, cuts)
            s += part[0]
            if ref is None:
                t, ref = q[apex] * part[1], (apex,) + part[2]
        if visited > MAX_FACES:
            raise ResourceCapError(f"triangulation passed the cap of {MAX_FACES} faces")
        memo[face] = q[apex] * s, t, ref
        return memo[face]

    return Fraction(walk(full, n, dict(enumerate(rows)), 1, masks)[0], lcd ** (n + 1))


def relative_degree_on_P(data):
    """deg_{A/Z} D = (hyperplane degree of D) * a^(n-1); vertical components
    contribute nothing."""
    degree = sum(data.hyperplane_coefficients, Fraction(0))
    return degree * Fraction(data.polarization) ** (data.fiber_dim - 1)


def relative_volume_on_P(data):
    """vol_{/Z}(D) = k^n for D restricting to k times the hyperplane class on
    the fiber; 0 when the restriction is not effective."""
    k = sum(data.hyperplane_coefficients, Fraction(0))
    if k < 0:
        return Fraction(0)
    return k ** data.fiber_dim
