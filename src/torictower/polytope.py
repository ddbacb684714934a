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

from .lattice import DEFAULT_MAX_DIM, MAX_FACES, LatticeError, ResourceCapError, bareiss_step, bit_indices, det_int, dot
from .lattice import _halfspace_rows, halfspace_intersection, maximal_masks


class UnboundedPolytopeError(Exception):
    """The divisor polyhedron has a nonzero recession cone."""


class LatticePolytope:
    """A polytope by its points (exact rational coordinates, lex-sorted).

    `divisor_polytope` lists exactly the vertices; `normalized_volume` also
    accepts points that are not vertices, which leave the volume unchanged.
    Its inequality rows are memoized outside equality, hash and repr: a divisor
    polytope carries its own, and a bare point list pays one DD pass for them.
    """

    __slots__ = ("ambient_dim", "vertices", "_inequalities")

    def __init__(self, ambient_dim, vertices):
        self.ambient_dim, self.vertices, self._inequalities = ambient_dim, vertices, None

    def _key(self):
        return self.ambient_dim, self.vertices

    def __eq__(self, other):
        return self._key() == other._key() if type(other) is LatticePolytope else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"LatticePolytope(ambient_dim={self.ambient_dim!r}, vertices={self.vertices!r})"

    def inequalities(self):
        """Integer rows a with the polytope = {x : <a, (x, 1)> >= 0} (memoized)."""
        if self._inequalities is None:
            dual = halfspace_intersection(_homogenized(self.vertices), self.ambient_dim + 1)
            self._inequalities = tuple(_halfspace_rows(*dual))
        return self._inequalities


def _homogenized(points):
    """(w, den) with w / den = v and den > 0 minimal, per distinct point v in lex order."""
    points = sorted({tuple(map(Fraction, v)) for v in points})
    dens = [math.lcm(*(x.denominator for x in v)) for v in points]
    return [tuple(int(x * den) for x in v) + (den,) for v, den in zip(points, dens)]


class ProjectiveDivisorData(namedtuple("ProjectiveDivisorData", "fiber_dim hyperplane_coefficients polarization")):
    """A divisor on a projective-space fiber by its hyperplane-class
    coefficients, and the polarization degree a with A = a * hyperplane.

    Vertical components (pulled back from the base) restrict to zero on the
    generic fiber, so they change no relative degree or volume and are not
    part of the data.
    """

    __slots__ = ()

    def __new__(cls, fiber_dim, hyperplane_coefficients, polarization=1):
        if fiber_dim < 1:
            raise LatticeError("fiber dimension must be >= 1")
        if fiber_dim > DEFAULT_MAX_DIM:
            raise ResourceCapError(f"fiber dimension {fiber_dim} exceeds configured cap {DEFAULT_MAX_DIM}")
        if polarization < 1:
            raise LatticeError("polarization degree must be >= 1")
        return super().__new__(cls, fiber_dim, tuple(map(Fraction, hyperplane_coefficients)), polarization)

    @classmethod
    def _make(cls, iterable):  # _replace builds through _make, so every path runs __new__
        return cls(*iterable)


def divisor_polytope(fan, divisor):
    """Vertices of P_D = {m : <m, u> >= -d_u} over the fan rays, lex-sorted.

    One double description pass on the homogenized cone
    {(m, s) : <m, u> + d_u s >= 0, s >= 0}, whose extreme rays (m, s) with
    s > 0 are the vertices m / s.  A ray with s = 0 or a lineality direction
    is a nonzero recession direction, so the rays must span R^n positively
    (the fan is complete in the fiber directions); otherwise a structured
    failure is raised, also when P_D is empty.  The polytope carries these
    rows as its inequalities, so its volume needs no second pass.
    """
    n = fan.ambient_dim
    constraints = []
    for u in fan.all_rays:
        d = divisor.coefficient(u)
        constraints.append(tuple(d.denominator * x for x in u) + (d.numerator,))
    constraints.append((0,) * n + (1,))
    rays, lineality = halfspace_intersection(constraints, n + 1)
    if lineality or any(r[-1] == 0 for r in rays):
        raise UnboundedPolytopeError("divisor not bounded above")
    vertices = sorted(tuple(Fraction(x, r[-1]) for x in r[:-1]) for r in rays)
    poly = LatticePolytope(ambient_dim=n, vertices=tuple(vertices))
    poly._inequalities = tuple(constraints)
    return poly


def normalized_volume(polytope):
    """n! times the Euclidean volume, exact.  Empty or lower-dimensional
    polytopes have volume 0.

    A pulling triangulation on the point masks of `polytope.inequalities()`
    (no DD for a divisor polytope).  The facets of a face G are the inclusion-
    maximal proper nonempty G & F over the masks F (a non-facet row masks to
    a face inside a facet), the apex is G's lowest point, and a d-face with
    d + 1 points is a simplex.  Each apex is eliminated once (`bareiss_step`)
    for all simplices below it; a leaf finishes its (d + 1)-square block and
    adds |det| / prod(den).  An apex lies off the affine hull of every face
    below it, so the apexes are independent and their residuals nonzero.
    ResourceCapError once the call has popped more than MAX_FACES faces.
    """
    rows = _homogenized(polytope.vertices)
    if not rows:
        return Fraction(0)
    facets = {sum(1 << i for i, r in enumerate(rows) if dot(a, r) == 0) for a in polytope.inequalities()}
    total = {}  # sum of |det| per denominator
    # (face, its dimension, residual rows of its points, last pivot, dens of the apexes above it)
    stack = [((1 << len(rows)) - 1, polytope.ambient_dim, dict(enumerate(rows)), 1, 1)]
    popped = 0
    while stack:
        popped += 1
        if popped > MAX_FACES:
            raise ResourceCapError(f"triangulation passed the cap of {MAX_FACES} faces")
        face, dim, residual, prev, dens = stack.pop()
        points = bit_indices(face)
        if len(points) == dim + 1:
            den = dens * math.prod(rows[i][-1] for i in points)
            total[den] = total.get(den, 0) + abs(det_int([residual[i] for i in points], prev))
            continue
        apex, rest = points[0], points[1:]
        pivot = residual[apex]
        c = next(j for j, x in enumerate(pivot) if x)  # the apexes are independent
        below = dict(zip(rest, bareiss_step(pivot, c, prev, [residual[i] for i in rest])))
        for sub in maximal_masks({face & f for f in facets} - {0, face}):
            if not sub >> apex & 1:
                stack.append((sub, dim - 1, below, pivot[c], dens * rows[apex][-1]))
    return sum((Fraction(v, den) for den, v in total.items()), Fraction(0))


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
