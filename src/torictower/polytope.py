"""Relative degrees and volumes on projective-space fibers, and lattice
polytopes of nef toric divisors with exact normalized volumes.

Degrees and volumes target the projective-space models produced by the
tower engine: a divisor on P^n over the base is a combination of the
coordinate hyperplane classes plus a vertical part that contributes
nothing to the generic fiber.
"""

import math
from collections import defaultdict, namedtuple
from fractions import Fraction

from .lattice import DEFAULT_MAX_DIM, MAX_FACES, LatticeError, ResourceCapError, bareiss_step, bit_indices, check_count
from .lattice import _Record, _halfspace_rows, _rational, _shown, det_int, dot, halfspace_intersection, maximal_masks
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
            self._rows = _homogenized(self.vertices)
        return self._rows

    def inequalities(self):
        """Integer rows a with the polytope = {x : <a, (x, 1)> >= 0} (memoized)."""
        if self._inequalities is None:
            dual = halfspace_intersection(self.rows(), self.ambient_dim + 1)
            self._inequalities = tuple(_halfspace_rows(*dual))
        return self._inequalities


def _homogenized(points):
    """(w, den) with w / den = v and den > 0 minimal, per distinct point v in lex order;
    each coordinate is read by the rational rule, so a float is a LatticeError."""
    points = sorted({tuple(map(_rational, v)) for v in points})
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
    # a primitive ray (m, s) is the row of m / s: gcd(m, s) = 1 forces den = s; the sort is
    # keyed on the vertex, since comparing (vertex, ray) pairs compares each vertex pair twice
    pairs = sorted(((tuple(Fraction(x, r[-1]) for x in r[:-1]), r) for r in rays), key=lambda pair: pair[0])
    poly = LatticePolytope(ambient_dim=n, vertices=tuple(v for v, _ in pairs))
    poly._rows, poly._inequalities = tuple(r for _, r in pairs), tuple(constraints)
    return poly


def normalized_volume(polytope):
    """n! times the Euclidean volume, exact.  Empty or lower-dimensional
    polytopes have volume 0.

    A pulling triangulation on `polytope.rows()` and the point masks of
    `polytope.inequalities()` (no DD and no conversion for a divisor
    polytope).  The facets of a face G are the inclusion-maximal proper
    nonempty G & F over the masks F (a non-facet row masks to a face inside a
    facet); a stacked face carries the masks that properly cut its parent.
    The apex is G's lowest point, and a d-face with d + 1 points is a simplex.
    Each apex is eliminated once (`bareiss_step`) for all simplices below it;
    a leaf finishes its (d + 1)-square block and adds |det| / prod(den), and a
    polygon finishes each two-point edge from the edge's two residual rows.
    An apex lies off the affine hull of every face below it, so the apexes are
    independent and their residuals nonzero.  ResourceCapError once the call
    has popped more than MAX_FACES faces, a closed-form edge counting as one.
    """
    rows = polytope.rows()
    if not rows:
        return Fraction(0)
    masks = {sum(1 << i for i, r in enumerate(rows) if dot(a, r) == 0) for a in polytope.inequalities()}
    total = defaultdict(int)  # sum of |det| per denominator
    # (face, its dimension, residual rows of its points, last pivot, dens of the apexes above it,
    # the masks that properly cut its parent)
    stack = [((1 << len(rows)) - 1, polytope.ambient_dim, dict(enumerate(rows)), 1, 1, masks)]
    popped = 0
    while stack:
        popped += 1
        face, dim, residual, prev, dens, cuts = stack.pop()
        points = bit_indices(face)
        if len(points) == dim + 1:
            den = dens * math.prod(rows[i][-1] for i in points)
            total[den] += abs(det_int([residual[i] for i in points], prev))
        else:
            apex, rest = points[0], points[1:]
            pivot = residual[apex]
            c = next(j for j, x in enumerate(pivot) if x)  # the apexes are independent
            below = dict(zip(rest, bareiss_step(pivot, c, prev, [residual[i] for i in rest])))
            p, dens = pivot[c], dens * rows[apex][-1]
            cuts = {face & f for f in cuts} - {0, face}
            for sub in maximal_masks(cuts):
                if sub >> apex & 1:
                    continue
                if dim == 2 and sub.bit_count() == 2:  # an edge of a polygon: its triangle with the apex
                    popped += 1
                    i, j = bit_indices(sub)
                    (a, b), (x, y) = below[i], below[j]
                    total[dens * rows[i][-1] * rows[j][-1]] += abs((a * y - b * x) // p)
                else:
                    stack.append((sub, dim - 1, below, p, dens, cuts))
        if popped > MAX_FACES:
            raise ResourceCapError(f"triangulation passed the cap of {MAX_FACES} faces")
    lcd = math.lcm(*total)
    return Fraction(sum(v * (lcd // den) for den, v in total.items()), lcd)


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
