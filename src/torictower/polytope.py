"""Relative degrees and volumes on projective-space fibers, and lattice
polytopes of nef toric divisors with exact normalized volumes.

Degrees and volumes target the projective-space models produced by the
tower engine: a divisor on P^n over the base is a combination of the
coordinate hyperplane classes plus a vertical part that contributes
nothing to the generic fiber.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .lattice import LatticeError, bit_indices, det_int, dot, halfspace_intersection


class UnboundedPolytopeError(Exception):
    """The divisor polyhedron has a nonzero recession cone."""


@dataclass(frozen=True)
class LatticePolytope:
    """A polytope by its points (exact rational coordinates, lex-sorted).

    `divisor_polytope` lists exactly the vertices; `normalized_volume` also
    accepts points that are not vertices, which leave the volume unchanged.
    """

    ambient_dim: int
    vertices: tuple


@dataclass(frozen=True)
class ProjectiveDivisorData:
    """A divisor on a projective-space fiber: hyperplane-class coefficients,
    a marker for vertical components (which never contribute), and the
    polarization degree a with A = a * hyperplane."""

    fiber_dim: int
    hyperplane_coefficients: tuple
    has_vertical: bool = False
    polarization: int = 1

    def __post_init__(self):
        if self.fiber_dim < 1:
            raise LatticeError("fiber dimension must be >= 1")
        if self.polarization < 1:
            raise LatticeError("polarization degree must be >= 1")
        object.__setattr__(
            self,
            "hyperplane_coefficients",
            tuple(Fraction(c) for c in self.hyperplane_coefficients),
        )


def divisor_polytope(fan, divisor):
    """Vertices of P_D = {m : <m, u> >= -d_u} over the fan rays, lex-sorted.

    One double description pass on the homogenized cone
    {(m, s) : <m, u> + d_u s >= 0, s >= 0}, whose extreme rays (m, s) with
    s > 0 are the vertices m / s.  A ray with s = 0 or a lineality direction
    is a nonzero recession direction, so the rays must span R^n positively
    (the fan is complete in the fiber directions); otherwise a structured
    failure is raised, also when P_D is empty.
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
    return LatticePolytope(ambient_dim=n, vertices=tuple(vertices))


def normalized_volume(polytope):
    """n! times the Euclidean volume, exact.  Empty or lower-dimensional
    polytopes have volume 0.

    One double description pass on the homogenized points (w, den) gives the
    facet normals; a pulling triangulation then runs on point-facet
    incidence bitmasks alone.  The facets of a face G are the inclusion-
    maximal proper nonempty G & F over the facet masks F, the apex is G's
    lowest point, and a d-face with d + 1 points is a simplex.  With the
    apexes collected above it, it adds |det(rows)| / prod(den).
    """
    n = polytope.ambient_dim
    rows = []
    for v in sorted(polytope.vertices):
        v = [Fraction(x) for x in v]
        den = math.lcm(*(x.denominator for x in v))
        rows.append(tuple(int(x * den) for x in v) + (den,))
    if not rows:
        return Fraction(0)
    normals, equations = halfspace_intersection(rows, n + 1)
    if equations:
        return Fraction(0)
    facets = [sum(1 << i for i, r in enumerate(rows) if dot(a, r) == 0) for a in normals]
    total = Fraction(0)
    stack = [((1 << len(rows)) - 1, n, 0)]  # (face, its dimension, apexes above it)
    while stack:
        face, dim, apexes = stack.pop()
        if face.bit_count() == dim + 1:
            simplex = [rows[i] for i in bit_indices(face | apexes)]
            total += Fraction(abs(det_int(simplex)), math.prod(r[-1] for r in simplex))
            continue
        apex = face & -face
        maximal = []
        for sub in sorted({face & f for f in facets} - {0, face}, key=int.bit_count, reverse=True):
            if all(sub & m != sub for m in maximal):
                maximal.append(sub)
                if not sub & apex:
                    stack.append((sub, dim - 1, apexes | apex))
    return total


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
