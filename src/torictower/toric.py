"""Toric varieties as fans: divisors, support functions, Cartier data,
principal divisors of characters, a character's maximal regular faces
(which build_model lifts into a node level) and their subfan, log discrepancies.

Sign convention: Cartier data is stored as the vector m_sigma with
<m_sigma, u_i> = d_i on each ray u_i of sigma, i.e. the negative of the
support function restricted to sigma.  This avoids double negation in
pullback code; the support function value at v is -<m_sigma, v>.
"""

import math
from collections import namedtuple
from fractions import Fraction

from .lattice import (
    MAX_FACES,
    Cone,
    Fan,
    LatticeError,
    ResourceCapError,
    _integers,
    _rational,
    derived_fan,
    dot,
    hnf,
    is_zero,
    mat_vec,
    maximal_masks,
    primitive,
    transpose,
)


_ZERO = Fraction(0)


class ToricDivisor:
    """Torus-invariant Q-divisor: rational coefficients on the fan's rays.

    Omitted rays have coefficient 0; zero coefficients are dropped.
    """

    __slots__ = ("fan", "_coeffs")

    def __init__(self, fan, coefficients=()):
        self.fan = fan
        items = coefficients.items() if isinstance(coefficients, dict) else coefficients
        coeffs = {}
        for ray, c in items:
            ray = tuple(ray)
            if ray not in fan.bit:
                raise LatticeError(f"ray {list(ray)} does not belong to the fan")
            c = _rational(c)
            if c != 0:
                coeffs[ray] = c
        self._coeffs = {ray: coeffs[ray] for ray in sorted(coeffs)}

    def coefficient(self, ray):
        return self._coeffs.get(tuple(ray), _ZERO)

    def coefficients(self):
        return dict(self._coeffs)

    def __add__(self, other):
        _same_fan(self.fan, other)
        out = dict(self._coeffs)
        for ray, c in other._coeffs.items():
            out[ray] = out.get(ray, _ZERO) + c
        return ToricDivisor(self.fan, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return ToricDivisor(self.fan, {r: -c for r, c in self._coeffs.items()})

    def scale(self, k):
        k = _rational(k)
        return ToricDivisor(self.fan, {r: k * c for r, c in self._coeffs.items()})

    def is_zero(self):
        return not self._coeffs

    def __eq__(self, other):
        return (
            isinstance(other, ToricDivisor)
            and self.fan == other.fan
            and self._coeffs == other._coeffs
        )

    def __repr__(self):
        return f"ToricDivisor({self._coeffs})"


def _same_fan(fan, divisor):
    """LatticeError unless `divisor` lives on `fan` (tested for identity first)."""
    if divisor.fan is not fan and divisor.fan != fan:
        raise LatticeError("divisors live on different fans")


def boundary_divisor(fan):
    """The toric boundary: coefficient 1 on every ray."""
    return ToricDivisor(fan, {r: Fraction(1) for r in fan.all_rays})


def canonical_divisor(fan):
    """The toric canonical divisor: coefficient -1 on every ray."""
    return ToricDivisor(fan, {r: Fraction(-1) for r in fan.all_rays})


def character_divisor(fan, char):
    """Principal divisor of a character: coefficient <m, u> on each ray u."""
    char = _integers(char)
    if len(char) != fan.ambient_dim:
        raise LatticeError("character dimension does not match fan")
    return ToricDivisor(fan, {r: Fraction(dot(char, r)) for r in fan.all_rays})


class CartierData(namedtuple("CartierData", "fan vectors cartier_index")):
    """Per maximal cone, a rational M-vector m_sigma with <m_sigma, u_i> = d_i,
    plus the least positive integer q such that q*D is Cartier.

    Each m_sigma is w^T*y for the unimodular w of the cone's column Hermite
    form, so q*m_sigma is integral exactly when q*D is Cartier on sigma, and
    q is the least common denominator of every entry of every vector.
    """

    __slots__ = ()

    def evaluate(self, v):
        """<m_sigma, v> for the first maximal cone containing v, or None."""
        k = self.fan.cone_index(v)
        return None if k is None else dot(self.vectors[k], v)


class NotQCartier(Exception):
    """The divisor is not Q-Cartier on `cone`: cartier_data returns it as its
    failure value, and pullback_divisor and log_discrepancy raise it."""

    def __init__(self, cone, message):
        super().__init__(message)
        self.cone = cone
        self.message = message


def cartier_data(fan, divisor):
    """Solve the Cartier data of a toric divisor exactly, by one integer
    Hermite form H = w*A^T per maximal cone, A the matrix of its rays u_i.

    One pass over the fan's rays gives the divisor's common denominator den
    and its integer numerators D = den*d, so a cone only looks D up.  Then
    m = w^T*y turns <m, u_i> = d_i into H^T*y = D/den, which is lower
    echelon: row c of H has its pivot at ray p_c, so forward substitution
    gives y_c from D_p_c and the y_c' before it.  It runs fraction free on
    Y = t*y, scaling by each pivot, so m = w^T*Y/(t*den); the free
    coordinates of y are 0, and the solution is unique on full-dimensional
    cones.  The cone is Q-Cartier iff <m, u_i> = d_i holds on every ray.
    Since w is unimodular, the least q with q*m integral, the cone's Cartier
    index, is t*den / gcd(t*den, *M) for M = w^T*Y.  D, Y, M and t*den scale
    together, so a den larger than the cone's own changes neither m nor the
    index.  A cone on whose rays D vanishes, the zero cone among them, gets
    m = 0 with no Hermite form.

    Returns CartierData, or NotQCartier naming the first cone where the
    system has no rational solution; LatticeError for another fan's divisor.
    """
    _same_fan(fan, divisor)
    n = fan.ambient_dim
    values = [divisor.coefficient(u) for u in fan.all_rays]
    den = math.lcm(*(d.denominator for d in values))
    numerators = {u: d.numerator * (den // d.denominator) for u, d in zip(fan.all_rays, values)}
    vectors = []
    q = 1
    for cone in fan.maximal_cones:
        rays = cone.generators
        big_d = [numerators[u] for u in rays]
        if not any(big_d):  # the zero cone, or D vanishes on every ray: m = 0
            vectors.append((_ZERO,) * n)
            continue
        h, w = hnf(transpose(rays))
        y, t = [], 1
        for row in h:
            p = next((j for j, x in enumerate(row) if x), None)
            if p is None:  # the rows below the rank are zero: free coordinates
                break
            rhs = t * big_d[p] - sum(hc[p] * yc for hc, yc in zip(h, y))
            y, t = [yc * row[p] for yc in y] + [rhs], t * row[p]
        m = mat_vec(transpose(w), y + [0] * (n - len(y)))
        if any(dot(m, u) != t * d for u, d in zip(rays, big_d)):
            return NotQCartier(
                cone, f"not Q-Cartier on cone {list(cone.generators)}"
            )
        scale = t * den
        q = math.lcm(q, scale // math.gcd(scale, *m))
        vectors.append(tuple(Fraction(x, scale) for x in m))
    return CartierData(fan, tuple(vectors), q)


def pullback_divisor(lattice_map, source, target, divisor):
    """Pullback of a Q-Cartier divisor along a toric morphism.

    `lattice_map` has target_dim rows and source_dim columns and must send
    every source cone into some target cone sigma (checked, by
    Fan.cone_index).  The coefficient on each ray u of a source cone is
    <m_sigma, map*u> for the target Cartier data on that sigma.  A ray in
    several source cones gets one value: Cartier data agree on shared faces.
    """
    cd = cartier_data(target, divisor)
    if isinstance(cd, NotQCartier):
        raise cd
    coeffs = {}
    for cone in source.maximal_cones:
        images = [mat_vec(lattice_map, g) for g in cone.generators]
        k = target.cone_index(*images)
        if k is None:
            raise LatticeError(
                f"source cone {list(cone.generators)} does not map into any "
                "cone of the target fan"
            )
        coeffs.update((u, dot(cd.vectors[k], v)) for u, v in zip(cone.generators, images))
    return ToricDivisor(source, coeffs)


def log_discrepancy(fan, boundary, e):
    """Log discrepancy a(E, X, B) of the toric valuation with primitive vector e.

    Accepts non-primitive e (normalized first).  Raises LatticeError when e
    lies outside the fan support and NotQCartier when K_X + B is not
    Q-Cartier; batch harnesses catch both and aggregate.
    """
    e = _integers(e)
    if is_zero(e):
        raise LatticeError("valuation vector must be nonzero")
    e = primitive(e)
    _same_fan(fan, boundary)
    cd = cartier_data(fan, ToricDivisor(fan, {u: boundary.coefficient(u) - 1 for u in fan.all_rays}))
    if isinstance(cd, NotQCartier):
        raise cd
    val = cd.evaluate(e)
    if val is None:
        raise LatticeError("valuation has no centre")
    return -val


def regularity_subfan(fan, char):
    """The subfan where the character is regular (all cones sigma with
    <m, u> >= 0 on every ray u of sigma, i.e. m in the dual of sigma): the
    `derived_fan` of `_regular_faces` under the identity."""
    char = _integers(char)
    if len(char) != fan.ambient_dim:
        raise LatticeError("character dimension does not match fan")
    return derived_fan(fan, fan.ambient_dim, _regular_faces(fan, char), [lambda u: u])


def _regular_faces(fan, char):
    """The maximal faces (k, tau) of `fan` where the integer character is
    regular, tau a mask over the ray index and k a maximal cone it is a face
    of.  Each maximal cone is searched top-down: a face that holds a ray u
    with <m, u> < 0 steps, for the lowest such ray r, only to its
    intersections with the cone's facets that miss r, and a face with none is
    kept.  No regular face G is lost: G is the intersection of the facets that
    contain it, and one of them misses r (Cox-Little-Schenck, §1.2).  A face
    shared by several maximal cones is searched once; ResourceCapError past
    MAX_FACES faces.  Precondition: the maximal cones are canonical and form
    a fan, as build_model guarantees, so faces nest as ray subsets."""
    bit, tops = fan.bit, fan.tops
    irregular = sum(b for u, b in bit.items() if dot(char, u) < 0)
    found = {}  # regular face -> a maximal cone it is a face of
    seen = set()
    for k, top in enumerate(tops):
        cone_facets = fan.facet_masks(k) if top & irregular else ()
        seen.add(top)
        stack = [top]
        while stack:
            cur = stack.pop()
            bad = cur & irregular
            if not bad:
                found.setdefault(cur, k)
                continue
            low = bad & -bad
            for f in cone_facets:
                if not f & low:
                    sub = cur & f
                    if sub not in seen:
                        seen.add(sub)
                        stack.append(sub)
            if len(seen) > MAX_FACES:
                raise ResourceCapError(f"regular-face search passed the cap of {MAX_FACES} faces")
    return [(found[a], a) for a in maximal_masks(found)]


def star_subdivision(fan, v):
    """Star subdivision of the fan at a primitive vector v in its support.

    Precondition: the maximal cones are canonical, strongly convex and form a
    fan.  A maximal cone containing v becomes cone(tau, v) for each facet tau
    with v off its hyperplane (Cox-Little-Schenck §11.1): tau stays a face and v
    an extreme ray, so tau's rays, read off its own normal, plus v are canonical
    generators, with no DD.
    """
    v = primitive(_integers(v))
    holds = [cone.contains(v) for cone in fan.maximal_cones]
    if not any(holds):
        raise LatticeError("subdivision centre lies outside the fan support")
    new_cones = []
    for cone, held in zip(fan.maximal_cones, holds):
        if not held:
            new_cones.append(cone)
            continue
        for nrm in cone.halfspaces()[0]:
            if dot(nrm, v) > 0:
                facet = [g for g in cone.generators if dot(nrm, g) == 0]
                new_cones.append(Cone(fan.ambient_dim, tuple(sorted(facet + [v]))))
    return Fan(fan.ambient_dim, new_cones)
