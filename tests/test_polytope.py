import functools
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import torictower.polytope
from corpus import padded, refined_products
from oracles import (
    divisor_polytope_oracle,
    halfspace_intersection_oracle,
    normalized_volume_oracle,
    normalized_volume_per_simplex_oracle,
    unimodular,
)
from torictower.lattice import (
    Cone,
    Fan,
    LatticeError,
    ResourceCapError,
    det_int,
    dot,
    halfspace_intersection,
    identity_matrix,
    mat_vec,
    orthant_fan,
    product_fan,
    projective_fan,
    transpose,
    unit_vector,
)
from torictower.polytope import (
    LatticePolytope,
    ProjectiveDivisorData,
    UnboundedPolytopeError,
    _homogenized,
    divisor_polytope,
    normalized_volume,
    relative_degree_on_P,
    relative_volume_on_P,
)
from torictower.toric import ToricDivisor, boundary_divisor, star_subdivision


def frac_point(*xs):
    return tuple(Fraction(x) for x in xs)


# --- divisor polytopes ---------------------------------------------------


def test_hyperplane_polytope_is_unimodular_simplex():
    fan = projective_fan(2)
    poly = divisor_polytope(fan, ToricDivisor(fan, {(1, 0): 1}))
    assert len(poly.vertices) == 3
    assert normalized_volume(poly) == 1


def test_p1_twice_gives_length_two_segment():
    fan = projective_fan(1)
    poly = divisor_polytope(fan, ToricDivisor(fan, {(1,): 2}))
    assert poly.vertices == (frac_point(-2), frac_point(0))
    assert normalized_volume(poly) == 2


def test_p1xp1_rectangle():
    fan = product_fan(projective_fan(1), projective_fan(1))
    poly = divisor_polytope(fan, ToricDivisor(fan, {(1, 0): 1, (0, 1): 2}))
    assert len(poly.vertices) == 4
    assert normalized_volume(poly) == 4  # 2! times the area of a 1x2 box


def test_unbounded_polytope_failure():
    fan = orthant_fan(2)
    with pytest.raises(UnboundedPolytopeError, match="divisor not bounded above"):
        divisor_polytope(fan, ToricDivisor(fan, {(1, 0): 1}))


def test_empty_polytope_has_volume_zero():
    fan = projective_fan(1)
    # -H on P^1 has an empty section polytope
    poly = divisor_polytope(fan, ToricDivisor(fan, {(1,): -1}))
    assert poly.vertices == ()
    assert normalized_volume(poly) == 0


# --- normalized volume ---------------------------------------------------


def test_unit_simplex_volume():
    for n in range(1, 5):
        verts = [frac_point(*([0] * n))] + [
            tuple(Fraction(1 if j == i else 0) for j in range(n)) for i in range(n)
        ]
        assert normalized_volume(LatticePolytope(n, tuple(sorted(verts)))) == 1


def test_volume_of_twice_hyperplane_on_p2():
    fan = projective_fan(2)
    poly = divisor_polytope(fan, ToricDivisor(fan, {(1, 0): 2}))
    assert normalized_volume(poly) == 4  # equals (O(2))^2


def test_kh_on_pn_grid():
    for n in range(1, 5):
        fan = projective_fan(n)
        ray = unit_vector(n, 0)
        for k in range(1, 4):
            poly = divisor_polytope(fan, ToricDivisor(fan, {ray: k}))
            assert normalized_volume(poly) == Fraction(k) ** n


def test_volume_unimodular_invariance():
    rng = random.Random(12)
    for _ in range(25):
        n = rng.randint(2, 3)
        fan = projective_fan(n)
        poly = divisor_polytope(fan, ToricDivisor(fan, {unit_vector(n, 0): rng.randint(1, 3)}))
        u = [list(r) for r in identity_matrix(n)]
        for _ in range(6):
            i, j = rng.randrange(n), rng.randrange(n)
            if i != j:
                k = rng.randint(-2, 2)
                u[i] = [a + k * b for a, b in zip(u[i], u[j])]
        moved = tuple(
            sorted(
                tuple(sum(Fraction(u[r][c]) * v[c] for c in range(n)) for r in range(n))
                for v in poly.vertices
            )
        )
        assert normalized_volume(LatticePolytope(n, moved)) == normalized_volume(poly)


def test_lower_dimensional_polytope_has_zero_volume():
    seg = LatticePolytope(2, (frac_point(0, 0), frac_point(3, 0)))
    assert normalized_volume(seg) == 0


def test_normalized_volume_caps_its_triangulation_stack(monkeypatch):
    """The unit cube's pulling triangulation visits 10 faces: the cube, its 3
    facets away from the apex, and 2 edges of each, the leaves of its 6
    simplices.  One call may visit MAX_FACES faces, and raises past them."""
    fan = product_fan(product_fan(projective_fan(1), projective_fan(1)), projective_fan(1))
    cube = divisor_polytope(fan, ToricDivisor(fan, {unit_vector(3, i): 1 for i in range(3)}))
    monkeypatch.setattr(torictower.polytope, "MAX_FACES", 10)
    assert normalized_volume(cube) == 6
    monkeypatch.setattr(torictower.polytope, "MAX_FACES", 9)
    with pytest.raises(ResourceCapError, match="^triangulation passed the cap of 9 faces$"):
        normalized_volume(cube)


# --- against the oracles on star-subdivided complete fans ----------------


def _subdivided_fan(rng, n):
    """P^n or P^a x P^(n-a), star-subdivided one to three times at
    sum c_i g_i over a random maximal cone, c_i in {1, 2}; the cones
    around such a centre are often not smooth."""
    a = rng.randint(0, n - 1)
    fan = projective_fan(n) if a == 0 else product_fan(projective_fan(a), projective_fan(n - a))
    for _ in range(rng.randint(1, 3)):
        gens = rng.choice(fan.maximal_cones).generators
        coeffs = [rng.randint(1, 2) for _ in gens]
        fan = star_subdivision(fan, tuple(sum(c * g[i] for c, g in zip(coeffs, gens)) for i in range(n)))
    return fan


def _divisors(rng, fan):
    """The boundary divisor and one with random coefficients in {0, 1/2, .., 3}."""
    coeffs = {u: Fraction(rng.randint(0, 6), 2) for u in fan.all_rays}
    return [boundary_divisor(fan), ToricDivisor(fan, coeffs)]


def _cases(seed, fans_per_dim):
    rng = random.Random(seed)
    return [
        (fan, divisor)
        for n in (2, 3, 4)
        for fan in (_subdivided_fan(rng, n) for _ in range(fans_per_dim))
        for divisor in _divisors(rng, fan)
    ]


CASES = _cases(20261017, 8)


@functools.cache
def complete_polytopes(seed=501, count=12):
    """The anticanonical polytopes of the benchmark's `complete` fans: fan j
    is P^a x P^(n-a) with n = 5 + j % 2 and a = 1 + (j // 2) % (n - 1),
    star-subdivided 6 (n = 5) or 4 (n = 6) times at sum c_i g_i, c_i in
    {1, 2}, over a seeded maximal cone; the seeded draws of the fan's 8
    log-discrepancy vectors follow its steps."""
    rng = random.Random(f"complete:{seed}")
    polytopes = []
    for j in range(count):
        n = 5 + j % 2
        a = 1 + (j // 2) % (n - 1)
        fan = product_fan(projective_fan(a), projective_fan(n - a))
        for _ in range({5: 6, 6: 4}[n]):
            pick, coeffs = rng.randrange(1 << 30), [rng.randint(1, 2) for _ in range(n)]
            gens = fan.maximal_cones[pick % len(fan.maximal_cones)].generators
            fan = star_subdivision(fan, tuple(sum(c * g[i] for c, g in zip(coeffs, gens)) for i in range(n)))
        vectors = 0
        while vectors < 8:  # a list, not a generator: every draw is consumed
            vectors += any([rng.randint(-3, 3) for _ in range(n)])
        polytopes.append(divisor_polytope(fan, boundary_divisor(fan)))
    return polytopes


def assert_volumes_agree(poly):
    """The seeded volume, the bare-point volume and both oracles agree."""
    vol = normalized_volume(poly)
    bare = LatticePolytope(poly.ambient_dim, poly.vertices)
    assert isinstance(vol, Fraction)
    assert vol == normalized_volume(bare) == normalized_volume_per_simplex_oracle(poly)
    assert vol == normalized_volume_oracle(poly)
    return vol


def test_divisor_polytope_and_volume_match_oracles():
    singular = rational = 0
    for fan, divisor in CASES:
        poly = divisor_polytope(fan, divisor)
        assert poly == divisor_polytope_oracle(fan, divisor)
        assert hash(poly) == hash(divisor_polytope_oracle(fan, divisor))
        assert_volumes_agree(poly)
        singular += any(
            abs(det_int(c.generators)) != 1 for c in fan.maximal_cones
        )
        rational += any(x.denominator != 1 for v in poly.vertices for x in v)
    # the family covers non-smooth fans and rational vertices
    assert singular > 0 and rational > 0


def test_complete_polytope_volumes_match_oracles():
    polys = complete_polytopes()
    # the benchmark's traced seed-501 run counts 656 vertices over its 12 polytopes
    assert sum(len(p.vertices) for p in polys) == 656
    for poly in polys:
        assert assert_volumes_agree(poly) > 0


def test_double_description_of_polytope_rows_matches_oracle():
    """The homogenized vertex rows: many rows, few facets, and every row
    tight on several facets, so the pre-filter meets real adjacencies."""
    polys = complete_polytopes()[:4] + [divisor_polytope(f, d) for f, d in CASES[::3]]
    for poly in polys:
        rows, n = _homogenized(poly.ambient_dim, poly.vertices), poly.ambient_dim + 1
        assert halfspace_intersection(rows, n) == halfspace_intersection_oracle(rows, n)


def test_volume_is_homogeneous_of_degree_n():
    for fan, divisor in CASES[::3]:
        n = fan.ambient_dim
        vol = normalized_volume(divisor_polytope(fan, divisor))
        for k in (2, 3):
            scaled = ToricDivisor(fan, {u: k * c for u, c in divisor.coefficients().items()})
            poly = divisor_polytope(fan, scaled)
            assert normalized_volume(poly) == k**n * vol


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_volume_invariant_under_affine_unimodular_maps(data):
    fan, divisor = data.draw(st.sampled_from(CASES))
    n = fan.ambient_dim
    u, _ = data.draw(unimodular(n))
    t = data.draw(st.tuples(*[st.fractions(-3, 3, max_denominator=4)] * n))
    poly = divisor_polytope(fan, divisor)
    moved = tuple(sorted(tuple(x + y for x, y in zip(mat_vec(u, v), t)) for v in poly.vertices))
    assert normalized_volume(LatticePolytope(n, moved)) == normalized_volume(poly)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_divisor_polytope_commutes_with_unimodular_change_of_coordinates(data):
    fan, divisor = data.draw(st.sampled_from(CASES))
    n = fan.ambient_dim
    u, u_inv = data.draw(unimodular(n))
    moved_fan = Fan(
        n, [Cone(n, tuple(sorted(mat_vec(u, g) for g in c.generators))) for c in fan.maximal_cones]
    )
    moved_divisor = ToricDivisor(
        moved_fan, {mat_vec(u, r): c for r, c in divisor.coefficients().items()}
    )
    # <U^-T m, U r> = <m, r>, so the vertices move by U^-T
    expected = sorted(mat_vec(transpose(u_inv), v) for v in divisor_polytope(fan, divisor).vertices)
    assert list(divisor_polytope(moved_fan, moved_divisor).vertices) == expected


# --- edge cases ------------------------------------------------------------


def test_infeasible_bounded_polytope_is_empty():
    fan = projective_fan(3)
    for c in (-1, Fraction(-1, 2)):
        divisor = ToricDivisor(fan, {u: c for u in fan.all_rays})
        poly = divisor_polytope(fan, divisor)
        assert poly.vertices == () == divisor_polytope_oracle(fan, divisor).vertices
        assert normalized_volume(poly) == 0


def test_unbounded_polytope_raises_when_empty():
    # rays +-e_1 only: the recession cone is the line m_1 = 0, and
    # m_1 >= 1, -m_1 >= 1 has no solution
    fan = Fan(2, [Cone(2, ((-1, 0),)), Cone(2, ((1, 0),))])
    divisor = ToricDivisor(fan, {(1, 0): -1, (-1, 0): -1})
    for enumerate_vertices in (divisor_polytope, divisor_polytope_oracle):
        with pytest.raises(UnboundedPolytopeError, match="divisor not bounded above"):
            enumerate_vertices(fan, divisor)


def test_unbounded_polytope_raises_when_nonempty():
    for fan, coeffs in (
        (orthant_fan(3), {(1, 0, 0): 2}),
        (Fan(2, [Cone(2, ((-1, 0),)), Cone(2, ((1, 0),))]), {(1, 0): 1}),
    ):
        with pytest.raises(UnboundedPolytopeError):
            divisor_polytope(fan, ToricDivisor(fan, coeffs))


def test_lower_dimensional_polytopes_have_zero_volume():
    point = LatticePolytope(2, (frac_point(1, 2),))
    triangle = LatticePolytope(3, (frac_point(0, 0, 0), frac_point(0, 1, 0), frac_point(1, 0, 0)))
    flat = LatticePolytope(
        3, tuple(sorted(frac_point(x, y, Fraction(1, 3)) for x in (0, 2) for y in (0, 2)))
    )
    for poly in (point, triangle, flat):
        assert normalized_volume(poly) == 0


def test_points_that_are_not_vertices_leave_the_volume_unchanged():
    for fan, divisor in CASES[::4]:
        poly = divisor_polytope(fan, divisor)
        verts, n = poly.vertices, poly.ambient_dim
        assert normalized_volume(padded(poly)) == normalized_volume(poly)
        repeated = tuple(sorted(verts + verts[::2]))
        assert normalized_volume(LatticePolytope(n, repeated)) == normalized_volume(poly)


def test_refined_products_with_points_that_are_not_vertices_match_both_oracles():
    """With points inside its faces the walk pulls at points that are not
    vertices, and rescales faces that hold them; a repeated point is one point."""
    for fan in refined_products(20261019, 3):
        poly = divisor_polytope(fan, boundary_divisor(fan))
        more = padded(poly)
        repeated = LatticePolytope(more.ambient_dim, more.vertices + more.vertices[::3])
        vol = normalized_volume(repeated)
        assert vol == normalized_volume(poly) > 0
        assert vol == normalized_volume_per_simplex_oracle(more) == normalized_volume_oracle(more)


def test_both_volume_oracles_read_a_repeated_point_as_one_point():
    """The unit square with a corner listed twice has volume 2, and so has
    every refined product's polytope with its first vertex listed twice, in
    `normalized_volume` and in both oracles."""
    square = LatticePolytope(2, ((0, 0), (0, 0), (0, 1), (1, 0), (1, 1)))
    assert normalized_volume(square) == 2
    assert normalized_volume_oracle(square) == normalized_volume_per_simplex_oracle(square) == 2
    for fan in refined_products(20261022, 2):
        poly = divisor_polytope(fan, boundary_divisor(fan))
        repeated = LatticePolytope(poly.ambient_dim, poly.vertices[:1] + poly.vertices)
        vol = normalized_volume(poly)
        assert vol > 0
        assert normalized_volume_oracle(repeated) == normalized_volume_per_simplex_oracle(repeated) == vol


def expanded_faces(poly):
    """(the distinct faces, the visits): the faces the pulling triangulation
    expands, those with more points than a simplex of their dimension, walked
    down every apex chain with no memo."""
    rows = poly.rows()
    masks = {sum(1 << i for i, r in enumerate(rows) if dot(a, r) == 0) for a in poly.inequalities()}
    stack, faces, visits = [((1 << len(rows)) - 1, poly.ambient_dim)], set(), 0
    while stack:
        face, dim = stack.pop()
        if face.bit_count() > dim + 1:
            visits += 1
            faces.add(face)
            apex, cuts = face & -face, {face & f for f in masks} - {0, face}
            stack += [(a, dim - 1) for a in cuts if not a & apex and not any(a & b == a != b for b in cuts)]
    return faces, visits


def test_each_face_is_expanded_once_per_call(monkeypatch):
    """A face's apex is eliminated (one `bareiss_step`) on its first visit
    only; every later visit rescales its weight.  So the calls are the
    distinct faces to expand, fewer than the visits down every apex chain."""
    calls, inner = [], torictower.polytope.bareiss_step
    monkeypatch.setattr(torictower.polytope, "bareiss_step", lambda *args: calls.append(args) or inner(*args))
    fans = refined_products(20261019, 2)
    polys = complete_polytopes()[:2] + [padded(divisor_polytope(fan, boundary_divisor(fan))) for fan in fans]
    for poly in polys:
        calls.clear()
        normalized_volume(poly)
        faces, visits = expanded_faces(poly)
        assert len(calls) == len(faces) < visits


def test_edges_with_a_collinear_midpoint_match_the_oracle():
    """Every edge of the unit square, and of each square facet of the unit
    cube, holds its midpoint: a polygon cut with three points takes the
    general path, not the closed-form edge."""
    for n in (2, 3):
        corners = [tuple(map(Fraction, c)) for c in itertools.product((0, 1), repeat=n)]
        midpoints = {
            tuple((x + y) / 2 for x, y in zip(v, w))
            for v, w in itertools.combinations(corners, 2)
            if sum(x != y for x, y in zip(v, w)) == 1
        }
        poly = LatticePolytope(n, tuple(sorted(set(corners) | midpoints)))
        assert normalized_volume(poly) == normalized_volume_oracle(poly) == math.factorial(n)


def test_divisor_polytope_rows_are_its_homogenized_vertices():
    """The DD's primitive rays, in vertex order, are the rows a bare point
    list would compute, so a divisor polytope's volume converts nothing."""
    for fan, divisor in CASES:
        poly = divisor_polytope(fan, divisor)
        n = fan.ambient_dim
        assert poly.rows() == _homogenized(n, poly.vertices) == LatticePolytope(n, poly.vertices).rows()


def test_one_double_description_pass_per_polytope(monkeypatch):
    calls = []
    inner = torictower.polytope.halfspace_intersection

    def counting(constraints, n):
        calls.append(n)
        return inner(constraints, n)

    monkeypatch.setattr(torictower.polytope, "halfspace_intersection", counting)
    for fan, divisor in CASES[::5]:
        poly = divisor_polytope(fan, divisor)
        assert len(calls) == 1
        normalized_volume(poly)  # the divisor's own rows give the facets
        assert len(calls) == 1
        bare = LatticePolytope(poly.ambient_dim, poly.vertices)
        normalized_volume(bare)  # a bare point list pays one pass ...
        assert len(calls) == 2
        normalized_volume(bare)  # ... once
        assert len(calls) == 2
        calls.clear()


def test_lower_dimensional_divisor_polytopes_have_zero_volume():
    # 0 on P^2 gives the point 0; the class of a P^1 factor on P^1 x P^1 a segment
    point_fan, plane_fan = projective_fan(2), product_fan(projective_fan(1), projective_fan(1))
    point = divisor_polytope(point_fan, ToricDivisor(point_fan, {}))
    segment = divisor_polytope(plane_fan, ToricDivisor(plane_fan, {(1, 0): 1}))
    assert point.vertices == (frac_point(0, 0),)
    assert segment.vertices == (frac_point(-1, 0), frac_point(0, 0))
    for poly in (point, segment):
        assert poly.inequalities() and normalized_volume(poly) == 0
        assert normalized_volume(LatticePolytope(2, poly.vertices)) == 0


def test_memoized_rows_take_no_part_in_equality():
    fan, divisor = CASES[0]
    seeded = divisor_polytope(fan, divisor)
    bare = LatticePolytope(seeded.ambient_dim, seeded.vertices)
    assert seeded == bare and hash(seeded) == hash(bare) and repr(seeded) == repr(bare)
    assert bare.inequalities() != seeded.inequalities()  # the facets, not the fan's rows
    assert seeded == bare and hash(seeded) == hash(bare) and repr(seeded) == repr(bare)


# --- relative degree and volume ------------------------------------------


def test_relative_degree_examples():
    assert relative_degree_on_P(ProjectiveDivisorData(2, (1, 1, 1), polarization=1)) == 3
    assert relative_degree_on_P(ProjectiveDivisorData(2, (1,), polarization=2)) == 2
    assert relative_degree_on_P(ProjectiveDivisorData(3, (), polarization=2)) == 0


def test_relative_volume_examples():
    assert relative_volume_on_P(ProjectiveDivisorData(1, (3,))) == 3
    assert relative_volume_on_P(ProjectiveDivisorData(2, (2,))) == 4
    assert relative_volume_on_P(ProjectiveDivisorData(2, ())) == 0
    assert relative_volume_on_P(ProjectiveDivisorData(2, (-1,))) == 0


def test_divisor_data_validation():
    with pytest.raises(LatticeError):
        ProjectiveDivisorData(0, ())
    with pytest.raises(LatticeError):
        ProjectiveDivisorData(2, (), polarization=0)
    assert ProjectiveDivisorData(10, (2,)).fiber_dim == 10
    with pytest.raises(ResourceCapError):  # k ** fiber_dim is bounded by the cap
        ProjectiveDivisorData(11, (2,))


def test_degree_additive_and_homogeneous():
    rng = random.Random(4)
    for _ in range(40):
        n = rng.randint(1, 4)
        a = rng.randint(1, 3)
        c1 = tuple(Fraction(rng.randint(0, 3)) for _ in range(rng.randint(0, 3)))
        c2 = tuple(Fraction(rng.randint(0, 3)) for _ in range(rng.randint(0, 3)))
        d1 = relative_degree_on_P(ProjectiveDivisorData(n, c1, polarization=a))
        d2 = relative_degree_on_P(ProjectiveDivisorData(n, c2, polarization=a))
        dsum = relative_degree_on_P(ProjectiveDivisorData(n, c1 + c2, polarization=a))
        assert dsum == d1 + d2
        # homogeneity of degree n-1 in the polarization
        for scale in (2, 3):
            scaled = relative_degree_on_P(ProjectiveDivisorData(n, c1, polarization=a * scale))
            assert scaled == d1 * Fraction(scale) ** (n - 1)


def test_volume_monotone_in_coefficients():
    for base in itertools.product(range(0, 3), repeat=3):
        v0 = relative_volume_on_P(ProjectiveDivisorData(3, tuple(map(Fraction, base))))
        for axis in range(3):
            bumped = list(base)
            bumped[axis] += 1
            v1 = relative_volume_on_P(ProjectiveDivisorData(3, tuple(map(Fraction, bumped))))
            assert v1 >= v0


def test_divisor_polytope_rejects_a_divisor_on_another_fan():
    p2 = projective_fan(2)
    with pytest.raises(LatticeError, match="^divisors live on different fans$"):
        divisor_polytope(p2, boundary_divisor(projective_fan(1)))
