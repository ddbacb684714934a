import functools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import torictower.lattice
from corpus import refined_products
from oracles import (
    bareiss_step_oracle,
    cones_equal_as_sets,
    content_oracle,
    det_fraction,
    dot_oracle,
    dual_cone_facet_fraction,
    faces_oracle,
    facet_masks_oracle,
    fan_validate_oracle,
    generated_by_oracle,
    halfspace_intersection_oracle,
    in_cone_fm_fraction,
    invariant_factors_minor_fraction,
    is_face_of_oracle,
    is_strongly_convex,
    is_zero_oracle,
    rank_int,
    simplicial_log_discrepancy_fraction,
    snf_oracle,
    torus_fan,
    unimodular,
    unit_vector_oracle,
    vadd_oracle,
    vneg_oracle,
    vscale_oracle,
)
from torictower.lattice import (
    Cone,
    Fan,
    LatticeError,
    ResourceCapError,
    _rational,
    bareiss_step,
    bit_indices,
    content,
    det_int,
    dot,
    dual_cone,
    fan_validate,
    halfspace_intersection,
    hnf,
    identity_matrix,
    intersect_cones,
    is_face_of,
    is_unimodular,
    is_zero,
    kernel_basis,
    mat_mul,
    mat_vec,
    maximal_masks,
    orthant_fan,
    primitive,
    product_fan,
    projective_fan,
    snf,
    transpose,
    unit_vector,
    vadd,
    vneg,
    vscale,
)
from torictower.toric import star_subdivision
from torictower.tower import build_model
from torictower.verify import (
    dual_cone_facet_oracle,
    hnf_elementary_oracle,
    in_cone_fm,
    invariant_factors_minor_oracle,
    is_row_hnf,
    random_towers,
    simplicial_log_discrepancy_oracle,
)


# --- hnf ---------------------------------------------------------------


def test_hnf_identity():
    h, u = hnf(identity_matrix(3))
    assert h == identity_matrix(3)
    assert u == identity_matrix(3)


def test_hnf_already_normal():
    h, u = hnf(((2, 0), (0, 3)))
    assert h == ((2, 0), (0, 3))
    assert u == identity_matrix(2)
    assert is_row_hnf(h)
    # a zero row above a nonzero one, a negative pivot, an entry above a pivot not reduced, one below it nonzero
    for m in (((0, 0), (1, 0)), ((-1, 0), (0, 1)), ((1, 3), (0, 2)), ((1, 0), (1, 1))):
        assert not is_row_hnf(m) and hnf(m)[0] != m


def test_hnf_random_3x3_certificates():
    rng = random.Random(101)
    for _ in range(100):
        m = tuple(tuple(rng.randint(-5, 5) for _ in range(3)) for _ in range(3))
        h, u = hnf(m)
        assert is_unimodular(u)
        assert mat_mul(u, m) == h
        assert is_row_hnf(h)
        # elementary operations preserve the row lattice and the normal form
        # is unique, so the oracle must land on the same matrix
        assert hnf_elementary_oracle(m) == h


def test_hnf_elementary_oracle_all_small_2x2():
    span = range(-3, 4)
    for a in span:
        for b in span:
            for c in span:
                for d in span:
                    m = ((a, b), (c, d))
                    h, u = hnf(m)
                    assert h == hnf_elementary_oracle(m)
                    assert is_unimodular(u) and mat_mul(u, m) == h


# --- snf ---------------------------------------------------------------


def test_snf_trivial():
    s, u, v = snf(((1, 0), (0, 1)))
    assert s == ((1, 0), (0, 1))
    assert u == identity_matrix(2) and v == identity_matrix(2)


def test_snf_diag23():
    # invariant factors of diag(2,3): gcd of entries is 1, gcd of 2x2 minors 6
    s, u, v = snf(((2, 0), (0, 3)))
    assert s == ((1, 0), (0, 6))
    assert mat_mul(mat_mul(u, ((2, 0), (0, 3))), v) == s
    assert is_unimodular(u) and is_unimodular(v)


def test_snf_zero():
    s, u, v = snf(((0, 0, 0), (0, 0, 0)))
    assert s == ((0, 0, 0), (0, 0, 0))
    assert is_unimodular(u) and is_unimodular(v)


def test_snf_matches_minor_gcd_oracle():
    # the second input set reaches 4x4, where the textbook elimination still returns
    for seed, size, draws in ((7, 3, 150), (12, 4, 300)):
        rng = random.Random(seed)
        for _ in range(draws):
            nr, nc = rng.randint(1, size), rng.randint(1, size)
            m = tuple(tuple(rng.randint(-6, 6) for _ in range(nc)) for _ in range(nr))
            s, u, v = snf(m)
            assert is_unimodular(u) and is_unimodular(v)
            assert mat_mul(mat_mul(u, m), v) == s
            diag = tuple(s[i][i] for i in range(min(nr, nc)))
            assert diag == invariant_factors_minor_oracle(m)
            assert s == snf_oracle(m)[0]


def test_snf_returns_where_the_elimination_grows_without_bound():
    """On this 6x5 matrix the entries of the textbook elimination
    (`snf_oracle`) grow without bound, and it never returns."""
    m = (
        (24, 0, 32, -29, -29),
        (14, -21, -49, 48, -25),
        (19, 20, -21, 1, 15),
        (-6, 23, -5, 8, -16),
        (34, 20, 27, 43, -50),
        (-1, 50, 44, 15, -34),
    )
    s, u, v = snf(m)
    diag = tuple(s[i][i] for i in range(5))
    assert diag == (1, 1, 1, 1, 3) == invariant_factors_minor_oracle(m)
    assert is_unimodular(u) and is_unimodular(v)
    assert mat_mul(mat_mul(u, m), v) == s


def test_kernel_basis_rows_are_a_saturated_basis_of_the_kernel():
    """The rows lie in the kernel, there are ncols - rank of them, and every
    invariant factor is 1, so they span the whole kernel lattice."""
    rng = random.Random(20261020)
    for _ in range(300):
        nr, nc = rng.randint(0, 4), rng.randint(1, 5)
        m = [tuple(rng.randint(-6, 6) for _ in range(nc)) for _ in range(nr)]
        if nr > 1 and rng.random() < 0.3:  # a dependent row
            m[-1] = vadd(vscale(2, m[0]), m[1])
        rows = kernel_basis(tuple(m), nc)
        assert all(not any(mat_vec(m, x)) for x in rows)
        assert len(rows) == nc - rank_int(m)
        assert all(f == 1 for f in invariant_factors_minor_oracle(rows))


@st.composite
def small_matrices(draw):
    nr, nc = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    return tuple(tuple(draw(st.integers(-6, 6)) for _ in range(nc)) for _ in range(nr))


@settings(max_examples=300, deadline=None)
@given(small_matrices())
@example(((0, 0), (0, 0)))
@example(((2, 4, 6), (1, 2, 3)))
def test_minor_gcd_oracle_matches_fraction_reference(m):
    assert invariant_factors_minor_oracle(m) == invariant_factors_minor_fraction(m)


# --- primitive ---------------------------------------------------------


def test_primitive_examples():
    assert primitive((2, 4)) == (1, 2)
    assert primitive((1, 0)) == (1, 0)
    assert primitive((-3, 6, -9)) == (-1, 2, -3)


def test_primitive_zero_vector():
    with pytest.raises(LatticeError, match="zero vector has no primitive representative"):
        primitive((0, 0, 0))


def test_primitive_scaling_invariance():
    rng = random.Random(13)
    for _ in range(200):
        n = rng.randint(1, 4)
        v = tuple(rng.randint(-9, 9) for _ in range(n))
        if all(x == 0 for x in v):
            continue
        k = rng.randint(1, 9)
        assert primitive(vscale(k, v)) == primitive(v)


# --- vector kernels ----------------------------------------------------

# small entries (so zeros and equal entries are common), and entries past 2**64
ENTRIES = st.one_of(st.integers(-3, 3), st.integers(), st.integers(2**64, 2**80), st.integers(-(2**80), -(2**64)))


@st.composite
def vector_pairs(draw):
    n = draw(st.integers(0, 6))
    vector = st.lists(ENTRIES, min_size=n, max_size=n).map(tuple)
    return draw(vector), draw(vector)


@settings(max_examples=500, deadline=None)
@given(vector_pairs(), ENTRIES)
@example(((), ()), 5)
@example(((0, 0, 0), (0, -1, 0)), 0)
@example(((2**64 + 1, -(2**65), 6), (-(2**70), 3, 2**64)), -(2**66))
def test_vector_kernels_match_their_generator_definitions(pair, k):
    a, b = pair
    assert dot(a, b) == dot_oracle(a, b)
    assert vadd(a, b) == vadd_oracle(a, b)
    assert vneg(a) == vneg_oracle(a)
    assert vscale(k, a) == vscale_oracle(k, a)
    assert is_zero(a) == is_zero_oracle(a)
    assert content(a) == content_oracle(a)
    assert content(a) >= 0


@given(st.integers(1, 12).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n - 1))))
def test_unit_vector_matches_its_generator_definition(case):
    assert unit_vector(*case) == unit_vector_oracle(*case)


def test_vscale_keeps_binary_operator_dispatch():
    # int * Fraction goes through Fraction.__rmul__; int.__mul__ alone gives NotImplemented
    assert vscale(2, (Fraction(1, 2), Fraction(-3, 4), 0)) == (1, Fraction(-3, 2), 0)
    assert vscale(Fraction(1, 3), (3, -6, 1)) == (1, -2, Fraction(1, 3))
    assert all(isinstance(x, Fraction) for x in vscale(Fraction(1, 3), (3, -6, 1)))


def test_dot_rejects_vectors_of_different_lengths():
    with pytest.raises(LatticeError, match="dimension mismatch: 2 vs 1"):
        dot((1, 2), (1,))
    with pytest.raises(LatticeError):
        dot((), (0,))
    assert dot((), ()) == 0


# --- dual cones --------------------------------------------------------


def test_dual_cone_orthant_self_dual():
    c = Cone.generated_by([(1, 0), (0, 1)])
    assert dual_cone(c).generators == ((0, 1), (1, 0))


def test_dual_cone_example():
    c = Cone.generated_by([(1, 0), (1, 2)])
    d = dual_cone(c)
    assert set(d.generators) == {(0, 1), (2, -1)}
    # the oracle enumerates facet normals from (n-1)-subsets
    assert dual_cone_facet_oracle(c.generators, 2) == d.generators


def test_dual_cone_of_full_plane_is_zero():
    c = Cone.generated_by([(1, 0), (-1, 0), (0, 1), (0, -1)])
    assert dual_cone(c).generators == ()


def test_dual_cone_dimension_cap():
    c = Cone.generated_by([tuple(1 if i == j else 0 for i in range(11)) for j in range(11)])
    with pytest.raises(ResourceCapError):
        dual_cone(c)
    assert dual_cone(c, max_dim=11).generators  # raised cap works


def test_dual_cone_involution_and_oracle_random():
    rng = random.Random(20260810)
    checked = 0
    while checked < 200:
        n = rng.randint(2, 4)
        k = rng.randint(2, n + 2)
        gens = []
        while len(gens) < k:
            v = tuple(rng.randint(-5, 5) for _ in range(n))
            if any(v):
                gens.append(v)
        c = Cone.generated_by(gens, n)
        if not is_strongly_convex(c) or not c.generators:
            continue
        checked += 1
        assert dual_cone(dual_cone(c)).generators == c.generators
        if c.dim() == n:
            assert dual_cone_facet_oracle(c.generators, n) == dual_cone(c).generators


def _vector_lists(n, max_size):
    return st.lists(st.tuples(*[st.integers(-3, 3)] * n), max_size=max_size)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(st.just(n), _vector_lists(n, n + 2))))
@example((2, [(1, 0), (1, 2)]))
@example((3, [(1, 0, 0), (2, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0)]))
def test_dual_cone_facet_oracle_matches_fraction_reference(case):
    """Any vector list, repeats, zero vectors and lines included."""
    n, gens = case
    assert dual_cone_facet_oracle(gens, n) == dual_cone_facet_fraction(gens, n)


def test_halfspace_intersection_stops_once_its_ray_list_passes_the_cap(monkeypatch):
    rows = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1)]  # three rays, then four after the last row
    monkeypatch.setattr(torictower.lattice, "MAX_FACES", 3)
    with pytest.raises(ResourceCapError, match="double description passed the cap of 3 rays"):
        halfspace_intersection(rows, 3)
    monkeypatch.setattr(torictower.lattice, "MAX_FACES", 4)
    assert halfspace_intersection(rows, 3) == (((0, 1, 0), (0, 1, 1), (1, 0, 0), (1, 0, 1)), ())


def test_halfspace_intersection_of_redundant_rows_matches_oracle():
    """Unsorted rows with repeats and non-extreme ones: the DD's intermediate
    rays and their tight masks are exercised beyond canonical input."""
    rng = random.Random(20260815)
    checked = 0
    while checked < 150:
        n = rng.randint(2, 4)
        k = rng.randint(n, n + 4)
        gens = []
        while len(gens) < k:
            v = tuple(rng.randint(-3, 3) for _ in range(n))
            if any(v):
                gens.append(v)
        c = Cone.generated_by(gens, n)
        if c.dim() < n or not is_strongly_convex(c):
            continue
        checked += 1
        assert halfspace_intersection(gens, n) == (dual_cone_facet_oracle(gens, n), ())


@st.composite
def constraint_rows(draw):
    """Rows for the DD with the cases the adjacency pre-filter must survive:
    zero, repeated and redundant rows, opposite pairs a, -a (implicit
    equalities), rows confined to a hyperplane (the cone carries a line),
    and the GL_n(Z) image of all of it.  Sparse rows (most entries 0, unit
    vectors and their negations, entries up to 2**64) make many zero
    pairings, whose vectors the DD keeps as they are, and large gcds."""
    n = draw(st.integers(2, 5))
    entry = st.integers(-3, 3)
    if draw(st.booleans()):
        big = st.one_of(st.sampled_from([2**64, -(2**64)]), st.integers(-(2**64), 2**64))
        entry = st.one_of(st.just(0), st.just(0), st.sampled_from([1, -1]), big)
    rows = draw(st.lists(st.tuples(*[entry] * n), max_size=n + 5))
    units = st.tuples(st.sampled_from([1, -1]), st.integers(0, n - 1))
    rows += [vscale(sign, unit_vector(n, i)) for sign, i in draw(st.lists(units, max_size=n))]
    if rows and draw(st.booleans()):  # confine to x_0 = 0, so e_0 is lineality
        rows = [(0,) + r[1:] for r in rows]
    picks = st.lists(st.integers(0, max(len(rows) - 1, 0)), max_size=4) if rows else st.just([])
    rows += [vneg(rows[i]) for i in draw(picks)] + [rows[i] for i in draw(picks)]
    rows += [(0,) * n] * draw(st.integers(0, 1))
    rows = draw(st.permutations(rows))
    u, _ = draw(unimodular(n))
    if draw(st.booleans()):
        rows = [mat_vec(transpose(u), r) for r in rows]
    return rows, n


@settings(max_examples=300, deadline=None)
@given(constraint_rows())
def test_halfspace_intersection_matches_oracle_without_prefilter(case):
    rows, n = case
    assert halfspace_intersection(rows, n) == halfspace_intersection_oracle(rows, n)


@settings(max_examples=300, deadline=None)
@given(constraint_rows())
@example(([(2, 3, 5)], 3))
def test_halfspace_intersection_lineality_is_a_saturated_basis_of_the_row_kernel(case):
    """Why the DD recomputes its lineality by kernel_basis of the processed
    rows: the basis it keeps through the pass spans the kernel over Q, not
    always over Z.  On the row (2, 3, 5) it keeps ((-3, 2, 0), (-5, 0, 2)),
    of index 2.  What it returns is orthogonal to every row, has n - rank
    rows, and is saturated: the gcd of its maximal minors is 1."""
    rows, n = case
    _, lineality = halfspace_intersection(rows, n)
    assert all(dot(a, l) == 0 for a in rows for l in lineality)
    assert len(lineality) == n - rank_int(rows)
    assert all(f == 1 for f in invariant_factors_minor_oracle(lineality))


def test_det_int_matches_rational_elimination():
    rng = random.Random(20261018)
    for _ in range(300):
        n = rng.randint(0, 5)
        m = tuple(tuple(rng.randint(-4, 4) * rng.randint(0, 1) for _ in range(n)) for _ in range(n))
        if n > 1 and rng.random() < 0.2:  # a dependent row
            m = m[:-1] + (vscale(2, m[0]),)
        assert det_int(m) == det_fraction(m)


def test_bareiss_step_matches_the_one_expression_step():
    """Rows with and without an entry in the pivot column, pivot columns past
    the first, and a `prev` of 1 or not: every row comes out as the one
    expression computes it, exact division or not."""
    rng = random.Random(20261022)
    for _ in range(400):
        width = rng.randint(1, 6)
        pivot = [rng.randint(-5, 5) for _ in range(width)]
        c = rng.randrange(width)
        pivot[c] = pivot[c] or 1
        rows = [[rng.randint(-5, 5) for _ in range(width)] for _ in range(rng.randint(0, 5))]
        for r in rows[::2]:
            r[c] = 0
        prev = rng.choice((1, 1, 2, 3, -2, rng.randint(-9, 9) or 7))
        assert bareiss_step(pivot, c, prev, rows) == bareiss_step_oracle(pivot, c, prev, rows)
    # a zero pivot-column entry and a cleared one, at c > 0, under prev 1 and prev 3
    assert bareiss_step((1, 2, 3), 1, 1, [(4, 0, 5), (1, 1, 1)]) == [[8, 10], [1, -1]]
    assert bareiss_step((1, 2, 3), 1, 3, [(4, 0, 5), (1, 1, 1)]) == [[2, 3], [0, -1]]


def test_rational_returns_a_fraction_as_it_is_and_a_subclass_as_a_plain_fraction():
    class Half(Fraction):
        pass

    f = Fraction(3, 4)
    assert _rational(f) is f
    got = _rational(Half(1, 2))
    assert type(got) is Fraction and got == Fraction(1, 2)


# --- membership --------------------------------------------------------


def test_cone_contains_examples():
    orthant = Cone.generated_by([(1, 0), (0, 1)])
    assert orthant.contains((1, 1))
    assert orthant.contains((0, 0))
    c = Cone.generated_by([(1, 0), (1, 2)])
    # facet normal (2,-1) evaluates to -1 < 0
    assert not c.contains((0, 1))


def test_cones_and_fans_take_integer_coordinates_only():
    # int() would truncate each of these: a float or Fraction is named, not rounded
    for bad, make in [
        ("0.5", lambda: Cone(2, [(0.5, 1), (1, 0)])),
        (r"Fraction\(3, 2\)", lambda: Cone(2, [(1, 0), (Fraction(3, 2), 1)])),
        ("2.0", lambda: Cone(2.0, [(1, 0)])),
        ("2.0", lambda: Fan(2.0, [])),
    ]:
        with pytest.raises(LatticeError, match=f"^{bad} is not an integer$"):
            make()
    assert Cone(2, [(True, 0), (0, 1)]).generators == ((1, 0), (0, 1))


def test_cone_contains_dimension_mismatch():
    c = Cone.generated_by([(1, 0)])
    with pytest.raises(LatticeError):
        c.contains((1, 0, 0))


@pytest.mark.parametrize("message, call", [
    (r"generator \(1,\) has dimension 1, expected 2", lambda: Cone(2, [(1,)])),
    ("cone ambient dimension does not match fan", lambda: Fan(2, [Cone(3, ())])),
    ("ambient_dim required for a cone with no generators", lambda: Cone.generated_by([])),
    ("ambient dimension mismatch", lambda: intersect_cones(Cone(2, [(1, 0)]), Cone(3, [(1, 0, 0)]))),
    ("constraint has dimension 1, expected 2", lambda: halfspace_intersection([(1,)], 2)),
], ids=["generator", "fan", "no-generators", "intersect", "constraint"])
def test_dimension_mismatches_are_lattice_errors(message, call):
    with pytest.raises(LatticeError, match=f"^{message}$"):
        call()


def test_cone_contains_against_fourier_motzkin():
    rng = random.Random(99)
    for _ in range(120):
        n = rng.randint(2, 3)
        gens = []
        while len(gens) < n + 1:
            v = tuple(rng.randint(-3, 3) for _ in range(n))
            if any(v):
                gens.append(v)
        c = Cone.generated_by(gens, n)
        if not is_strongly_convex(c):
            continue
        v = tuple(rng.randint(-6, 6) for _ in range(n))
        assert c.contains(v) == in_cone_fm(c.generators, v)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 3).flatmap(
        lambda n: st.tuples(_vector_lists(n, n + 1), st.tuples(*[st.integers(-6, 6)] * n))
    )
)
@example(([(1, 0), (-1, 0)], (5, 0)))
@example(([(1, 0), (-2, 3)], (-3, 1)))  # the second row fixes x_2 = 1/3, so x_1 = -7/3
@example(([], (0, 0, 0)))
def test_in_cone_fm_matches_fraction_reference(case):
    """The suite's shapes: n <= 3 and at most n + 1 generators.  Beyond them
    the Fraction elimination's row count blows up."""
    gens, v = case
    assert in_cone_fm(gens, v) == in_cone_fm_fraction(gens, v)


@st.composite
def simplicial_cases(draw):
    n = draw(st.integers(1, 3))
    rays = draw(st.lists(st.tuples(*[st.integers(-4, 4)] * n), min_size=n, max_size=n))
    coeffs = [Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 4))) for _ in range(n)]
    return rays, coeffs, draw(st.tuples(*[st.integers(-6, 6)] * n))


@settings(max_examples=300, deadline=None)
@given(simplicial_cases())
@example(([(1, 0), (2, 0)], [Fraction(1), Fraction(0)], (1, 1)))
def test_simplicial_log_discrepancy_oracle_matches_fraction_reference(case):
    rays, coeffs, e = case
    try:
        expected = simplicial_log_discrepancy_fraction(rays, coeffs, e)
    except LatticeError:
        with pytest.raises(LatticeError):
            simplicial_log_discrepancy_oracle(rays, coeffs, e)
        return
    assert simplicial_log_discrepancy_oracle(rays, coeffs, e) == expected


# --- canonical cones: one double description pass ----------------------


def _vector_sets(count, seed):
    """Raw vector lists in dimensions 1..4, in four kinds: random, with a
    line (a vector and its negative), in a coordinate hyperplane, and with
    zero vectors, repeats and multiples."""
    rng = random.Random(seed)
    sets = []
    for i in range(count):
        n = rng.randint(1, 4)
        vectors = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(rng.randint(0, n + 3))]
        kind = i % 4
        if kind == 1 and vectors:
            vectors.append(vneg(vectors[0]))
        elif kind == 2:
            vectors = [v[:-1] + (0,) for v in vectors]
        elif kind == 3:
            vectors += [(0,) * n] + [vscale(rng.randint(1, 3), v) for v in vectors[:2]]
        sets.append((vectors, n))
    return sets


VECTOR_SETS = _vector_sets(800, 20261018)


def _same_cone(got, want):
    return (got.ambient_dim, got.generators, got.halfspaces()) == (
        want.ambient_dim, want.generators, want.halfspaces())


def test_generated_by_matches_two_pass_oracle():
    lines = lower_dim = 0
    for vectors, n in VECTOR_SETS:
        want = generated_by_oracle(vectors, n)
        assert _same_cone(Cone.generated_by(vectors, n), want), (vectors, n)
        lines += not is_strongly_convex(want)
        lower_dim += bool(want.halfspaces()[1])
    assert lines > 150 and lower_dim > 150


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_generated_by_matches_two_pass_oracle_after_unimodular_change_of_coordinates(data):
    vectors, n = data.draw(st.sampled_from(VECTOR_SETS))
    u, _ = data.draw(unimodular(n))
    moved = [mat_vec(u, v) for v in vectors]
    assert _same_cone(Cone.generated_by(moved, n), generated_by_oracle(moved, n))


def test_pointed_form_is_none_exactly_on_cones_with_a_line():
    seen = set()
    for vectors, n in VECTOR_SETS:
        gens = sorted({primitive(v) for v in vectors if any(v)})
        want, in_order = generated_by_oracle(vectors, n), Cone(n, gens)
        for raw in (in_order, Cone(n, gens[::-1])):  # positions are not ray indices
            got = raw.pointed_form()
            assert (got is None) == (not is_strongly_convex(raw))
            if got is not None:  # given in another order, the DD may pick other normals of a flat cone
                assert _same_cone(got, want) if raw is in_order else got.generators == want.generators
                assert got.halfspaces() is raw.halfspaces()  # shared, not recomputed
            seen.add(got is None)
    assert seen == {True, False}


def test_generated_by_runs_one_double_description_on_pointed_input(monkeypatch):
    calls = []
    inner = torictower.lattice.halfspace_intersection
    monkeypatch.setattr(torictower.lattice, "halfspace_intersection", lambda *a: calls.append(a) or inner(*a))
    for vectors, n in VECTOR_SETS:
        calls.clear()
        cone = Cone.generated_by(vectors, n)
        cone.halfspaces()
        assert len(calls) == (1 if is_strongly_convex(cone) else 2), (vectors, n)


def test_dim_is_the_rank_of_the_generators():
    """Cone.dim, read off the memoized equations, is the Hermite rank of the
    generators, on raw and canonical cones, with and without a line."""
    dims = set()
    for vectors, n in VECTOR_SETS:
        want = rank_int(tuple(vectors))
        assert Cone(n, vectors).dim() == Cone.generated_by(vectors, n).dim() == want, (vectors, n)
        dims.add((want, n))
    assert {(0, 1), (1, 2), (2, 2), (2, 3), (3, 3)} <= dims


# --- faces as ray bitmasks ---------------------------------------------


def _sample_cones():
    """Canonical cones in dimensions 1..4: the zero cone, non-pointed cones
    (a half-plane, the whole plane, random ones) and random pointed ones."""
    cones = [
        Cone(3, ()),
        Cone.generated_by([], 2),
        Cone.generated_by([(1, 0), (-1, 0), (0, 1)]),
        Cone.generated_by([(1, 0), (-1, 0), (0, 1), (0, -1)]),
        Cone.generated_by([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, 1, 1)]),
    ]
    rng = random.Random(20260811)
    while len(cones) < 150:
        n = rng.randint(1, 4)
        k = rng.randint(1, n + 3)
        gens = []
        while len(gens) < k:
            v = tuple(rng.randint(-3, 3) for _ in range(n))
            if any(v):
                gens.append(v)
        cones.append(Cone.generated_by(gens, n))
    return cones


def test_faces_match_geometric_oracle():
    cones = _sample_cones()
    assert any(not is_strongly_convex(c) for c in cones)
    for c in cones:
        assert c.faces() == faces_oracle(c)


def test_is_face_of_matches_geometric_oracle():
    rng = random.Random(5)
    outcomes = set()
    for big in _sample_cones():
        n = big.ambient_dim
        gens = list(big.generators)
        candidates = [Cone(n, ()), Cone(n + 1, ()), Cone(n, (tuple(rng.randint(-4, 4) for _ in range(n)),))]
        for face in big.faces():
            shuffled = list(face.generators)
            rng.shuffle(shuffled)
            candidates.append(Cone(n, shuffled))  # unsorted generators
            if shuffled:
                candidates.append(Cone(n, shuffled + [shuffled[0]]))  # a duplicate generator
        for _ in range(6):  # random generator subsets, mostly non-faces
            candidates.append(Cone(n, rng.sample(gens, rng.randint(0, len(gens)))))
        for small in candidates:
            got = is_face_of(small, big)
            assert got == is_face_of_oracle(small, big), (small, big)
            outcomes.add(got)
    assert outcomes == {True, False}


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_faces_commute_with_unimodular_change_of_coordinates(data):
    n = data.draw(st.integers(1, 4))
    vector = st.tuples(*[st.integers(-3, 3)] * n).filter(any)
    cone = Cone.generated_by(data.draw(st.lists(vector, min_size=1, max_size=n + 3)), n)
    assume(is_strongly_convex(cone))
    u, _ = data.draw(unimodular(n))
    image = Cone.generated_by([mat_vec(u, g) for g in cone.generators], n)
    expected = sorted(tuple(sorted(mat_vec(u, g) for g in f.generators)) for f in cone.faces())
    assert sorted(f.generators for f in image.faces()) == expected


def _cone_strategy(n):
    vector = st.tuples(*[st.integers(-3, 3)] * n).filter(any)
    return st.lists(vector, min_size=1, max_size=n + 3).map(lambda gens: Cone.generated_by(gens, n))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_dual_cone_commutes_with_unimodular_change_of_coordinates(data):
    n = data.draw(st.integers(1, 4))
    cone = data.draw(_cone_strategy(n))
    u, u_inv = data.draw(unimodular(n))
    image = Cone.generated_by([mat_vec(u, g) for g in cone.generators], n)
    # <U^-T m, U v> = <m, v>
    expected = sorted(mat_vec(transpose(u_inv), m) for m in dual_cone(cone).generators)
    got = dual_cone(image)
    assert cones_equal_as_sets(got, Cone(n, expected))
    if cone.dim() == n:  # the dual is pointed, so its generators are unique
        assert list(got.generators) == expected


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_intersect_cones_commutes_with_unimodular_change_of_coordinates(data):
    n = data.draw(st.integers(1, 4))
    a, b = data.draw(_cone_strategy(n)), data.draw(_cone_strategy(n))
    u, _ = data.draw(unimodular(n))

    def image(c):
        return Cone.generated_by([mat_vec(u, g) for g in c.generators], n)

    expected = image(intersect_cones(a, b))
    assert cones_equal_as_sets(intersect_cones(image(a), image(b)), expected)


# --- fans --------------------------------------------------------------


def test_fan_validate_affine_plane():
    assert fan_validate(orthant_fan(2)) == []


def test_fan_validate_overlapping_interiors():
    bad = Fan(2, (Cone.generated_by([(1, 0), (1, 2)]), Cone.generated_by([(1, 1), (0, 1)])))
    kinds = {v["kind"] for v in fan_validate(bad)}
    assert "intersection not a face" in kinds


def test_fan_validate_non_primitive_ray():
    bad = Fan(2, (Cone(2, ((2, 4), (1, 0))),))
    kinds = {v["kind"] for v in fan_validate(bad)}
    assert "non-primitive ray" in kinds


def test_fan_validate_non_convex_cone():
    bad = Fan(2, (Cone(2, ((1, 0), (-1, 0), (0, 1))),))
    kinds = {v["kind"] for v in fan_validate(bad)}
    assert "not strongly convex" in kinds


LEVEL_FANS = [level.fan for spec in random_towers(10, 11) for level in build_model(spec).levels]
BAD_FANS = [  # one per check that fan_validate makes
    Fan(2, (Cone.generated_by([(1, 0), (1, 2)]), Cone.generated_by([(1, 1), (0, 1)]))),
    Fan(2, (Cone(2, ((2, 4), (1, 0))),)),
    Fan(3, (Cone(3, ((0, 0, 0), (1, 0, 0))),)),
    Fan(2, (Cone(2, ((1, 0), (1, 0), (0, 1))),)),
    Fan(2, (Cone(2, ((1, 0), (-1, 0), (0, 1))),)),
]
VALIDATE_FANS = LEVEL_FANS + BAD_FANS


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_fan_validate_commutes_with_unimodular_change_of_coordinates(data):
    fan = data.draw(st.sampled_from(VALIDATE_FANS))
    n = fan.ambient_dim
    u, _ = data.draw(unimodular(n))
    moved = Fan(n, [Cone(n, sorted(mat_vec(u, g) for g in c.generators)) for c in fan.maximal_cones])
    assert sorted(v["kind"] for v in fan_validate(moved)) == sorted(v["kind"] for v in fan_validate(fan))


def test_validate_fans_cover_every_violation_kind():
    assert all(fan_validate(fan) == [] for fan in LEVEL_FANS)
    kinds = {v["kind"] for fan in BAD_FANS for v in fan_validate(fan)}
    assert kinds == {"intersection not a face", "non-primitive ray", "duplicate ray", "not strongly convex"}


def _gens(*vectors):
    return Cone.generated_by(vectors)


CUBE_RAYS = [(x, y, z) for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)]
CUBE_FAN = Fan(3, [  # the fan over the faces of a cube: non-simplicial and complete
    Cone(3, tuple(sorted(r for r in CUBE_RAYS if r[k] == s))) for k in range(3) for s in (-1, 1)
])
REDUNDANT_FAN = Fan(2, (Cone(2, ((1, 0), (1, 1), (0, 1))), _gens((0, 1), (-1, 0))))
UNSORTED_FAN = Fan(2, (Cone(2, ((0, 1), (1, 0))), Cone(2, ((-1, 0), (0, 1)))))
CERTIFICATE_FANS = BAD_FANS + [
    CUBE_FAN,
    # two cones that overlap, or meet outside a common face
    Fan(2, (_gens((1, 0), (0, 1)), _gens((1, 0), (1, 1)))),
    Fan(3, (_gens((1, 0, 0), (0, 1, 0), (0, 0, 1)), _gens((1, 1, 0), (0, 0, 1), (-1, 0, 0)))),
    Fan(3, (_gens((1, 0, 0), (0, 1, 0)), _gens((1, 1, 1), (1, 1, -1)))),
    Fan(3, (Cone(3, tuple(r for r in CUBE_RAYS if r[0] == 1)), _gens((1, 0, 0), (0, 1, 0), (0, 0, 1)))),
    # a cone over a quadrilateral and one of its diagonals, which comes first
    # in fan order or last
    Fan(3, (_gens((1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)), _gens((1, 0, 1), (-1, 0, 1)))),
    Fan(3, (_gens((1, -1, -2), (1, 2, 0), (2, -3, 3), (2, 2, -3)), _gens((1, -1, -2), (1, 2, 0)))),
    # lower-dimensional cones, which have equations: a plane fan in R^3, a
    # ray on its face, and two planar cones crossing at an interior ray
    Fan(3, (_gens((1, 0, 0), (0, 1, 0)), _gens((0, 1, 0), (-1, 0, 0)), _gens((-1, 0, 0), (0, -1, 0)))),
    Fan(3, (_gens((1, 0, 0), (0, 1, 0)), _gens((1, 0, 0),), _gens((0, 0, 1),))),
    Fan(3, (_gens((1, 0, 0), (0, 0, 1)), _gens((0, 1, 0), (1, -1, 1)))),
    # non-pointed cones next to pointed ones
    Fan(2, (Cone(2, ((1, 0), (-1, 0), (0, 1))), _gens((0, -1), (1, -1)))),
    Fan(3, (Cone(3, ((1, 0, 0), (-1, 0, 0), (0, 1, 0))), _gens((0, 0, 1), (0, 1, 1)))),
    # redundant generators (re-canonicalised), meeting in a face or not
    REDUNDANT_FAN,
    Fan(2, (Cone(2, ((1, 0), (1, 1), (0, 1))), _gens((1, 1), (-1, 0)))),
    Fan(3, (Cone(3, ((1, 0, 0), (0, 1, 0), (1, 1, 1), (0, 0, 1))), _gens((1, 0, 0), (0, -1, 0)))),
    # a ray index holding rays of cones the certificate skips (a zero and a
    # non-primitive generator) and a ray that is no cone's extreme ray
    Fan(2, (Cone(2, ((0, 0), (2, 4))), Cone(2, ((1, 0), (1, 1), (0, 1))), _gens((0, 1), (-1, 2)))),
    # generators out of lex order, and the zero cone
    UNSORTED_FAN,
    Fan(2, (Cone(2, ()), _gens((1, 0), (0, 1)))),
    torus_fan(3),
]


def _random_cone_pairs(count, seed):
    """Two-cone fans with raw generators drawn from a small box: most pairs
    overlap, some are redundant, non-pointed or lower-dimensional."""
    rng = random.Random(seed)
    fans = []
    while len(fans) < count:
        n = rng.randint(1, 4)
        cones = []
        for _ in range(2):
            vectors = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(rng.randint(0, n + 1))]
            cones.append(Cone(n, sorted({primitive(v) for v in vectors if any(v)})))
        fans.append(Fan(n, cones))
    return fans


def _counting_intersections(monkeypatch):
    calls = []

    def counting(a, b):
        calls.append((a, b))
        return intersect_cones(a, b)

    monkeypatch.setattr(torictower.lattice, "intersect_cones", counting)
    return calls


def test_fan_validate_matches_all_pairs_oracle(monkeypatch):
    fans = CERTIFICATE_FANS + LEVEL_FANS + _random_cone_pairs(300, 20261018)
    kinds = []
    fallbacks = _counting_intersections(monkeypatch)
    for fan in fans:
        got = fan_validate(fan)
        assert got == fan_validate_oracle(fan), fan.maximal_cones
        kinds += [v["kind"] for v in got]
    assert set(kinds) == {"intersection not a face", "non-primitive ray", "duplicate ray", "not strongly convex"}
    # some pairs without a certificate do meet in a common face
    assert len(fallbacks) > kinds.count("intersection not a face")


def _defective_fans(count, seed):
    """Fans of two to five cones in dimensions 1..4, each cone drawn
    canonical (some hold a line) and then, at random, given a line, a
    redundant generator, a repeated generator, a non-primitive generator or
    a zero generator, or replaced by the zero cone.  Random cones mostly
    overlap."""
    rng = random.Random(seed)
    fans = []
    while len(fans) < count:
        n = rng.randint(1, 4)
        cones = []
        for _ in range(rng.randint(2, 5)):
            vectors = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(rng.randint(1, n + 1))]
            gens = list(Cone.generated_by(vectors, n).generators)
            g = rng.choice(gens) if gens else unit_vector(n, 0)
            defect = rng.choice(("none",) * 4 + ("line", "redundant", "repeated", "scaled", "zero ray", "zero cone"))
            if defect == "line" and vneg(g) not in gens:
                gens.append(vneg(g))
            elif defect == "redundant" and len(gens) > 1 and any(vadd(gens[0], gens[1])):
                gens.append(primitive(vadd(gens[0], gens[1])))
            elif defect == "repeated":
                gens.append(g)
            elif defect == "scaled":
                gens.append(vscale(2, g))
            elif defect == "zero ray":
                gens.append((0,) * n)
            elif defect == "zero cone":
                gens = []
            cones.append(Cone(n, sorted(gens)))
        fans.append(Fan(n, cones))
    return fans


def test_fan_validate_matches_all_pairs_oracle_on_defective_fans(monkeypatch):
    fallbacks = _counting_intersections(monkeypatch)
    kinds, valid = [], 0
    for fan in _defective_fans(250, 20261019):
        got = fan_validate(fan)
        assert got == fan_validate_oracle(fan), fan.maximal_cones
        kinds += [v["kind"] for v in got]
        valid += not got
    assert set(kinds) == {"intersection not a face", "non-primitive ray", "duplicate ray", "not strongly convex"}
    assert valid and len(fallbacks) > kinds.count("intersection not a face")


def test_fan_validate_fallback_reads_its_sign_tables(monkeypatch):
    """A pair without a certificate is intersected from the two cones as
    they are, and `_face_hull` on their sign tables decides the face test:
    no `is_face_of`, no `Fan` built and no `Cone.generated_by` call."""
    fans = CERTIFICATE_FANS + _random_cone_pairs(150, 20261020)
    want = [fan_validate_oracle(fan) for fan in fans]

    def forbidden(*args, **kwargs):
        raise AssertionError("the fallback rebuilt a cone or a fan")

    fallbacks = _counting_intersections(monkeypatch)
    monkeypatch.setattr(torictower.lattice, "is_face_of", forbidden)
    monkeypatch.setattr(torictower.lattice, "Fan", forbidden)
    monkeypatch.setattr(Cone, "generated_by", staticmethod(forbidden))
    got = [fan_validate(fan) for fan in fans]
    assert got == want
    kinds = [v["kind"] for violations in got for v in violations]
    assert len(fallbacks) > kinds.count("intersection not a face") > 0


def _forged(fan):
    """Three invalid copies of `fan`: with an extra cone inside its first
    cone (a non-face intersection), with a line, and with a repeated ray."""
    n, first = fan.ambient_dim, fan.maximal_cones[0]
    gens = first.generators
    inside = Cone.generated_by(gens[1:] + (primitive(functools.reduce(vadd, gens)),))
    line = Cone(n, sorted(gens + (vneg(gens[0]),)))
    repeated = Cone(n, gens + gens[:1])
    return [Fan(n, fan.maximal_cones + (extra,)) for extra in (inside, line, repeated)]


def test_fan_validate_matches_the_oracle_on_refined_products_and_forged_copies(monkeypatch):
    """Each wall's sign row and its negation, read off one pairing pass, give
    every valid refined product a certificate on every pair, and the
    violations of the forged copies are the oracle's."""
    fallbacks = _counting_intersections(monkeypatch)
    fans = refined_products(20261022, 2)
    for fan in fans:
        assert fan_validate(fan) == []
    assert fallbacks == []
    kinds = []
    for fan in fans:
        assert fan_validate(fan) == fan_validate_oracle(fan)
        for bad in _forged(fan):
            got = fan_validate(bad)
            assert got == fan_validate_oracle(bad), bad.maximal_cones
            kinds += [v["kind"] for v in got]
    assert set(kinds) == {"intersection not a face", "not strongly convex", "duplicate ray"}


def test_fan_validate_caps_its_cone_pairs(monkeypatch):
    """The four cones of P^3 make six pairs, at the cap; a fifth cone with a
    line makes no pair; a subdivided P^3 passes the cap."""
    subdivided = _subdivided_fans(20261018)[0]
    with_line = Fan(3, projective_fan(3).maximal_cones + (Cone(3, ((-1, 0, 0), (0, 1, 0), (1, 0, 0))),))
    assert len(subdivided.maximal_cones) > 4
    monkeypatch.setattr(torictower.lattice, "MAX_FACES", 6)
    assert fan_validate(projective_fan(3)) == []
    assert [v["kind"] for v in fan_validate(with_line)] == ["not strongly convex"]
    with pytest.raises(ResourceCapError, match="cap of 6 cone pairs"):
        fan_validate(subdivided)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_fan_validate_matches_all_pairs_oracle_after_unimodular_change_of_coordinates(data):
    fan = data.draw(st.sampled_from(CERTIFICATE_FANS))
    n = fan.ambient_dim
    u, _ = data.draw(unimodular(n))
    moved = Fan(n, [Cone(n, [mat_vec(u, g) for g in c.generators]) for c in fan.maximal_cones])
    assert fan_validate(moved) == fan_validate_oracle(moved)


def _subdivided_fans(seed):
    """Chains of four star subdivisions of complete fans, each at a positive
    combination of a random maximal cone's rays."""
    rng = random.Random(seed)
    fans = []
    for fan in (projective_fan(3), projective_fan(4), product_fan(projective_fan(2), projective_fan(2))):
        for _ in range(4):
            cone = rng.choice(fan.maximal_cones)
            centre = (0,) * fan.ambient_dim
            for g in cone.generators:
                centre = vadd(centre, vscale(rng.randint(1, 2), g))
            fan = star_subdivision(fan, centre)
            fans.append(fan)
    return fans


def test_fan_validate_certifies_valid_fans_without_double_description(monkeypatch):
    calls = _counting_intersections(monkeypatch)
    assert fan_validate(BAD_FANS[0]) and len(calls) == 1  # the wrapper counts
    calls.clear()
    fans = [projective_fan(4), product_fan(projective_fan(2), projective_fan(3)), CUBE_FAN]
    fans += [level.fan for spec in random_towers(80, 20260810) for level in build_model(spec).levels]
    fans += _subdivided_fans(20261018)
    for fan in fans:
        assert fan_validate(fan) == []
    assert calls == []


def test_fan_validate_keeps_canonical_cones(monkeypatch):
    """Extreme rays and strong convexity come from each cone's sign table,
    by the rule `Cone.pointed_form` uses, without calling it: no
    `pointed_form` and no `generated_by`, not even for REDUNDANT_FAN's
    redundant ray (1, 1), and no Hermite form on these full-dimensional
    cones."""
    calls = []
    inner, inner_hnf, inner_pointed = Cone.generated_by, torictower.lattice.hnf, Cone.pointed_form
    monkeypatch.setattr(Cone, "generated_by", staticmethod(lambda *a: calls.append("generated_by") or inner(*a)))
    monkeypatch.setattr(Cone, "pointed_form", lambda self: calls.append("pointed_form") or inner_pointed(self))
    monkeypatch.setattr(torictower.lattice, "hnf", lambda *a: calls.append("hnf") or inner_hnf(*a))
    Cone.generated_by([(1,)])
    torictower.lattice.kernel_basis(((1,),), 1)
    assert calls == ["generated_by", "pointed_form", "hnf"]  # the wrappers count
    calls.clear()
    assert fan_validate(REDUNDANT_FAN) == []
    assert sorted(v["kind"] for v in fan_validate(BAD_FANS[-1])) == ["not strongly convex"]
    for fan in (projective_fan(3), CUBE_FAN, UNSORTED_FAN, *_subdivided_fans(20261018)):
        assert fan_validate(fan) == []
    assert calls == []


def test_standard_fans_are_valid():
    for fan in (
        orthant_fan(3),
        torus_fan(2),
        projective_fan(2),
        projective_fan(3),
        product_fan(orthant_fan(1), projective_fan(1)),
        product_fan(projective_fan(1), projective_fan(1)),
    ):
        assert fan_validate(fan) == []


def test_all_rays_is_union_of_cone_rays():
    fan = product_fan(projective_fan(1), projective_fan(1))
    union = sorted({g for c in fan.maximal_cones for g in c.generators})
    assert list(fan.all_rays) == union


def test_fan_keeps_one_cone_listed_in_two_ray_orders():
    fan = Fan(2, (Cone(2, ((0, 1), (1, 0))), Cone(2, ((1, 0), (0, 1)))))
    assert fan.maximal_cones == (Cone(2, ((0, 1), (1, 0))),)
    assert (fan.bit, fan.tops) == ({(0, 1): 1, (1, 0): 2}, (0b11,))
    assert fan_validate(fan) == fan_validate_oracle(fan) == []
    # listed twice next to a cone that overlaps it: one pair, one violation
    fan = Fan(2, fan.maximal_cones + (Cone(2, ((1, 0), (0, 1))), _gens((1, 0), (1, 1))))
    assert len(fan.maximal_cones) == 2
    assert [v["kind"] for v in fan_validate(fan)] == ["intersection not a face"]
    assert fan_validate(fan) == fan_validate_oracle(fan)
    # from_cones drops a listed cone that lies inside another one
    quadrant = Cone(2, ((0, 1), (1, 0)))
    inside = [Cone(2, ((1, 0),)), _gens((1, 0), (1, 1)), quadrant]
    assert Fan.from_cones(2, inside + [quadrant]) == Fan(2, (quadrant,))


INDEX_FANS = LEVEL_FANS + [CUBE_FAN, projective_fan(3), torus_fan(2), Fan(2, ()), REDUNDANT_FAN]


def test_fan_face_masks_are_the_faces_of_its_maximal_cones():
    for fan in INDEX_FANS:
        rays = fan.all_rays
        got = sorted(tuple(rays[i] for i in bit_indices(m)) for m in fan.face_masks())
        assert got == sorted({f.generators for c in fan.maximal_cones for f in faces_oracle(c)})


def test_fan_face_mask_matches_geometric_oracle():
    rng = random.Random(20261018)
    outcomes = set()
    for fan in INDEX_FANS:
        n, rays = fan.ambient_dim, fan.all_rays
        candidates = [Cone(n, ()), Cone(n + 1, ()), Cone(n, rays)]
        for top in fan.maximal_cones:
            for face in top.faces():
                gens = list(face.generators)
                rng.shuffle(gens)
                candidates.append(Cone(n, gens))  # unsorted generators
                if gens:
                    candidates.append(Cone(n, gens + gens[:1]))  # a repeated generator
            candidates.append(Cone(n, rng.sample(rays, rng.randint(0, len(rays)))))
        for small in candidates:
            want = any(is_face_of_oracle(small, c) for c in fan.maximal_cones)
            mask = fan.face_mask(small)
            assert (mask is not None) == want, (fan, small)
            assert all(is_face_of(small, c) == is_face_of_oracle(small, c) for c in fan.maximal_cones)
            if want:
                assert mask == sum(1 << rays.index(g) for g in small.generators)
            outcomes.add(want)
    assert outcomes == {True, False}


# raw cones with non-extreme, repeated or unsorted generators, and bad cones
FACET_FANS = INDEX_FANS + CERTIFICATE_FANS


def test_fan_facet_masks_match_geometric_oracle():
    for fan in FACET_FANS:
        for k in range(len(fan.maximal_cones)):
            assert fan.facet_masks(k) == facet_masks_oracle(fan, k), (fan.maximal_cones, k)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_fan_facet_masks_match_geometric_oracle_after_unimodular_change_of_coordinates(data):
    fan = data.draw(st.sampled_from(CERTIFICATE_FANS))
    n = fan.ambient_dim
    u, _ = data.draw(unimodular(n))
    moved = Fan(n, [Cone(n, [mat_vec(u, g) for g in c.generators]) for c in fan.maximal_cones])
    for k in range(len(moved.maximal_cones)):
        assert moved.facet_masks(k) == facet_masks_oracle(moved, k)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 63), max_size=12))
@example([])
@example([0, 0])
@example([5, 0, 5, 1, 4, 7, 7])
def test_maximal_masks_matches_brute_force_inclusion_filter(masks):
    got = maximal_masks(masks)
    want = {a for a in masks if not any(a & b == a != b for b in masks)}
    assert len(got) == len(want) and set(got) == want
    assert [m.bit_count() for m in got] == sorted((m.bit_count() for m in got), reverse=True)


MASKS = st.one_of(
    st.integers(0, 2**300 - 1),
    st.lists(st.integers(0, 299), max_size=12).map(lambda bits: sum(1 << i for i in set(bits))),
)


@settings(max_examples=300, deadline=None)
@given(MASKS)
@example(0)
@example(1 << 299)
def test_bit_indices_matches_a_scan_of_every_bit(mask):
    assert bit_indices(mask) == tuple(i for i in range(mask.bit_length()) if mask >> i & 1)
