import functools
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import torictower.lattice
import torictower.toric
from corpus import _cube_cone_fan, carries_normals, cartier_route_mismatches, cartier_routes, refined_products
from oracles import (
    cartier_data_oracle,
    is_strongly_convex,
    pullback_divisor_oracle,
    regularity_subfan_oracle,
    star_subdivision_oracle,
    torus_fan,
    unimodular,
)
from torictower.lattice import (
    Cone,
    Fan,
    LatticeError,
    det_int,
    hnf,
    identity_matrix,
    is_zero,
    mat_vec,
    orthant_fan,
    primitive,
    product_fan,
    projective_fan,
    transpose,
    unit_vector,
    vadd,
    vscale,
)
from torictower.polytope import LatticePolytope, normalized_volume
from torictower.toric import (
    CartierData,
    NotQCartier,
    ToricDivisor,
    boundary_divisor,
    canonical_divisor,
    cartier_data,
    character_divisor,
    log_discrepancy,
    pullback_divisor,
    regularity_subfan,
    star_subdivision,
)
from torictower.tower import build_model
from torictower.verify import random_towers, simplicial_log_discrepancy_oracle

A2 = orthant_fan(2)
P1 = projective_fan(1)


def simplicial_cone(rng, n, max_entry=4):
    while True:
        gens = []
        while len(gens) < n:
            v = tuple(rng.randint(0, max_entry) for _ in range(n))
            if not is_zero(v):
                gens.append(primitive(v))
        if det_int(tuple(gens)) == 0:
            continue
        cone = Cone.generated_by(gens, n)
        if len(cone.generators) == n and is_strongly_convex(cone):
            return cone


# --- divisors ----------------------------------------------------------


def test_boundary_divisor():
    b = boundary_divisor(A2)
    assert b.coefficient((1, 0)) == 1 and b.coefficient((0, 1)) == 1
    b = boundary_divisor(P1)
    assert b.coefficient((1,)) == 1 and b.coefficient((-1,)) == 1
    assert not boundary_divisor(torus_fan(2)).coefficients()


def test_canonical_divisor():
    k = canonical_divisor(A2)
    assert k.coefficient((1, 0)) == -1 and k.coefficient((0, 1)) == -1
    assert not canonical_divisor(torus_fan(3)).coefficients()
    for fan in (A2, P1, projective_fan(3)):
        assert not (canonical_divisor(fan) + boundary_divisor(fan)).coefficients()


def test_character_divisor_examples():
    d = character_divisor(A2, (1, 0))
    assert d.coefficient((1, 0)) == 1 and d.coefficient((0, 1)) == 0
    d = character_divisor(A2, (1, -1))
    assert d.coefficient((1, 0)) == 1 and d.coefficient((0, 1)) == -1
    assert not character_divisor(A2, (0, 0)).coefficients()


def test_character_divisor_homomorphism():
    rng = random.Random(5)
    fan = projective_fan(2)
    for _ in range(60):
        l = tuple(rng.randint(-4, 4) for _ in range(2))
        m = tuple(rng.randint(-4, 4) for _ in range(2))
        assert character_divisor(fan, vadd(l, m)) == character_divisor(fan, l) + character_divisor(fan, m)


def test_divisor_rejects_foreign_ray():
    with pytest.raises(LatticeError):
        ToricDivisor(A2, {(1, 1): 1})


# --- cartier data ------------------------------------------------------


def test_cartier_data_affine_plane():
    cd = cartier_data(A2, ToricDivisor(A2, {(1, 0): 1}))
    assert isinstance(cd, CartierData)
    assert cd.vectors == ((Fraction(1), Fraction(0)),)
    assert cd.cartier_index == 1


def test_cartier_data_half_integral():
    fan = Fan(2, (Cone.generated_by([(1, 0), (1, 2)]),))
    cd = cartier_data(fan, ToricDivisor(fan, {(1, 0): 1}))
    assert cd.vectors == ((Fraction(1), Fraction(-1, 2)),)
    assert cd.cartier_index == 2
    cd = cartier_data(fan, ToricDivisor(fan, {(1, 0): 2}))
    assert cd.vectors == ((Fraction(2), Fraction(-1)),)
    assert cd.cartier_index == 1


def test_cartier_data_structured_failure():
    # a non-simplicial cone where the four ray values admit no linear solution
    cone = Cone.generated_by([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1)])
    fan = Fan(3, (cone,))
    out = cartier_data(fan, ToricDivisor(fan, {(1, 0, 0): 1}))
    assert isinstance(out, NotQCartier)
    assert "not Q-Cartier" in out.message
    # on the cone over the unit square, K + B is 0 on e3 and -1 on the other three rays: no linear function
    square = Fan(3, (Cone.generated_by([(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)]),))
    with pytest.raises(NotQCartier, match="^not Q-Cartier on cone "):
        log_discrepancy(square, ToricDivisor(square, {(0, 0, 1): 1}), (1, 1, 2))


def test_cartier_data_agrees_on_shared_faces():
    fan = projective_fan(2)
    d = ToricDivisor(fan, {(1, 0): 2, (0, 1): 1})
    cd = cartier_data(fan, d)
    assert isinstance(cd, CartierData)
    for cone, m in zip(fan.maximal_cones, cd.vectors):
        for u in cone.generators:
            assert sum(c * x for c, x in zip(m, u)) == d.coefficient(u)


# --- pullback ----------------------------------------------------------


def test_pullback_identity():
    d = ToricDivisor(A2, {(1, 0): Fraction(1, 2), (0, 1): 3})
    assert pullback_divisor(identity_matrix(2), A2, A2, d) == d


def test_pullback_p1_double_cover():
    d0 = ToricDivisor(P1, {(1,): 1})
    pb = pullback_divisor(((2,),), P1, P1, d0)
    assert pb.coefficient((1,)) == 2
    assert pb.coefficient((-1,)) == 0


def test_pullback_blowup_of_plane():
    blowup = star_subdivision(A2, (1, 1))
    assert set(blowup.all_rays) == {(1, 0), (1, 1), (0, 1)}
    d1 = ToricDivisor(A2, {(1, 0): 1})
    pb = pullback_divisor(identity_matrix(2), blowup, A2, d1)
    assert [pb.coefficient(r) for r in ((1, 0), (1, 1), (0, 1))] == [1, 1, 0]


def test_pullback_incompatible_map():
    # multiplication by -1 throws the orthant out of the target fan
    with pytest.raises(LatticeError, match="does not map into"):
        pullback_divisor(((-1, 0), (0, -1)), A2, A2, ToricDivisor(A2, {(1, 0): 1}))


def test_pullback_functoriality_on_p1():
    d0 = ToricDivisor(P1, {(1,): 1})
    rng = random.Random(3)
    for _ in range(30):
        j, k = rng.randint(1, 4), rng.randint(1, 4)
        two_step = pullback_divisor(((k,),), P1, P1, pullback_divisor(((j,),), P1, P1, d0))
        assert two_step == pullback_divisor(((j * k,),), P1, P1, d0)


# --- log discrepancy ---------------------------------------------------


def test_log_discrepancy_blowup_exceptional():
    # oracle computed in test_tower via the blowup chart; frozen here
    assert log_discrepancy(A2, ToricDivisor(A2), (1, 1)) == 2


def test_log_discrepancy_on_a_ray():
    b = ToricDivisor(A2, {(1, 0): Fraction(1, 2)})
    assert log_discrepancy(A2, b, (1, 0)) == Fraction(1, 2)
    assert log_discrepancy(A2, b, (0, 1)) == 1


def test_log_discrepancy_lc_boundary():
    fan = Fan(2, (Cone.generated_by([(1, 0), (1, 2)]),))
    b = ToricDivisor(fan, {(1, 0): 1, (1, 2): 1})
    # e = (1,1) = 1/2 u1 + 1/2 u2 and both boundary coefficients are 1
    assert log_discrepancy(fan, b, (1, 1)) == 0


def test_log_discrepancy_normalizes_input():
    assert log_discrepancy(A2, ToricDivisor(A2), (3, 3)) == 2


def test_log_discrepancy_solves_k_plus_b_once_per_fan_and_boundary(monkeypatch):
    """Eight vectors on one fan and boundary coefficients make one Cartier
    solve, though each boundary is a new divisor; a new fan (an equal one
    too) or new coefficients solve again."""
    solves, real = [], torictower.toric.cartier_data
    monkeypatch.setattr(torictower.toric, "cartier_data", lambda fan, d: solves.append(fan) or real(fan, d))
    fan = star_subdivision(product_fan(projective_fan(2), projective_fan(3)), (1, 1, 1, 1, 1))
    rng = random.Random(5)
    vectors = [tuple(rng.randint(-3, 3) for _ in range(5)) for _ in range(9)]
    vectors = [v for v in vectors if any(v)][:8]
    halves = {u: Fraction(1, 2) for u in fan.all_rays[::2]}
    for coefficients in ({}, halves):
        got = [log_discrepancy(fan, ToricDivisor(fan, coefficients), e) for e in vectors]
        k_plus_b = canonical_divisor(fan) + ToricDivisor(fan, coefficients)
        assert got == [-real(fan, k_plus_b).evaluate(primitive(e)) for e in vectors]
    assert len(vectors) == 8 and solves == [fan, fan]
    equal = star_subdivision(product_fan(projective_fan(2), projective_fan(3)), (1, 1, 1, 1, 1))
    log_discrepancy(equal, ToricDivisor(equal, halves), vectors[0])
    assert len(solves) == 3 and solves[-1] is equal


def test_log_discrepancy_no_centre():
    with pytest.raises(LatticeError, match="no centre"):
        log_discrepancy(A2, ToricDivisor(A2), (-1, 0))


def test_log_discrepancy_zero_vector():
    with pytest.raises(LatticeError):
        log_discrepancy(A2, ToricDivisor(A2), (0, 0))


P2 = projective_fan(2)
NOT_RATIONAL = "is not an int, a Fraction or a decimal string p or p/q"
BAD_TORIC_INPUTS = {
    # a coordinate that is not an integer is named, not rounded or passed on
    "float-valuation": ("1.5 is not an integer", lambda: log_discrepancy(P2, boundary_divisor(P2), (1.5, 0))),
    "float-centre": ("1.5 is not an integer", lambda: star_subdivision(P2, (1.5, 1))),
    "float-regularity-character": ("0.5 is not an integer", lambda: regularity_subfan(P2, (0.5, 1))),
    "float-principal-character": ("0.5 is not an integer", lambda: character_divisor(P2, (0.5, 1))),
    # a divisor from another fan is not read as zero
    "cartier-other-fan": ("divisors live on different fans",
                          lambda: cartier_data(P2, boundary_divisor(projective_fan(3)))),
    "sum-other-fan": ("divisors live on different fans", lambda: boundary_divisor(P2) + boundary_divisor(P1)),
    # a character of the wrong length, a centre outside the support
    "long-regularity-character": ("character dimension does not match fan",
                                  lambda: regularity_subfan(P2, (1, 1, 1))),
    "short-principal-character": ("character dimension does not match fan", lambda: character_divisor(P2, (1,))),
    "centre-outside": ("subdivision centre lies outside the fan support",
                       lambda: star_subdivision(orthant_fan(2), (-1, 0))),
    # a divisor's ray is an integer vector, and a fan's cone is a Cone
    "float-ray": ("1.0 is not an integer", lambda: ToricDivisor(P2, {(1.0, 0): 1})),
    "number-ray": ("vector 5 is not a sequence", lambda: ToricDivisor(P2, {5: 2})),
    # and each entry a (ray, coefficient) pair: a string's characters, a list's numbers and a 1-tuple are named
    "str-entries": (r"divisor entry 'x' is not a \(ray, coefficient\) pair", lambda: ToricDivisor(P2, "x")),
    "number-entries": (r"divisor entry 1 is not a \(ray, coefficient\) pair", lambda: ToricDivisor(P2, [1, 2])),
    "short-entry": (r"divisor entry \(\(0, 1\),\) is not a \(ray, coefficient\) pair",
                    lambda: ToricDivisor(P2, [((0, 1),)])),
    "list-cone": (r"cone \[\(1, 0\)\] is not a Cone", lambda: Fan(2, [[(1, 0)]])),
    # a coefficient is an int, a Fraction or a decimal string p or p/q: a float is not read as its binary
    # expansion, and an exponent string builds no huge integer
    "float-coefficient": (f"coefficient 0.1 {NOT_RATIONAL}", lambda: ToricDivisor(P2, {(0, 1): 0.1})),
    "exponent-coefficient": (f"coefficient '1e5' {NOT_RATIONAL}", lambda: ToricDivisor(P2, {(0, 1): "1e5"})),
    "bool-coefficient": (f"coefficient True {NOT_RATIONAL}", lambda: ToricDivisor(P2, [((0, 1), True)])),
    "zero-denominator": (f"coefficient '1/0' {NOT_RATIONAL}", lambda: ToricDivisor(P2, {(0, 1): "1/0"})),
    # and so is a polytope point's coordinate
    "float-point": (f"coefficient 0.1 {NOT_RATIONAL}",
                    lambda: normalized_volume(LatticePolytope(2, [(0, 0), (0.1, 0), (0, 1)]))),
    "exponent-point": (f"coefficient ' 1e1' {NOT_RATIONAL}",
                       lambda: normalized_volume(LatticePolytope(2, [(0, 0), (" 1e1", 0), (0, 1)]))),
}


@pytest.mark.parametrize("case", sorted(BAD_TORIC_INPUTS))
def test_bad_toric_inputs_are_lattice_errors(case):
    message, call = BAD_TORIC_INPUTS[case]
    with pytest.raises(LatticeError, match=f"^{message}$"):
        call()


def test_a_divisor_on_an_equal_fan_is_on_the_fan():
    twin = projective_fan(2)
    assert twin is not P2
    assert cartier_data(P2, boundary_divisor(twin)) == cartier_data(P2, boundary_divisor(P2))


def test_log_discrepancy_rejects_a_boundary_on_another_fan():
    other = Fan(2, (Cone.generated_by([(1, 0), (1, 2)]),))
    with pytest.raises(LatticeError, match="^divisors live on different fans$"):
        log_discrepancy(A2, ToricDivisor(other, {(1, 2): 1}), (1, 1))


def test_log_discrepancy_simplicial_formula():
    rng = random.Random(42)
    for _ in range(60):
        n = rng.randint(2, 3)
        cone = simplicial_cone(rng, n)
        fan = Fan(n, (cone,))
        coeffs = {r: Fraction(rng.choice((0, 1, 2)), 2) for r in fan.all_rays}
        b = ToricDivisor(fan, coeffs)
        lam = [rng.randint(0, 4) for _ in cone.generators]
        e = (0,) * n
        for l, g in zip(lam, cone.generators):
            e = vadd(e, vscale(l, g))
        if is_zero(e):
            continue
        expected = simplicial_log_discrepancy_oracle(
            cone.generators, [coeffs[r] for r in cone.generators], primitive(e)
        )
        assert log_discrepancy(fan, b, e) == expected


def test_log_discrepancy_star_subdivision_invariance():
    rng = random.Random(2024)
    for _ in range(40):
        n = rng.randint(2, 3)
        cone = simplicial_cone(rng, n)
        fan = Fan(n, (cone,))
        b = ToricDivisor(fan, {r: Fraction(rng.choice((0, 1, 2)), 2) for r in fan.all_rays})
        lam = [rng.randint(0, 3) for _ in cone.generators]
        e = (0,) * n
        for l, g in zip(lam, cone.generators):
            e = vadd(e, vscale(l, g))
        if is_zero(e):
            continue
        centre = primitive(tuple(sum(g[i] for g in cone.generators) for i in range(n)))
        refined = star_subdivision(fan, centre)
        kb = canonical_divisor(fan) + b
        refined_b = pullback_divisor(identity_matrix(n), refined, fan, kb) - canonical_divisor(refined)
        assert log_discrepancy(refined, refined_b, e) == log_discrepancy(fan, b, e)
        assert log_discrepancy(fan, b, centre) == 1 - refined_b.coefficient(centre)


# --- regularity subfan -------------------------------------------------


def test_regularity_subfan_regular_character():
    assert regularity_subfan(A2, (1, 0)) == A2


def test_regularity_subfan_drops_pole_locus():
    sub = regularity_subfan(A2, (1, -1))
    assert len(sub.maximal_cones) == 1
    assert sub.maximal_cones[0].generators == ((1, 0),)


def test_regularity_subfan_trivial_character():
    assert regularity_subfan(A2, (0, 0)) == A2


def _level_fans(count, seed):
    return [level.fan for spec in random_towers(count, seed) for level in build_model(spec).levels]


def test_regularity_subfan_matches_geometric_oracle():
    rng = random.Random(20260812)
    for fan in _level_fans(60, 20260812):
        for _ in range(3):
            m = tuple(rng.randint(-2, 2) for _ in range(fan.ambient_dim))
            assert regularity_subfan(fan, m) == regularity_subfan_oracle(fan, m)


def test_regularity_subfan_matches_geometric_oracle_where_many_faces_survive():
    rng = random.Random(20261018)
    cube3, cube4 = _cube_cone_fan(3), _cube_cone_fan(4)
    cases = [(cube3, m) for m in itertools.product((-1, 0, 1), repeat=4)]
    cases += [(cube4, tuple(rng.randint(-1, 1) for _ in range(5))) for _ in range(60)]
    proper_faces = 0
    for fan, m in cases:
        sub = regularity_subfan(fan, m)
        assert sub == regularity_subfan_oracle(fan, m)
        proper_faces += sum(c not in fan.maximal_cones for c in sub.maximal_cones)
    assert proper_faces > 200


@functools.cache
def transform_fans():
    return _level_fans(20, 7)


def _moved(fan, u):
    """U applied to the rays, re-canonicalised by sorting the images."""
    n = fan.ambient_dim
    return Fan(n, [Cone(n, tuple(sorted(mat_vec(u, g) for g in c.generators))) for c in fan.maximal_cones])


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_regularity_subfan_commutes_with_unimodular_change_of_coordinates(data):
    fan = data.draw(st.sampled_from(transform_fans()))
    n = fan.ambient_dim
    m = data.draw(st.tuples(*[st.integers(-2, 2)] * n))
    u, u_inv = data.draw(unimodular(n))
    # <(U^-1)^T m, U u> = <m, u>
    moved_char = mat_vec(transpose(u_inv), m)
    assert regularity_subfan(_moved(fan, u), moved_char) == _moved(regularity_subfan(fan, m), u)


# --- star subdivision --------------------------------------------------


def _cube_fan():
    """The non-simplicial fan over the faces of [-1, 1]^3: six cones over squares."""
    corners = list(itertools.product((-1, 1), repeat=3))
    return Fan(3, [Cone(3, tuple(g for g in corners if g[i] == s)) for i in range(3) for s in (-1, 1)])


@functools.cache
def subdivision_fans():
    """Complete simplicial and non-simplicial fans, and non-complete level
    fans whose maximal cones are often lower-dimensional; built on first use,
    so a construction that raises fails the tests that read them, not the
    collection of this file."""
    return (
        [projective_fan(n) for n in (2, 3, 4)]
        + [product_fan(projective_fan(a), projective_fan(n - a)) for n in (2, 3, 4) for a in range(1, n)]
        + [_cube_fan()]
        + [fan for fan in _level_fans(30, 20260813) if fan.all_rays]
    )


def _centre(rng, fan):
    """A combination with coefficients in {1, 2} of a random nonempty subset of
    one maximal cone's rays, so centres fall on lower faces and on existing rays."""
    gens = rng.choice([c.generators for c in fan.maximal_cones if c.generators])
    subset = rng.sample(gens, rng.randint(1, len(gens)))
    coeffs = [rng.randint(1, 2) for _ in subset]
    return tuple(sum(c * g[i] for c, g in zip(coeffs, subset)) for i in range(fan.ambient_dim))


def test_star_subdivision_matches_oracle():
    rng = random.Random(20260814)
    on_ray = lower_dim = 0
    for fan in subdivision_fans():
        lower_dim += any(c.dim() < fan.ambient_dim for c in fan.maximal_cones)
        for _ in range(2):
            refined = fan
            for _ in range(rng.randint(1, 3)):  # chained subdivisions
                v = _centre(rng, refined)
                on_ray += primitive(v) in refined.all_rays
                expected = star_subdivision_oracle(refined, v)
                refined = star_subdivision(refined, v)
                assert refined == expected
    assert on_ray and lower_dim


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_star_subdivision_commutes_with_unimodular_change_of_coordinates(data):
    fan = data.draw(st.sampled_from(subdivision_fans()))
    v = _centre(data.draw(st.randoms(use_true_random=False)), fan)
    u, _ = data.draw(unimodular(fan.ambient_dim))
    assert star_subdivision(_moved(fan, u), mat_vec(u, v)) == _moved(star_subdivision(fan, v), u)


def test_star_subdivision_spans_no_faces(monkeypatch):
    fans = subdivision_fans()  # built before the counting wrappers
    calls = []

    def counting(name, inner):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return inner(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(Cone, "faces", counting("faces", Cone.faces))
    monkeypatch.setattr(Cone, "generated_by", staticmethod(counting("generated_by", Cone.generated_by)))
    monkeypatch.setattr(Fan, "from_cones", staticmethod(counting("from_cones", Fan.from_cones)))
    Cone(1, ((1,),)).faces()
    Cone.generated_by([(1,)])
    Fan.from_cones(1, [])
    assert calls == ["faces", "generated_by", "from_cones"]  # the wrappers count
    calls.clear()
    rng = random.Random(3)
    for fan in fans:
        star_subdivision(fan, _centre(rng, fan))
    assert calls == []


# --- cartier data against the elimination oracle -------------------------


def test_cartier_data_on_the_zero_cone():
    for n in (1, 2, 3):
        fan = torus_fan(n)
        cd = cartier_data(fan, ToricDivisor(fan))
        assert cd.vectors == ((0,) * n,) and cd.cartier_index == 1
        assert cd.evaluate((0,) * n) == 0


def _random_divisor(rng, fan):
    """Coefficients p/q with p in [-6, 6] and q in [1, 4] on every ray."""
    return ToricDivisor(fan, {u: Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for u in fan.all_rays})


def _bump(rng, fan):
    """1/q on one random ray of the fan, if it has one, q in [1, 3]: an index above one on smooth cones."""
    return ToricDivisor(fan, {rng.choice(fan.all_rays): Fraction(1, rng.randint(1, 3))} if fan.all_rays else {})


def _cartier_cases(seed):
    """On subdivided complete fans (simplicial and not) and on level fans: a
    random rational divisor, a rational multiple of a character divisor
    (Q-Cartier everywhere), and that multiple moved on one ray (Q-Cartier
    exactly on the simplicial cones through it).  Last, a divisor on
    P^1 x P^1 whose cones need the denominators 2, 3, 6 and 1."""
    rng = random.Random(seed)
    fans = []
    for fan in subdivision_fans():
        for _ in range(rng.randint(0, 2)):
            fan = star_subdivision(fan, _centre(rng, fan))
        fans.append(fan)
    fans += _level_fans(20, seed)  # some top fans collapse to the zero cone
    cases = []
    for fan in fans:
        char = tuple(rng.randint(-3, 3) for _ in range(fan.ambient_dim))
        k = Fraction(rng.randint(1, 5), rng.randint(1, 6))
        principal = ToricDivisor(fan, {u: k * c for u, c in character_divisor(fan, char).coefficients().items()})
        cases += [(fan, _random_divisor(rng, fan)), (fan, principal)]
        if fan.all_rays:
            bump = _bump(rng, fan)
            cases += [(fan, principal + bump), (fan, bump)]  # bump vanishes off its ray's star
    square = product_fan(P1, P1)
    return cases + [(square, ToricDivisor(square, {(1, 0): Fraction(1, 2), (0, 1): Fraction(1, 3)}))]


@functools.cache
def cartier_cases():
    return _cartier_cases(20261018)


def _cone_failures(fan, divisor):
    """Generators of the maximal cones on which the divisor alone is not Q-Cartier."""
    failing = set()
    for cone in fan.maximal_cones:
        local = Fan(fan.ambient_dim, (cone,))
        restricted = ToricDivisor(local, {u: divisor.coefficient(u) for u in cone.generators})
        if isinstance(cartier_data(local, restricted), NotQCartier):
            failing.add(cone.generators)
    return failing


def _pullback_outcome(pullback, *args):
    """The pulled-back divisor, or the type and message of the error raised:
    NotQCartier, or the LatticeError of a map that misses the target fan."""
    try:
        return pullback(*args)
    except (LatticeError, NotQCartier) as exc:
        if isinstance(exc, LatticeError) and "does not map into" not in str(exc):
            raise
        return type(exc), str(exc)


def test_pullback_matches_per_ray_oracle():
    """Star-subdivision pullbacks of the Cartier cases' fans (complete fans
    and level fans) by the identity, and maps of P^1 and the affine line."""
    rng = random.Random(20261019)
    cases = []
    for fan, divisor in cartier_cases():
        if any(c.generators for c in fan.maximal_cones):
            cases.append((identity_matrix(fan.ambient_dim), star_subdivision(fan, _centre(rng, fan)), fan, divisor))
    a1 = orthant_fan(1)
    for k in range(-3, 4):
        for source, target in ((P1, P1), (a1, P1), (P1, a1), (a1, a1)):
            cases.append((((k,),), source, target, ToricDivisor(target, {target.all_rays[0]: Fraction(k, 2)})))
    cases.append((((-1, 0), (0, -1)), A2, A2, ToricDivisor(A2, {(1, 0): 1})))
    kinds = set()
    for case in cases:
        got = _pullback_outcome(pullback_divisor, *case)
        assert got == _pullback_outcome(pullback_divisor_oracle, *case), case
        kinds.add(got[0] if isinstance(got, tuple) else ToricDivisor)
    assert kinds == {ToricDivisor, LatticeError, NotQCartier}


def test_cartier_data_matches_elimination_oracle():
    lower_dim = not_first = zero_cone = vanishing = index_above_one = 0
    for fan, divisor in cartier_cases():
        n = fan.ambient_dim
        out = cartier_data(fan, divisor)
        expected = cartier_data_oracle(fan, divisor)
        assert type(out) is type(expected)
        if isinstance(out, NotQCartier):
            assert (out.cone, out.message) == (expected.cone, expected.message)
            not_first += out.cone != fan.maximal_cones[0]
            continue
        assert out.cartier_index == expected.cartier_index
        denominators = []
        for cone, m, m_oracle in zip(fan.maximal_cones, out.vectors, expected.vectors):
            assert len(m) == n
            for u in cone.generators:
                assert sum(c * x for c, x in zip(m, u)) == divisor.coefficient(u)
            if cone.dim() == n:
                assert m == m_oracle
            else:
                lower_dim += 1
            zero_cone += not cone.generators
            # a divisor that is nonzero elsewhere but vanishes on this cone
            vanishing += bool(divisor.coefficients()) and not any(divisor.coefficient(u) for u in cone.generators)
            denominators += [x.denominator for x in m]
        # the vectors witness the index: q*m is integral on every cone exactly
        # for the multiples q of the Cartier index
        assert math.lcm(*denominators) == out.cartier_index
        index_above_one += out.cartier_index > 1
    assert lower_dim and not_first and zero_cone and vanishing and index_above_one


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_cartier_data_commutes_with_unimodular_change_of_coordinates(data):
    fan, divisor = data.draw(st.sampled_from(cartier_cases()))
    n = fan.ambient_dim
    u, u_inv = data.draw(unimodular(n))
    moved = _moved(fan, u)
    moved_divisor = ToricDivisor(moved, {mat_vec(u, r): c for r, c in divisor.coefficients().items()})
    before, after = cartier_data(fan, divisor), cartier_data(moved, moved_divisor)
    assert type(before) is type(after)
    images = {c.generators: tuple(sorted(mat_vec(u, g) for g in c.generators)) for c in fan.maximal_cones}
    failing = _cone_failures(fan, divisor)
    assert {images[g] for g in failing} == _cone_failures(moved, moved_divisor)
    if isinstance(before, NotQCartier):
        # the first failing cone in each fan's own order
        assert before.cone.generators == min(failing)
        assert after.cone.generators == min(images[g] for g in failing)
        return
    assert before.cartier_index == after.cartier_index
    # <(U^-1)^T m, U u> = <m, u>
    moved_vectors = dict(zip((c.generators for c in moved.maximal_cones), after.vectors))
    for cone, m in zip(fan.maximal_cones, before.vectors):
        if cone.dim() == n:
            assert moved_vectors[images[cone.generators]] == mat_vec(transpose(u_inv), m)


def test_cartier_data_runs_one_hnf_per_cone(monkeypatch):
    """One Hermite form per cone with rays on which the divisor is not
    identically zero and that does not carry n normals and no equation, none
    per cone solved from the normals it carries, and none at all for the zero
    divisor."""
    calls = []

    def counting(m):
        calls.append(transpose(m))
        return hnf(m)

    monkeypatch.setattr(torictower.toric, "hnf", counting)
    solved = skipped = 0
    for fan, divisor in cartier_cases():
        calls.clear()
        out = cartier_data(fan, divisor)
        cones = list(fan.maximal_cones)
        if isinstance(out, NotQCartier):
            cones = cones[: cones.index(out.cone) + 1]
        cones = [c for c in cones if any(divisor.coefficient(u) for u in c.generators)]
        assert calls == [c.generators for c in cones if not carries_normals(c)]
        solved += sum(map(carries_normals, cones))
        skipped += sum(1 for c in fan.maximal_cones if c.generators) - len(cones)
        calls.clear()
        zero = cartier_data(fan, ToricDivisor(fan))
        assert zero.vectors == ((0,) * fan.ambient_dim,) * len(fan.maximal_cones)
        assert zero.cartier_index == 1 and calls == []
    assert solved and skipped
    calls.clear()
    fan = projective_fan(3)
    assert cartier_data(fan, canonical_divisor(fan) + boundary_divisor(fan)).cartier_index == 1
    assert calls == []
    assert not hasattr(torictower.lattice, "solve_rational")


def _route_fans(seed):
    """Refined products of projective fans, level fans of random towers, and cones over squares and cubes."""
    return refined_products(seed, 6) + _level_fans(20, seed) + [_cube_cone_fan(k) for k in (2, 3)]


def test_the_normals_route_matches_the_hermite_route_and_the_oracle():
    """On each fan's canonical divisor and a random rational one, the copy
    whose cones carry their normals gives what the copy without them gives,
    and what the elimination oracle gives: its failing cone, its index, and
    on full-dimensional cones its vectors."""
    with_normals, without, bad = cartier_route_mismatches(_route_fans(20261020), 20261021)
    assert not bad and with_normals and without
    rng = random.Random(20261022)
    for fan in _route_fans(20261020):
        memoized, _ = cartier_routes(fan)
        for divisor in (canonical_divisor(memoized), _random_divisor(rng, memoized), _bump(rng, memoized)):
            out, expected = cartier_data(memoized, divisor), cartier_data_oracle(memoized, divisor)
            assert type(out) is type(expected)
            if isinstance(out, NotQCartier):
                assert (out.cone, out.message) == (expected.cone, expected.message)
                continue
            assert out.cartier_index == expected.cartier_index
            for cone, m, m_oracle in zip(memoized.maximal_cones, out.vectors, expected.vectors):
                assert m == m_oracle or cone.dim() < fan.ambient_dim


def test_a_memo_of_another_cone_is_not_q_cartier_and_a_zero_normal_takes_the_hermite_form():
    """A cone that carries another cone's normals fails the per-ray check, so
    the answer is NotQCartier and never wrong vectors; a memo with a normal
    that vanishes on every ray is solved by the Hermite form."""
    fan = projective_fan(2)
    right = cartier_data(fan, boundary_divisor(fan))
    first, second = fan.maximal_cones[:2]
    first._halfspaces = second._halfspaces
    out = cartier_data(fan, boundary_divisor(fan))
    assert isinstance(out, NotQCartier) and out.cone is first
    first._halfspaces = (((0, 0), (1, 0)), ())
    assert cartier_data(fan, boundary_divisor(fan)) == right


def test_cartier_data_on_zero_generators():
    """A maximal cone whose generators are all zero vectors: the zero vector
    when the divisor vanishes there, else NotQCartier naming that cone."""
    for n in (1, 2, 3):
        zero = (0,) * n
        cone = Cone(n, (zero,))
        fan = Fan(n, (cone, Cone(n, (unit_vector(n, 0),))))
        cd = cartier_data(fan, ToricDivisor(fan, {unit_vector(n, 0): 2}))
        assert isinstance(cd, CartierData)
        assert cd.vectors[0] == zero and cd.cartier_index == 1
        out = cartier_data(fan, ToricDivisor(fan, {zero: Fraction(1, 2)}))
        assert isinstance(out, NotQCartier)
        assert out.cone == cone and out.message == f"not Q-Cartier on cone {[zero]}"


def test_cartier_data_returns_where_the_smith_elimination_grows_without_bound():
    """A full-dimensional 6-ray cone in Z^5 on which the textbook Smith
    elimination (`snf_oracle`) never returns: a character gives itself back
    with index 1, and the boundary divisor is not Q-Cartier."""
    rays = (
        (-20, -20, -7, -7, -10),
        (-17, -10, -13, 3, 10),
        (-5, -20, -7, 6, -3),
        (-5, 4, 14, -14, 16),
        (2, 13, -19, 9, -5),
        (19, 19, 8, -12, -12),
    )
    cone = Cone.generated_by(rays, 5)
    assert cone.generators == rays and cone.dim() == 5
    fan = Fan(5, (cone,))
    cd = cartier_data(fan, character_divisor(fan, (1, -2, 0, 3, 1)))
    assert cd.vectors == ((1, -2, 0, 3, 1),) and cd.cartier_index == 1
    out = cartier_data(fan, boundary_divisor(fan))
    assert isinstance(out, NotQCartier)
    assert out.cone == cone and out.message == f"not Q-Cartier on cone {list(rays)}"
