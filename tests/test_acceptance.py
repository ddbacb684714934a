"""Acceptance criteria, one test per criterion.

Every criterion prints one pass/fail line (run with `pytest -s` to see them
on success) and asserts both exactness and its runtime budget.  All random
families are seeded, so reruns are byte-identical.
"""

import itertools
import random
import time
from fractions import Fraction

import sympy

from oracles import is_strongly_convex
from torictower.documents import Report, emit_tower, parse_tower, random_tower
from torictower.lattice import (
    Cone,
    Fan,
    dot,
    dual_cone,
    fan_validate,
    hnf,
    identity_matrix,
    is_unimodular,
    is_zero,
    mat_mul,
    orthant_fan,
    primitive,
    projective_fan,
    unit_vector,
    vadd,
    vscale,
)
from torictower.polytope import (
    ProjectiveDivisorData,
    divisor_polytope,
    normalized_volume,
    relative_degree_on_P,
    relative_volume_on_P,
)
from torictower.toric import (
    CartierData,
    ToricDivisor,
    boundary_divisor,
    canonical_divisor,
    cartier_data,
    log_discrepancy,
)
from torictower.tower import (
    CurveGermData,
    NodeMove,
    ProductMove,
    TowerSpec,
    base_change_to_curve,
    build_model,
    lc_place_transfer_check,
    local_model_at,
    node_chart_dual_violations,
    torus_splitting_check,
)
from torictower.verify import (
    dual_cone_facet_oracle,
    hnf_elementary_oracle,
    is_row_hnf,
    random_towers,
    run_suite,
    simplicial_log_discrepancy_oracle,
)

SEED = 20260810
TOWER_FAMILY = None  # criteria 3 and 4 share the same 200 seeded towers


def shared_towers():
    global TOWER_FAMILY
    if TOWER_FAMILY is None:
        TOWER_FAMILY = random_towers(200, SEED)
    return TOWER_FAMILY


def report(number, name, elapsed, budget):
    print(f"ACCEPTANCE {number} ({name}): PASS [{elapsed:.2f}s / budget {budget:.0f}s]")
    assert elapsed < budget, f"criterion {number} exceeded its {budget:.0f}s budget"


def test_acceptance_1_kernel_oracle_equivalence():
    start = time.monotonic()
    span = range(-3, 4)
    for m in itertools.product(span, repeat=4):
        matrix = ((m[0], m[1]), (m[2], m[3]))
        h, u = hnf(matrix)
        assert h == hnf_elementary_oracle(matrix)
        assert is_row_hnf(h) and is_unimodular(u) and mat_mul(u, matrix) == h
    rng = random.Random(SEED)
    checked = 0
    while checked < 200:
        n = rng.randint(2, 4)
        gens = []
        while len(gens) < rng.randint(2, n + 2):
            v = tuple(rng.randint(-5, 5) for _ in range(n))
            if any(v):
                gens.append(v)
        cone = Cone.generated_by(gens, n)
        if not is_strongly_convex(cone) or not cone.generators:
            continue
        checked += 1
        assert dual_cone(dual_cone(cone)).generators == cone.generators
        if cone.dim() == n:
            assert dual_cone_facet_oracle(cone.generators, n) == dual_cone(cone).generators
    report(1, "kernel oracle equivalence", time.monotonic() - start, 30.0)


def test_acceptance_2_log_discrepancy_correctness():
    start = time.monotonic()
    rng = random.Random(SEED + 2)
    from torictower.lattice import det_int

    checked = 0
    while checked < 20:
        n = rng.randint(2, 3)
        gens = []
        while len(gens) < n:
            v = tuple(rng.randint(0, 4) for _ in range(n))
            if any(v):
                gens.append(primitive(v))
        if det_int(tuple(gens)) == 0:
            continue
        cone = Cone.generated_by(gens, n)
        if len(cone.generators) != n or not is_strongly_convex(cone):
            continue
        checked += 1
        fan = Fan(n, (cone,))
        coeffs = {r: rng.choice((Fraction(0), Fraction(1, 2), Fraction(1))) for r in fan.all_rays}
        b = ToricDivisor(fan, coeffs)
        lam = [rng.randint(0, 4) for _ in cone.generators]
        e = (0,) * n
        for l, g in zip(lam, cone.generators):
            e = vadd(e, vscale(l, g))
        if is_zero(e):
            e = cone.generators[0]
        expected = simplicial_log_discrepancy_oracle(
            cone.generators, [coeffs[r] for r in cone.generators], primitive(e)
        )
        assert log_discrepancy(fan, b, e) == expected

    # blowup-chart oracle: (x, y) = (u, u v); ord_E det Jac = 1 so a(E) = 2
    u, v = sympy.symbols("u v")
    jac = sympy.Matrix([[1, 0], [v, u]])  # d(x,y)/d(u,v)
    jdet = sympy.expand(jac.det())
    multiplicity = 0
    while sympy.simplify(jdet.subs(u, 0)) == 0:
        jdet = sympy.cancel(jdet / u)
        multiplicity += 1
    fan = orthant_fan(2)
    assert log_discrepancy(fan, ToricDivisor(fan), (1, 1)) == 1 + multiplicity == 2
    report(2, "log-discrepancy correctness", time.monotonic() - start, 10.0)


def test_acceptance_3_tower_construction_soundness():
    start = time.monotonic()
    for spec in shared_towers():
        model = build_model(spec)
        for i, level in enumerate(model.levels):
            assert fan_validate(level.fan) == []
            cd = cartier_data(level.fan, canonical_divisor(level.fan) + boundary_divisor(level.fan))
            assert isinstance(cd, CartierData) and cd.cartier_index == 1
        assert torus_splitting_check(model).ok()
        assert node_chart_dual_violations(model).ok()
    report(3, "tower construction soundness", time.monotonic() - start, 120.0)


def test_acceptance_4_lc_place_transfer():
    start = time.monotonic()
    rng = random.Random(SEED)
    violations = []
    for spec in shared_towers():
        res = lc_place_transfer_check(build_model(spec), samples=50, seed=rng.randrange(2**32))
        violations.extend(res.violations)
    assert violations == []
    report(4, "lc-place transfer", time.monotonic() - start, 120.0)


def test_acceptance_5_base_change_transform():
    start = time.monotonic()
    rng = random.Random(SEED + 5)
    for _ in range(100):
        p = rng.randint(1, 3)
        spec = random_tower(p, rng.randint(1, 5), 3, rng.randrange(2**32))
        on_boundary = rng.randrange(2) == 0
        orders = tuple(rng.randint(0, 3) for _ in range(p)) if on_boundary else (0,) * p
        changed = base_change_to_curve(spec, CurveGermData(orders, on_boundary))
        assert changed.base_dim == 1
        for mv, new in zip(spec.moves, changed.moves):
            if isinstance(mv, ProductMove):
                assert isinstance(new, ProductMove)
                continue
            independent = 0
            for c, nu in zip(orders, mv.t_exponents):
                independent += c * nu
            assert new.t_exponents == (independent,)
            assert new.alpha_exponents == mv.alpha_exponents
            if not on_boundary:
                assert new.t_exponents == (0,)
    for i in range(20):
        spec = random_tower(1, 1 + i % 5, 3, seed=i)
        assert base_change_to_curve(spec, CurveGermData((1,), True)) == spec
    report(5, "base-change transform", time.monotonic() - start, 10.0)


def test_acceptance_6_local_models():
    start = time.monotonic()
    t, a, ap = sympy.symbols("t a ap")

    def oracle(move, cone):
        if isinstance(move, ProductMove):
            point_a = 1 if all(dot((0, 1), g) == 0 for g in cone.generators) else 0
            return "smooth_on_section" if point_a == 0 else "smooth_plain"
        k = move.t_exponents[0]
        exps = {t: (1, 0), a: (0, 1), ap: (k, -1)}
        point = {
            var: (1 if all(dot(w, g) == 0 for g in cone.generators) else 0)
            for var, w in exps.items()
        }
        equation = a * ap - t**k
        assert equation.subs(point) == 0
        grad = (sympy.diff(equation, a).subs(point), sympy.diff(equation, ap).subs(point))
        return "node" if grad == (0, 0) else "smooth_plain"

    for move in (NodeMove((), (1,)), NodeMove((), (2,)), ProductMove()):
        model = build_model(TowerSpec(1, (move,)))
        fan = model.levels[1].fan
        seen = set()
        for top in fan.maximal_cones:
            for face in top.faces():
                if face.generators in seen:
                    continue
                seen.add(face.generators)
                assert local_model_at(model, 2, face) == oracle(move, face)
    report(6, "local models vs Jacobian oracle", time.monotonic() - start, 10.0)


def test_acceptance_7_degrees_and_volumes():
    start = time.monotonic()
    for n in range(1, 5):
        fan = projective_fan(n)
        ray = unit_vector(n, 0)
        for k in range(1, 4):
            poly = divisor_polytope(fan, ToricDivisor(fan, {ray: k}))
            assert normalized_volume(poly) == Fraction(k) ** n
        for a in range(1, 4):
            for deg in range(0, 4):
                data = ProjectiveDivisorData(n, (Fraction(deg),), polarization=a)
                assert relative_degree_on_P(data) == Fraction(deg) * a ** (n - 1)
                assert relative_volume_on_P(data) == Fraction(deg) ** n
    report(7, "degrees and volumes", time.monotonic() - start, 10.0)


def test_acceptance_8_round_trip_and_determinism():
    start = time.monotonic()
    for i in range(100):
        spec = random_tower(1 + i % 3, 1 + i % 5, 3, seed=i)
        assert parse_tower(emit_tower(spec)) == spec
    # identical seeds give byte-identical reports
    first = run_suite("basechange", seed=SEED)
    second = run_suite("basechange", seed=SEED)
    r1 = Report(command="verify:basechange", seed=SEED).merge(first)
    r2 = Report(command="verify:basechange", seed=SEED).merge(second)
    r1.elapsed_ms, r2.elapsed_ms = 1.0, 2.0  # wall clock must not leak into bytes
    assert r1.to_json().encode() == r2.to_json().encode()
    report(8, "round-trip and determinism", time.monotonic() - start, 5.0)
