import json
import random
import sys
from fractions import Fraction

import pytest
import sympy

import torictower.tower

from corpus import STRESS_TOWER
from oracles import cones_equal_as_sets, lc_place_transfer_check_oracle
from torictower.documents import Report, random_tower
from torictower.lattice import (
    Cone,
    Fan,
    LatticeError,
    ResourceCapError,
    dot,
    dual_cone,
    fan_validate,
    identity_matrix,
    mat_vec,
    orthant_fan,
    unit_vector,
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
    CheckOutcome,
    CurveGermData,
    NodeMove,
    ProductMove,
    TowerLevel,
    TowerModel,
    TowerSpec,
    base_change_to_curve,
    build_model,
    lc_place_transfer_check,
    local_model_at,
    node_chart_dual_violations,
    projective_model,
    torus_splitting_check,
)
from torictower.verify import random_towers


def node(alpha, t):
    return NodeMove(alpha_exponents=tuple(alpha), t_exponents=tuple(t))


# --- validation --------------------------------------------------------


def test_validate_product_tower():
    assert TowerSpec(1, (ProductMove(),)).depth == 2


def test_validate_rejects_undefined_alpha():
    # the first move (level 2) may not reference alpha_2
    with pytest.raises(LatticeError, match=r"move 0 \(level 2\): alpha_exponents has length 1, expected 0"):
        TowerSpec(1, (node((1,), (1,)),))


def test_validate_two_node_tower():
    assert TowerSpec(2, (node((), (1, 1)), node((1,), (-1, 0)))).depth == 3


def test_validate_t_arity():
    with pytest.raises(LatticeError, match=r"move 0 \(level 2\): t_exponents has length 1, expected 2"):
        TowerSpec(2, (node((), (1,)),))


def test_validate_rejects_base_dim_below_one_with_every_other_failure():
    with pytest.raises(LatticeError) as info:
        TowerSpec(0, (node((1,), ()), ProductMove()))
    assert str(info.value) == (
        "invalid tower: base_dim 0 must be >= 1; "
        "move 0 (level 2): alpha_exponents has length 1, expected 0 (only a_2..a_1 are defined)"
    )
    with pytest.raises(LatticeError, match="^invalid tower: base_dim 0 must be >= 1$"):
        TowerSpec(0, ())


def test_validate_rejects_a_move_of_unknown_type():
    with pytest.raises(LatticeError, match="^invalid tower: move 1 has unknown type str$"):
        TowerSpec(1, (ProductMove(), "node"))


# --- build_model -------------------------------------------------------


def test_build_node_t1_is_smooth_plane():
    # eliminating a' from a*a' = t presents the chart as a polynomial ring;
    # its fan is the full cone((1,0),(1,1))
    model = build_model(TowerSpec(1, (node((), (1,)),)))
    assert model.levels[1].fan.maximal_cones[0].generators == ((1, 0), (1, 1))


def test_a_float_exponent_is_an_invalid_tower_not_a_truncated_one():
    # int(1.7) is 1: the exponent-1 tower of the test above, with top rays (1, 0) and (1, 1)
    with pytest.raises(LatticeError, match=r"^invalid tower: move 0 \(level 2\): exponent 1.7 is not an int$"):
        build_model(TowerSpec(1, (node((), (1.7,)),)))


def test_build_node_t1_squared_is_a1_singularity():
    model = build_model(TowerSpec(1, (node((), (2,)),)))
    cone = model.levels[1].fan.maximal_cones[0]
    assert cone.generators == ((1, 0), (1, 2))
    # semigroup oracle: the dual equals cone((1,0),(0,1),(2,-1)) as a set;
    # (1,0) spans t = a*a' and is interior, so the extreme rays are the other two
    dual = dual_cone(cone)
    assert cones_equal_as_sets(dual, Cone.generated_by([(1, 0), (0, 1), (2, -1)]))
    assert dual.generators == ((0, 1), (2, -1))


def test_build_product_is_plane():
    model = build_model(TowerSpec(1, (ProductMove(),)))
    assert model.levels[1].fan == orthant_fan(2)


def test_build_trivial_character_keeps_fan_flat():
    # a*a' = 1 is a torus direction: sigma~ = sigma x {0}
    model = build_model(TowerSpec(1, (node((), (0,)),)))
    assert model.levels[1].fan.maximal_cones[0].generators == ((1, 0),)


def test_build_levels_are_valid_fans():
    spec = TowerSpec(2, (node((), (1, 1)), ProductMove(), node((1, 0), (2, -1))))
    model = build_model(spec)
    assert model.depth == 4
    for level in model.levels:
        assert fan_validate(level.fan) == []
    assert torus_splitting_check(model).ok()
    assert node_chart_dual_violations(model).ok()


def test_node_chart_dual_violations_keeps_the_build_cap():
    # top level in dimension 12, over the default cap of 10: the build cap holds
    model = build_model(TowerSpec(11, (node((), (1,) + (0,) * 10),)), max_dim=12)
    outcome = node_chart_dual_violations(model)
    assert outcome.ok() and outcome.checked == outcome.passed == 1


def _with_chart_rays(model, level, old, new):
    """`model` with the ray `old` of every cone of level `level` replaced by `new`."""
    fan = model.levels[level - 1].fan
    n = fan.ambient_dim
    cones = [Cone(n, tuple(sorted(new if g == old else g for g in c.generators))) for c in fan.maximal_cones]
    levels = list(model.levels)
    levels[level - 1] = TowerLevel(fan=Fan(n, cones))
    return TowerModel(spec=model.spec, levels=tuple(levels))


def test_node_chart_dual_violations_flags_a_wrong_top_lift():
    # t^2 lifts the ray (1,) to (1, 0) and (1, 2); a chart with (1, 3) is not the node's
    model = build_model(TowerSpec(1, (node((), (2,)),)))
    forged = _with_chart_rays(model, 2, (1, 2), (1, 3))
    assert forged.levels[1].fan.maximal_cones[0].generators == ((1, 0), (1, 3))
    outcome = node_chart_dual_violations(forged)
    assert (outcome.checked, outcome.passed) == (1, 0)
    assert [(v["kind"], v["level"]) for v in outcome.violations] == [("node-chart-dual", 2)]
    # the same at level 3 of a deeper tower, whose level 2 stays right
    model = build_model(TowerSpec(1, (node((), (1,)), node((1,), (1,)))))
    assert node_chart_dual_violations(model).ok()
    top = max(model.levels[2].fan.all_rays, key=lambda g: g[-1])
    forged = _with_chart_rays(model, 3, top, top[:-1] + (top[-1] + 1,))
    outcome = node_chart_dual_violations(forged)
    assert outcome.checked == node_chart_dual_violations(model).checked
    assert outcome.violations and {(v["kind"], v["level"]) for v in outcome.violations} == {("node-chart-dual", 3)}


def test_node_chart_dual_violations_runs_two_double_descriptions_per_chart(monkeypatch):
    import torictower.lattice as lattice

    models = [build_model(spec) for spec in random_towers(40, 20260810)]
    calls = []
    inner = lattice.halfspace_intersection
    monkeypatch.setattr(lattice, "halfspace_intersection", lambda *a: calls.append(a) or inner(*a))
    charts = []
    for model in models:
        calls.clear()
        outcome = node_chart_dual_violations(model)
        assert outcome.ok() and len(calls) == 2 * outcome.checked
        charts.append(outcome.checked)
    assert sum(charts) == 40 and max(charts) == 3


def test_build_ray_cap():
    spec = TowerSpec(3, (node((), (1, 1, 1)), node((1,), (1, 1, 1))))
    with pytest.raises(ResourceCapError):
        build_model(spec, max_rays=3)


def test_build_ray_cap_holds_the_level_one_orthant():
    """Level 1 is a level too: its p rays count against the per-level cap."""
    with pytest.raises(ResourceCapError, match="^level fan has 3 rays, exceeding cap 2$"):
        build_model(TowerSpec(3, ()), max_rays=2)
    with pytest.raises(ResourceCapError, match="^level fan has 3 rays, exceeding cap 1$"):
        build_model(TowerSpec(3, (ProductMove(),)), max_rays=1)
    assert len(build_model(TowerSpec(3, ()), max_rays=3).levels[0].fan.all_rays) == 3


def test_build_dimension_cap():
    spec = TowerSpec(2, (node((), (1, 1)), ProductMove()))  # ambient dimension 4
    message = "^tower ambient dimension 4 exceeds cap 3$"
    with pytest.raises(ResourceCapError, match=message):
        build_model(spec, max_dim=3)
    assert build_model(spec, max_dim=4).levels[-1].fan.ambient_dim == 4
    assert lc_place_transfer_check(build_model(spec, max_dim=4), samples=1, seed=0).ok()


def test_the_digit_cap_reads_the_heights_of_kept_rays_only():
    """A node level's new coordinates are the heights <m, u> of the rays it
    keeps: a height past the digit limit on a ray the move cuts is never a
    coordinate, so the tower builds; on a kept ray it is a cap."""
    saved = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(4300)
        top = build_model(TowerSpec(2, (node((), (-10**4400, 1)),))).levels[-1].fan
        with pytest.raises(ResourceCapError, match="^a coordinate has more than 4300 decimal digits$"):
            build_model(TowerSpec(2, (node((), (10**4400, 1)),)))
    finally:
        sys.set_int_max_str_digits(saved)
    assert top.all_rays == ((0, 1, 0), (0, 1, 1))


def test_no_int_to_str_digit_limit_is_no_digit_cap():
    """Past the int-to-str digit limit a new coordinate is a cap; with the
    limit off (0), 5,000-digit exponents build and base-change."""
    big = 10**5000
    spec = TowerSpec(1, (node((), (big,)), node((1,), (big,))))
    germ = CurveGermData((big,), True)
    saved = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(4300)
        with pytest.raises(ResourceCapError, match="^a coordinate has more than 4300 decimal digits$"):
            build_model(spec)
        with pytest.raises(ResourceCapError, match="^a coordinate has more than 4300 decimal digits$"):
            base_change_to_curve(spec, germ)
        sys.set_int_max_str_digits(0)
        top = build_model(spec).levels[-1].fan
        curve = base_change_to_curve(spec, germ)
        curve_top = build_model(curve).levels[-1].fan
    finally:
        sys.set_int_max_str_digits(saved)
    assert max(ray[-1] for ray in top.all_rays) == 2 * big
    assert curve.moves[0].t_exponents == (big * big,)
    assert max(ray[-1] for ray in curve_top.all_rays) == 2 * big * big


# --- levels kept across builds -----------------------------------------


def _fresh_levels(spec):
    """The level fans of `spec` built with no level kept."""
    torictower.tower._LEVELS.clear()
    return [level.fan for level in build_model(spec).levels]


def test_two_builds_of_a_spec_share_every_level_above_the_orthant():
    spec = TowerSpec(2, (ProductMove(), node((1,), (1, -1)), node((0, 1), (2, 0))))
    first, second = build_model(spec), build_model(spec)
    assert all(a is b for a, b in zip(first.levels[1:], second.levels[1:]))
    assert first.levels[0] == second.levels[0] and first.levels[0] is not second.levels[0]
    assert [level.fan for level in second.levels] == _fresh_levels(spec)


def test_towers_that_start_alike_share_their_lower_levels():
    start = (node((), (1, 2)), ProductMove())
    specs = [TowerSpec(2, start + (move,)) for move in (node((1, 0), (0, 1)), ProductMove(), node((0, 0), (1, 1)))]
    models = [build_model(spec) for spec in specs]
    for k in (1, 2):
        assert models[0].levels[k] is models[1].levels[k] is models[2].levels[k]
    assert len({id(model.levels[3]) for model in models}) == 3
    for spec, model in zip(specs, models):
        assert [level.fan for level in model.levels] == _fresh_levels(spec)


def test_towers_over_two_base_dimensions_share_no_level():
    """p = 1 and p = 2 towers with the same moves, product moves alone."""
    moves = (ProductMove(), ProductMove())
    one, two = build_model(TowerSpec(1, moves)), build_model(TowerSpec(2, moves))
    assert [level.fan.ambient_dim for level in one.levels] == [1, 2, 3]
    assert [level.fan.ambient_dim for level in two.levels] == [2, 3, 4]
    assert [level.fan for level in two.levels] == _fresh_levels(TowerSpec(2, moves))


def test_a_kept_level_still_trips_a_lower_ray_cap_and_the_digit_limit():
    spec = TowerSpec(1, (node((), (10**700,)), ProductMove()))  # level 2's height has 701 digits
    model = build_model(spec)
    assert [len(level.fan.all_rays) for level in model.levels] == [1, 2, 3]
    with pytest.raises(ResourceCapError, match="^level fan has 2 rays, exceeding cap 1$"):
        build_model(spec, max_rays=1)
    saved = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(640)
        with pytest.raises(ResourceCapError, match="^a coordinate has more than 640 decimal digits$"):
            build_model(spec)
    finally:
        sys.set_int_max_str_digits(saved)
    assert build_model(spec).levels[1:] == model.levels[1:]


def _counted(monkeypatch, name):
    """The list of calls made through the tower module's binding `name`."""
    calls, real = [], getattr(torictower.tower, name)

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(torictower.tower, name, counting)
    return calls


def test_a_second_build_builds_and_checks_no_level(monkeypatch):
    """A level's heights are checked once, where `_level_above` builds it:
    a second build of the spec finds every level above the orthant kept."""
    built, checked = _counted(monkeypatch, "_level_above"), _counted(monkeypatch, "_check_digits")
    spec = TowerSpec(2, (node((), (1, 2)), ProductMove(), node((1, 0), (0, 1))))
    first = build_model(spec)
    assert (len(built), len(checked)) == (3, 2)  # one digit check per node level
    second = build_model(spec)
    assert (len(built), len(checked)) == (3, 2)
    assert all(a is b for a, b in zip(first.levels[1:], second.levels[1:]))


def test_restoring_the_digit_limit_gives_back_the_levels_kept_under_it():
    """The kept-level key holds the digit limit: a build under a lowered
    limit makes levels of its own, and the levels kept under the restored
    limit are the very objects built before."""
    spec = TowerSpec(1, (node((), (10**600,)), ProductMove()))  # level 2's height has 601 digits
    before = build_model(spec).levels
    saved = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(700)
        lowered = build_model(spec).levels
    finally:
        sys.set_int_max_str_digits(saved)
    after = build_model(spec).levels
    assert lowered[1:] == before[1:] and not any(a is b for a, b in zip(lowered[1:], before[1:]))
    assert all(a is b for a, b in zip(after[1:], before[1:]))


def test_node_ray_bounds_invariant():
    spec = TowerSpec(2, (node((), (2, 1)), node((1,), (1, -1))))
    model = build_model(spec)
    for i, move in enumerate(spec.moves):
        if not isinstance(move, NodeMove):
            continue
        m = move.lattice_exponents()
        prev_dim = model.levels[i].fan.ambient_dim
        for ray in model.levels[i + 1].fan.all_rays:
            assert 0 <= ray[-1] <= dot(m, ray[:prev_dim])


# --- projective model --------------------------------------------------


def test_projective_model_p1_d2():
    pm = projective_model(TowerSpec(1, (node((), (2,)),)))
    assert pm.ambient_dim == 2
    assert set(pm.all_rays) == {(1, 0), (0, 1), (0, -1)}
    assert len(pm.maximal_cones) == 2


def test_projective_model_depth_one_is_base():
    assert projective_model(TowerSpec(2, ())) == orthant_fan(2)


def test_level_d_rays_lie_in_projective_support():
    for spec in random_towers(30, seed=606):
        model = build_model(spec)
        pm = projective_model(spec)
        for ray in model.levels[-1].fan.all_rays:
            assert pm.cone_index(ray) is not None


# --- lc place transfer -------------------------------------------------


def test_lc_transfer_worked_example():
    spec = TowerSpec(1, (node((), (2,)),))
    model = build_model(spec)
    fan_v = model.levels[-1].fan
    pm = projective_model(spec)
    c = boundary_divisor(fan_v)
    g = boundary_divisor(pm)
    assert log_discrepancy(fan_v, c, (1, 1)) == 0
    assert log_discrepancy(pm, g, (1, 1)) == 0
    for ray in fan_v.all_rays:
        assert log_discrepancy(fan_v, c, ray) == 0
        assert log_discrepancy(pm, g, ray) == 0


def test_lc_transfer_check_reports():
    res = lc_place_transfer_check(build_model(TowerSpec(1, (node((), (2,)),))), samples=25, seed=11)
    assert res.ok()
    assert res.passed > 0
    assert res.checked == res.passed + res.skipped


def test_lc_transfer_check_rejects_a_negative_sample_count():
    """A negative count used to check the rays alone; 0 still checks them."""
    model = build_model(TowerSpec(1, (NodeMove((), (2,)),)))
    with pytest.raises(LatticeError, match="samples must be >= 0"):
        lc_place_transfer_check(model, samples=-1, seed=0)
    assert lc_place_transfer_check(model, samples=0, seed=0).checked == 2


@pytest.mark.parametrize("samples", [2.5, True])
def test_lc_transfer_check_rejects_a_sample_count_that_is_not_an_int(samples):
    """A float is no count, and True is no count of 1."""
    model = build_model(TowerSpec(1, (NodeMove((), (2,)),)))
    with pytest.raises(LatticeError, match=f"samples {samples!r} is not an int"):
        lc_place_transfer_check(model, samples=samples, seed=0)


def test_lc_transfer_no_violations_on_random_towers():
    rng = random.Random(17)
    for spec in random_towers(40, seed=17):
        res = lc_place_transfer_check(build_model(spec), samples=20, seed=rng.randrange(2**32))
        assert res.ok(), res.violations


def _with_top_fan_moved(model, u):
    """`model` with its top fan replaced by its image under the unimodular u."""
    top = model.levels[-1]
    n = top.fan.ambient_dim
    fan = Fan(n, [
        Cone(n, tuple(sorted(mat_vec(u, g) for g in c.generators)))
        for c in top.fan.maximal_cones
    ])
    level = TowerLevel(fan=fan)
    return TowerModel(spec=model.spec, levels=model.levels[:-1] + (level,))


def test_lc_check_matches_per_vector_oracle_on_random_towers():
    rng = random.Random(20260814)
    towers = random_towers(80, 20260814)
    assert any(len(spec.moves) == 0 for spec in towers) and max(len(s.moves) for s in towers) >= 3
    skipped = 0
    for spec in towers:
        model = build_model(spec)
        for _ in range(3):
            seed = rng.randrange(2**32)
            got = lc_place_transfer_check(model, samples=20, seed=seed)
            assert got == lc_place_transfer_check_oracle(model, samples=20, seed=seed)
            assert got.ok() and got.checked == got.passed + got.skipped
            skipped += got.skipped
    assert skipped > 0


def _model_of_cones(n):
    """A one-level model over A^3 whose top fan has the n cones cone((-1, i, 0), (-1, i, 1)), 0 <= i < n,
    which meet only at 0.  No ray lies in |Sigma_P| = {x >= 0}, so each nonzero sample is a violation whose
    vector names its cone (i = -x_2 / x_1) and the ratio of its two entries, and each zero one a skip."""
    cones = [Cone(3, ((-1, i, 0), (-1, i, 1))) for i in range(n)]
    return TowerModel(spec=TowerSpec(3, ()), levels=(TowerLevel(fan=Fan(3, cones)),))


def test_lc_draws_are_the_randrange_stream():
    """The inline draws are CPython's randrange(n) for the cone and randint(0, 10) for each entry, on the
    same generator, so the lc samples, counts and goldens stay those of the oracle, which calls both."""
    for n in range(1, 65):
        model = _model_of_cones(n)
        for seed in range(3):
            got = lc_place_transfer_check(model, samples=25, seed=seed)
            assert got == lc_place_transfer_check_oracle(model, samples=25, seed=seed)
            assert len(got.violations) == 2 * n + 25 - got.skipped


def test_lc_check_with_no_maximal_cone_to_sample_raises():
    model = TowerModel(spec=TowerSpec(3, ()), levels=(TowerLevel(fan=Fan(3, [])),))
    assert lc_place_transfer_check(model, samples=0, seed=0) == CheckOutcome()
    with pytest.raises(LatticeError, match="no maximal cone to sample"):
        lc_place_transfer_check(model, samples=1, seed=0)


def test_lc_check_matches_per_vector_oracle_on_the_stress_tower():
    model = build_model(STRESS_TOWER)
    for seed in (1, 2, 3):
        got = lc_place_transfer_check(model, samples=50, seed=seed)
        assert got == lc_place_transfer_check_oracle(model, samples=50, seed=seed)
        assert got.ok() and got.checked == 104 + 50


def test_lc_check_on_a_zero_cone_top_fan_skips_every_sample():
    model = build_model(TowerSpec(1, (node((), (-1,)),)))  # t^-1 is regular on no ray of A^1
    assert model.levels[-1].fan.maximal_cones == (Cone(2, ()),)
    got = lc_place_transfer_check(model, samples=30, seed=4)
    assert got == lc_place_transfer_check_oracle(model, samples=30, seed=4)
    assert (got.checked, got.passed, got.skipped, got.violations) == (30, 0, 30, [])
    assert {s["reason"] for s in got.skips} == {"degenerate sample (zero vector)"}


def test_lc_check_matches_oracle_on_top_fans_outside_the_projective_support():
    # forged models: the top fan moved by x_p -> -x_p, or x_1 -> x_1 - x_n
    rng = random.Random(5)
    flagged = 0
    for spec in random_towers(40, 20260814):
        model = build_model(spec)
        n = model.levels[-1].fan.ambient_dim
        flip = [list(r) for r in identity_matrix(n)]
        flip[spec.base_dim - 1][spec.base_dim - 1] = -1
        shear = [list(r) for r in identity_matrix(n)]
        shear[0][n - 1] -= 1
        for u in (flip, shear) if n > 1 else (flip,):
            forged = _with_top_fan_moved(model, u)
            seed = rng.randrange(2**32)
            got = lc_place_transfer_check(forged, samples=15, seed=seed)
            assert got == lc_place_transfer_check_oracle(forged, samples=15, seed=seed)
            kinds = {v["kind"] for v in got.violations}
            assert kinds <= {"no-centre-on-P"}
            flagged += bool(kinds)
            for v in got.violations:
                assert min(v["vector"][: spec.base_dim]) < 0 and v["origin"] in ("ray", "sample")
    assert flagged >= 40


def test_lc_check_report_writes_witness_vectors_as_decimal_strings():
    spec = TowerSpec(2, (NodeMove((), (1, 2)), ProductMove()))
    model = build_model(spec)
    flip = [list(r) for r in identity_matrix(4)]
    flip[1][1] = -1
    forged = _with_top_fan_moved(model, flip)
    outcome = lc_place_transfer_check(forged, samples=20, seed=3)
    violations = json.loads(Report(command="lc-check", seed=3).merge(outcome).to_json())["violations"]
    assert violations
    for v, witness in zip(violations, outcome.violations):
        assert v["vector"] == [str(x) for x in witness["vector"]]


def test_lc_check_calls_neither_cartier_data_nor_projective_model(monkeypatch):
    import torictower.tower as tower

    def forbidden(*args, **kwargs):
        raise AssertionError("lc_place_transfer_check must not build Cartier data or the P fan")

    specs = random_towers(30, 20260814)
    models = [build_model(spec) for spec in specs]
    monkeypatch.setattr(tower, "cartier_data", forbidden)
    monkeypatch.setattr(tower, "projective_model", forbidden)
    rng = random.Random(9)
    flagged = 0
    for spec, model in zip(specs, models):
        n = model.levels[-1].fan.ambient_dim
        flip = [list(r) for r in identity_matrix(n)]
        flip[spec.base_dim - 1][spec.base_dim - 1] = -1
        for checked in (model, _with_top_fan_moved(model, flip)):
            got = lc_place_transfer_check(checked, samples=10, seed=rng.randrange(2**32))
            assert got.checked == got.passed + got.skipped + len(got.violations)
            flagged += not got.ok()
    assert flagged > 0


# --- base change -------------------------------------------------------


def test_base_change_examples():
    spec = TowerSpec(2, (node((), (1, 1)),))
    out = base_change_to_curve(spec, CurveGermData((1, 1), True))
    assert out == TowerSpec(1, (node((), (2,)),))

    spec = TowerSpec(2, (node((), (3, -1)),))
    out = base_change_to_curve(spec, CurveGermData((2, 0), True))
    assert out.moves[0].t_exponents == (6,)

    spec = TowerSpec(2, (node((), (3, -1)), ProductMove(), node((1, 0), (0, 2))))
    out = base_change_to_curve(spec, CurveGermData((0, 0), False))
    assert out.base_dim == 1
    assert out.moves[0].t_exponents == (0,)
    assert isinstance(out.moves[1], ProductMove)
    assert out.moves[2].t_exponents == (0,)
    assert out.moves[2].alpha_exponents == (1, 0)


def test_base_change_identity_for_unit_order():
    for i in range(20):
        spec = random_tower(1, 1 + i % 5, 3, seed=31 + i)
        assert base_change_to_curve(spec, CurveGermData((1,), True)) == spec


def test_base_change_linearity_in_orders():
    rng = random.Random(9)
    for spec in random_towers(20, seed=9):
        p = spec.base_dim
        c1 = tuple(rng.randint(0, 3) for _ in range(p))
        c2 = tuple(rng.randint(0, 3) for _ in range(p))
        both = tuple(a + b for a, b in zip(c1, c2))
        out1 = base_change_to_curve(spec, CurveGermData(c1, True))
        out2 = base_change_to_curve(spec, CurveGermData(c2, True))
        out3 = base_change_to_curve(spec, CurveGermData(both, True))
        for m1, m2, m3 in zip(out1.moves, out2.moves, out3.moves):
            if isinstance(m1, NodeMove):
                assert m3.t_exponents[0] == m1.t_exponents[0] + m2.t_exponents[0]


def test_base_change_errors():
    spec = TowerSpec(2, (node((), (1, 1)),))
    with pytest.raises(LatticeError, match="orders"):
        base_change_to_curve(spec, CurveGermData((1,), True))
    with pytest.raises(LatticeError, match="orders must be 0"):
        base_change_to_curve(spec, CurveGermData((1, 0), False))
    with pytest.raises(LatticeError, match="^vanishing order must be >= 0, got -1$"):
        base_change_to_curve(spec, CurveGermData((-1, 0), True))
    # a float order would give a float exponent, and a tower document with an
    # unquoted 1.7; it is an error also on a tower with no node move to carry it
    with pytest.raises(LatticeError, match="vanishing order 1.7 is not an int"):
        base_change_to_curve(spec, CurveGermData((1.7, 0), True))
    with pytest.raises(LatticeError, match="vanishing order 1.7 is not an int"):
        base_change_to_curve(TowerSpec(1, (ProductMove(),)), CurveGermData((1.7,), True))
    # True is an int to isinstance, and would give a t-exponent of 2 here
    with pytest.raises(LatticeError, match="vanishing order True is not an int"):
        base_change_to_curve(TowerSpec(1, (node((), (2,)),)), CurveGermData((True,), True))


# --- local models and the Jacobian oracle -------------------------------


def jacobian_oracle_level2(move, cone):
    """Classify the orbit of a level-2 cone by symbolic differentiation.

    The distinguished point of the orbit has coordinate value 1 on monomials
    orthogonal to the cone and 0 otherwise; a node move's chart is the
    hypersurface a*a' = t^k and the fiber through the point is singular iff
    the gradient in the fiber variables vanishes there.
    """
    t, a, ap = sympy.symbols("t a ap")
    if isinstance(move, ProductMove):
        exps = {t: (1, 0), a: (0, 1)}
        point = {
            var: (1 if all(dot(w, g) == 0 for g in cone.generators) else 0)
            for var, w in exps.items()
        }
        return "smooth_on_section" if point[a] == 0 else "smooth_plain"
    k = move.t_exponents[0]
    exps = {t: (1, 0), a: (0, 1), ap: (k, -1)}
    point = {
        var: (1 if all(dot(w, g) == 0 for g in cone.generators) else 0)
        for var, w in exps.items()
    }
    equation = a * ap - t**k
    assert equation.subs(point) == 0  # the point lies on the chart
    grad = (sympy.diff(equation, a).subs(point), sympy.diff(equation, ap).subs(point))
    return "node" if grad == (0, 0) else "smooth_plain"


@pytest.mark.parametrize(
    "move",
    [node((), (1,)), node((), (2,)), ProductMove()],
    ids=["node-t", "node-t-squared", "product"],
)
def test_local_model_matches_jacobian_oracle(move):
    model = build_model(TowerSpec(1, (move,)))
    fan = model.levels[1].fan
    seen = set()
    for top in fan.maximal_cones:
        for face in top.faces():
            if face.generators in seen:
                continue
            seen.add(face.generators)
            got = local_model_at(model, 2, face)
            expected = jacobian_oracle_level2(move, face)
            assert got == expected, (face.generators, got, expected)
    assert seen  # at least the zero cone was classified


def test_local_model_examples():
    model = build_model(TowerSpec(1, (node((), (2,)),)))
    assert local_model_at(model, 2, model.levels[1].fan.maximal_cones[0]) == "node"
    model1 = build_model(TowerSpec(1, (node((), (1,)),)))
    # only the a-branch vanishes on the orbit of the middle ray
    assert local_model_at(model1, 2, Cone(2, ((1, 1),))) == "smooth_plain"
    productm = build_model(TowerSpec(1, (ProductMove(),)))
    assert local_model_at(productm, 2, Cone(2, ((0, 1),))) == "smooth_on_section"
    assert local_model_at(productm, 2, Cone(2, ((1, 0),))) == "smooth_plain"


def test_local_model_base_level_error():
    model = build_model(TowerSpec(1, (ProductMove(),)))
    with pytest.raises(LatticeError, match="base level has no fibration structure"):
        local_model_at(model, 1, Cone(1, ((1,),)))


def test_local_model_level_past_the_depth_error():
    model = build_model(TowerSpec(1, (ProductMove(),)))
    with pytest.raises(LatticeError, match=r"^level 3 out of range 2\.\.2$"):
        local_model_at(model, 3, Cone(3, ((0, 0, 1),)))


def test_local_model_requires_fan_membership():
    model = build_model(TowerSpec(1, (node((), (2,)),)))
    with pytest.raises(LatticeError, match="does not belong"):
        local_model_at(model, 2, Cone(2, ((1, 1),)))


def test_local_model_on_product_levels_matches_containment():
    rng = random.Random(20260815)
    faces_seen = on_section = 0
    for spec in random_towers(60, 20260815):
        model = build_model(spec)
        for level, move in enumerate(spec.moves, start=2):
            if not isinstance(move, ProductMove):
                continue
            fan = model.levels[level - 1].fan
            n = fan.ambient_dim
            e_new = unit_vector(n, n - 1)
            faces = {f.generators: f for top in fan.maximal_cones for f in top.faces()}
            for face in faces.values():
                want = "smooth_on_section" if face.contains(e_new) else "smooth_plain"
                assert local_model_at(model, level, face) == want
                gens = list(face.generators)
                rng.shuffle(gens)
                assert local_model_at(model, level, Cone(n, tuple(gens))) == want
                faces_seen += 1
                on_section += want == "smooth_on_section"
            # not in the fan: -e_new, and e_new with a non-ray of a maximal cone
            interior = [tuple(map(sum, zip(*c.generators))) for c in fan.maximal_cones]
            for bad in [(tuple(-x for x in e_new),)] + [(e_new, v) for v in interior]:
                with pytest.raises(LatticeError, match="does not belong"):
                    local_model_at(model, level, Cone(n, bad))
    assert faces_seen > 200 and 0 < on_section < faces_seen


def test_local_model_at_rejects_repeated_rays_non_faces_and_other_dimensions():
    model = build_model(STRESS_TOWER)
    fan = model.levels[-1].fan
    n = fan.ambient_dim
    top = fan.maximal_cones[0]
    assert local_model_at(model, model.depth, top) in ("node", "smooth_plain")
    for bad in (
        Cone(n, top.generators + top.generators[:1]),  # a repeated ray
        Cone(n, fan.all_rays),  # rays of several maximal cones
        Cone(n, (tuple(map(sum, zip(*top.generators))),)),  # not a ray
        Cone(n - 1, ()),
        Cone(n + 1, ()),
    ):
        with pytest.raises(LatticeError, match="does not belong"):
            local_model_at(model, model.depth, bad)


# --- blowup chart oracle for the log discrepancy example ----------------


def test_blowup_chart_oracle_pins_log_discrepancy_two():
    # chart of the origin blowup of the plane: (x, y) = (u, u*v); the
    # exceptional divisor is u = 0 and ord_E det Jac = 1, so a(E) = 1 + 1 = 2
    u, v = sympy.symbols("u v")
    x, y = u, u * v
    jac = sympy.Matrix([[sympy.diff(x, u), sympy.diff(x, v)], [sympy.diff(y, u), sympy.diff(y, v)]])
    jdet = sympy.expand(jac.det())
    multiplicity = 0
    while sympy.simplify(jdet.subs(u, 0)) == 0:
        jdet = sympy.cancel(jdet / u)
        multiplicity += 1
    assert multiplicity == 1
    fan = orthant_fan(2)
    assert log_discrepancy(fan, ToricDivisor(fan), (1, 1)) == 1 + multiplicity


# --- torus splitting ----------------------------------------------------


def test_torus_splitting_passes_on_built_towers():
    for spec in random_towers(25, seed=77):
        model = build_model(spec)
        assert torus_splitting_check(model).ok()


def test_torus_splitting_detects_bad_fiber():
    # hand-built "level 2" in Z^3 over Z^1: two new coordinates, so the
    # fiber over the zero cone picks up two independent rays
    bad_fan = Fan(3, (Cone(3, ((0, 0, 1), (0, 1, 0))),))
    model = TowerModel(
        spec=TowerSpec(1, (ProductMove(),)),
        levels=(TowerLevel(fan=orthant_fan(1)), TowerLevel(fan=bad_fan)),
    )
    res = torus_splitting_check(model)
    assert (res.checked, res.passed) == (1, 0)
    assert [(v["kind"], v["level"]) for v in res.violations] == [("splitting", 2)]


@pytest.mark.parametrize("kind, rays", [
    ("projection", ((-1, 0), (0, 1))),  # (-1,) lies in no cone of the orthant A^1
    ("fiber", ((0, -1), (0, 1), (1, 0))),  # two rays over the zero cone
])
def test_torus_splitting_detects_bad_projection_and_fiber(kind, rays):
    model = TowerModel(
        spec=TowerSpec(1, (ProductMove(),)),
        levels=(TowerLevel(fan=orthant_fan(1)), TowerLevel(fan=Fan(2, (Cone(2, rays),)))),
    )
    res = torus_splitting_check(model)
    assert (res.checked, res.passed) == (1, 0)
    assert [(v["kind"], v["level"]) for v in res.violations] == [(kind, 2)]


def test_torus_splitting_depth_one_vacuous():
    model = build_model(TowerSpec(2, ()))
    res = torus_splitting_check(model)
    assert res.ok() and res.checked == 0


# --- K + C is Cartier at every level ------------------------------------


def test_canonical_plus_boundary_cartier_every_level():
    for spec in random_towers(25, seed=55):
        model = build_model(spec)
        for level in model.levels:
            cd = cartier_data(level.fan, canonical_divisor(level.fan) + boundary_divisor(level.fan))
            assert isinstance(cd, CartierData)
            assert cd.cartier_index == 1
            assert all(all(x == 0 for x in m) for m in cd.vectors)
