"""One count rule: every count, dimension, degree, level and cap a caller
passes is read by `lattice.check_count`, and every seed by `lattice.check_seed`.

Each site below gets a float, a bool, a string, None, a value below its
least count and, where it has a cap, one past it.  Each must raise
`LatticeError` (`ResourceCapError` past a cap) with the rule's exact
message, never a bare `TypeError` or `ValueError`, and a valid call still
works.  The messages themselves are written once, in `check_count`; only
`TowerSpec`, which names every failure at once, keeps its own.  A value past
the int-to-str digit limit is not printed: an int is named by its bit
length, any other value by its type.
"""

import ast
import pathlib
import re
from fractions import Fraction

import pytest

import torictower
from torictower.documents import random_tower
from torictower.lattice import (
    DEFAULT_MAX_DIM,
    MAX_SAMPLES,
    Cone,
    LatticeError,
    ResourceCapError,
    check_count,
    check_samples,
    dual_cone,
    orthant_fan,
    projective_fan,
)
from torictower.polytope import ProjectiveDivisorData
from torictower.tower import CurveGermData, NodeMove, ProductMove, TowerSpec, base_change_to_curve, build_model
from torictower.tower import lc_place_transfer_check, local_model_at
from torictower.verify import random_towers, run_suite

SPEC = TowerSpec(1, (ProductMove(), NodeMove((1,), (1,))))
MODEL = build_model(SPEC)
CONE = orthant_fan(2).maximal_cones[0]

# (site, the name the rule reports, least count, cap or None, a call with the count, a value it accepts)
SITES = [
    ("check_samples", "samples", 0, MAX_SAMPLES, check_samples, 3),
    ("fiber_dim", "fiber dimension", 1, DEFAULT_MAX_DIM, lambda v: ProjectiveDivisorData(v, (1,)), 2),
    ("polarization", "polarization degree", 1, None, lambda v: ProjectiveDivisorData(2, (1,), v), 2),
    ("vanishing_order", "vanishing order", 0, None,
     lambda v: base_change_to_curve(SPEC, CurveGermData((v,), True)), 2),
    ("random_tower_p", "p", 1, None, lambda v: random_tower(v, 2, 3, 0), 2),
    ("random_tower_d", "d", 1, None, lambda v: random_tower(2, v, 3, 0), 2),
    ("random_tower_max_exponent", "max_exponent", 1, None, lambda v: random_tower(2, 3, v, 0), 2),
    ("random_towers", "count", 0, None, lambda v: random_towers(v, 0), 2),
    ("build_model_max_rays", "max_rays", 0, None, lambda v: build_model(SPEC, max_rays=v), 9),
    ("build_model_max_dim", "max_dim", 0, None, lambda v: build_model(SPEC, max_dim=v), 3),
    ("dual_cone_max_dim", "max_dim", 0, None, lambda v: dual_cone(CONE, max_dim=v), 2),
    ("local_model_at", "level", 1, None, lambda v: local_model_at(MODEL, v, Cone(2, ())), 2),
    ("orthant_fan", "n", 0, None, orthant_fan, 2),
    ("projective_fan", "n", 0, None, projective_fan, 2),
]

CASES = [
    pytest.param(call, bad, LatticeError, f"{name} {bad!r} is not an int", id=f"{site}-{bad!r}")
    for site, name, low, cap, call, _ in SITES
    for bad in (2.5, True, "2", None)
] + [
    pytest.param(call, low - 1, LatticeError, f"{name} must be >= {low}, got {low - 1}", id=f"{site}-below")
    for site, name, low, cap, call, _ in SITES
] + [
    pytest.param(call, cap + 1, ResourceCapError, f"{name} {cap + 1} exceeds cap {cap}", id=f"{site}-cap")
    for site, name, low, cap, call, _ in SITES if cap is not None
] + [
    pytest.param(lambda v: check_count(v, "n", cap=3), 10**5000, ResourceCapError,
                 "n <int of 16610 bits> exceeds cap 3", id="huge-over-cap"),
    pytest.param(lambda v: base_change_to_curve(SPEC, CurveGermData((v,), True)), -(10**5000), LatticeError,
                 "vanishing order must be >= 0, got -<int of 16610 bits>", id="vanishing_order-huge"),
    pytest.param(lambda v: check_count(v, "n"), Fraction(10**5000), LatticeError,
                 "n <Fraction past the digit limit> is not an int", id="huge-fraction"),
    # a suite name is no count, but an unknown one is a LatticeError too
    pytest.param(lambda v: run_suite(v, 1), "nope", LatticeError,
                 "unknown suite 'nope'; choose from kernel, toric, tower, lc, basechange, volume, all", id="run_suite-name"),
]

# the counts a site derives from its arguments and holds to a cap
DERIVED = [
    pytest.param(lambda: build_model(SPEC, max_dim=2), "tower ambient dimension 3 exceeds cap 2", id="build_model"),
    pytest.param(lambda: dual_cone(CONE, max_dim=1), "ambient dimension 2 exceeds cap 1", id="dual_cone"),
    pytest.param(lambda: random_tower(2, DEFAULT_MAX_DIM, 3, 0),
                 f"tower ambient dimension {DEFAULT_MAX_DIM + 1} exceeds cap {DEFAULT_MAX_DIM}", id="random_tower"),
]


@pytest.mark.parametrize("call, bad, error, message", CASES)
def test_every_count_site_follows_the_count_rule(call, bad, error, message):
    with pytest.raises(error) as info:
        call(bad)
    assert type(info.value) is error and str(info.value) == message


@pytest.mark.parametrize("call, message", DERIVED)
def test_derived_counts_follow_the_cap_rule(call, message):
    with pytest.raises(ResourceCapError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("call, good", [pytest.param(s[4], s[5], id=s[0]) for s in SITES])
def test_every_count_site_takes_a_valid_count(call, good):
    call(good)


# every seeded draw: an int of any sign, as `--seed -1` is
SEED_SITES = [
    pytest.param(lambda s: random_tower(2, 3, 3, s), id="random_tower"),
    pytest.param(lambda s: random_towers(2, s), id="random_towers"),
    pytest.param(lambda s: lc_place_transfer_check(MODEL, 2, s), id="lc_place_transfer_check"),
    pytest.param(lambda s: run_suite("basechange", s, samples=1), id="run_suite"),
]


@pytest.mark.parametrize("call", SEED_SITES)
@pytest.mark.parametrize("bad", [1.5, True, "1", None, [1]], ids=repr)
def test_every_seed_site_follows_the_seed_rule(call, bad):
    with pytest.raises(LatticeError) as info:
        call(bad)
    assert type(info.value) is LatticeError and str(info.value) == f"seed {bad!r} is not an int"


@pytest.mark.parametrize("call", SEED_SITES)
def test_every_seed_site_takes_any_int_and_draws_the_same_twice(call):
    for seed in (-1, 0, 10**30):
        assert call(seed) == call(seed)


def test_the_rule_takes_its_bounds_inclusive():
    check_count(0, "n")
    check_count(3, "n", low=3, cap=3)
    check_count(10**30, "n")


def _functions(tree):
    """(qualified name, node) of every function in a module, methods as Class.method."""
    out = []

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                name = prefix + child.name
                if isinstance(child, ast.FunctionDef):
                    out.append((name, child))
                walk(child, name + ".")

    walk(tree, "")
    return out


def test_the_count_messages_are_written_once():
    """The three messages are f-strings of `lattice.check_count`, and `_is_int`
    is called outside `lattice` only by `TowerSpec`, which keeps its own rule."""
    messages, callers = [], []
    for path in sorted(pathlib.Path(torictower.__file__).parent.glob("*.py")):
        module = path.stem
        for name, fn in _functions(ast.parse(path.read_text(encoding="utf-8"))):
            for node in ast.walk(fn):
                if isinstance(node, ast.Constant) and isinstance(node.value, str):
                    text = node.value
                    if text.endswith(" is not an int") or " must be >= " in text or " exceeds cap " in text:
                        messages.append((module, name, text))
                if isinstance(node, ast.Name) and node.id == "_is_int" and module != "lattice":
                    callers.append((module, name))
    assert sorted({(m, n) for m, n, _ in messages}) == [("lattice", "check_count"), ("tower", "TowerSpec.__new__")]
    assert [t for m, n, t in messages if n == "check_count"] == [" is not an int", " must be >= ", " exceeds cap "]
    assert set(callers) == {("tower", "TowerSpec.__new__")}
