"""The lc-place transfer check, which decides its samples per cone, against
the oracle that builds and evaluates every sample vector.

`lc_place_transfer_check` builds a sample vector only in a cone without the
certificate that every nonzero draw passes (see its docstring); the oracle
builds every vector from the same draws.  The net is every tower over base
dimension p <= 2 of depth 2 or 3 with node exponents in [-2, 2] (3,464
towers), draws of the stress shape, and forged top fans whose cones lack the
certificate.  The towers and their models come from `tests/corpus.py`, whose
driver runs the p = 1, depth 4 extension (19,656 more towers) outside
tier-1.
"""

import random

import pytest

import torictower.tower as tower
from corpus import (
    CUBE_TOWER,
    SMALL_CORPUS,
    STRESS_TOWER,
    corpus_models,
    shaped_tower,
    small_towers,
    uncertified_levels,
)
from oracles import lc_place_transfer_check_oracle
from torictower.lattice import Cone, Fan
from torictower.tower import ProductMove, TowerLevel, TowerModel, TowerSpec, build_model, lc_place_transfer_check

SAMPLES = 20


def lc_mismatches(models, seed):
    """(number of vectors checked, [(tower, seed)] whose check differs from the oracle's)."""
    rng = random.Random(seed)
    checked, bad = 0, []
    for model in models:
        spec, draw_seed = model.spec, rng.randrange(2**32)
        got = lc_place_transfer_check(model, samples=SAMPLES, seed=draw_seed)
        if got != lc_place_transfer_check_oracle(model, samples=SAMPLES, seed=draw_seed):
            bad.append((spec, draw_seed))
        checked += got.checked
    return checked, bad


def test_lc_check_matches_oracle_on_every_small_tower():
    models = corpus_models(SMALL_CORPUS)
    assert len(models) == 3464
    checked, bad = lc_mismatches(models, 20261101)
    assert bad == [] and checked > SAMPLES * len(models)


def test_lc_check_matches_oracle_on_stress_shaped_towers():
    rng = random.Random(20261102)
    assert lc_mismatches([build_model(shaped_tower(rng)) for _ in range(20)], 20261103)[1] == []


def test_lc_check_builds_no_sample_vector_on_tower_models(monkeypatch):
    # every non-empty cone build_model makes carries the certificate
    def forbidden(*args, **kwargs):
        raise AssertionError("a sample vector was built in a cone with the certificate")

    rng = random.Random(20261104)
    specs = small_towers(2, 3)[::7] + [shaped_tower(rng) for _ in range(5)]
    models = [build_model(spec) for spec in specs]
    monkeypatch.setattr(tower, "primitive", forbidden)
    skipped = 0
    for model in models:
        got = lc_place_transfer_check(model, samples=SAMPLES, seed=rng.randrange(2**32))
        assert got.ok() and got.checked == got.passed + got.skipped
        skipped += got.skipped
    assert skipped > 0


def test_every_ray_of_every_tower_level_is_nonnegative():
    # so every non-empty cone carries the certificate: the test above, on every level of more towers
    rng = random.Random(20261106)
    models = corpus_models(SMALL_CORPUS)
    models += [build_model(spec) for spec in [STRESS_TOWER, CUBE_TOWER] + [shaped_tower(rng) for _ in range(30)]]
    assert sum(len(model.levels) for model in models) == 10587
    assert uncertified_levels(models) == []


# forged top fans in Z^3 over p = 1, for a tower of two product moves
SPEC = TowerSpec(1, (ProductMove(), ProductMove()))
U, NEG_U, W, Z = (0, 1, 0), (0, -1, 0), (1, 0, 0), (0, 0, 1)
FORGED = {
    # u + (-u) = 0, so nonzero draws sum to zero; every ray passes the sign test
    "line": [(NEG_U, U, W)],
    "bare line": [(NEG_U, U)],
    # a draw on the zero generator alone is the zero vector
    "zero generator": [((0, 0, 0), W)],
    "empty": [()],
    # a safe cone, the line, a cone with a failing ray (witness vectors) and the zero cone
    "mixed": [(W, U), (NEG_U, U, W), ((-1, 0, 0), Z), (Z, (1, 1, 1)), ()],
}


def forged_model(cones):
    model = build_model(SPEC)
    fan = Fan(3, [Cone(3, gens) for gens in cones])
    return TowerModel(spec=SPEC, levels=model.levels[:-1] + (TowerLevel(fan=fan),))


@pytest.mark.parametrize("name", sorted(FORGED))
def test_lc_check_matches_oracle_on_forged_cones_without_the_certificate(name):
    model = forged_model(FORGED[name])
    skipped = violations = 0
    for seed in range(4):
        got = lc_place_transfer_check(model, samples=200, seed=seed)
        assert got == lc_place_transfer_check_oracle(model, samples=200, seed=seed)
        skipped += got.skipped
        violations += len(got.violations)
        for v in got.violations:
            assert v["vector"][0] < 0
    assert skipped > 0
    assert (violations > 0) == (name == "mixed")
