"""The lc-place transfer check, which decides its samples per cone, against
the oracle that builds and evaluates every sample vector.

`lc_place_transfer_check` builds a sample vector only in a cone without the
certificate that every nonzero draw passes (see its docstring); the oracle
builds every vector from the same draws.  The net is every tower over base
dimension p <= 2 of depth 2 or 3 with node exponents in [-2, 2] (3,464
towers, from `test_facet_net.small_towers`), draws of the stress shape, and
forged top fans whose cones lack the certificate.  The p = 1, depth 4
extension (19,656 more towers) runs outside tier-1, and exits 1 on a
mismatch:

    PYTHONPATH=src python tests/test_lc_net.py 1 4
"""

import random
import sys

import pytest

import torictower.tower as tower
from oracles import lc_place_transfer_check_oracle
from test_facet_net import shaped_tower, small_towers
from torictower.lattice import Cone, Fan
from torictower.tower import ProductMove, TowerLevel, TowerModel, TowerSpec, build_model, lc_place_transfer_check

SAMPLES = 20


def lc_mismatches(specs, seed):
    """(number of vectors checked, [(tower, seed)] whose check differs from the oracle's)."""
    rng = random.Random(seed)
    checked, bad = 0, []
    for spec in specs:
        model, draw_seed = build_model(spec), rng.randrange(2**32)
        got = lc_place_transfer_check(spec, samples=SAMPLES, seed=draw_seed, model=model)
        if got != lc_place_transfer_check_oracle(spec, samples=SAMPLES, seed=draw_seed, model=model):
            bad.append((spec, draw_seed))
        checked += got.checked
    return checked, bad


def test_lc_check_matches_oracle_on_every_small_tower():
    specs = [spec for p in (1, 2) for depth in (2, 3) for spec in small_towers(p, depth)]
    assert len(specs) == 3464
    checked, bad = lc_mismatches(specs, 20261101)
    assert bad == [] and checked > SAMPLES * len(specs)


def test_lc_check_matches_oracle_on_stress_shaped_towers():
    rng = random.Random(20261102)
    assert lc_mismatches([shaped_tower(rng) for _ in range(20)], 20261103)[1] == []


def test_lc_check_builds_no_sample_vector_on_tower_models(monkeypatch):
    # every non-empty cone build_model makes carries the certificate
    def forbidden(*args, **kwargs):
        raise AssertionError("a sample vector was built in a cone with the certificate")

    rng = random.Random(20261104)
    specs = small_towers(2, 3)[::7] + [shaped_tower(rng) for _ in range(5)]
    models = [build_model(spec) for spec in specs]
    monkeypatch.setattr(tower, "primitive", forbidden)
    skipped = 0
    for spec, model in zip(specs, models):
        got = lc_place_transfer_check(spec, samples=SAMPLES, seed=rng.randrange(2**32), model=model)
        assert got.ok() and got.checked == got.passed + got.skipped
        skipped += got.skipped
    assert skipped > 0


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
        got = lc_place_transfer_check(SPEC, samples=200, seed=seed, model=model)
        assert got == lc_place_transfer_check_oracle(SPEC, samples=200, seed=seed, model=model)
        skipped += got.skipped
        violations += len(got.violations)
        for v in got.violations:
            assert v["vector"][0] < 0
    assert skipped > 0
    assert (violations > 0) == (name == "mixed")


if __name__ == "__main__":
    p, depth = map(int, sys.argv[1:])
    specs = small_towers(p, depth)
    checked, bad = lc_mismatches(specs, 20261105)
    print(f"p = {p}, depth {depth}: {len(specs)} towers, {checked} vectors checked, {len(bad)} mismatches")
    sys.exit(1 if bad else 0)
