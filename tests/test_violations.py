"""Every violation a check can report, pinned: kind, detail text and
witnesses, each skip, and the three counts.

No clean run reaches a suite's violation lines, so the goldens cannot see
their text.  Each case here patches the engine function one check reads so
that one call of it (or each call, where noted) returns a wrong answer, runs
the check, and compares what it reports with `golden/violations.json`.
Record again only after an intended change of a violation's text:

    PYTHONPATH=src python tests/test_violations.py --record
"""

import json
import os
import sys

import pytest

import torictower.cli
import torictower.tower
import torictower.verify as verify
from torictower.documents import emit_tower
from torictower.lattice import Cone, Fan
from torictower.toric import NotQCartier
from torictower.tower import NodeMove, ProductMove, TowerSpec, build_model

EVERY = None  # wrong on every call


def wrong_at(monkeypatch, owner, name, wrong, calls=(1,), when=lambda *args: True):
    """Patch owner.name so that each call whose arguments satisfy `when`, and
    whose 1-based number among those calls is in `calls` (EVERY: any), returns
    wrong(real, *args) in place of real(*args)."""
    real = getattr(owner, name)
    seen = [0]

    def fake(*args, **kwargs):
        if when(*args):
            seen[0] += 1
            if calls is EVERY or seen[0] in calls:
                return wrong(real, *args, **kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, fake)


def _plus_one(real, *args, **kwargs):
    return real(*args, **kwargs) + 1


def _swapped_rows(real, m):
    h, u = real(m)
    return h[::-1], u


def _wrong_dual(real, cone, *rest):  # the negated generators: a pointed cone, and not the dual
    return Cone(cone.ambient_dim, sorted(tuple(-x for x in g) for g in real(cone, *rest).generators))


def _index_two(real, fan, divisor):
    return real(fan, divisor)._replace(cartier_index=2)


ONE_NODE = TowerSpec(1, (NodeMove((), (2,)),))
PRODUCT_THEN_NODE = TowerSpec(1, (ProductMove(), NodeMove((1,), (1,))))


def _kernel():
    return verify.suite_kernel(5, samples=3)


def case_hnf(mp):  # the first 2x2 of the exhaustive loop
    wrong_at(mp, verify, "hnf", lambda real, m: (((9, 9), (9, 9)), real(m)[1]))
    return _kernel()


def case_hnf_certificate(mp):  # the first random matrix, after the 7^4 exhaustive 2x2s
    wrong_at(mp, verify, "hnf", _swapped_rows, calls=(7**4 + 1,), when=lambda m: any(any(r) for r in m))
    return _kernel()


def case_snf(mp):
    wrong_at(mp, verify, "snf", lambda real, m: (m, *real(m)[1:]))
    return _kernel()


def case_dual_involution(mp):
    wrong_at(mp, verify, "dual_cone", _wrong_dual)
    return _kernel()


def case_dual_oracle(mp):  # dual_cone(dual_cone(c)) is c again, but dual_cone(c) is not the dual
    wrong_at(mp, verify, "dual_cone", _wrong_dual, calls=EVERY)
    return _kernel()


def case_contains(mp):
    wrong_at(mp, Cone, "contains", lambda real, cone, v: not real(cone, v))
    return _kernel()


def case_primitive(mp):
    wrong_at(mp, verify, "vscale", lambda real, k, v: tuple(-x for x in real(k, v)))
    return _kernel()


def case_simplicial(mp):
    wrong_at(mp, verify, "log_discrepancy", _plus_one)
    return verify.suite_toric(3, samples=2)


def case_subdivision(mp):  # the second call is the refined fan's
    wrong_at(mp, verify, "log_discrepancy", _plus_one, calls=(2,))
    return verify.suite_toric(3, samples=2)


def case_q_cartier(mp):  # the first valuation's log discrepancy raises, as with a wrong Cartier solve
    def not_q_cartier(real, fan, divisor, e):
        cone = fan.maximal_cones[0]
        raise NotQCartier(cone, f"not Q-Cartier on cone {list(cone.generators)}")

    wrong_at(mp, verify, "log_discrepancy", not_q_cartier)
    return verify.suite_toric(3, samples=2)


def case_character(mp):
    wrong_at(mp, verify, "character_divisor", lambda real, fan, m: real(fan, m) + real(fan, m) + real(fan, (1, 1, 1)))
    return verify.suite_toric(3, samples=2)


def case_functoriality(mp):  # the pullbacks by 1x1 matrices are the P^1 multiplication maps
    wrong_at(mp, verify, "pullback_divisor", lambda real, *args: real(*args) + real(*args) + real(*args),
             when=lambda matrix, *rest: len(matrix) == 1)
    return verify.suite_toric(3, samples=2)


def case_lc_couple(mp):
    wrong_at(mp, verify, "cartier_data", _index_two)
    return verify.suite_toric(3, samples=0)


def _tower():
    return verify.suite_tower(11, samples=2)


def case_fan(mp):
    forged = [{"kind": "overlap", "detail": "forged overlap"}, {"kind": "not-extreme", "detail": "forged generator"}]
    wrong_at(mp, verify, "fan_validate", lambda real, fan: [*forged, *real(fan)])
    return _tower()


def case_cartier(mp):
    wrong_at(mp, verify, "cartier_data", _index_two, calls=(2,))
    return _tower()


def case_node_ray(mp):
    wrong_at(mp, verify, "dot", lambda real, m, v: -1)
    return _tower()


def case_product_ray(mp):
    wrong_at(mp, verify, "unit_vector", lambda real, n, i: real(n, 0))
    return _tower()


def case_suite_splitting(mp):  # every generator over the zero cone: each cone of a level >= 2 is a fiber cone
    wrong_at(mp, torictower.tower, "is_zero", lambda real, v: True, calls=EVERY)
    return _tower()


def case_node_dual(mp):
    wrong_at(mp, torictower.tower, "dual_cone", _wrong_dual, calls=(2,))
    return _tower()


def case_suite_lc(mp):
    wrong_at(mp, torictower.tower, "in_projective_support", lambda real, spec, v: False)
    return verify.suite_lc(2, samples=2)


def case_basechange(mp):
    wrong_at(mp, verify, "base_change_to_curve", lambda real, spec, germ: TowerSpec(2, ()))
    return verify.suite_basechange(9, samples=2)


def case_basechange_linearity(mp):  # the third call of an on-boundary draw is the one at the summed orders
    def shifted(real, spec, germ):
        return real(spec, germ._replace(orders=tuple(c + 1 for c in germ.orders)))

    wrong_at(mp, verify, "base_change_to_curve", shifted, calls=(3,))
    return verify.suite_basechange(9, samples=2)


def case_basechange_identity(mp):
    wrong_at(mp, verify, "base_change_to_curve", lambda real, spec, germ: TowerSpec(2, ()))
    return verify.suite_basechange(9, samples=0)


def case_polytope_volume(mp):
    wrong_at(mp, verify, "normalized_volume", _plus_one)
    return verify.suite_volume()


def case_degree(mp):
    wrong_at(mp, verify, "relative_degree_on_P", _plus_one)
    return verify.suite_volume()


def case_relative_volume(mp):
    wrong_at(mp, verify, "relative_volume_on_P", _plus_one)
    return verify.suite_volume()


def case_degree_additive(mp):
    wrong_at(mp, verify, "relative_degree_on_P", _plus_one, when=lambda data: len(data.hyperplane_coefficients) == 3)
    return verify.suite_volume()


def case_monotonicity(mp):  # the first fiber-dimension-3 volume is the audit's v0 at (0, 0, 0)
    wrong_at(mp, verify, "relative_volume_on_P", lambda real, data: real(data) + 10,
             when=lambda data: len(data.hyperplane_coefficients) == 3)
    return verify.suite_volume()


def case_lc_ray(mp):
    wrong_at(mp, torictower.tower, "in_projective_support", lambda real, spec, v: False)
    return torictower.tower.lc_place_transfer_check(build_model(PRODUCT_THEN_NODE), samples=3, seed=1)


def case_lc_sample(mp):  # no cone carries the certificate, so each draw is built: one is zero, one negative
    wrong_at(mp, torictower.tower, "dot", lambda real, w, g: 0, calls=EVERY)
    wrong_at(mp, torictower.tower, "is_zero", lambda real, v: True)
    wrong_at(mp, torictower.tower, "primitive", lambda real, v: tuple(-x for x in real(v)))
    return torictower.tower.lc_place_transfer_check(build_model(PRODUCT_THEN_NODE), samples=4, seed=1)


def case_splitting(mp):
    model = build_model(PRODUCT_THEN_NODE)
    forged = model._replace(levels=(model.levels[0], model.levels[2]))
    return torictower.tower.torus_splitting_check(forged)


def case_projection(mp):
    wrong_at(mp, Fan, "cone_index", lambda real, fan, *vectors: None)
    return torictower.tower.torus_splitting_check(build_model(PRODUCT_THEN_NODE))


def case_fiber(mp):
    wrong_at(mp, torictower.tower, "is_zero", lambda real, v: True, calls=EVERY)
    return torictower.tower.torus_splitting_check(build_model(PRODUCT_THEN_NODE))


def case_node_chart_dual(mp):
    wrong_at(mp, torictower.tower, "dual_cone", _wrong_dual, calls=(2,))
    return torictower.tower.node_chart_dual_violations(build_model(ONE_NODE))


def case_support(mp):
    mp.setattr(torictower.cli, "_read_input", lambda path: emit_tower(PRODUCT_THEN_NODE))
    wrong_at(mp, torictower.cli, "in_projective_support", lambda real, spec, v: False)
    args = torictower.cli.build_parser().commands["map-to-proj"].parse_args([])
    return args.func(args)


CASES = {name[len("case_"):]: fn for name, fn in sorted(globals().items()) if name.startswith("case_")}


def observed(outcome):
    """What a check reported, as JSON values: its counts [checked, passed,
    skipped], and each violation and skip whole (kind or reason, detail, witnesses)."""
    return json.loads(json.dumps({
        "counts": [outcome.checked, outcome.passed, outcome.skipped],
        "violations": outcome.violations,
        "skips": outcome.skips,
    }))


GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "violations.json")


def _golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def test_cases_match_recorded_names():
    assert sorted(_golden()) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_each_violation_keeps_its_text_witnesses_and_counts(monkeypatch, name):
    assert observed(CASES[name](monkeypatch)) == _golden()[name]


def test_every_reachable_violation_kind_is_pinned():
    kinds = {v["kind"] for case in _golden().values() for v in case["violations"]}
    assert kinds == {
        "hnf", "snf", "dual-involution", "dual-oracle", "contains", "primitive", "simplicial", "subdivision",
        "q-cartier", "character", "functoriality", "lc-couple", "fan", "cartier", "node-ray", "product-ray", "splitting",
        "basechange", "basechange-linearity", "basechange-identity", "volume", "degree",
        "degree-additive", "monotonicity", "no-centre-on-P", "projection", "fiber", "node-chart-dual", "support",
    }


def record():
    recorded = {}
    for name, case in CASES.items():
        with pytest.MonkeyPatch.context() as mp:
            recorded[name] = observed(case(mp))
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(recorded, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    record()
