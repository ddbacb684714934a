import pytest

import torictower.verify
from torictower.lattice import LatticeError
from torictower.tower import CheckOutcome
from torictower.verify import SUITES, run_suite


@pytest.mark.parametrize("name", ["kernel", "toric", "tower", "lc", "basechange", "volume"])
def test_suite_runs_clean(name):
    # small sample sizes keep this a smoke pass; the acceptance module runs
    # the full sizes
    samples = 30 if name in ("kernel", "tower", "lc") else None
    res = run_suite(name, seed=4242, samples=samples)
    assert res.ok(), res.violations[:3]
    assert res.checked > 0
    assert res.checked == res.passed + res.skipped + 0  # violations empty


def test_suite_all_aggregates():
    res = run_suite("all", seed=7, samples=10)
    assert res.ok()
    assert res.checked > 0


def test_unknown_suite():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite("nonsense", seed=0)


@pytest.mark.parametrize("name", SUITES)
def test_negative_sample_counts_are_rejected(name):
    """A negative count used to run none of the sampled checks; 0 is valid."""
    with pytest.raises(LatticeError, match="samples must be >= 0"):
        run_suite(name, seed=0, samples=-2)
    assert run_suite(name, seed=0, samples=0).ok()


def test_suites_deterministic_for_seed():
    a = run_suite("lc", seed=31, samples=15)
    b = run_suite("lc", seed=31, samples=15)
    assert (a.checked, a.passed, a.skipped, a.violations) == (
        b.checked,
        b.passed,
        b.skipped,
        b.violations,
    )


def test_selector_list_is_published():
    assert set(SUITES) == {"kernel", "toric", "tower", "lc", "basechange", "volume", "all"}


def test_samples_zero_is_honoured():
    """samples=0 reaches every suite as 0, not as its default, and an
    omitted count leaves each suite its own default."""
    zero = {name: run_suite(name, seed=5, samples=0) for name in SUITES if name not in ("all", "volume")}
    assert zero["basechange"].checked == 20  # the fixed identity and off-boundary checks only
    assert all(res.ok() for res in zero.values())
    assert run_suite("basechange", seed=5).checked == 120
    total = run_suite("all", seed=5, samples=0)
    volume = run_suite("volume", seed=5)
    assert total.checked == sum(res.checked for res in zero.values()) + volume.checked
    # every volume check is fixed: the sample count leaves it alone
    assert run_suite("volume", seed=5, samples=0).checked == volume.checked == 62


def test_run_suite_passes_samples_only_when_given(monkeypatch):
    calls = []
    monkeypatch.setattr(torictower.verify, "suite_lc", lambda seed, **kwargs: calls.append(kwargs) or CheckOutcome())
    run_suite("lc", seed=1)
    run_suite("lc", seed=1, samples=0)
    assert calls == [{}, {"samples": 0}]


def test_merge_adds_counts_and_tags_violations_and_skips():
    part = CheckOutcome(checked=4, passed=2)
    part.add_violation("k", "d", tower=3)
    part.add_skip("r", origin="ray")
    total = CheckOutcome(checked=1, passed=1).merge(part, suite="lc")
    assert (total.checked, total.passed, total.skipped) == (5, 3, 1)
    assert total.violations == [{"kind": "k", "detail": "d", "tower": 3, "suite": "lc"}]
    assert total.skips == [{"reason": "r", "origin": "ray", "suite": "lc"}]
    assert part.violations == [{"kind": "k", "detail": "d", "tower": 3}]


def test_run_suite_all_tags_each_violation_with_its_suite(monkeypatch):
    bad = CheckOutcome(checked=2, passed=1)
    bad.add_violation("k", "d")
    monkeypatch.setattr(torictower.verify, "suite_volume", lambda seed, **kwargs: bad)
    total = run_suite("all", seed=1, samples=0)
    assert total.violations == [{"kind": "k", "detail": "d", "suite": "volume"}]


def test_suite_lc_merges_each_towers_outcome_with_its_index(monkeypatch):
    def fake_check(spec, samples, seed):
        res = CheckOutcome(checked=3, passed=1)
        res.add_violation("no-centre-on-P", "d", vector=[1, -1], origin="sample")
        res.add_skip("degenerate sample (zero vector)", origin="sample")
        return res

    monkeypatch.setattr(torictower.verify, "lc_place_transfer_check", fake_check)
    out = torictower.verify.suite_lc(seed=1, samples=2)
    assert (out.checked, out.passed, out.skipped) == (6, 2, 2)
    assert out.violations == [
        {"kind": "no-centre-on-P", "detail": "d", "vector": [1, -1], "origin": "sample", "tower": idx}
        for idx in (0, 1)
    ]
    assert out.skips == [
        {"reason": "degenerate sample (zero vector)", "origin": "sample", "tower": idx} for idx in (0, 1)
    ]


@pytest.mark.parametrize("name, samples", [("lc", None), ("toric", None), ("all", 10)])
def test_every_skip_keeps_its_reason(name, samples):
    """A suite's skip count is its list of skip reasons; lc tags each with its tower."""
    res = run_suite(name, seed=20260810, samples=samples)
    assert res.skipped > 0 and len(res.skips) == res.skipped
    assert all(s["reason"] for s in res.skips)
    if name == "lc":
        assert all(isinstance(s["tower"], int) for s in res.skips)
