import os
import subprocess
import sys

import pytest

import torictower.lattice
import torictower.verify
from torictower.cli import EXIT_RESOURCE, EXIT_USAGE, main
from torictower.documents import Report
from torictower.lattice import MAX_SAMPLES, LatticeError, ResourceCapError
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


def test_suite_tower_checks_each_distinct_level_fan_once(monkeypatch):
    """Towers that start alike share their level fans above level 1 (each
    orthant is built anew), and fan_validate and the K Cartier check run
    once per distinct fan: 200 orthants and 260 of the 423 levels above."""
    validated, solved = [], []
    validate, cartier = torictower.verify.fan_validate, torictower.verify.cartier_data
    monkeypatch.setattr(torictower.verify, "fan_validate", lambda fan: validated.append(fan) or validate(fan))
    monkeypatch.setattr(torictower.verify, "cartier_data", lambda fan, d: solved.append(fan) or cartier(fan, d))
    out = torictower.verify.suite_tower(501, samples=200)
    specs = torictower.verify.random_towers(200, 501)
    prefixes = {(spec.base_dim, spec.moves[:k]) for spec in specs for k in range(1, spec.depth)}
    assert (len(prefixes), sum(spec.depth - 1 for spec in specs)) == (260, 423)
    assert len(validated) == len({id(fan) for fan in validated}) == len(specs) + len(prefixes)
    assert [id(fan) for fan in solved] == [id(fan) for fan in validated]
    assert out.ok() and (out.checked, out.passed) == (200, 200)


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


@pytest.mark.parametrize("samples", [2.5, True])
def test_sample_counts_that_are_not_ints_are_rejected(samples):
    """A float is no count, and True is no count of 1."""
    with pytest.raises(LatticeError, match=f"samples {samples!r} is not an int"):
        run_suite("tower", seed=1, samples=samples)


@pytest.mark.parametrize("name", ["kernel", "toric", "tower", "lc", "basechange"])
@pytest.mark.parametrize("samples", [2.5, True, -1])
def test_sampled_suites_called_directly_apply_the_sample_rule(name, samples):
    """A suite called without run_suite still rejects a float, a bool and a
    negative count, before it draws anything."""
    with pytest.raises(LatticeError, match="samples"):
        getattr(torictower.verify, f"suite_{name}")(1, samples=samples)


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
    def fake_check(model, samples, seed):
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


def serial_all(seed, samples=None):
    """The `all` suite as one process runs it: every suite in SUITES order, merged with its name."""
    kwargs = {} if samples is None else {"samples": samples}
    total = CheckOutcome()
    for name in SUITES[:-1]:
        total.merge(getattr(torictower.verify, f"suite_{name}")(seed, **kwargs), suite=name)
    return total


@pytest.mark.parametrize("samples", [0, None])
def test_all_equals_the_serial_merge_of_the_six_suites(samples):
    assert run_suite("all", seed=11, samples=samples) == serial_all(11, samples)


def test_all_merges_kernel_first_and_tags_each_entry_with_its_suite(monkeypatch):
    def one_of_each(name):
        def suite(seed, **kwargs):
            out = CheckOutcome(checked=2, passed=1)
            out.add_violation("k", f"from {name}")
            out.add_skip(f"skipped in {name}")
            return out
        return suite

    names = SUITES[:-1]
    for name in names:
        monkeypatch.setattr(torictower.verify, f"suite_{name}", one_of_each(name))
    total = run_suite("all", seed=1)
    assert names[0] == "kernel"
    assert total.violations == [{"kind": "k", "detail": f"from {name}", "suite": name} for name in names]
    assert total.skips == [{"reason": f"skipped in {name}", "suite": name} for name in names]
    assert (total.checked, total.passed, total.skipped) == (12, 6, 6)


def test_all_runs_every_suite_in_the_calling_process(monkeypatch):
    """A wrapper installed here sees each suite's one call, so a tracer that
    wraps `suite_kernel` counts what `verify --suite all` does."""
    calls = {}

    def counted(name, suite):
        def wrapper(seed, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return suite(seed, **kwargs)
        return wrapper

    for name in SUITES[:-1]:
        monkeypatch.setattr(torictower.verify, f"suite_{name}",
                            counted(name, getattr(torictower.verify, f"suite_{name}")))
    total = run_suite("all", seed=1, samples=0)
    assert calls == {name: 1 for name in SUITES[:-1]}
    assert total == serial_all(1, 0)


def test_verify_all_bytes_equal_a_serial_reference(capsys):
    assert main(["verify", "--suite", "all", "--seed", "12"]) == 0
    assert capsys.readouterr().out == Report(command="verify:all", seed=12).merge(serial_all(12)).to_json()


def test_a_lattice_error_in_any_suite_of_all_is_exit_2(monkeypatch, capsys):
    def broken(seed, **kwargs):
        raise LatticeError("suite failed")

    for name in SUITES[:-1]:
        with monkeypatch.context() as patch:
            patch.setattr(torictower.verify, f"suite_{name}", broken)
            assert main(["verify", "--suite", "all", "--seed", "1"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == "" and "suite failed" in captured.err, name


def test_a_cap_in_the_kernel_suite_of_all_is_exit_3(monkeypatch, capsys):
    def capped(seed, **kwargs):
        raise ResourceCapError("kernel cap")

    monkeypatch.setattr(torictower.verify, "suite_kernel", capped)
    assert main(["verify", "--suite", "all", "--seed", "1"]) == EXIT_RESOURCE
    captured = capsys.readouterr()
    assert captured.out == "" and "resource cap: kernel cap" in captured.err


def test_a_keyboard_interrupt_in_a_suite_of_all_propagates(monkeypatch):
    def interrupted(seed, **kwargs):
        raise KeyboardInterrupt("in the kernel suite")

    monkeypatch.setattr(torictower.verify, "suite_kernel", interrupted)
    with pytest.raises(KeyboardInterrupt, match="in the kernel suite"):
        run_suite("all", seed=1, samples=0)


def test_sample_counts_are_checked_before_any_suite_runs(monkeypatch):
    def never(seed, **kwargs):
        raise AssertionError("a suite ran before the sample count was checked")

    monkeypatch.setattr(torictower.verify, "suite_kernel", never)
    with pytest.raises(LatticeError, match="samples must be >= 0"):
        run_suite("all", seed=0, samples=-1)
    with pytest.raises(ResourceCapError, match="exceeds cap"):
        run_suite("all", seed=0, samples=MAX_SAMPLES + 1)


def test_importing_the_cli_loads_no_pickle():
    """Nothing in the package pickles, so importing the CLI loads no pickle."""
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(torictower.verify.__file__))}
    probe = "import sys, torictower.cli; sys.exit(int('pickle' in sys.modules))"
    assert subprocess.run([sys.executable, "-c", probe], env=env).returncode == 0


def test_a_double_description_past_the_ray_cap_fails_verify_tower_with_exit_3(monkeypatch, capsys):
    monkeypatch.setattr(torictower.lattice, "MAX_FACES", 3)
    assert main(["verify", "--suite", "tower", "--seed", "1", "--samples", "5"]) == EXIT_RESOURCE
    captured = capsys.readouterr()
    assert captured.out == "" and "double description passed the cap of 3 rays" in captured.err
