"""Self-tests of the benchmark's tracing.

    python3 -m pytest -q perfbench

The traced run must see every call into a listed function, whichever name
the caller used, and must not change any output.  The speed sampler's own
time must not be counted as op time.
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import torictower  # noqa: E402
import torictower.cli  # noqa: E402

import layers  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402


def test_every_binding_is_wrapped():
    originals = layers.originals()
    before = layers.unwrapped_bindings(originals.values())
    # Functions that other modules bound with `from .x import name`.
    for name in ("torictower.toric.hnf", "torictower.polytope.halfspace_intersection",
                 "torictower.tower.cartier_data", "torictower.verify.build_model",
                 "torictower.cli.build_model", "torictower.cli.parse_tower",
                 "torictower.tower.regularity_subfan", "torictower.lattice.Cone.contains",
                 "torictower.documents.Report.to_json", "torictower.fan_validate"):
        assert name in before
    uninstall = layers.install(layers.Tracer())
    try:
        assert layers.unwrapped_bindings(originals.values()) == []
    finally:
        uninstall()
    assert layers.unwrapped_bindings(originals.values()) == before


def test_wrapping_only_the_defining_module_is_detected():
    originals = layers.originals()
    lattice = sys.modules["torictower.lattice"]
    saved = lattice.hnf
    lattice.hnf = layers._make_wrapper(layers.Tracer(), "lattice.hnf", saved, "span", None)
    try:
        missing = layers.unwrapped_bindings(originals.values())
    finally:
        lattice.hnf = saved
    assert "torictower.lattice.hnf" not in missing
    assert "torictower.toric.hnf" in missing


def _digests(ops, tracer):
    uninstall = layers.install(tracer) if tracer else None
    try:
        records = run.run_ops(ops, None, False, tracer, speed.Sampler())
    finally:
        if uninstall:
            uninstall()
    assert [r["error"] for r in records if r["error"]] == []
    return {r["key"]: r["digest"] for r in records}


def test_traced_outputs_equal_untraced():
    for workload, seconds in (("acceptance", 0.5), ("stress", 30), ("complete", 1)):
        ops, _params = workloads.make_ops(workload, 7, seconds)
        # The fixed stress tower takes tens of seconds; its shaped towers suffice here.
        ops = [op for op in ops if not op.key.startswith("fixed.")]
        tracer = layers.Tracer()
        assert _digests(ops, None) == _digests(ops, tracer)
        assert tracer.counts["op.calls"] == len(ops)
        assert all(span is not None for span in tracer.spans)


def test_sampler_time_is_left_out_of_op_time():
    def busy():
        end = time.perf_counter() + 0.5
        while time.perf_counter() < end:
            pass

    op = workloads.Op("busy", "busy", "busy", busy, lambda _: None, lambda _: "")
    sampler = speed.Sampler()
    sampler.start()
    try:
        (record,) = run.run_ops([op], None, False, None, sampler)
    finally:
        sampler.stop()
    assert len(sampler.samples) >= 5
    assert sampler.spent > 0
    # spent also holds the one sample taken after the last op
    assert abs(record["raw_s"] + sampler.spent - 0.5) < 0.02
    first, last = record["samples"]
    assert last - first >= 5
    assert record["s"] == record["raw_s"] * sampler.speed(first, last)
