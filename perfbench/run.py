"""Benchmark driver for torictower: one closed-loop client, one process.

    python3 perfbench/run.py --workload acceptance --seed 1 --seconds 30 --trace 0

Run from the repository root.  The run imports the package from `src/`,
generates the workload's inputs from `--seed` (sized by `--seconds`, see
`workloads.py`), then issues each operation only after the previous one has
returned.  Every output is checked; on a seed recorded in
`perfbench/golden/` every output digest must also equal the recorded one.

Standard output gets two JSON lines.  The first is the run record: machine
note, calibration loop, generator parameters, input sizes, per-command
times and latency percentiles.  The last line is the summary
`{"correct", "attempted", "failed", "metrics"}`.  With `--trace 0` its
metrics are the `end_to_end` metrics of `BENCHMARK.json`; with `--trace 1`
the run wraps the package's layer functions (see `layers.py`) and reports the
`per_layer` metrics instead, and the spans go to `perfbench/out/`.

Op times are reported at the machine's nominal speed: `speed.py` samples a
fixed reference computation every 50 ms of the run and scales each op's
time by the mean speed the samples saw during it (the raw wall time and the
run's mean speed are in the run record).  In a traced run the samples' own
time, 2 to 3%, falls inside whichever span was open.  `setup_s` is not
scaled: it runs from the top of this file, before any other import, until
the ops are generated; it is short and mostly imports and allocation, which
the reference did not track (scaling it widened its spread).

`--record-golden` writes the output digests of this run to
`perfbench/golden/<workload>.json`.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import layers  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

CALIBRATION_N = 2_000_000


def calibration_s(sampler):
    """Seconds for a fixed pure-Python integer loop (machine speed note)."""
    start, spent = time.perf_counter(), sampler.spent
    acc = 0
    for i in range(CALIBRATION_N):
        acc = (acc * 31 + i) % 1_000_003
    return time.perf_counter() - start - (sampler.spent - spent)


def percentile_tail(latencies):
    """(percentile, value) of the highest percentile with at least ten
    samples beyond it, or None with fewer than eleven samples."""
    n = len(latencies)
    if n < 11:
        return None
    ordered = sorted(latencies)
    return round(100.0 * (n - 10) / n, 3), ordered[n - 11]


def load_golden(workload):
    path = os.path.join(HERE, "golden", f"{workload}.json")
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def run_ops(ops, golden, strict, tracer, sampler):
    """Issue every op in order; returns per-op records and failure notes.

    An op's time `s` leaves out the time `sampler` spent inside it and is
    scaled by the speed of the samples taken during the op; an op too short
    to hold a sample takes the speed of the next one."""
    records = []
    for op in ops:
        error = None
        spent, first = sampler.spent, len(sampler.samples)
        start = time.perf_counter()
        try:
            result = tracer.run_op(op.key, op.run) if tracer else op.run()
        except Exception as exc:  # an op that raises counts as failed
            result, error = None, f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start - (sampler.spent - spent)
        digest = props = None
        if error is None:
            try:
                error = op.check(result)
                digest = op.digest_of(result)
                props = op.props(result) if op.props else None
            except Exception as exc:  # malformed output
                error = f"output check raised {type(exc).__name__}: {exc}"
        if error is None and golden is not None:
            want = golden.get(op.golden_key)
            if want is not None and want != digest:
                error = f"digest {digest} differs from golden {want}"
            elif want is None and strict:
                error = "no golden digest recorded for this op"
        records.append({"key": op.key, "command": op.command, "golden_key": op.golden_key,
                        "s": elapsed, "raw_s": elapsed, "digest": digest, "props": props, "error": error,
                        "samples": (first, len(sampler.samples))})
        result = None
    sampler.sample()
    for r in records:
        first, last = r["samples"]
        r["s"] = r["raw_s"] * sampler.speed(first, max(last, first + 1))
    return records


def end_to_end(records, setup_s):
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return {
        "wall_s": (sum(r["s"] for r in records), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }


def run_record(args, params, records, timing, calibration, e2e):
    """Everything but the summary line."""
    ops_per_command, cmd = {}, {}
    for r in records:
        name = f"cmd.{r['command'].replace('-', '_')}_s"
        ops_per_command[r["command"]] = ops_per_command.get(r["command"], 0) + 1
        cmd[name] = cmd.get(name, 0.0) + r["s"]
    latencies = [r["s"] for r in records]
    tail = percentile_tail(latencies)
    failed = [r for r in records if r["error"]]
    inputs = {r["key"].rsplit(".", 1)[0]: r["props"] for r in records if r["props"]}
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": {"python": platform.python_version(), "implementation": platform.python_implementation(),
                    "nproc": os.cpu_count(), "platform": platform.platform()},
        "calibration_s": {"start": calibration[0], "end": calibration[1], "loop_n": CALIBRATION_N},
        "timing": timing,
        "generator": params,
        "input_digest": workloads.digest("".join(r["golden_key"] for r in records)),
        "inputs": inputs,
        "inputs_summary": {
            "count": len(inputs),
            **{k: {"sum": sum(p[k] for p in inputs.values()), "max": max(p[k] for p in inputs.values())}
               for k in sorted(next(iter(inputs.values()), {}))},
        },
        "ops_per_command": ops_per_command,
        "cmd": cmd,
        "end_to_end": {k: v for k, (v, _unit) in e2e.items()},
        "failed_frac": len(failed) / len(records),
        "op_latency_ms": {
            "n": len(latencies),
            "p50": 1000.0 * statistics.median(latencies),
            "tail": None if tail is None else {"percentile": tail[0], "value": 1000.0 * tail[1]},
        },
        "failures": [{"key": r["key"], "error": r["error"]} for r in failed[:20]],
    }


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "torictower")):
        print(f"error: no torictower package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    wanted = declared_metrics(args.trace)

    importlib.import_module("torictower.cli")
    ops, params = workloads.make_ops(args.workload, args.seed, args.seconds)
    setup_s = time.perf_counter() - START

    sampler = speed.Sampler()
    sampler.start()
    try:
        golden = None if args.record_golden else load_golden(args.workload)
        strict = golden is not None and golden["seed"] == args.seed and golden["seconds"] == args.seconds
        calibration = [calibration_s(sampler)]
        tracer = uninstall = None
        if args.trace:
            tracer = layers.Tracer()
            uninstall = layers.install(tracer)
        first_sample = len(sampler.samples)
        cpu_start = time.process_time()
        try:
            records = run_ops(ops, golden and golden["digests"], strict, tracer, sampler)
        finally:
            if uninstall:
                uninstall()
        cpu_s = time.process_time() - cpu_start
        run_speed = sampler.speed(first_sample)
        run_samples = len(sampler.samples) - first_sample
        calibration.append(calibration_s(sampler))
    finally:
        sampler.stop()

    timing = {"wall_raw_s": sum(r["raw_s"] for r in records), "run_speed": run_speed,
              "run_samples": run_samples, "sample_interval_s": speed.INTERVAL_S}
    e2e = end_to_end(records, setup_s)
    record = run_record(args, params, records, timing, calibration, e2e)
    record["cpu_s"] = cpu_s  # diagnostic only: a parallel program may use more
    record["golden"] = {"present": golden is not None, "strict": strict,
                        "compared": sum(1 for r in records if golden and r["golden_key"] in golden["digests"])}
    if tracer:
        metrics = tracer.metrics()
        record["per_layer"] = {k: v for k, (v, _unit) in metrics.items()}
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        spans_path = os.path.join(out_dir, f"{args.workload}-seed{args.seed}.spans.tsv.gz")
        tracer.write_spans(spans_path)
        record["spans"] = {"count": len(tracer.spans), "path": os.path.relpath(spans_path, ROOT)}
    else:
        metrics = e2e
    if args.record_golden:
        failures = [r for r in records if r["error"]]
        if failures:
            print(f"error: not recording golden digests, {len(failures)} ops failed", file=sys.stderr)
            return 1
        path = os.path.join(HERE, "golden", f"{args.workload}.json")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                       "digests": {r["golden_key"]: r["digest"] for r in records}},
                      fh, indent=0, sort_keys=True)
            fh.write("\n")

    failed = sum(1 for r in records if r["error"])
    summary = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]} for name in wanted},
    }
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
