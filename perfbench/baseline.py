"""Run the benchmark on ten seeds and record the result as a baseline.

    python3 perfbench/baseline.py

For each workload: ten untraced runs on seeds 501 to 510, and one traced run
on seed 501.  Prints, for every end-to-end metric, the median and the spread
(third minus first quartile, as a share of the median).  Writes to
`perfbench/BENCH_0.json` the runs, the traced run's per-layer metrics, the
trace overhead (traced minus untraced wall time on the same seed, and
against the untraced median), the shares of time the layer predictions rest
on, and the predictions themselves.
"""

from __future__ import annotations

import gzip
import json
import os
import statistics
import subprocess
import sys
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("acceptance", "stress", "complete")
SEEDS = range(501, 511)
OUTPUT = os.path.join(HERE, "BENCH_0.json")

# Which end-to-end number each layer metric should move, and where.
PREDICTIONS = [
    {"layer": ["toric.regularity_subfan.*", "lattice.Cone.contains.calls", "lattice.Cone.faces.faces_out"],
     "moves": {"stress": ["cmd.build_s", "cmd.local_model_s", "cmd.lc_check_s", "cmd.map_to_proj_s",
                          "wall_s", "peak_rss_mb"]},
     "unchanged": ["acceptance"], "not_called": ["complete"]},
    {"layer": ["lattice.is_face_of.*", "tower.local_model_at.*"],
     "moves": {"stress": ["cmd.local_model_s"]}},
    {"layer": ["documents.Report.to_json.*"],
     "moves": {"stress": ["cmd.local_model_s"], "acceptance": ["op_p50_ms"]}},
    {"layer": ["documents.parse_tower.*", "documents.emit_tower.*", "cli.main.self_s"],
     "moves": {"acceptance": ["op_p50_ms"]}},
    {"layer": ["lattice.halfspace_intersection.*", "lattice.hnf.*", "lattice.Cone.generated_by.*"],
     "moves": {"acceptance": ["cmd.verify_s", "wall_s"], "complete": ["wall_s"]}},
    {"layer": ["toric.cartier_data.*", "lattice.snf.*"],
     "moves": {"acceptance": ["cmd.lc_check_s", "cmd.verify_s"], "stress": ["cmd.lc_check_s"]}},
    {"layer": ["lattice.fan_validate.*", "lattice.intersect_cones.*", "lattice.Fan.from_cones.*",
               "toric.star_subdivision.*"],
     "moves": {"complete": ["wall_s", "op_tail_ms"], "acceptance": ["cmd.verify_s"]}},
    {"layer": ["polytope.divisor_polytope.*", "polytope.normalized_volume.*"],
     "moves": {"complete": ["wall_s"]}, "unchanged": ["acceptance", "stress"]},
    {"layer": ["verify.suite_*"], "moves": {"acceptance": ["cmd.verify_s"]}},
]


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[0]), json.loads(lines[-1])


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def span_shares(path, record):
    """Shares of time the acceptance criteria name, from the span file."""
    durations = defaultdict(float)  # (name, command of the op) -> inclusive seconds
    with gzip.open(os.path.join(ROOT, path), "rt", encoding="utf-8") as fh:
        next(fh)
        for line in fh:
            _i, name, start, end, _parent, op = line.rstrip("\n").split("\t")
            if name in ("op", "toric.regularity_subfan"):
                durations[name, op.rsplit(".", 1)[-1]] += float(end) - float(start)
    wall = sum(v for (name, _cmd), v in durations.items() if name == "op")
    regularity = sum(v for (name, _cmd), v in durations.items() if name == "toric.regularity_subfan")
    build = durations["op", "build"]
    layer = record["per_layer"]
    polytope = layer["polytope.divisor_polytope.self_s"] + layer["polytope.normalized_volume.self_s"]
    return {
        "regularity_subfan_incl_share_of_build": (
            durations["toric.regularity_subfan", "build"] / build if build else None),
        "regularity_subfan_incl_share_of_wall": regularity / wall,
        "polytope_self_share_of_wall": polytope / wall,
    }


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    out = {"benchmark": {k: bench[k] for k in ("command", "run_seconds", "end_to_end")},
           "seconds": seconds, "predictions": PREDICTIONS, "workloads": {}}
    runs = {w: [] for w in WORKLOADS}
    traced = {}
    # Workloads take turns, so that a slow spell of the machine falls on all
    # of them alike; each traced run follows its untraced twin directly.
    for seed in SEEDS:
        for workload in WORKLOADS:
            record, summary = run_once(workload, seed, seconds, 0)
            record.pop("inputs")  # per-input sizes; inputs_summary and input_digest stay
            runs[workload].append({"seed": seed, "summary": summary, "record": record})
            print(workload, seed, json.dumps({k: round(v["value"], 4) for k, v in summary["metrics"].items()}),
                  "failed", summary["failed"], flush=True)
            if seed == SEEDS[0]:
                traced[workload] = run_once(workload, seed, seconds, 1)
    for workload in WORKLOADS:
        metrics = {name: spread([r["summary"]["metrics"][name]["value"] for r in runs[workload]])
                   for name in runs[workload][0]["summary"]["metrics"]}
        for name, s in metrics.items():
            print(f"  {workload} {name}: median {s['median']:.4f} spread {s['spread']:.4f}", flush=True)
        record, summary = traced[workload]
        wall = record["end_to_end"]["wall_s"]
        trace = {
            "seed": SEEDS[0],
            "per_layer": record["per_layer"],
            "cmd": record["cmd"],
            "wall_s": wall,
            # same inputs; machine drift between the two runs lands here too
            "trace_overhead_s": wall - runs[workload][0]["record"]["end_to_end"]["wall_s"],
            "trace_overhead_vs_median_s": wall - metrics["wall_s"]["median"],
            "shares": span_shares(record["spans"]["path"], record),
            "correct": summary["correct"],
        }
        print(f"  {workload} traced: overhead {trace['trace_overhead_s']:.3f} s"
              f" ({trace['trace_overhead_vs_median_s']:.3f} s against the median),"
              f" shares {trace['shares']}", flush=True)
        out["workloads"][workload] = {"metrics": metrics, "runs": runs[workload], "traced": trace}
    with open(OUTPUT, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
