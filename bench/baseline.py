#!/usr/bin/env python3
"""Run every workload over several seeds and write one BENCH_<label>.json.

    python3 bench/baseline.py --label seed --seeds 0,1,2,3,4,5,6,7,8,9 --sets 2

Each run is a fresh ``bench/run.py`` process. For every workload and
end-to-end metric the file holds the median of the runs, their quartile
spread (third minus first quartile, as a share of the median) and every
value; then the per-layer metrics of one traced run per workload. With
``--sets N`` the seeds are run N times over, one whole set after the
other, and the file also holds the later sets and, per metric, how far
each later median is from the first as a share of it. The file goes to
``bench/results/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import probe  # noqa: E402
import run  # noqa: E402


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=BENCH.parent, capture_output=True, text=True, timeout=600,
    )
    record = json.loads((run.OUT / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    record["exit_code"] = proc.returncode
    print(
        f"{workload} seed={seed} trace={trace} exit={proc.returncode} "
        f"failed={record['failed']}/{record['attempted']}",
        file=sys.stderr, flush=True,
    )
    return record


def summarize(records) -> dict:
    values = {}
    for rec in records:
        for name, m in rec["metrics"].items():
            values.setdefault(name, {"unit": m["unit"], "values": []})["values"].append(m["value"])
    out = {}
    for name, entry in values.items():
        v = entry["values"]
        out[name] = {"unit": entry["unit"], "median": statistics.median(v), "values": v}
        if len(v) >= 2:
            out[name]["spread"] = probe.quartile_spread(v)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", default="0,1,2,3,4,5,6,7,8,9")
    parser.add_argument(
        "--seconds", type=int,
        default=json.loads((BENCH.parent / "BENCHMARK.json").read_text())["run_seconds"],
    )
    parser.add_argument("--workloads", default=",".join(run.WORKLOADS))
    parser.add_argument("--sets", type=int, default=1)
    args = parser.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    workloads = args.workloads.split(",")
    sets = [
        {w: [one_run(w, seed, args.seconds, 0) for seed in seeds] for w in workloads}
        for _ in range(args.sets)
    ]
    result = {"label": args.label, "seconds": args.seconds, "seeds": seeds, "sets": args.sets, "workloads": {}}
    for workload in workloads:
        traced = one_run(workload, seeds[0], args.seconds, 1)
        records = [rec for s in sets for rec in s[workload]]
        summaries = [summarize(s[workload]) for s in sets]
        result["machine"] = records[0]["machine"]
        result["workloads"][workload] = {
            "runs": len(records),
            "failed_runs": sum(1 for r in records + [traced] if r["exit_code"] != 0),
            "end_to_end": summaries[0],
            "later_sets": summaries[1:],
            "median_change": {
                name: [later[name]["median"] / first["median"] - 1 for later in summaries[1:]]
                for name, first in summaries[0].items()
            },
            "per_layer": traced["metrics"],
            "layers": {k: v for k, v in traced.get("layers", {}).items() if k != "breakdown"},
        }
    path = BENCH / "results" / f"BENCH_{args.label}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
