"""Paired benchmark runs of two checkouts: the record behind a BENCH_*.json.

Runs the benchmark script ``bench/run.py`` of each checkout, unchanged, from
that checkout's root, in pairs that alternate which side runs first:

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --workloads sp-invariants fem-growth semiclassical \\
        --pairs 10 --first-seed 301 --out pairs.json

Pair k uses seed first_seed + k on both sides; the parent runs first in even
pairs, the change in odd ones.  Within a pair the workloads run in the order
given.  Each run's value of a metric is bench/run.py's own figure (a median
over its calls); the record gives, per workload and side, the runs, their
median and quartiles, the output digests and whether every run was correct,
and per metric how many pairs the change won (ties count for neither side)
and whether the claim rule holds: the change wins at least nine tenths of
the pairs and the medians differ by more than the parent's quartile spread.
The no-regression verdict per metric: ``within_bound`` when the change's
median is worse than the parent's by no more than the metric's relative
``bound``, and ``unresolved`` when the parent's quartile spread, relative to
its median, exceeds that bound, unless every change run beats every parent
run.  Metric names, directions and bounds come from the change's
BENCHMARK.json.

``--trace-runs`` adds that many ``--trace 1`` runs per side and workload
after the timed pairs; their per-layer metrics are recorded as printed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path


def run_bench(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One bench/run.py process; returns its result object and its info line."""
    argv = [
        sys.executable, "bench/run.py",
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    started = time.perf_counter()
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(
            f"{root}: {' '.join(argv)} exited {proc.returncode}\n{proc.stderr[-2000:]}"
        )
    return {
        "result": json.loads(lines[-1]),
        "info": json.loads(lines[-2]),
        "process_s": time.perf_counter() - started,
    }


def quartiles(values: list[float]) -> dict:
    # One run: every quartile is its value.
    q1, median, q3 = statistics.quantiles(values * 2 if len(values) < 2 else values, n=4,
                                          method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def summarize(runs: dict, metrics: list[dict]) -> dict:
    """Per-side statistics and per-metric pair comparisons of one workload."""
    out = {"pairs": len(runs["parent"])}
    for side in ("parent", "change"):
        side_runs = runs[side]
        out[side] = {
            m["name"]: quartiles([r["result"]["metrics"][m["name"]]["value"] for r in side_runs])
            for m in metrics
        }
        out[side]["digests"] = sorted({r["info"]["digest"] for r in side_runs})
        out[side]["all_correct"] = all(r["result"]["correct"] for r in side_runs)
        out[side]["failed"] = [r["result"]["failed"] for r in side_runs]
        out[side]["seeds"] = [r["info"]["seed"] for r in side_runs]
    comparisons = {}
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        parent, change = out["parent"][name], out["change"][name]
        wins = sum(
            (c < p) if lower else (c > p) for p, c in zip(parent["runs"], change["runs"])
        )
        spread = parent["q3"] - parent["q1"]
        gain = (parent["median"] - change["median"]) * (1 if lower else -1)
        scale = abs(parent["median"])
        every_run_wins = (max(change["runs"]) < min(parent["runs"]) if lower
                          else min(change["runs"]) > max(parent["runs"]))
        comparisons[name] = {
            "change_wins": wins,
            "median_gain": gain,
            "relative_change": (change["median"] - parent["median"]) / parent["median"]
            if parent["median"] else None,
            "parent_quartile_spread": spread,
            "claim_holds": wins >= 0.9 * len(parent["runs"]) and gain > spread,
            "bound": m["bound"],
            "within_bound": -gain <= m["bound"] * scale,
            "unresolved": spread > m["bound"] * scale and not every_run_wins,
        }
    out["comparisons"] = comparisons
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent checkout root")
    parser.add_argument("--change", type=Path, required=True, help="change checkout root")
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace-runs", type=int, default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    metrics = json.loads((roots["change"] / "BENCHMARK.json").read_text())["end_to_end"]
    runs = {w: {"parent": [], "change": []} for w in args.workloads}
    started = time.perf_counter()
    for k in range(args.pairs):
        seed = args.first_seed + k
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for workload in args.workloads:
            for side in order:
                run = run_bench(roots[side], workload, seed, args.seconds, 0)
                runs[workload][side].append(run)
                wall = run["result"]["metrics"]["wall_ref"]["value"]
                print(f"pair {k} seed {seed} {workload} {side}: wall_ref {wall:.1f} "
                      f"correct {run['result']['correct']}", file=sys.stderr, flush=True)
    traced = {w: {"parent": [], "change": []} for w in args.workloads}
    for k in range(args.trace_runs):
        seed = args.first_seed + args.pairs + k
        for workload in args.workloads:
            for side in ("parent", "change") if k % 2 == 0 else ("change", "parent"):
                run = run_bench(roots[side], workload, seed, args.seconds, 1)
                traced[workload][side].append({
                    "seed": seed,
                    "correct": run["result"]["correct"],
                    "digest": run["info"]["digest"],
                    "metrics": {
                        name: entry["value"]
                        for name, entry in run["result"]["metrics"].items()
                    },
                })
    record = {
        "protocol": (
            f"python3 bench/run.py --workload W --seed S --seconds {args.seconds:g} "
            "--trace 0 in each checkout, unchanged, alternating which side runs first "
            "in each pair; each run's value is bench/run.py's median over its calls; "
            "median and inclusive quartiles are over runs"
        ),
        "parent": str(roots["parent"].name),
        "change": str(roots["change"].name),
        "first_seed": args.first_seed,
        "workloads": {w: summarize(runs[w], metrics) for w in args.workloads},
        "traced": traced if args.trace_runs else {},
        "script_wall_s": round(time.perf_counter() - started, 1),
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
