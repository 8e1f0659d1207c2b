#!/usr/bin/env python3
"""Alternating parent/change runs of the benchmark, recorded as BENCH_<n>.json.

The parent is a git ref, exported with `git archive <ref> | tar -x` into a
temporary directory that is removed afterwards; the change is this working
tree. Each pair runs

    python3 bench/run.py --workload W --seed S --trace 0

once in the parent's tree and once in the change's, one process at a time,
for PAIRS pairs; the benchmark sets its own timed window.
the parent runs first in even pairs, the change in odd ones.
Per (workload, seed) the output holds, for every end-to-end metric, both
sides' medians and quartiles, the change/parent ratio of the medians, the
number of pairs the change was lower in, and every run's value; and per run
its sweep count, core count, Python and numpy versions, as bench/run.py
reported them. An existing output file is updated: entries for the same
(workload, seed) are replaced, every other key is kept.

    python3 scripts/bench_pairs.py --out BENCH_7.json --parent HEAD~1 \\
        --workloads frames_heavy --seeds 42,11
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
END_TO_END = ("setup_s", "wall_s", "solve_p50_ms", "solve_tail_ms", "peak_rss_mb")
PAIRS = 10


def export(ref: str, dest: Path) -> None:
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", ref], check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def bench(tree: Path, workload: str, seed: int) -> dict:
    """One bench/run.py run: its result object plus the facts of its info line."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--trace", "0"]
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"error: {' '.join(cmd)} in {tree} printed nothing:\n{done.stderr}")
    result = json.loads(lines[-1])
    if not result.get("metrics"):
        raise SystemExit(f"error: {' '.join(cmd)} in {tree} measured nothing:\n{done.stderr}")
    info = next((json.loads(x[5:]) for x in lines if x.startswith("info ")), {})
    result["facts"] = {k: info.get(k) for k in ("sweeps", "nproc", "python", "numpy")}
    return result


def quartiles(values: list[float]) -> list[float]:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def summarize(workload: str, seed: int, runs: list[tuple[dict, dict]]) -> dict:
    metrics = {}
    for name in END_TO_END:
        parent = [p["metrics"][name]["value"] for p, _ in runs]
        change = [c["metrics"][name]["value"] for _, c in runs]
        pm, cm = statistics.median(parent), statistics.median(change)
        metrics[name] = {
            "parent_median": pm,
            "parent_quartiles": quartiles(parent),
            "change_median": cm,
            "change_quartiles": quartiles(change),
            "change_over_parent": cm / pm if pm else None,
            "change_lower_in_pairs": f"{sum(c < p for p, c in zip(parent, change))}/{len(runs)}",
            "parent_runs": parent,
            "change_runs": change,
        }
    return {
        "workload": workload,
        "seed": seed,
        "pairs": len(runs),
        "correct_and_no_failed_solves": all(
            r["correct"] and r["failed"] == 0 for pair in runs for r in pair
        ),
        "metrics": metrics,
        "runs": [
            {"pair": i, "side": side, **r["facts"]}
            for i, pair in enumerate(runs)
            for side, r in zip(("parent", "change"), pair)
        ],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="BENCH_<n>.json to write or update")
    parser.add_argument("--parent", required=True, help="git ref of the parent")
    parser.add_argument("--workloads", default="frames_heavy", help="comma list")
    parser.add_argument("--seeds", default="42", help="comma list")
    args = parser.parse_args()

    out = Path(args.out)
    record = json.loads(out.read_text()) if out.exists() else {}
    entries = record.setdefault("benchmark_pairs", [])
    parent_tree = Path(tempfile.mkdtemp(prefix="bench-parent-"))
    try:
        export(args.parent, parent_tree)
        for workload in args.workloads.split(","):
            for seed in (int(s) for s in args.seeds.split(",")):
                runs = []
                for i in range(PAIRS):
                    # alternate which side runs first, so drift favours neither
                    trees = (parent_tree, ROOT) if i % 2 == 0 else (ROOT, parent_tree)
                    done = {tree: bench(tree, workload, seed) for tree in trees}
                    pair = (done[parent_tree], done[ROOT])
                    runs.append(pair)
                    walls = [r["metrics"].get("wall_s", {}).get("value") for r in pair]
                    print(f"{workload} seed {seed} pair {i + 1}/{PAIRS}: wall_s "
                          f"parent {walls[0]} change {walls[1]}", file=sys.stderr)
                entry = summarize(workload, seed, runs)
                entry["command"] = (f"python3 bench/run.py --workload {workload} --seed {seed} "
                                    "--trace 0")
                entry["parent_ref"] = args.parent
                entry["first_in_pair"] = "parent in even pairs, change in odd pairs"
                entries[:] = [e for e in entries if (e["workload"], e["seed"]) != (workload, seed)]
                entries.append(entry)
                out.write_text(json.dumps(record, indent=2) + "\n")
    finally:
        shutil.rmtree(parent_tree, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
