#!/usr/bin/env python3
"""Time the placement search on one loose-deadline user as K grows.

Draws one user of bench/workloads/big_tree.cfg (every deadline 2 s, so
every placement meets its deadlines and only the cost cut prunes) with
K = 3 * tasks units, at each SNR setpoint, and times `optimize_user` on it
(the M3 path: unit granularity, tuned clock and power). Prints one JSON
object: the host's core count and, per (K, SNR), the median wall time of
the repeats, the number of leaves scored and the winner.

    PYTHONPATH=src python3 scripts/kstress.py [--k 12,18,24] [--snr 10,30,50]
"""

import argparse
import json
import os
import statistics
import time
from dataclasses import replace
from pathlib import Path

import mecoff.tune
from mecoff.scenario import generate, load_config
from mecoff.tune import optimize_user

CONFIG = Path(__file__).resolve().parent.parent / "bench" / "workloads" / "big_tree.cfg"


def _ints(text):
    return [int(x) for x in text.split(",")]


def _floats(text):
    return [float(x) for x in text.split(",")]


def solve(k, snr_db, repeats):
    base = load_config(CONFIG)
    cfg = replace(base, n_users=1, tasks_per_user=(k // 3, k // 3), units_per_task=(3, 3))
    cfg.validate()
    scenario = generate(cfg, snr_db=snr_db, seed=cfg.seed)
    user = scenario.users[0]

    scored = 0
    key = mecoff.tune.placement_energy

    def counted(*args):
        nonlocal scored
        scored += 1
        return key(*args)

    times = []
    mecoff.tune.placement_energy = counted
    try:
        for _ in range(repeats):
            scored = 0
            t0 = time.perf_counter()
            sol = optimize_user(user.units, user.channel, scenario.mec, scenario.caps)
            times.append(time.perf_counter() - t0)
    finally:
        mecoff.tune.placement_energy = key
    return {
        "k": len(user.units),
        "snr_db": snr_db,
        "seconds": statistics.median(times),
        "repeats": repeats,
        "leaves_scored": scored,
        "offloaded": None if sol is None else sum(sol.assignment.bits),
        "energy_j": None if sol is None else sol.energy,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--k", type=_ints, default=[12, 18, 24], help="unit counts, multiples of 3")
    parser.add_argument("--snr", type=_floats, default=[10.0, 30.0, 50.0], help="SNR setpoints in dB")
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()
    if any(k % 3 or k < 3 for k in args.k):
        parser.error("--k: every value must be a positive multiple of 3")
    runs = [solve(k, snr_db, args.repeats) for k in args.k for snr_db in args.snr]
    print(json.dumps({"cpu_count": os.cpu_count(), "config": str(CONFIG.name), "runs": runs}, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
