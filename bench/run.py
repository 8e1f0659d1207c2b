"""Benchmark of mecoff through its user path, `mecoff sweep`.

    python3 bench/run.py --workload sweep_demo --seed 42 --seconds 25 --trace 0
    python3 bench/run.py                      # every workload, untraced then traced
    python3 bench/run.py --write-reference    # rewrite bench/reference/*.csv

One run measures one workload in its own process. Each sweep is an
in-process call of `mecoff.cli.main(["sweep", ...])` with `--workers 1`: a
closed loop with one caller and no threads. A run does, in order:

1. set-up (`--trace 0` only): fresh interpreters each import mecoff and load
   and validate the workload config; `setup_s` is their median.
2. a check sweep. Every solve, one `run_method(method, scenario, user)`
   call, is rechecked from scratch: the method's unit set is derived again,
   the returned placement is evaluated at the returned clock and power, and
   `check_constraints`, the clock and power limits and the returned energy
   and makespan must all hold. At seed 42 the results must also match
   `bench/reference/<workload>.csv`: failure_probability and replications
   exactly, mean_energy_j and mean_ts_s within 1e-6 relative.
3. the timed window: sweeps one after another until `--seconds` are spent
   and at least MIN_SWEEPS ran. Each must write a results.csv byte-identical
   to the check sweep's. With `--trace 0` the only probe is a timer around
   `mecoff.harness.run_method`. With `--trace 1` untraced and traced sweeps
   alternate; traced sweeps wrap every layer (see layers.py) and give the
   per-layer metrics, untraced ones the per-method solve times.

The sweeps of a run repeat the same solves: `wall_s` is the median timed
sweep, and each solve's latency is the median of its repeats before
`solve_p50_ms` and `solve_tail_ms` are taken over the distinct solves, so
the tail percentile is fixed by the workload.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it report the facts behind
the figures. An operation is one solve. It fails when it raises, when its
recheck fails, or when its clock or power exceeds the device limit. A
reference mismatch or a nondeterministic sweep also counts as a failure, and
any failure makes the exit code 1. Result files and the spans of the last
traced sweep go to `.bench_out/`.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(BENCH))

from layers import METHODS, RUN_METHOD, TARGETS, layer_shares, per_layer_spec, traced_metrics  # noqa: E402
from spans import MissingProbe, Target, Tracer  # noqa: E402

DEFAULT_SEED = 42
MIN_SWEEPS = 3  # timed sweeps per run at least, however short --seconds is
SETUP_PROBES = 7  # fresh interpreters timed per run, after one warm-up
TAIL_BEYOND = 10  # samples that must lie above a reported tail percentile
REL_TOL = 1e-6  # the tuner's documented energy guarantee

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("solve_p50_ms", "ms"),
    ("solve_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
]


@dataclass(frozen=True)
class Workload:
    name: str
    methods: str
    replications: int
    why: str

    @property
    def config(self) -> Path:
        return BENCH / "workloads" / f"{self.name}.cfg"

    @property
    def reference(self) -> Path:
        return BENCH / "reference" / f"{self.name}.csv"


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sweep_demo", "M1,M2,M3,M4,M5", 20,
            "the criterion-6 matrix: many small trees, time goes to per-leaf tuning and evaluate",
        ),
        Workload(
            "big_tree", "M3,M5", 1,
            "K=12 users whose every leaf is feasible, so tree search and tuning cost O(2^K) per solve",
        ),
        Workload(
            "frames_heavy", "M4,M5", 10,
            "long redundant frame sequences on tiny trees: scenario synthesis, filter and dedup/merge lead",
        ),
    )
}


# --- statistics ----------------------------------------------------------------

def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile that still has at least
    TAIL_BEYOND samples beyond it: the (TAIL_BEYOND + 1)-th largest sample,
    at percentile 100 * (n - TAIL_BEYOND) / n. With n <= TAIL_BEYOND no
    percentile qualifies and the maximum is returned as percentile 100.
    """
    if not samples:
        raise ValueError("need at least one sample")
    xs = sorted(samples)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


# --- mecoff --------------------------------------------------------------------

def import_mecoff():
    """Import mecoff from this checkout's src/ and nowhere else."""
    if not (SRC / "mecoff" / "__init__.py").is_file():
        raise SystemExit(f"error: no mecoff package under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import mecoff
    import mecoff.cli

    if Path(mecoff.__file__).resolve().parent != SRC / "mecoff":
        raise SystemExit(f"error: imported mecoff from {mecoff.__file__}, expected {SRC / 'mecoff'}")
    return mecoff


def work_units(method: str, scenario, user_index: int):
    """The unit set a method places, derived independently of mecoff.methods.

    M1/M2 place each task as one atom (summed bits and cycles, tightest
    deadline, smallest id); M3 places the raw units; M4 scales each unit by
    its task's mean kept frame fraction; M5 then dedups and merges.
    """
    from mecoff.correlation import dedup, filter_multi, filter_single, merge_shared_source
    from mecoff.model import Unit

    user = scenario.users[user_index]
    cfg = scenario.config
    if method in ("M1", "M2"):
        tasks: dict[int, list] = {}
        for u in user.units:
            tasks.setdefault(u.task_id, []).append(u)
        return tuple(
            Unit(
                id=min(m.id for m in ms), user=ms[0].user, task_id=t,
                type_id=-1 - t, source_id=-1 - t,
                d=sum(m.d for m in ms), w=sum(m.w for m in ms),
                deadline=min(m.deadline for m in ms),
            )
            for t, ms in sorted(tasks.items())
        )
    units = user.units
    if method in ("M4", "M5"):
        kept = {}
        for task, frames in user.frames.items():
            if len(frames) < 2:
                continue
            if cfg.filter_mode == "multi":
                decisions = filter_multi(frames, cfg.alpha, cfg.beta)
            else:
                decisions = filter_single(frames, cfg.alpha)
            kept[task] = sum(d.kept_fraction for d in decisions) / len(decisions)
        units = tuple(
            replace(u, d=u.d * kept.get(u.task_id, 1.0), w=u.w * kept.get(u.task_id, 1.0))
            for u in units
        )
    if method == "M5":
        units = merge_shared_source(dedup(units)[0])[0]
    return units


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def recheck(method: str, scenario, user_index: int, result) -> str | None:
    """None when the solve's outcome holds up on its own; else the reason."""
    from mecoff.schedule import check_constraints, evaluate

    user = scenario.users[user_index]
    caps = scenario.caps
    if result.total_tasks != user.n_tasks:
        return f"total_tasks {result.total_tasks} != {user.n_tasks}"
    sol = result.solution
    if sol is None:
        if result.failed_tasks != result.total_tasks or result.energy != 0.0:
            return "a user without a placement must fail every task at zero energy"
        return None
    if result.failed_tasks:
        return "a placed user reports failed tasks"
    if not 0.0 < sol.f <= caps.f_max:
        return f"f={sol.f!r} outside (0, f_max={caps.f_max!r}]"
    if not 0.0 <= sol.p <= caps.p_max:
        return f"p={sol.p!r} outside [0, p_max={caps.p_max!r}]"
    work = work_units(method, scenario, user_index)
    fresh = evaluate(sol.assignment, work, sol.f, sol.p, user.channel, scenario.mec, caps)
    report = check_constraints(fresh, work, caps)
    if not report.ok:
        return f"constraints violated: {report.violations}"
    if not (_close(fresh.e_total, sol.energy) and result.energy == sol.energy):
        return f"energy {result.energy!r} but the placement costs {fresh.e_total!r}"
    if not _close(fresh.ts, result.ts):
        return f"makespan {result.ts!r} but the placement takes {fresh.ts!r}"
    return None


def compare_to_reference(text: str, reference: str) -> list[str]:
    """Differences between two results.csv texts, one line each."""
    got = [line.split(",") for line in text.splitlines()]
    want = [line.split(",") for line in reference.splitlines()]
    if not got or got[0] != want[0] or len(got) != len(want):
        return [f"table shape differs: {len(got)} lines vs {len(want)} in the reference"]
    problems = []
    for g, w in zip(got[1:], want[1:]):
        snr, method, energy, fail, ts, reps = g
        label = f"snr={snr} {method}"
        if (float(snr), method) != (float(w[0]), w[1]):
            problems.append(f"{label}: expected row snr={w[0]} {w[1]}")
        elif float(fail) != float(w[3]) or int(reps) != int(w[5]):
            problems.append(f"{label}: failure_probability/replications {fail}/{reps} != {w[3]}/{w[5]}")
        elif not (_close(float(energy), float(w[2])) and _close(float(ts), float(w[4]))):
            problems.append(f"{label}: mean_energy_j/mean_ts_s {energy}/{ts} != {w[2]}/{w[4]}")
    return problems


# --- one run -------------------------------------------------------------------

class Run:
    """State of one benchmark run of one workload."""

    def __init__(self, mecoff, workload: Workload, seed: int, out_dir: Path):
        self.mecoff = mecoff
        self.workload = workload
        self.seed = seed
        self.out_dir = out_dir
        self.attempted = 0
        self.failures: list[str] = []
        self.failed = 0
        self.expected_csv: bytes | None = None
        self.solves_per_sweep = 0

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(message)

    def argv(self) -> list[str]:
        w = self.workload
        return [
            "sweep", "--config", str(w.config), "--methods", w.methods,
            "--reps", str(w.replications), "--seed", str(self.seed),
            "--out", str(self.out_dir), "--format", "csv", "--workers", "1",
        ]

    def sweep(self, tracer: Tracer) -> float:
        """One timed `mecoff sweep` call under the given tracer; returns its
        wall time and checks its results.csv against the check sweep's."""
        argv = self.argv()
        sink = io.StringIO()
        with tracer, contextlib.redirect_stdout(sink):
            start = perf_counter()
            code = self.mecoff.cli.main(argv)
            wall = perf_counter() - start
        solves = sum(1 for s in tracer.spans if s.name == "methods.run")
        self.attempted += solves
        if code != 0:
            raise RuntimeError(f"mecoff sweep exited with {code}")
        produced = (self.out_dir / "results.csv").read_bytes()
        if self.expected_csv is None:
            self.expected_csv = produced
            self.solves_per_sweep = solves
        elif produced != self.expected_csv:
            self.fail("results.csv differs from the first sweep of this run")
        return wall

    def check_sweep(self) -> None:
        def rechecked(tracer, args, kwargs, result):
            method, scenario, user = args
            try:
                problem = recheck(method, scenario, user, result)
            except Exception as exc:  # any crash of the recheck is a failed solve
                problem = f"recheck raised {type(exc).__name__}: {exc}"
            if problem:
                self.fail(f"{method} snr={scenario.snr_db} user={user}: {problem}")

        self.sweep(Tracer([Target(RUN_METHOD, "methods.run", leave=rechecked, required=True)]))
        if self.seed == DEFAULT_SEED:
            reference = self.workload.reference
            if not reference.is_file():
                self.fail(f"missing reference {reference.name}")
                return
            for problem in compare_to_reference(self.expected_csv.decode(), reference.read_text()):
                self.fail(f"reference: {problem}")

    def probe(self) -> Tracer:
        """Tracer holding only the solve timer, recording per solve
        (method, within limits, failed tasks, total tasks)."""

        def timed(tracer, args, kwargs, result):
            sol, caps = result.solution, args[1].caps
            ok = sol is None or (sol.f <= caps.f_max and sol.p <= caps.p_max)
            tracer.records.append((args[0], ok, result.failed_tasks, result.total_tasks))

        return Tracer([Target(RUN_METHOD, "methods.run", leave=timed, required=True)])

    def timed_sweep(self) -> tuple[float, list[tuple[str, float, int, int]]]:
        """Wall time and (method, ms, failed tasks, total tasks) per solve."""
        tracer = self.probe()
        wall = self.sweep(tracer)
        solves = []
        for span, (method, ok, failed, total) in zip(tracer.spans, tracer.records):
            solves.append((method, (span.end - span.start) * 1e3, failed, total))
            if not ok:
                self.fail(f"{method}: clock or power above the device limit")
        return wall, solves


def solve_latencies(sweeps: list[list[tuple[str, float, int, int]]]) -> list[tuple[str, float]]:
    """(method, ms) per distinct solve: the median of its repeats over the sweeps.

    Sweeps of one run are identical (their results are checked byte for
    byte), so the i-th solve of every sweep is the same solve.
    """
    out = []
    for repeats in zip(*sweeps):
        methods = {method for method, _, _, _ in repeats}
        if len(methods) != 1:
            raise RuntimeError(f"sweeps ran different solves at one position: {sorted(methods)}")
        out.append((repeats[0][0], statistics.median(ms for _, ms, _, _ in repeats)))
    return out


def setup_seconds(config: Path) -> list[float]:
    cmd = [sys.executable, str(BENCH / "setup_probe.py"), str(SRC), str(config)]
    times = []
    for i in range(SETUP_PROBES + 1):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=60, check=True)
        if i:  # the first one may compile bytecode
            times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def facts(mecoff, run: Run) -> dict:
    import numpy

    return {
        "workload": run.workload.name,
        "seed": run.seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mecoff": getattr(mecoff, "__version__", "?"),
        "replications": run.workload.replications,
        "solves_per_sweep": run.solves_per_sweep,
    }


def run_untraced(run: Run, seconds: float) -> tuple[dict, dict]:
    setup = setup_seconds(run.workload.config)
    run.check_sweep()
    walls: list[float] = []
    sweeps: list = []
    start = perf_counter()
    while len(walls) < MIN_SWEEPS or perf_counter() - start + statistics.median(walls) <= seconds:
        wall, solves = run.timed_sweep()
        walls.append(wall)
        sweeps.append(solves)
    times = [ms for _, ms in solve_latencies(sweeps)]
    tail_ms, tail_pct = tail(times)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "solve_p50_ms": statistics.median(times),
        "solve_tail_ms": tail_ms,
        "peak_rss_mb": peak_rss_mb(),
    }
    info = {
        "sweeps": len(walls),
        "wall_s_each": walls,
        "setup_s_each": setup,
        "solve_samples": len(times),
        "solve_tail_percentile": tail_pct,
        "tracing_overhead_s": "measured by --trace 1 runs",
    }
    return {name: (metrics[name], unit) for name, unit in END_TO_END}, info


def run_traced(run: Run, seconds: float) -> tuple[dict, dict, Tracer]:
    run.check_sweep()
    walls: list[float] = []
    sweeps: list = []
    traced_walls: list[float] = []
    per_sweep: list[dict] = []
    tracer = None
    start = perf_counter()
    while len(walls) < 2 or not traced_walls or perf_counter() - start < seconds:
        if len(walls) <= len(traced_walls):
            wall, solves = run.timed_sweep()
            walls.append(wall)
            sweeps.append(solves)
            continue
        tracer = Tracer(TARGETS)
        traced_walls.append(run.sweep(tracer))
        per_sweep.append(traced_metrics(tracer))
    # counts repeat exactly; times are medians over the traced sweeps
    values = {k: statistics.median(d[k] for d in per_sweep) for k in per_sweep[0]}
    latencies = solve_latencies(sweeps)
    method_info = {}
    for m in METHODS:
        times = [ms for method, ms in latencies if method == m]
        failed = sum(f for method, _, f, _ in sweeps[0] if method == m)
        total = sum(t for method, _, _, t in sweeps[0] if method == m)
        if times:
            tail_ms, pct = tail(times)
            values[f"methods.{m}.solve_p50_ms"] = statistics.median(times)
            values[f"methods.{m}.solve_tail_ms"] = tail_ms
            method_info[m] = {"samples": len(times), "tail_percentile": pct}
        else:
            values[f"methods.{m}.solve_p50_ms"] = 0.0
            values[f"methods.{m}.solve_tail_ms"] = 0.0
        values[f"methods.{m}.failed_task_share"] = failed / total if total else 0.0
    metrics = {name: (values[name], unit) for name, unit, _ in per_layer_spec()}
    info = {
        "untraced_sweeps": len(walls),
        "traced_sweeps": len(traced_walls),
        "wall_s": statistics.median(walls),
        "traced_wall_s": statistics.median(traced_walls),
        "tracing_overhead_s": statistics.median(traced_walls) - statistics.median(walls),
        "absent": tracer.absent,
        "layer_shares": layer_shares(tracer),
        "methods": method_info,
        "methods_not_run": [m for m in METHODS if m not in method_info],
    }
    return metrics, info, tracer


def write_spans(tracer: Tracer, path: Path) -> None:
    with path.open("w") as fh:
        for i, s in enumerate(tracer.spans):
            fh.write(json.dumps({
                "i": i, "name": s.name, "start": s.start, "end": s.end,
                "parent": s.parent, "solve": s.solve,
            }) + "\n")


def run_one(workload: Workload, seed: int, seconds: float, trace: bool) -> int:
    mecoff = import_mecoff()
    OUT.mkdir(exist_ok=True)
    sweep_dir = OUT / f"{workload.name}-{os.getpid()}"
    run = Run(mecoff, workload, seed, sweep_dir)
    tracer = None
    try:
        if trace:
            metrics, info, tracer = run_traced(run, seconds)
        else:
            metrics, info = run_untraced(run, seconds)
    except MissingProbe as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # the program under test crashed: report it as a failed run
        run.fail(f"sweep raised {type(exc).__name__}: {exc}")
        metrics, info = {}, {}
    finally:
        shutil.rmtree(sweep_dir, ignore_errors=True)
    info = {**facts(mecoff, run), "trace": int(trace), **info, "failures": run.failures}
    stem = OUT / f"{workload.name}-seed{seed}-trace{int(trace)}"
    if tracer is not None:
        write_spans(tracer, stem.with_suffix(".spans.jsonl"))
    result = {
        "correct": run.failed == 0 and bool(metrics),
        "attempted": max(run.attempted, 1),
        "failed": run.failed if metrics else max(run.failed, 1),
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }
    stem.with_suffix(".json").write_text(json.dumps({**result, "info": info}, indent=1) + "\n")
    for name, (value, unit) in metrics.items():
        print(f"{workload.name} {name} = {value:.6g} {unit}")
    print("info " + json.dumps(info))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


# --- every workload ------------------------------------------------------------

def run_all(seed: int, seconds: float) -> int:
    """Each workload untraced, then traced, each in a fresh process."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for trace in (0, 1):
        for name in WORKLOADS:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            done = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            sys.stderr.write(done.stderr)
            lines = done.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                print(f"{name} trace={trace}: no result (exit {done.returncode})")
                combined["correct"] = False
                continue
            info = json.loads(next(l for l in lines if l.startswith("info "))[5:])
            combined["correct"] &= result["correct"] and done.returncode == 0
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            print(f"== {name} (trace {trace}): {result['failed']} failed of {result['attempted']} solves")
            for metric, m in result["metrics"].items():
                if trace == 0:
                    combined["metrics"][f"{name}.{metric}"] = m
                    print(f"  {metric:28s} {m['value']:12.6g} {m['unit']}")
            if trace == 0:
                print(f"  tail percentile p{info.get('solve_tail_percentile', 0):.4g} "
                      f"over {info.get('solve_samples')} solves; {info.get('sweeps')} sweeps "
                      f"of {info['replications']} replications")
            else:
                shares = ", ".join(f"{k} {v:.0%}" for k, v in info.get("layer_shares", {}).items())
                print(f"  tracing overhead {info.get('tracing_overhead_s', 0.0):.3f} s; self-time shares: {shares}")
                if info.get("absent"):
                    print(f"  absent: {', '.join(info['absent'])}")
            for problem in info.get("failures", []):
                print(f"  FAILED: {problem}")
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def write_references() -> int:
    mecoff = import_mecoff()
    for workload in WORKLOADS.values():
        out = OUT / f"reference-{workload.name}"
        run = Run(mecoff, workload, DEFAULT_SEED, out)
        with contextlib.redirect_stdout(io.StringIO()):
            code = mecoff.cli.main(run.argv())
        if code != 0:
            return code
        workload.reference.parent.mkdir(exist_ok=True)
        shutil.copyfile(out / "results.csv", workload.reference)
        shutil.rmtree(out)
        print(f"wrote {workload.reference}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default=None,
                        help="one workload (default: all, each in a fresh process)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help=f"store every workload's results at seed {DEFAULT_SEED} as the reference")
    args = parser.parse_args(argv)
    if args.write_reference:
        return write_references()
    if args.workload is None:
        return run_all(args.seed, args.seconds)
    return run_one(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
