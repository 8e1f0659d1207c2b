"""Command-line entry point: sweep, demo and validate-config."""

from __future__ import annotations

import argparse
import sys

from .errors import ConfigError, MecoffError
from .harness import SweepSpec, emit, run_sweep
from .methods import METHOD_IDS
from .scenario import demo_config, load_config


def _parse_methods(value: str) -> tuple[str, ...]:
    return tuple(m.strip() for m in value.split(",") if m.strip())


def _parse_snrs(value: str) -> tuple[float, ...]:
    try:
        return tuple(float(s) for s in value.split(","))
    except ValueError as exc:
        raise ConfigError(f"--snr: expected a comma list of numbers, got {value!r}") from exc


def _print_rows(rows) -> None:
    print(f"{'snr_db':>8} {'method':>8} {'mean_energy_J':>16} {'failure_prob':>14} {'mean_ts_s':>12}")
    for r in rows:
        print(
            f"{r.snr_db:8.1f} {r.method:>8} {r.mean_energy_j:16.6g} "
            f"{r.failure_probability:14.4f} {r.mean_ts_s:12.6g}"
        )


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    spec = SweepSpec(
        config=config,
        methods=_parse_methods(args.methods),
        snr_points_db=_parse_snrs(args.snr) if args.snr else None,
        replications=args.reps,
        seed=args.seed,
    )
    rows = run_sweep(spec)
    written = emit(rows, args.format, args.out)
    _print_rows(rows)
    for path in written:
        print(f"wrote {path}")
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    config = demo_config(seed=args.seed)
    spec = SweepSpec(
        config=config,
        methods=METHOD_IDS,
        snr_points_db=(10.0, 30.0, 50.0),
        replications=args.reps,
        seed=args.seed,
    )
    rows = run_sweep(spec)
    _print_rows(rows)
    if args.out:
        for path in emit(rows, "csv", args.out):
            print(f"wrote {path}")
    return 0


def _cmd_validate_config(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    print(f"OK: {args.config}")
    print(f"  users={config.n_users} tasks={config.tasks_per_user} units={config.units_per_task}")
    print(f"  snr_points={config.target_snr_db} deadlines={config.deadlines}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mecoff",
        description="Multi-task offloading simulator: energy/failure sweeps over SNR.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="run a Monte Carlo experiment matrix")
    sweep.add_argument("--config", required=True, help="scenario config file (key = value)")
    sweep.add_argument("--methods", default=",".join(METHOD_IDS), help="comma list, e.g. M1,M3,M5")
    sweep.add_argument("--snr", default=None, help="comma list of SNR setpoints in dB")
    sweep.add_argument("--reps", type=int, default=100, help="replications per cell")
    sweep.add_argument("--seed", type=int, default=42)
    sweep.add_argument("--out", required=True, help="output directory")
    sweep.add_argument("--format", choices=("csv", "json", "plotdata"), default="csv")
    # Accepted and ignored: sweeps run serially, and bench/run.py passes --workers 1.
    sweep.add_argument("--workers", type=int, default=1, help=argparse.SUPPRESS)
    sweep.set_defaults(func=_cmd_sweep)

    demo = sub.add_parser("demo", help="run a small bundled scenario")
    demo.add_argument("--reps", type=int, default=5)
    demo.add_argument("--seed", type=int, default=42)
    demo.add_argument("--out", default=None, help="optional output directory for csv")
    demo.set_defaults(func=_cmd_demo)

    check = sub.add_parser("validate-config", help="check a scenario config file")
    check.add_argument("--config", required=True)
    check.set_defaults(func=_cmd_validate_config)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (MecoffError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
