"""Monte Carlo sweeps over SNR setpoints and methods, plus file emission.

Every (snr index, replication) cell draws a fresh scenario from a sub-seed
split off the sweep seed with numpy's SeedSequence spawn keys, so appending
SNR points or replications never perturbs existing cells, and all methods
inside a cell score the same draw. Aggregation is an ordered reduction,
fed cell by cell as the sweep runs, which keeps reruns byte-identical.
"""

from __future__ import annotations

import json
from dataclasses import asdict, astuple, dataclass, field, fields
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .methods import METHOD_IDS, MethodResult, run_method
from .scenario import Scenario, ScenarioConfig, generate, noise_density

@dataclass(frozen=True)
class SweepSpec:
    """One experiment matrix: methods x SNR setpoints x replications."""

    config: ScenarioConfig
    methods: tuple[str, ...] = METHOD_IDS
    snr_points_db: tuple[float, ...] | None = None  # None: use the config's list
    replications: int = 100
    seed: int = 42

    def __post_init__(self):
        if not self.methods:
            raise ConfigError("methods: need at least one method")
        unknown = [m for m in self.methods if m not in METHOD_IDS]
        if unknown:
            raise ConfigError(f"methods: unknown {unknown}, expected subset of {METHOD_IDS}")
        repeated = sorted({m for m in self.methods if self.methods.count(m) > 1})
        if repeated:
            raise ConfigError(f"methods: {repeated} listed more than once")
        if self.replications < 1:
            raise ConfigError(f"replications: must be >= 1, got {self.replications}")
        if self.seed < 0:
            raise ConfigError(f"seed: must be >= 0, got {self.seed}")
        for snr_db in self.snr_points_db or ():
            noise_density(snr_db, self.config.bw, self.config.p_max)

    @property
    def snr_points(self) -> tuple[float, ...]:
        return self.snr_points_db if self.snr_points_db else self.config.target_snr_db


@dataclass(frozen=True)
class SweepRow:
    """Aggregate for one (snr, method) cell.

    mean_energy_j averages the per-replication device-energy totals (failed
    tasks contribute zero). failure_probability is failed tasks over total
    tasks across all users and replications. mean_ts_s averages the makespan
    of user runs that produced a schedule; 0 when none did.
    """

    snr_db: float
    method: str
    mean_energy_j: float
    failure_probability: float
    mean_ts_s: float
    replications: int


CSV_HEADER = ",".join(f.name for f in fields(SweepRow))


def cell_seed(seed: int, snr_index: int, replication: int) -> np.random.SeedSequence:
    """Deterministic per-cell sub-seed: the sweep seed split by spawn key."""
    return np.random.SeedSequence(entropy=seed, spawn_key=(snr_index, replication))


def _run_cell(spec: SweepSpec, snr_index: int, replication: int) -> dict[str, list[MethodResult]]:
    scenario: Scenario = generate(
        spec.config,
        snr_db=spec.snr_points[snr_index],
        seed=cell_seed(spec.seed, snr_index, replication),
    )
    return {
        m: [run_method(m, scenario, u) for u in range(len(scenario.users))]
        for m in spec.methods
    }


@dataclass
class _RowSums:
    """Running reduction of one (snr, method) row, fed in replication order."""

    energy_per_rep: list[float] = field(default_factory=list)
    ts_values: list[float] = field(default_factory=list)
    failed: int = 0
    total: int = 0

    def add(self, results: list[MethodResult]) -> None:
        self.energy_per_rep.append(sum(r.energy for r in results))
        self.failed += sum(r.failed_tasks for r in results)
        self.total += sum(r.total_tasks for r in results)
        self.ts_values.extend(r.ts for r in results if r.solution is not None)

    def row(self, snr_db: float, method: str) -> SweepRow:
        ts = self.ts_values
        return SweepRow(
            snr_db=float(snr_db),
            method=method,
            mean_energy_j=sum(self.energy_per_rep) / len(self.energy_per_rep),
            failure_probability=(self.failed / self.total) if self.total else 0.0,
            mean_ts_s=(sum(ts) / len(ts)) if ts else 0.0,
            replications=len(self.energy_per_rep),
        )


def run_sweep(spec: SweepSpec) -> list[SweepRow]:
    """Run the full matrix; deterministic for a fixed spec (cells are
    independent and reduced in index order). Each cell is folded into its
    rows as soon as it finishes, so only one cell's results are held."""
    rows: list[SweepRow] = []
    for si, snr_db in enumerate(spec.snr_points):
        sums = {m: _RowSums() for m in spec.methods}
        for ri in range(spec.replications):
            for m, results in _run_cell(spec, si, ri).items():
                sums[m].add(results)
        rows.extend(sums[m].row(snr_db, m) for m in spec.methods)
    return rows


def render_csv(rows: list[SweepRow]) -> str:
    lines = [CSV_HEADER] + [",".join(map(str, astuple(r))) for r in rows]  # str(float) is repr
    return "\n".join(lines) + "\n"


def load_rows(path: str | Path) -> list[SweepRow]:
    """Parse a results.csv written by emit (round-trips exactly)."""
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ConfigError(f"{path}: not a sweep results file")
    rows = []
    for line in lines[1:]:
        snr, method, energy, fail, ts, reps = line.split(",")
        rows.append(
            SweepRow(
                snr_db=float(snr),
                method=method,
                mean_energy_j=float(energy),
                failure_probability=float(fail),
                mean_ts_s=float(ts),
                replications=int(reps),
            )
        )
    return rows


def emit(rows: list[SweepRow], fmt: str, out_dir: str | Path) -> list[Path]:
    """Write the result table; returns the created paths.

    csv:      results.csv with the documented header.
    json:     results.json, a list of row objects.
    plotdata: per-method two-column series (snr value) for energy and
              failure probability, ready for bar/line plotting.
    """
    if not rows:
        raise ConfigError("emit: empty result table")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    if fmt == "csv":
        path = out / "results.csv"
        path.write_text(render_csv(rows))
        written.append(path)
    elif fmt == "json":
        path = out / "results.json"
        payload = [asdict(r) for r in rows]
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        written.append(path)
    elif fmt == "plotdata":
        methods = []
        for r in rows:
            if r.method not in methods:
                methods.append(r.method)
        for m in methods:
            series = [r for r in rows if r.method == m]
            for stem, attr in (("energy", "mean_energy_j"), ("failure", "failure_probability")):
                path = out / f"plot_{stem}_{m}.dat"
                lines = [f"# snr_db {stem} ({m})"] + [
                    f"{r.snr_db!r} {getattr(r, attr)!r}" for r in series
                ]
                path.write_text("\n".join(lines) + "\n")
                written.append(path)
    else:
        raise ConfigError(f"emit: unknown format {fmt!r} (csv|json|plotdata)")
    return written
