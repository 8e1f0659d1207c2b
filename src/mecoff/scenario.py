"""Seeded synthetic scenario generation.

A scenario is a pure function of (config, snr setpoint, seed): per user a
Rayleigh channel draw, a handful of tasks split into units, and per task a
frame sequence with planted pairwise correlations, filtered as it is drawn.
All randomness flows through one numpy Generator, so equal seeds reproduce
scenarios bit for bit.
"""

from __future__ import annotations

import math
import operator
import sys
from collections.abc import Mapping
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .correlation import RunningFilter, _centre
from .errors import ConfigError
from .model import ChannelState, DeviceCaps, MecCaps, Unit
from .tune import MAX_TREE_DEPTH

_CYCLE_MODELS = ("per_bit", "per_task")
_FILTER_MODES = ("multi", "single")


@dataclass(frozen=True)
class ScenarioConfig:
    """Knobs for the synthetic workload generator.

    Pair fields are inclusive (lo, hi) ranges. cycle_density is cycles per
    input bit under cycle_model="per_bit" (the default) or total cycles per
    task under "per_task". dup_unit_fraction / shared_source_fraction are
    the per-task probabilities of planting an exact copy of an earlier unit
    (correlation degree 1) or a unit reading an earlier unit's source
    (degree 0.5). alpha/beta are the time-domain filter thresholds used by
    the frame-filtering methods.
    """

    n_users: int = 4
    tasks_per_user: tuple[int, int] = (1, 2)
    units_per_task: tuple[int, int] = (2, 5)
    task_size: tuple[float, float] = (1e6, 3e6)  # bits
    cycle_density: tuple[float, float] = (1500.0, 4500.0)
    cycle_model: str = "per_bit"
    bw: float = 20e6  # Hz
    f_max: float = 2e9  # cycles/s, device
    f_mec: float = 20e9  # cycles/s, edge share per user
    kappa: float = 1e-11
    deadlines: tuple[float, ...] = (0.05, 0.1)  # seconds, drawn per task
    user_deadline: float = 0.1
    target_snr_db: tuple[float, ...] = (10.0, 20.0, 30.0, 40.0, 50.0)
    p_max: float = 1.0  # W
    frames_per_task: int = 4
    frame_len: int = 256
    frame_rho: tuple[float, float] = (0.3, 0.99)
    dup_unit_fraction: float = 0.15
    shared_source_fraction: float = 0.15
    alpha: float = 0.9
    beta: float = 0.5
    filter_mode: str = "multi"
    seed: int = 0

    def validate(self) -> None:
        for f in fields(self):  # counts must be whole: a fraction would be truncated or crash
            v = getattr(self, f.name)
            try:
                if f.type == "int":
                    operator.index(v)
                elif f.type == "tuple[int, int]":
                    list(map(operator.index, v))
            except TypeError:
                raise ConfigError(f"{f.name}: need integers, got {v!r}") from None
        if self.n_users < 1:
            raise ConfigError(f"n_users: must be >= 1, got {self.n_users}")
        for name in ("tasks_per_user", "units_per_task", "task_size", "cycle_density"):
            v = getattr(self, name)
            if len(v) != 2 or not 0.0 < v[0] <= v[1] < math.inf:
                raise ConfigError(f"{name}: need a finite positive (lo, hi) range, got {v}")
        n_tasks, n_units = self.tasks_per_user[1], self.units_per_task[1]
        if n_tasks * n_units > MAX_TREE_DEPTH:
            raise ConfigError(
                f"tasks_per_user x units_per_task: {n_tasks} x {n_units} units "
                f"exceed the tree depth limit {MAX_TREE_DEPTH}"
            )
        if int(self.task_size[1]) + 1 > 2**63:  # generate's rng.integers(lo, hi + 1) is int64
            raise ConfigError(f"task_size: {self.task_size[1]} bits exceed the int64 range")
        if int(self.task_size[0]) < n_units:
            raise ConfigError(
                f"task_size: a task of {int(self.task_size[0])} bits cannot be split "
                f"into {n_units} units"
            )
        if self.cycle_model not in _CYCLE_MODELS:
            raise ConfigError(f"cycle_model: expected one of {_CYCLE_MODELS}")
        for name in ("bw", "f_max", "f_mec", "kappa", "user_deadline", "p_max"):
            if not 0 < getattr(self, name) < math.inf:
                raise ConfigError(f"{name}: must be finite and positive, got {getattr(self, name)}")
        if not self.deadlines or not all(0 < d < math.inf for d in self.deadlines):
            raise ConfigError(f"deadlines: need finite positive values, got {self.deadlines}")
        if not self.target_snr_db:
            raise ConfigError("target_snr_db: need at least one setpoint")
        for snr_db in self.target_snr_db:
            noise_density(snr_db, self.bw, self.p_max)
        if self.frames_per_task < 1:
            raise ConfigError(f"frames_per_task: must be >= 1, got {self.frames_per_task}")
        # the fewest cycles a unit can carry: it holds at least 1 bit, and
        # M4 keeps at least the first of its task's frames_per_task frames
        w_min = self.cycle_density[0]
        if self.cycle_model == "per_task":
            w_min /= self.task_size[1]
        w_min /= self.frames_per_task
        if w_min < sys.float_info.min:
            raise ConfigError(
                f"cycle_density: unit cycles can fall to {w_min!r}, below {sys.float_info.min!r}"
            )
        if self.frame_len < 2:
            raise ConfigError(f"frame_len: must be >= 2, got {self.frame_len}")
        if self.frames_per_task >= 2 and self.frame_len < 3:
            # a centred 2-sample frame leaves no direction orthogonal to its
            # reference, so no correlated successor can be drawn
            raise ConfigError(
                f"frame_len: must be >= 3 when frames_per_task >= 2, got {self.frame_len}"
            )
        if not -1.0 <= self.frame_rho[0] <= self.frame_rho[1] <= 1.0:
            raise ConfigError(f"frame_rho: need -1 <= lo <= hi <= 1, got {self.frame_rho}")
        for name in ("dup_unit_fraction", "shared_source_fraction"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ConfigError(f"{name}: must lie in [0, 1], got {v}")
        if self.dup_unit_fraction + self.shared_source_fraction > 1.0:
            raise ConfigError("dup_unit_fraction + shared_source_fraction must be <= 1")
        if not 0.0 < self.beta < self.alpha < 1.0:
            raise ConfigError(
                f"filter thresholds: need 0 < beta < alpha < 1, got "
                f"alpha={self.alpha}, beta={self.beta}"
            )
        if self.filter_mode not in _FILTER_MODES:
            raise ConfigError(f"filter_mode: expected one of {_FILTER_MODES}")
        if self.seed < 0:
            raise ConfigError(f"seed: must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class UserScenario:
    units: tuple[Unit, ...]
    frames: Mapping[int, np.ndarray]  # task_id -> (frames, samples) array, re-drawn per read
    kept: Mapping[int, tuple[float, ...]]  # task_id -> kept fraction of each epoch's frame
    channel: ChannelState
    n_tasks: int


@dataclass(frozen=True)
class Scenario:
    config: ScenarioConfig
    snr_db: float
    users: tuple[UserScenario, ...]
    caps: DeviceCaps
    mec: MecCaps


def noise_density(snr_db: float, bw: float, p_max: float) -> float:
    """n0 = p_max / (bw * 10^(snr_db/10)), the noise density that puts the mean
    SNR at full power on the setpoint. ConfigError unless it is finite and
    positive and the noise power bw * n0, the divisor of `snr`, is nonzero:
    the setpoint is not finite, or 10^(snr_db/10) or bw * n0 over/underflows."""
    try:
        n0 = p_max / (bw * 10.0 ** (snr_db / 10.0))
    except (OverflowError, ZeroDivisionError):
        n0 = math.nan
    if not 0.0 < n0 < math.inf or bw * n0 == 0.0:
        raise ConfigError(f"snr setpoint {snr_db!r} dB: noise density {n0!r} must be finite and > 0, "
                          "with a nonzero noise power bw * n0")
    return n0


def sample_channel(rng, target_snr_db: float, bw: float, p_max: float) -> ChannelState:
    """One Rayleigh channel draw at a mean-SNR setpoint.

    The amplitude h is Rayleigh with E[h^2] = 1; the noise density is scaled
    so the mean SNR at full power equals the target (`noise_density`).
    """
    h = float(rng.rayleigh(scale=np.sqrt(0.5)))
    return ChannelState(h=h, bw=bw, n0=noise_density(target_snr_db, bw, p_max))


def _draw_rows(rng: np.random.Generator, rows: np.ndarray, n_frames: int, rho_lo: float,
               rho_hi: float):
    """Draw n_frames frames, frame i into rows[i % len(rows)], and yield per
    frame (rho, its `_centre` pair): rho is the drawn correlation target with
    the frame before (None for the first), the pair the frame's centred copy,
    valid until the next frame is drawn, and squared norm.

    A frame after the first mixes its predecessor, centred and normalised,
    with noise orthogonalized against it, so the realized sample Pearson
    coefficient is rho up to floating-point rounding. The noise is drawn into
    the frame's row and worked on in place, with two scratch rows for the
    rest; each step rounds as its out-of-place form would.
    """
    n = rows.shape[1]
    xn, tmp = np.empty(n), np.empty(n)
    rng.standard_normal(n, out=rows[0])
    rho = None
    for i in range(n_frames):
        xc, sx = _centre(rows[i % len(rows)], out=xn)
        yield rho, (xc, sx)
        if i + 1 == n_frames:
            return
        rho = float(rng.uniform(rho_lo, rho_hi + 0.0))  # numpy rejects the range (0.0, -0.0)
        xn /= math.sqrt(sx)
        z = rows[(i + 1) % len(rows)]
        for _ in range(16):
            rng.standard_normal(n, out=z)
            z -= np.add.reduce(z) / n
            z -= np.multiply(xn, z @ xn, out=tmp)
            nz = math.sqrt(z @ z)
            if nz > 1e-9:
                break
        else:
            raise RuntimeError("could not draw noise independent of the reference frame")
        z /= nz
        z *= math.sqrt(max(0.0, 1.0 - rho * rho))
        z += np.multiply(xn, rho, out=tmp)


def synthesize_frames(
    rng: np.random.Generator,
    n_frames: int,
    length: int,
    rho_lo: float,
    rho_hi: float,
) -> tuple[np.ndarray, list[float]]:
    """Frame sequence whose consecutive pairs hit drawn correlation targets.

    Returns (frames, targets): frames is an (n_frames, length) array whose
    rows are drawn in place, and targets[i] the planted coefficient between
    rows i and i+1, realized exactly by construction.
    """
    frames = np.empty((n_frames, length))
    targets = [rho for rho, _ in _draw_rows(rng, frames, n_frames, rho_lo, rho_hi)]
    return frames, targets[1:]


class _FrameDraws(Mapping):
    """task_id -> the task's frame array, as `synthesize_frames` returns it.

    Only the bit-generator state before each task's first frame is kept
    (`states`: task_id -> (bit generator class, state)): every read
    re-draws the whole array, at the cost of the draw in `generate`, and
    returns a fresh array.
    """

    def __init__(self, shape: tuple[int, int], rho: tuple[float, float], states: dict):
        self.shape, self.rho, self.states = shape, rho, states

    def __getitem__(self, task: int) -> np.ndarray:
        cls, state = self.states[task]
        bit_generator = cls()
        bit_generator.state = state
        return synthesize_frames(np.random.Generator(bit_generator), *self.shape, *self.rho)[0]

    def __iter__(self):
        return iter(self.states)

    def __len__(self) -> int:
        return len(self.states)


def _split_size(rng: np.random.Generator, total: int, n: int) -> list[int]:
    """n integer parts >= 1 summing to total exactly."""
    if n == 1:
        return [total]
    props = rng.random(n) + 0.15
    parts = [max(1, int(total * p / props.sum())) for p in props[:-1]]
    last = total - sum(parts)
    while last < 1:  # give back from the largest part
        i = max(range(n - 1), key=lambda j: parts[j])
        take = min(parts[i] - 1, 1 - last)
        if take <= 0:
            raise ConfigError(f"task of {total} bits cannot be split into {n} units")
        parts[i] -= take
        last += take
    return parts + [last]


def generate(
    config: ScenarioConfig,
    snr_db: float | None = None,
    seed=None,
) -> Scenario:
    """Draw one scenario. snr_db defaults to the first configured setpoint,
    seed to config.seed; seed may be an int or a numpy SeedSequence."""
    config.validate()
    if snr_db is None:
        snr_db = config.target_snr_db[0]
    rng = np.random.default_rng(config.seed if seed is None else seed)

    caps = DeviceCaps(
        f_max=config.f_max,
        p_max=config.p_max,
        kappa=config.kappa,
        user_deadline=config.user_deadline,
    )
    mec = MecCaps(f_mec=config.f_mec)
    beta = config.beta if config.filter_mode == "multi" else config.alpha  # single: no diff band
    rows = np.empty((2, config.frame_len))  # each task's frames are filtered as they are drawn

    users: list[UserScenario] = []
    for user in range(config.n_users):
        channel = sample_channel(rng, snr_db, config.bw, config.p_max)
        n_tasks = int(rng.integers(config.tasks_per_user[0], config.tasks_per_user[1] + 1))
        units: list[Unit] = []
        states: dict[int, tuple[type, dict]] = {}
        kept: dict[int, tuple[float, ...]] = {}
        next_type = 0
        next_source = 0
        for task in range(n_tasks):
            size = int(rng.integers(int(config.task_size[0]), int(config.task_size[1]) + 1))
            deadline = float(config.deadlines[int(rng.integers(len(config.deadlines)))])
            n_units = int(
                rng.integers(config.units_per_task[0], config.units_per_task[1] + 1)
            )
            density = float(rng.uniform(*config.cycle_density))

            # optionally tie this task's first unit to an earlier unit `ref`, as
            # an exact copy or as a reader of its source; needs >= 2 units so
            # the drawn task size is still met exactly
            ref: Unit | None = None
            copy = False
            if units and n_units >= 2:
                roll = float(rng.random())
                if roll < config.dup_unit_fraction + config.shared_source_fraction:
                    ref = units[int(rng.integers(len(units)))]
                    copy = roll < config.dup_unit_fraction
                    if ref.d > size - (n_units - 1):
                        ref = None  # the planted unit would not fit in this task

            if ref is not None:
                sizes = [int(ref.d)] + _split_size(rng, size - int(ref.d), n_units - 1)
            else:
                sizes = _split_size(rng, size, n_units)

            for j, d_j in enumerate(sizes):
                planted = j == 0 and ref is not None
                if planted and copy:  # same computation on the same source
                    type_id, source_id, w_j = ref.type_id, ref.source_id, ref.w
                else:
                    type_id, next_type = next_type, next_type + 1
                    if planted:  # shared source, own computation
                        source_id = ref.source_id
                    else:
                        source_id, next_source = next_source, next_source + 1
                    w_j = d_j * density if config.cycle_model == "per_bit" else density * d_j / size
                units.append(
                    Unit(
                        id=len(units),
                        user=user,
                        task_id=task,
                        type_id=type_id,
                        source_id=source_id,
                        d=float(d_j),
                        w=float(w_j),
                        deadline=deadline,
                    )
                )

            states[task] = (type(rng.bit_generator), rng.bit_generator.state)
            running = RunningFilter(config.alpha, beta)
            draws = _draw_rows(rng, rows, config.frames_per_task, *config.frame_rho)
            kept[task] = tuple(running.push(*pair).kept_fraction for _, pair in draws)
        frames = _FrameDraws((config.frames_per_task, config.frame_len), config.frame_rho, states)
        users.append(UserScenario(tuple(units), frames, kept, channel, n_tasks))
    return Scenario(config=config, snr_db=float(snr_db), users=tuple(users), caps=caps, mec=mec)


def demo_config(seed: int = 42) -> ScenarioConfig:
    """Preset used by the demo and the trend experiments.

    Sized so the methods operate in a mixed-feasibility regime: the edge
    server comfortably fits any drawn workload, transmission is the binding
    resource at the low end of the SNR sweep, and local execution is viable
    only for small units. kappa uses the per-cycle-scale convention so local
    and radio energies are comparable.
    """
    return ScenarioConfig(
        tasks_per_user=(1, 2),
        units_per_task=(2, 3),
        cycle_density=(40.0, 160.0),
        kappa=1e-26,
        deadlines=(0.1, 0.2),
        user_deadline=0.25,
        frames_per_task=4,
        frame_len=256,
        frame_rho=(0.4, 0.995),
        dup_unit_fraction=0.2,
        shared_source_fraction=0.2,
        seed=seed,
    )


# --- flat key = value config files -------------------------------------------

def _parse_float_tuple(v: str) -> tuple[float, ...]:
    return tuple(float(x) for x in v.split(","))


def _parse_pair(v: str, parse) -> tuple:
    parts = tuple(parse(x) for x in v.split(","))
    if len(parts) != 2:
        raise ValueError("expected 'lo,hi'")
    return parts


# parser per field annotation, a string under `from __future__ import annotations`
_TYPE_PARSERS = {
    "int": int,
    "float": float,
    "str": str,
    "tuple[int, int]": lambda v: _parse_pair(v, int),
    "tuple[float, float]": lambda v: _parse_pair(v, float),
    "tuple[float, ...]": _parse_float_tuple,
}
_FIELD_PARSERS = {f.name: _TYPE_PARSERS[f.type] for f in fields(ScenarioConfig)}


def load_config(path: str | Path) -> ScenarioConfig:
    """Read a flat `key = value` file. Unknown keys are rejected; missing
    keys keep their defaults. Tuples are comma separated; '#' starts a
    comment."""
    overrides = {}
    try:
        with open(path, encoding="utf-8") as fh:  # Path.read_text grows peak RSS over many calls
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        parser = _FIELD_PARSERS.get(key)
        if parser is None:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            overrides[key] = parser(value)
        except (ValueError, OverflowError) as exc:  # int(inf) overflows
            raise ConfigError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from exc
    config = ScenarioConfig(**overrides)
    config.validate()
    return config


def save_config(config: ScenarioConfig, path: str | Path) -> None:
    """Inverse of load_config; writes every field as plain Python values,
    cast through the field's annotation (so numpy scalars round-trip too)."""
    lines = []
    for f in fields(config):
        value = getattr(config, f.name)
        cast = int if "int" in f.type else float if "float" in f.type else str
        values = value if f.type.startswith("tuple") else (value,)
        lines.append(f"{f.name} = {','.join(str(cast(v)) for v in values)}")  # str(float) is repr
    Path(path).write_text("\n".join(lines) + "\n")

