"""Completion-time bookkeeping for a decided placement.

Offloaded units move through a two-stage pipeline: one uplink serving
transmissions back to back, feeding one edge server that also works
strictly FIFO. The stages overlap across units but each stage handles a
single unit at a time. Local units run sequentially on the device CPU,
concurrently with the pipeline; the user finishes when the slower of the
two sides finishes.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import ConstraintViolationError, InvalidParameterError
from .model import (
    ChannelState,
    DeviceCaps,
    MecCaps,
    Unit,
    local_energy,
    local_latency,
    mec_latency,
    snr,
    tx_energy,
    tx_latency,
    uplink_rate,
)


class Placement(Enum):
    LOCAL = 0
    MEC = 1


@dataclass(frozen=True)
class Assignment:
    """A processing order plus a LOCAL/MEC decision for every unit.

    Offloaded units form one FIFO subsequence of `order`, local units the
    other; both sides are served strictly in that order.
    """

    order: tuple[int, ...]
    placement: Mapping[int, Placement]

    def __post_init__(self):
        if len(set(self.order)) != len(self.order):
            raise InvalidParameterError("assignment order repeats a unit id")
        if set(self.order) != set(self.placement):
            raise InvalidParameterError("placement must cover exactly the ordered units")

    def mec_ids(self) -> tuple[int, ...]:
        return tuple(i for i in self.order if self.placement[i] is Placement.MEC)

    def local_ids(self) -> tuple[int, ...]:
        return tuple(i for i in self.order if self.placement[i] is Placement.LOCAL)

    def bits(self) -> tuple[int, ...]:
        """1 = offloaded, 0 = local, aligned with `order`."""
        return tuple(int(self.placement[i] is Placement.MEC) for i in self.order)


def assignment_from_bits(order: Sequence[int], bits: Sequence[int]) -> Assignment:
    placement = {
        uid: (Placement.MEC if b else Placement.LOCAL) for uid, b in zip(order, bits)
    }
    return Assignment(order=tuple(order), placement=placement)


class MecPipelineTimes(NamedTuple):
    wt3: tuple[float, ...]  # queue-for-uplink + own transmission time
    wt4: tuple[float, ...]  # extra wait at the server behind the previous unit
    lt: tuple[float, ...]  # completion time at the server


class LocalTimes(NamedTuple):
    wt: tuple[float, ...]  # time spent waiting behind earlier local units
    lt: tuple[float, ...]  # completion time on the device CPU


def mec_pipeline(units_a: Sequence[Unit], r: float, mec: MecCaps) -> MecPipelineTimes:
    """Waiting and completion times for the offloaded subsequence.

    Uploads are served back to back, so unit j's upload finishes at the
    running sum of transmission times (wt3). The server starts a unit at
    max(upload finish, previous completion); wt4 is the gap between upload
    finish and service start, zero for the first unit.
    """
    if not units_a:
        return MecPipelineTimes((), (), ())
    if r <= 0:
        raise InvalidParameterError(
            f"offloaded units need a positive uplink rate, got {r}"
        )
    wt3: list[float] = []
    wt4: list[float] = []
    lt: list[float] = []
    finish_tx = 0.0
    prev_done = 0.0
    for u in units_a:
        finish_tx += tx_latency(u.d, r)
        start = max(finish_tx, prev_done)
        done = start + mec_latency(u.w, mec)
        wt3.append(finish_tx)
        wt4.append(start - finish_tx)
        lt.append(done)
        prev_done = done
    return MecPipelineTimes(tuple(wt3), tuple(wt4), tuple(lt))


def local_sequence(units_b: Sequence[Unit], f: float) -> LocalTimes:
    """Waiting and completion times for units run sequentially on the device."""
    if not units_b:
        return LocalTimes((), ())
    if f <= 0:
        raise InvalidParameterError(f"local units need a positive clock, got {f}")
    wt: list[float] = []
    lt: list[float] = []
    elapsed = 0.0
    for u in units_b:
        wt.append(elapsed)
        elapsed += local_latency(u.w, f)
        lt.append(elapsed)
    return LocalTimes(tuple(wt), tuple(lt))


@dataclass(frozen=True)
class ScheduleResult:
    """Per-unit timing and energy for one evaluated placement.

    Maps are keyed by unit id. `ts` is the user's makespan (slower of the
    last local and last offloaded completion); `e_total` is the device-side
    energy: transmissions for offloaded units plus CPU energy for local ones.
    """

    wt3: dict[int, float]
    wt4: dict[int, float]
    wt_mec: dict[int, float]
    lt_mec: dict[int, float]
    wt_local: dict[int, float]
    lt_local: dict[int, float]
    ts: float
    e_tx: dict[int, float]
    e_local: dict[int, float]
    e_total: float


def placement_energy(
    units_a: Sequence[Unit], units_b: Sequence[Unit],
    f: float, p: float, ch: ChannelState, caps: DeviceCaps,
) -> float:
    """Device energy of a placement at clock f and power p: the offloaded
    units' transmissions in order, then the local units' CPU energy in order.
    This one sum is both `evaluate`'s e_total and the leaf scorer's key."""
    rate = uplink_rate(ch, snr(p, ch)) if units_a else 0.0
    e_tx = sum(tx_energy(p, tx_latency(u.d, rate)) for u in units_a)
    return e_tx + sum(local_energy(caps, u.w, f) for u in units_b)


def evaluate(
    assignment: Assignment,
    units: Iterable[Unit],
    f: float,
    p: float,
    ch: ChannelState,
    mec: MecCaps,
    caps: DeviceCaps,
) -> ScheduleResult:
    """Score one placement at clock f and transmit power p."""
    by_id = {u.id: u for u in units}
    if set(by_id) != set(assignment.order):
        raise InvalidParameterError("assignment does not cover the given unit set")
    if f > caps.f_max:
        raise ConstraintViolationError(["C4"], f"f={f} exceeds f_max={caps.f_max}")
    if p > caps.p_max:
        raise ConstraintViolationError(["C5"], f"p={p} exceeds p_max={caps.p_max}")
    if f <= 0 or p < 0:
        raise InvalidParameterError(f"need f > 0 and p >= 0 (f={f}, p={p})")

    units_a = [by_id[i] for i in assignment.mec_ids()]
    units_b = [by_id[i] for i in assignment.local_ids()]

    rate = uplink_rate(ch, snr(p, ch)) if units_a else 0.0
    pipe = mec_pipeline(units_a, rate, mec)
    e_tx = {u.id: tx_energy(p, tx_latency(u.d, rate)) for u in units_a}
    loc = local_sequence(units_b, f)
    e_local = {u.id: local_energy(caps, u.w, f) for u in units_b}

    last_mec = pipe.lt[-1] if pipe.lt else 0.0
    last_local = loc.lt[-1] if loc.lt else 0.0
    return ScheduleResult(
        wt3={u.id: t for u, t in zip(units_a, pipe.wt3)},
        wt4={u.id: t for u, t in zip(units_a, pipe.wt4)},
        wt_mec={u.id: a + b for u, a, b in zip(units_a, pipe.wt3, pipe.wt4)},
        lt_mec={u.id: t for u, t in zip(units_a, pipe.lt)},
        wt_local={u.id: t for u, t in zip(units_b, loc.wt)},
        lt_local={u.id: t for u, t in zip(units_b, loc.lt)},
        ts=max(last_local, last_mec),
        e_tx=e_tx,
        e_local=e_local,
        e_total=placement_energy(units_a, units_b, f, p, ch, caps),
    )


class Violation(NamedTuple):
    constraint: str  # "C1" | "C2" | "C3"
    unit_id: int | None  # None for the user-level deadline


@dataclass(frozen=True)
class ConstraintReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def check_constraints(
    result: ScheduleResult, units: Iterable[Unit], caps: DeviceCaps
) -> ConstraintReport:
    """Per-unit and per-user deadline verdict; boundary values are feasible."""
    by_id = {u.id: u for u in units}
    violations: list[Violation] = []
    for uid, done in result.lt_mec.items():
        if done > by_id[uid].deadline:
            violations.append(Violation("C1", uid))
    for uid, done in result.lt_local.items():
        if done > by_id[uid].deadline:
            violations.append(Violation("C2", uid))
    if result.ts > caps.user_deadline:
        violations.append(Violation("C3", None))
    return ConstraintReport(tuple(violations))
