"""Completion-time bookkeeping for a decided placement.

Offloaded units move through a two-stage pipeline: one uplink serving
transmissions back to back, feeding one edge server that also works
strictly FIFO. The stages overlap across units but each stage handles a
single unit at a time. Local units run sequentially on the device CPU,
concurrently with the pipeline; the user finishes when the slower of the
two sides finishes. A unit takes w/f seconds and kappa*w*f^2 joules on the
device; offloaded, d/r seconds and p*d/r joules to upload, then w/f_mec
seconds on the server.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

from .errors import ConstraintViolationError, InvalidParameterError
from .model import ChannelState, DeviceCaps, MecCaps, Unit, snr, uplink_rate


@dataclass(frozen=True)
class Assignment:
    """A processing order plus one offload bit per unit (1 = offloaded,
    0 = local), aligned with `order`.

    Offloaded units form one FIFO subsequence of `order`, local units the
    other; both sides are served strictly in that order.
    """

    order: tuple[int, ...]
    bits: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "order", tuple(self.order))
        object.__setattr__(self, "bits", tuple(self.bits))
        if len(set(self.order)) != len(self.order):
            raise InvalidParameterError("assignment order repeats a unit id")
        if len(self.bits) != len(self.order):
            raise InvalidParameterError("assignment needs exactly one bit per ordered unit")
        if any(b not in (0, 1) for b in self.bits):
            raise InvalidParameterError(f"assignment bits must be 0 or 1, got {self.bits}")

    def split(self, units: Iterable[Unit]) -> tuple[list[Unit], list[Unit]]:
        """The (offloaded, local) units of `units`, which must be exactly the
        ordered ids, each side in processing order."""
        by_id = {u.id: u for u in units}
        if set(by_id) != set(self.order):
            raise InvalidParameterError("assignment does not cover the given unit set")
        return split_by_bits([by_id[i] for i in self.order], self.bits)


def split_by_bits(
    ordered: Sequence[Unit], bits: Sequence[int]
) -> tuple[list[Unit], list[Unit]]:
    """The (offloaded, local) units of a placement, each in `ordered` order."""
    return [u for u, b in zip(ordered, bits) if b], [u for u, b in zip(ordered, bits) if not b]


def mec_pipeline(units_a: Sequence[Unit], r: float, mec: MecCaps) -> tuple[float, ...]:
    """Completion times of the offloaded subsequence at the server.

    Uploads are served back to back, so unit j's upload finishes at the
    running sum of transmission times. The server starts a unit at
    max(upload finish, previous completion).
    """
    if not units_a:
        return ()
    if r <= 0:
        raise InvalidParameterError(
            f"offloaded units need a positive uplink rate, got {r}"
        )
    lt: list[float] = []
    finish_tx = 0.0
    prev_done = 0.0
    for u in units_a:
        finish_tx += u.d / r
        prev_done = max(finish_tx, prev_done) + u.w / mec.f_mec
        lt.append(prev_done)
    return tuple(lt)


def local_sequence(units_b: Sequence[Unit], f: float) -> tuple[float, ...]:
    """Completion times of units run sequentially on the device CPU."""
    if not units_b:
        return ()
    if f <= 0:
        raise InvalidParameterError(f"local units need a positive clock, got {f}")
    lt: list[float] = []
    elapsed = 0.0
    for u in units_b:
        elapsed += u.w / f
        lt.append(elapsed)
    return tuple(lt)


@dataclass(frozen=True)
class ScheduleResult:
    """Completion times and energy of one evaluated placement.

    Maps are keyed by unit id. `ts` is the user's makespan (slower of the
    last local and last offloaded completion); `e_total` is the device-side
    energy: transmissions for offloaded units plus CPU energy for local ones.
    """

    lt_mec: dict[int, float]
    lt_local: dict[int, float]
    ts: float
    e_total: float


def placement_energy(
    units_a: Sequence[Unit], units_b: Sequence[Unit],
    f: float, p: float, ch: ChannelState, caps: DeviceCaps,
) -> float:
    """Device energy of a placement at clock f and power p: the offloaded
    units' transmissions in order, then the local units' CPU energy in order.
    This one sum is both `evaluate`'s e_total and the leaf scorer's key."""
    rate = uplink_rate(ch, snr(p, ch)) if units_a else 0.0
    if units_a and rate <= 0:
        raise InvalidParameterError(f"offloaded units need a positive uplink rate, got {rate}")
    e_tx = sum(p * (u.d / rate) for u in units_a)
    return e_tx + sum(caps.kappa * u.w * f * f for u in units_b)


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
    units_a, units_b = assignment.split(units)
    if f > caps.f_max:
        raise ConstraintViolationError(["C4"], f"f={f} exceeds f_max={caps.f_max}")
    if p > caps.p_max:
        raise ConstraintViolationError(["C5"], f"p={p} exceeds p_max={caps.p_max}")
    if f <= 0 or p < 0:
        raise InvalidParameterError(f"need f > 0 and p >= 0 (f={f}, p={p})")

    rate = uplink_rate(ch, snr(p, ch)) if units_a else 0.0
    lt_mec = mec_pipeline(units_a, rate, mec)
    lt_local = local_sequence(units_b, f)
    return ScheduleResult(
        lt_mec={u.id: t for u, t in zip(units_a, lt_mec)},
        lt_local={u.id: t for u, t in zip(units_b, lt_local)},
        ts=max(lt_local[-1] if lt_local else 0.0, lt_mec[-1] if lt_mec else 0.0),
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
