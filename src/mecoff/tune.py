"""Per-placement resource tuning and the overall user optimization.

For a fixed placement the two knobs decouple: the clock only moves local
completion times and the transmit power only moves the offload pipeline,
so the least-energy feasible point is (smallest feasible f, smallest
feasible p). CPU energy grows as f^2 and transmission energy grows
strictly with p (ln(1+x) > x/(1+x)), hence "smallest feasible" is also
"cheapest". Both minima have closed forms, with every deadline capped by
the user deadline. Over the local units, with W_i the cycles up to unit i,
f* = max_i W_i / dl_i. The pipeline finishes offloaded unit j at
max_{i<=j} (D_i/r + C_ij), D_i the bits sent up to unit i and C_ij the
server time of units i..j, so r* = max_{i<=j} D_i / (dl_j - C_ij) (the
recurrence `allocate.rate_floor_step` that the tree walk also carries) and
p* = expm1(r* ln2 / bw) / gain. Each is then raised in doubling steps (1,
2, 4, ... ulps, never past the cap) until `local_sequence` /
`mec_pipeline` accept it, so the point passes `check_constraints` exactly.
`min_feasible_frequency` and `min_feasible_power` each take one side.

The user-level optimum is the cheapest feasible placement, each scored at
its minimum clock and power or, without tuning, at the maxima.
`optimize_user` finds it with `allocate.branch_and_bound`, passing the best
energy scored so far as the incumbent: a subtree is cut only when its
prefix energy at the closed-form floors exceeds the incumbent by more than
the relative `PRUNE_MARGIN` (1e-9, far above the float rounding between a
bound and a leaf's energy), so only leaves strictly dearer than the winner
are skipped and the winner, its point and its energy are those of an
exhaustive scan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .allocate import branch_and_bound, order_units, rate_floor_step
# Not called here, but bench/layers.py traces this name at this binding.
from .allocate import enumerate_feasible  # noqa: F401
from .errors import ConstraintViolationError, InvalidParameterError
from .model import ChannelState, DeviceCaps, MecCaps, Unit, power_for_rate, snr, uplink_rate
from .schedule import (
    Assignment,
    ScheduleResult,
    check_constraints,
    evaluate,
    local_sequence,
    mec_pipeline,
    placement_energy,
    split_by_bits,
)

# Clock for an empty local side (f_max if lower); local energy is zero regardless.
F_MIN_FLOOR = 1e6


@dataclass(frozen=True)
class TunedSolution:
    """A placement together with its clock, power and resulting cost."""

    assignment: Assignment
    f: float
    p: float
    energy: float
    schedule: ScheduleResult


def tx_energy_total(d_total: float, p: float, ch: ChannelState) -> float:
    """Energy to push d_total bits at power p: (D/bw) * p * log_eta(2)
    with eta = 1 + snr(p), through log1p as in `uplink_rate`. Algebraically
    identical to p * D / rate(p).
    """
    if p <= 0:
        raise InvalidParameterError(f"transmit power must be positive, got {p}")
    return (d_total / ch.bw) * p * (math.log(2.0) / math.log1p(snr(p, ch)))


def _deadlines(side: Sequence[Unit], caps: DeviceCaps) -> list[float]:
    """Per-unit deadlines of one side, each capped by the user's. Completion
    times never fall along a side, so this is the same test as capping only
    the last one."""
    return [min(u.deadline, caps.user_deadline) for u in side]


def _meets(done: Sequence[float], dls: Sequence[float]) -> bool:
    return all(t <= dl for t, dl in zip(done, dls))


def _mec_meets(
    offloaded: Sequence[Unit], dls: Sequence[float], p: float, ch: ChannelState, mec: MecCaps
) -> bool:
    """Whether the offloaded side meets its deadlines `dls` at power p."""
    rate = uplink_rate(ch, snr(p, ch)) if p > 0 else 0.0
    return rate > 0 and _meets(mec_pipeline(offloaded, rate, mec), dls)


def _nudge_up(x: float, cap: float, accepts: Callable[[float], bool]) -> float | None:
    """First of x, x + 1, x + 3, x + 7, ... ulps (clamped to cap) that
    `accepts` takes; None when even the cap is rejected."""
    x = min(x, cap)
    step = math.ulp(x)
    while not accepts(x):
        if x >= cap:
            return None
        x = min(x + step, cap)
        step *= 2
    return x


def min_feasible_frequency(local: Sequence[Unit], caps: DeviceCaps) -> float | None:
    """Closed-form f* of the local side, nudged until `local_sequence` accepts
    it; min(F_MIN_FLOOR, f_max) for an empty side, None when even f_max fails."""
    if not local:
        return min(F_MIN_FLOOR, caps.f_max)
    dls = _deadlines(local, caps)
    cum_w = 0.0
    f_star = 0.0
    for u, dl in zip(local, dls):
        cum_w += u.w
        f_star = max(f_star, cum_w / dl)
    return _nudge_up(f_star, caps.f_max, lambda f: _meets(local_sequence(local, f), dls))


def min_feasible_power(
    offloaded: Sequence[Unit], ch: ChannelState, mec: MecCaps, caps: DeviceCaps
) -> float | None:
    """Closed-form p* of the offloaded side, nudged until `mec_pipeline`
    accepts it; 0 for an empty side, None for a zero gain or if p_max fails
    (a zero gain needs an infinite power, which the cap turns into a miss)."""
    if not offloaded:
        return 0.0
    dls = _deadlines(offloaded, caps)
    sent: list[float] = []
    busy: list[float] = []
    r_star = 0.0
    for u, dl in zip(offloaded, dls):
        sent, busy, r = rate_floor_step(sent, busy, u.d, u.w / mec.f_mec, dl)
        r_star = max(r_star, r)
    p_star = power_for_rate(ch, r_star)
    return _nudge_up(p_star, caps.p_max, lambda p: _mec_meets(offloaded, dls, p, ch, mec))


def optimize_user(
    units: Iterable[Unit],
    ch: ChannelState,
    mec: MecCaps,
    caps: DeviceCaps,
    *,
    tune: bool = True,
) -> TunedSolution | None:
    """Least-energy placement for one user, or None when nothing fits.

    The placement tree is searched at (f_max, p_max) by `branch_and_bound`,
    with the best energy scored so far as its incumbent. With `tune`, each
    leaf that survives runs at its smallest feasible clock and power (they
    decouple); without, at (f_max, p_max). Leaves are scored by
    `placement_energy` alone, ties going to fewer offloaded units, then to
    the smaller placement bits; only the winner is evaluated and
    re-validated. The cost cut only drops leaves strictly dearer than the
    incumbent, so the winner is the one an exhaustive scan would pick.
    """
    ordered = order_units(units)
    best = None
    leaves = branch_and_bound(ordered, ch, mec, caps, lambda: best[0][0] if best else math.inf)
    for bits in leaves:
        offloaded, local = split_by_bits(ordered, bits)
        f, p = caps.f_max, caps.p_max
        if tune:
            f = min_feasible_frequency(local, caps)
            p = min_feasible_power(offloaded, ch, mec, caps)
            if f is None or p is None:  # cannot happen for a feasible leaf
                continue
        key = (placement_energy(offloaded, local, f, p, ch, caps), sum(bits), bits)
        if best is None or key < best[0]:
            best = (key, f, p)
    if best is None:
        return None

    (_, _, bits), f, p = best
    asg = Assignment(tuple(u.id for u in ordered), bits)
    result = evaluate(asg, ordered, f, p, ch, mec, caps)
    report = check_constraints(result, ordered, caps)
    if not report.ok:
        raise ConstraintViolationError(
            sorted({v.constraint for v in report.violations}),
            f"point (f={f}, p={p}) failed revalidation: {report.violations}",
        )
    return TunedSolution(assignment=asg, f=f, p=p, energy=result.e_total, schedule=result)
