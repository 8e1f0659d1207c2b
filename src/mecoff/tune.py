"""Per-placement resource tuning and the overall user optimization.

For a fixed placement the two knobs decouple: the clock only moves local
completion times and the transmit power only moves the offload pipeline,
so the least-energy feasible point is (smallest feasible f, smallest
feasible p). CPU energy grows as f^2 and transmission energy grows
strictly with p (ln(1+x) > x/(1+x)), hence "smallest feasible" is also
"cheapest". Both minima have closed forms, with the last unit's deadline
capped by the user deadline. Over the local units, with W_i the cycles up
to unit i, f* = max_i W_i / dl_i. The pipeline finishes offloaded unit j
at max_{i<=j} (D_i/r + C_ij), D_i the bits sent up to unit i and C_ij the
server time of units i..j, so r* = max_{i<=j} D_i / (dl_j - C_ij) and
p* = expm1(r* ln2 / bw) / gain. Each is then raised in doubling steps (1,
2, 4, ... ulps, never past the cap) until `local_sequence` /
`mec_pipeline` accept it, so the point passes `check_constraints` exactly.
The user-level optimum is the cheapest member of the feasible placement
set, each member scored at its tuned point or, untuned, at the maxima.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .allocate import enumerate_feasible, order_units
from .errors import InvalidParameterError
from .model import ChannelState, DeviceCaps, MecCaps, Unit, snr, uplink_rate
from .schedule import (
    Assignment,
    ScheduleResult,
    assignment_from_bits,
    check_constraints,
    evaluate,
    local_sequence,
    mec_pipeline,
)

# Clock returned when nothing runs locally; local energy is zero regardless.
F_MIN_FLOOR = 1e6


@dataclass(frozen=True)
class TunedSolution:
    """A placement together with its tuned clock, power and resulting cost."""

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


def _split_units(
    assignment: Assignment, units: Iterable[Unit]
) -> tuple[list[Unit], list[Unit]]:
    by_id = {u.id: u for u in units}
    local = [by_id[i] for i in assignment.local_ids()]
    offloaded = [by_id[i] for i in assignment.mec_ids()]
    return local, offloaded


def _deadlines(side: Sequence[Unit], t_user: float) -> list[float]:
    """Per-unit deadlines of one side, the last one capped by the user's."""
    dls = [u.deadline for u in side]
    dls[-1] = min(dls[-1], t_user)
    return dls


def _meets(done: Sequence[float], dls: Sequence[float]) -> bool:
    return all(t <= dl for t, dl in zip(done, dls))


def _mec_meets(
    offloaded: Sequence[Unit], p: float, ch: ChannelState, mec: MecCaps, t_user: float
) -> bool:
    """Whether the offloaded side meets every deadline at power p."""
    if not offloaded:
        return True
    rate = uplink_rate(ch, snr(p, ch)) if p > 0 else 0.0
    if rate <= 0:
        return False
    return _meets(mec_pipeline(offloaded, rate, mec).lt, _deadlines(offloaded, t_user))


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


def min_feasible_frequency(
    assignment: Assignment,
    units: Iterable[Unit],
    ch: ChannelState,
    mec: MecCaps,
    caps: DeviceCaps,
    p: float,
) -> float | None:
    """Smallest clock in (0, f_max] keeping the placement feasible at power p.

    Returns F_MIN_FLOOR when nothing runs locally and None when even f_max
    fails or the offloaded side misses a deadline at power p.
    """
    local, offloaded = _split_units(assignment, units)
    t_user = caps.user_deadline
    if not _mec_meets(offloaded, p, ch, mec, t_user):
        return None  # no clock can repair the offloaded side
    if not local:
        return F_MIN_FLOOR

    dls = _deadlines(local, t_user)
    cum_w = 0.0
    f_star = 0.0
    for u, dl in zip(local, dls):
        cum_w += u.w
        f_star = max(f_star, cum_w / dl)
    return _nudge_up(f_star, caps.f_max, lambda f: _meets(local_sequence(local, f).lt, dls))


def min_feasible_power(
    assignment: Assignment,
    units: Iterable[Unit],
    ch: ChannelState,
    mec: MecCaps,
    caps: DeviceCaps,
    f: float,
) -> float | None:
    """Smallest power in (0, p_max] keeping the placement feasible at clock f.

    Returns 0 when nothing is offloaded and None when even p_max fails
    (including a zero channel gain) or the local side misses a deadline at
    clock f.
    """
    local, offloaded = _split_units(assignment, units)
    if not offloaded:
        return 0.0
    t_user = caps.user_deadline
    if local and not _meets(local_sequence(local, f).lt, _deadlines(local, t_user)):
        return None  # no power can repair the local side
    gain = snr(1.0, ch)
    if gain == 0:
        return None

    dls = _deadlines(offloaded, t_user)
    server = [u.w / mec.f_mec for u in offloaded]
    r_star = 0.0
    d_sent = 0.0
    for i, u in enumerate(offloaded):
        d_sent += u.d
        busy = 0.0
        for j in range(i, len(offloaded)):
            busy += server[j]
            slack = dls[j] - busy
            r_star = max(r_star, d_sent / slack if slack > 0 else math.inf)
    x = r_star * math.log(2.0) / ch.bw
    p_star = math.expm1(x) / gain if x < 709.0 else math.inf  # expm1 overflows past ~709.78
    return _nudge_up(p_star, caps.p_max, lambda p: _mec_meets(offloaded, p, ch, mec, t_user))


def optimize_user(
    units: Iterable[Unit],
    ch: ChannelState,
    mec: MecCaps,
    caps: DeviceCaps,
    *,
    tune: bool = True,
) -> TunedSolution | None:
    """Least-energy placement for one user, or None when nothing fits.

    The feasible set is built at (f_max, p_max). With `tune`, each member is
    tuned clock-first (at p_max) then power (at the tuned clock); without,
    it runs at (f_max, p_max). Every member is then re-validated and
    scored. Ties prefer fewer offloaded units, then the lexicographically
    smaller placement bits.
    """
    units = tuple(units)
    feasible_set = enumerate_feasible(order_units(units), caps.f_max, caps.p_max, ch, mec, caps)

    best_key: tuple | None = None
    best: TunedSolution | None = None
    for bits in feasible_set.bits:
        asg = assignment_from_bits(feasible_set.order, bits)
        f, p = caps.f_max, caps.p_max
        if tune:
            f = min_feasible_frequency(asg, units, ch, mec, caps, p=p)
            p = None if f is None else min_feasible_power(asg, units, ch, mec, caps, f=f)
            if p is None:  # cannot happen for members of the feasible set
                continue
        result = evaluate(asg, units, f, p, ch, mec, caps)
        report = check_constraints(result, units, caps)
        if not report.ok:
            raise RuntimeError(f"point (f={f}, p={p}) failed revalidation: {report.violations}")
        key = (result.e_total, sum(bits), bits)
        if best_key is None or key < best_key:
            best_key = key
            best = TunedSolution(assignment=asg, f=f, p=p, energy=result.e_total, schedule=result)
    return best
