"""The binary placement tree: which units are sent, at what clock and power.

For a fixed placement the two knobs decouple: the clock only moves local
completion times and the transmit power only moves the offload pipeline.
CPU energy grows as f^2 and transmission energy strictly with p
(ln(1+x) > x/(1+x)), so the cheapest point is the smallest feasible
(f, p). Both have closed forms, with every deadline capped by the user
deadline. With W_i the cycles up to local unit i, f* = max_i W_i / dl_i.
The pipeline finishes offloaded unit j at max_{i<=j} (D_i/r + C_ij), D_i
the bits sent up to unit i and C_ij the server time of units i..j, so
r* = max_{i<=j} D_i / (dl_j - C_ij) (`_rate_floor_step`) and
p* = expm1(r* ln2 / bw) / gain. `min_feasible_frequency` and
`min_feasible_power` raise each in doubling steps (1, 2, 4, ... ulps, never
past the cap) until `local_sequence` / `mec_pipeline` accept it, so the
point passes `check_constraints` exactly.

Units are processed in one fixed order, by deadline (ties by id,
`order_units`); the order is never searched. A two-stage FIFO pipeline is
not always cheapest in deadline order, so loosening one unit's deadline can
move it later in the order and raise the user's optimum.

`branch_and_bound` decides the deadline-ordered units one per tree level
(branch 1 offloads, branch 0 keeps local), carrying the pipeline state at
the caps (f_max, p_max) so that extending a node costs O(1). A branch whose
new unit misses its deadline, capped by the user deadline, is dropped at
that unit. Completion times never fall along a side, so this one test also
carries the makespan constraint C3, and the cut is exact. A node also
carries f_lb and r_lb, the closed forms over its decided prefix, with p_lb
the power of r_lb. f* and p* never fall as units are added and p / r(p)
rises with p, so the prefix energy kappa·W·f_lb² + p_lb·D / r(p_lb) bounds
from below every completion, at its minimum clock and power or at the caps
(which are no lower).

`optimize_user` passes the best leaf energy scored so far as the incumbent;
a node whose bound exceeds it by more than PRUNE_MARGIN (relative) is
dropped with its subtree. The floors come from the same float operations
as the closed forms, so they never exceed a leaf's clock and power (even
where a floor's own rounding, from the cancellation in dl - C_ij, reaches
~1e-12), and the bound and a leaf's energy each stay within 1e-13
(relative) of the exact energy at their float clock and power for
MAX_TREE_DEPTH units. So no leaf that could tie or beat the incumbent is
dropped, and the winner, its point and its energy are those of an
exhaustive scan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

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

MAX_TREE_DEPTH = 24  # 2^24 leaves; hard stop against accidental blow-ups
PRUNE_MARGIN = 1e-9  # relative; prune only bounds above incumbent * (1 + margin)
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


@dataclass(frozen=True)
class FeasibleSet:
    """All placements of `order` that survive every deadline check.

    `bits` holds one tuple per survivor (1 = offloaded), in discovery order:
    depth-first with the offload branch explored before the local branch.
    """

    order: tuple[int, ...]
    bits: tuple[tuple[int, ...], ...]


def order_units(units: Iterable[Unit]) -> tuple[Unit, ...]:
    """Deadline-ascending processing order; ties broken by unit id."""
    return tuple(sorted(units, key=lambda u: (u.deadline, u.id)))


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


def _rate_floor_step(
    sent: list[float], busy: list[float], d: float, server: float, dl: float
) -> tuple[list[float], list[float], float]:
    """Append one unit to an offloaded side's r* recurrence.

    `sent[i]` holds the bits sent up to offloaded unit i and `busy[i]` the
    server time of units i..last. Returns new lists extended by the unit
    (the inputs stay as they are, for the sibling branch) and the largest
    new term D_i / (dl - C_ij), inf where the slack is gone. Lists, not
    tuples: tuples of every length up to K would fill the interpreter's
    per-length tuple free lists, which stay resident after the search.
    """
    busy = [b + server for b in busy]
    busy.append(server)
    sent = [*sent, (sent[-1] if sent else 0.0) + d]
    r = 0.0
    for d_i, c_ij in zip(sent, busy):
        slack = dl - c_ij
        r = max(r, d_i / slack if slack > 0 else math.inf)
    return sent, busy, r


def min_feasible_frequency(local: Sequence[Unit], caps: DeviceCaps) -> float | None:
    """Closed-form f* of the local side, nudged until `local_sequence` accepts
    it; min(F_MIN_FLOOR, f_max) for an empty side, None when even f_max fails."""
    if not local:
        return min(F_MIN_FLOOR, caps.f_max)
    dls = _deadlines(local, caps)
    cum_w = 0.0
    f_star = math.ulp(0.0)  # not 0.0: W/dl can underflow, and no clock is 0
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
        sent, busy, r = _rate_floor_step(sent, busy, u.d, u.w / mec.f_mec, dl)
        r_star = max(r_star, r)
    p_star = power_for_rate(ch, r_star)
    return _nudge_up(p_star, caps.p_max, lambda p: _mec_meets(offloaded, dls, p, ch, mec))


def branch_and_bound(
    ordered_units: Sequence[Unit],
    ch: ChannelState,
    mec: MecCaps,
    caps: DeviceCaps,
    incumbent: Callable[[], float] | None = None,
) -> Iterator[tuple[int, ...]]:
    """Yield the bits of every placement that meets all deadlines at
    (f_max, p_max), depth-first with the offload branch first, except those
    cut on cost.

    `incumbent` returns the energy of the best leaf the caller has scored so
    far; it is read before each node is expanded, so the caller may lower it
    between leaves. The bound is the prefix energy at (f_lb, p_lb), capped
    by (f_max, p_max). Without an incumbent nothing is cut on cost. The
    depth is checked on the first `next`.
    """
    units = list(ordered_units)
    k = len(units)
    if k > MAX_TREE_DEPTH:
        raise InvalidParameterError(
            f"refusing to enumerate {k} units (> {MAX_TREE_DEPTH}); "
            "reduce the unit count or split the user"
        )
    if not units:
        yield ()
        return

    f, p = caps.f_max, caps.p_max
    rate = uplink_rate(ch, snr(p, ch))
    tx = [u.d / rate if rate > 0 else math.inf for u in units]
    tm = [u.w / mec.f_mec for u in units]
    tl = [u.w / f for u in units]
    dl_cap = _deadlines(units, caps)
    kappa = caps.kappa

    def local_floor(w_loc: float, f_lb: float) -> float:
        f_b = min(f_lb, f)
        return kappa * w_loc * f_b * f_b

    def offload_floor(sent: list[float], r_lb: float) -> float:
        p_b = min(power_for_rate(ch, r_lb), p)
        rate_b = uplink_rate(ch, snr(p_b, ch))
        return p_b * sent[-1] / rate_b if rate_b > 0 else 0.0

    # node = (depth, bits, uplink finish, last offloaded completion, last local
    #         completion, local cycles, f_lb, local floor, sent, busy, r_lb,
    #         offloaded floor); the two floors add up to the node's bound
    stack = [(0, (), 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, [], [], 0.0, 0.0)]
    while stack:
        depth, bits, fin_tx, lt_m, lt_l, w_loc, f_lb, e_loc, sent, busy, r_lb, e_off = stack.pop()
        if incumbent is not None and e_loc + e_off > incumbent() * (1.0 + PRUNE_MARGIN):
            continue
        if depth == k:
            yield bits
            continue
        u = units[depth]
        # push local first so the offload branch is explored first
        new_l = lt_l + tl[depth]
        if new_l <= dl_cap[depth]:
            w = w_loc + u.w
            f_new = max(f_lb, w / dl_cap[depth])
            stack.append((depth + 1, bits + (0,), fin_tx, lt_m, new_l,
                          w, f_new, local_floor(w, f_new), sent, busy, r_lb, e_off))
        new_tx = fin_tx + tx[depth]
        new_m = max(new_tx, lt_m) + tm[depth]
        if new_m <= dl_cap[depth]:
            sent_new, busy_new, r_j = _rate_floor_step(sent, busy, u.d, tm[depth], dl_cap[depth])
            r_new = max(r_lb, r_j)
            stack.append((depth + 1, bits + (1,), new_tx, new_m, lt_l,
                          w_loc, f_lb, e_loc, sent_new, busy_new, r_new, offload_floor(sent_new, r_new)))


def enumerate_feasible(
    ordered_units: Sequence[Unit], ch: ChannelState, mec: MecCaps, caps: DeviceCaps
) -> FeasibleSet:
    """Every placement whose units all meet their own deadlines and whose
    makespan meets the user deadline at (f_max, p_max): `branch_and_bound`
    with no incumbent, so nothing is cut on cost."""
    leaves = tuple(branch_and_bound(ordered_units, ch, mec, caps))
    return FeasibleSet(order=tuple(u.id for u in ordered_units), bits=leaves)


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
    re-validated.
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
