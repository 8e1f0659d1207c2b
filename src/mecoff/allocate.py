"""Placement search over the binary decision tree, as a branch-and-bound.

Units are ordered by deadline and decided one per tree level: branch 1
offloads the unit, branch 0 keeps it local. Each node carries the running
pipeline state at the device caps (f_max, p_max), so extending a node costs
O(1); a branch is dropped as soon as the newly decided unit misses its own
deadline. Deadline pruning is exact because completion times are monotone in
the prefix decisions: later choices can never repair an already-late unit.

Each node also carries the closed-form floors of its decided prefix: the
clock f_lb = max W_i / min(dl_i, T_user) over its local units (W_i the cycles
up to unit i) and the rate r_lb = max D_i / (min(dl_j, T_user) - C_ij) over
its offloaded units (D_i the bits sent up to unit i, C_ij the server time of
units i..j), with p_lb the power of r_lb. f* and p* never fall as units are
added and p / r(p) rises with p, so the prefix energy kappa·W·f_lb² +
p_lb·D / r(p_lb) is a lower bound on the energy of every completion, at its
minimum clock and power or at the caps (which are no lower). Given
the energy of the best leaf found so far, a node whose bound exceeds it by
more than PRUNE_MARGIN (relative) is dropped with its subtree. The margin
covers float rounding: the floors come from the same float operations as
the leaf tuner's closed forms, so they never exceed a leaf's clock and
power (even where a floor's own rounding, from the cancellation in
dl - C_ij, reaches ~1e-12), and the bound and a leaf's energy each stay
within 1e-13 (relative) of the exact energy at their float clock and power
for MAX_TREE_DEPTH units, so no leaf that could tie or beat the incumbent
is ever dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from .errors import InvalidParameterError
from .model import ChannelState, DeviceCaps, MecCaps, Unit, power_for_rate, snr, uplink_rate

MAX_TREE_DEPTH = 24  # 2^24 leaves; hard stop against accidental blow-ups
PRUNE_MARGIN = 1e-9  # relative; prune only bounds above incumbent * (1 + margin)


def order_units(units: Iterable[Unit]) -> tuple[Unit, ...]:
    """Deadline-ascending processing order; ties broken by unit id."""
    return tuple(sorted(units, key=lambda u: (u.deadline, u.id)))


@dataclass(frozen=True)
class FeasibleSet:
    """All placements of `order` that survive every deadline check.

    `bits` holds one tuple per survivor (1 = offloaded), in discovery order:
    depth-first with the offload branch explored before the local branch.
    """

    order: tuple[int, ...]
    bits: tuple[tuple[int, ...], ...]

    def __len__(self) -> int:
        return len(self.bits)


def rate_floor_step(
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
    between leaves. The bound is taken at the prefix floors (f_lb, p_lb),
    capped by (f_max, p_max): no leaf's energy is lower, at its minimum
    clock and power or at the caps. Without an incumbent nothing is cut on
    cost. The depth is checked on the first `next`.
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
    dl = [u.deadline for u in units]
    t_user = caps.user_deadline
    dl_cap = [min(d, t_user) for d in dl]
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
            if max(lt_m, lt_l) <= t_user:
                yield bits
            continue
        u = units[depth]
        # push local first so the offload branch is explored first
        new_l = lt_l + tl[depth]
        if new_l <= dl[depth]:
            w = w_loc + u.w
            f_new = max(f_lb, w / dl_cap[depth])
            stack.append((depth + 1, bits + (0,), fin_tx, lt_m, new_l,
                          w, f_new, local_floor(w, f_new), sent, busy, r_lb, e_off))
        new_tx = fin_tx + tx[depth]
        new_m = max(new_tx, lt_m) + tm[depth]
        if new_m <= dl[depth]:
            sent_new, busy_new, r_j = rate_floor_step(sent, busy, u.d, tm[depth], dl_cap[depth])
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
