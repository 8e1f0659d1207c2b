"""Placement search over the binary decision tree.

Units are ordered by deadline and decided one per tree level: branch 1
offloads the unit, branch 0 keeps it local. Each node carries the running
pipeline state, so extending a node costs O(1); a branch is dropped as
soon as the newly decided unit misses its own deadline. Pruning is exact
because completion times are monotone in the prefix decisions: later
choices can never repair an already-late unit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import ConstraintViolationError, InvalidParameterError
from .model import ChannelState, DeviceCaps, MecCaps, Unit, snr, uplink_rate

MAX_TREE_DEPTH = 24  # 2^24 leaves; hard stop against accidental blow-ups


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


def enumerate_feasible(
    ordered_units: Sequence[Unit],
    f: float,
    p: float,
    ch: ChannelState,
    mec: MecCaps,
    caps: DeviceCaps,
) -> FeasibleSet:
    """Depth-first expansion of the placement tree with per-level pruning.

    Returns exactly the subset of all 2^K placements whose units all meet
    their own deadlines and whose makespan meets the user deadline, at the
    given clock and power.
    """
    units = list(ordered_units)
    k = len(units)
    if k > MAX_TREE_DEPTH:
        raise InvalidParameterError(
            f"refusing to enumerate {k} units (> {MAX_TREE_DEPTH}); "
            "reduce the unit count or split the user"
        )
    if f <= 0:
        raise InvalidParameterError(f"need a positive clock, got {f}")
    if f > caps.f_max:
        raise ConstraintViolationError(["C4"], f"f={f} exceeds f_max={caps.f_max}")
    if p > caps.p_max:
        raise ConstraintViolationError(["C5"], f"p={p} exceeds p_max={caps.p_max}")
    order = tuple(u.id for u in units)
    if not units:
        return FeasibleSet(order=(), bits=((),))

    rate = uplink_rate(ch, snr(p, ch)) if p > 0 else 0.0
    tx = [u.d / rate if rate > 0 else math.inf for u in units]
    tm = [u.w / mec.f_mec for u in units]
    tl = [u.w / f for u in units]
    dl = [u.deadline for u in units]
    t_user = caps.user_deadline

    survivors: list[tuple[int, ...]] = []
    # node = (depth, bits, uplink finish, last offloaded completion, last local completion)
    stack: list[tuple[int, tuple[int, ...], float, float, float]] = [(0, (), 0.0, 0.0, 0.0)]
    while stack:
        depth, bits, fin_tx, lt_m, lt_l = stack.pop()
        if depth == k:
            if max(lt_m, lt_l) <= t_user:
                survivors.append(bits)
            continue
        # push local first so the offload branch is explored first
        new_l = lt_l + tl[depth]
        if new_l <= dl[depth]:
            stack.append((depth + 1, bits + (0,), fin_tx, lt_m, new_l))
        new_tx = fin_tx + tx[depth]
        new_m = max(new_tx, lt_m) + tm[depth]
        if new_m <= dl[depth]:
            stack.append((depth + 1, bits + (1,), new_tx, new_m, lt_l))
    return FeasibleSet(order=order, bits=tuple(survivors))

