"""Independent reference implementations used to cross-check the library.

These deliberately avoid the recurrence/search code paths they validate:
the pipeline oracle is an event-driven simulation, the allocator oracle is
plain exhaustive filtering, the tuner oracle is a dense grid search, the
clock/power minimizers are bisections on the evaluate/check_constraints
verdict instead of closed forms, and the leaf scorer oracle builds, tunes,
evaluates and revalidates every feasible leaf through the public API.
The frame references are the straightforward forms of the frame path:
synthesis through `mean`/`norm` temporaries, and a filter that recomputes
a Pearson coefficient, through `mean`, for every (reference, frame) pair.
The task-domain references are the three group-and-fold loops (dedup,
shared-source merge, M1/M2's task atoms), one hand-written loop each.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from dataclasses import replace
from typing import Iterable

import numpy as np

from mecoff.allocate import enumerate_feasible, order_units
from mecoff.correlation import FilterAction, FilterDecision
from mecoff.errors import DegenerateSignalError, InvalidParameterError
from mecoff.model import Unit, snr, uplink_rate
from mecoff.schedule import Assignment, check_constraints, evaluate
from mecoff.tune import F_MIN_FLOOR, min_feasible_frequency, min_feasible_power

# Bisections run to 1e-8 relative width. The absolute floors stop the loop
# when the feasible region extends all the way to zero.
_REL_TOL = 1e-8
_ABS_F = 1e-3
_ABS_P = 1e-15


def des_pipeline(tx_times, comp_times):
    """Event-driven simulation of one transmitter feeding one FIFO server.

    The transmitter sends jobs back to back; a finished upload joins the
    server queue; the server works one job at a time in arrival order.
    Returns each job's service completion time.
    """
    n = len(tx_times)
    if n == 0:
        return []
    done = [0.0] * n
    queue: deque[int] = deque()
    server_busy = False
    events: list[tuple[float, int, str, int]] = []
    counter = itertools.count()
    heapq.heappush(events, (tx_times[0], next(counter), "arrive", 0))
    while events:
        now, _, kind, idx = heapq.heappop(events)
        if kind == "arrive":
            if idx + 1 < n:
                heapq.heappush(events, (now + tx_times[idx + 1], next(counter), "arrive", idx + 1))
            queue.append(idx)
            if not server_busy:
                job = queue.popleft()
                server_busy = True
                heapq.heappush(events, (now + comp_times[job], next(counter), "depart", job))
        else:
            done[idx] = now
            if queue:
                job = queue.popleft()
                heapq.heappush(events, (now + comp_times[job], next(counter), "depart", job))
            else:
                server_busy = False
    return done


def brute_force_feasible(ordered_units, f, p, ch, mec, caps):
    """All placements passing the deadline checks, by exhaustive evaluation;
    offloading over a zero-rate uplink fails them."""
    order = tuple(u.id for u in ordered_units)
    feasible = set()
    for bits in itertools.product((0, 1), repeat=len(order)):
        if _accepted(Assignment(order, bits), ordered_units, f, p, ch, mec, caps):
            feasible.add(bits)
    return feasible


def grid_search_best(units, ch, mec, caps, n_f=200, n_p=200):
    """Exhaustive (placement x clock-grid x power-grid) minimum energy.

    Grids are geometric over (1e-4*f_max, f_max] and (1e-5*p_max, p_max];
    returns the smallest feasible energy found, or None when no grid point
    is feasible for any placement.
    """
    ordered = order_units(units)
    k = len(ordered)
    f_grid = np.geomspace(1e-4 * caps.f_max, caps.f_max, n_f)
    p_grid = np.geomspace(1e-5 * caps.p_max, caps.p_max, n_p)
    gain = ch.h * ch.h / (ch.bw * ch.n0)
    rates = ch.bw * np.log2(1.0 + p_grid * gain)
    t_user = caps.user_deadline
    best = None
    for bits in itertools.product((0, 1), repeat=k):
        local = [u for u, b in zip(ordered, bits) if b == 0]
        mecs = [u for u, b in zip(ordered, bits) if b == 1]

        if local:
            cum_w = np.cumsum([u.w for u in local])
            dl_l = np.array([u.deadline for u in local])
            feas_f = np.all(cum_w[:, None] <= dl_l[:, None] * f_grid[None, :], axis=0)
            local_last = cum_w[-1] / f_grid
            e_local = caps.kappa * cum_w[-1] * f_grid**2
        else:
            feas_f = np.ones(n_f, dtype=bool)
            local_last = np.zeros(n_f)
            e_local = np.zeros(n_f)

        if mecs:
            cum_d = np.cumsum([u.d for u in mecs])
            feas_p = rates > 0
            lt = np.zeros(n_p)
            with np.errstate(divide="ignore"):
                for j, u in enumerate(mecs):
                    fin = np.where(rates > 0, cum_d[j] / rates, np.inf)
                    lt = np.maximum(fin, lt) + u.w / mec.f_mec
                    feas_p &= lt <= u.deadline
                mec_last = lt
                e_tx = np.where(rates > 0, p_grid * cum_d[-1] / rates, np.inf)
        else:
            feas_p = np.ones(n_p, dtype=bool)
            mec_last = np.zeros(n_p)
            e_tx = np.zeros(n_p)

        feas = (
            feas_f[:, None]
            & feas_p[None, :]
            & (np.maximum(local_last[:, None], mec_last[None, :]) <= t_user)
        )
        if feas.any():
            energy = e_local[:, None] + e_tx[None, :]
            candidate = float(energy[feas].min())
            if best is None or candidate < best:
                best = candidate
    return best


def _accepted(assignment, units, f, p, ch, mec, caps):
    """Whether the placement passes every deadline check at (f, p)."""
    if any(assignment.bits) and uplink_rate(ch, snr(p, ch)) <= 0:
        return False
    return check_constraints(evaluate(assignment, units, f, p, ch, mec, caps), units, caps).ok


def _bisect(feasible, hi, abs_tol):
    """Smallest feasible point of (0, hi] to bisection width, None if hi fails.

    Feasibility must be monotone: once feasible, feasible for every larger x.
    """
    if not feasible(hi):
        return None
    lo = 0.0
    while hi - lo > _REL_TOL * hi + abs_tol:
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return hi


def bisect_min_frequency(assignment, units, ch, mec, caps, p):
    """Bisection counterpart of mecoff.tune.min_feasible_frequency."""
    units = tuple(units)
    if all(assignment.bits):
        feasible = _accepted(assignment, units, caps.f_max, p, ch, mec, caps)
        return F_MIN_FLOOR if feasible else None
    return _bisect(
        lambda f: _accepted(assignment, units, f, p, ch, mec, caps), caps.f_max, _ABS_F
    )


def bisect_min_power(assignment, units, ch, mec, caps, f):
    """Bisection counterpart of mecoff.tune.min_feasible_power."""
    units = tuple(units)
    if not any(assignment.bits):
        return 0.0
    return _bisect(
        lambda p: _accepted(assignment, units, f, p, ch, mec, caps), caps.p_max, _ABS_P
    )


def exhaustive_best(units, ch, mec, caps, *, tune=True):
    """Counterpart of mecoff.tune.optimize_user that takes no shortcut.

    Every member of the feasible set is built as an Assignment, tuned through
    min_feasible_frequency (at p_max) then min_feasible_power (at that clock),
    or left at (f_max, p_max) without `tune`, then evaluated and revalidated.
    Returns (bits, f, p, energy) of the least (energy, popcount, bits) key,
    or None when no member has a point.
    """
    units = tuple(units)
    fs = enumerate_feasible(order_units(units), caps.f_max, caps.p_max, ch, mec, caps)
    best_key = None
    best = None
    for bits in fs.bits:
        asg = Assignment(fs.order, bits)
        f, p = caps.f_max, caps.p_max
        if tune:
            f = min_feasible_frequency(asg, units, ch, mec, caps, p=p)
            p = None if f is None else min_feasible_power(asg, units, ch, mec, caps, f=f)
            if p is None:
                continue
        result = evaluate(asg, units, f, p, ch, mec, caps)
        report = check_constraints(result, units, caps)
        if not report.ok:
            raise AssertionError(f"leaf {bits} at (f={f}, p={p}) fails {report.violations}")
        key = (result.e_total, sum(bits), bits)
        if best_key is None or key < best_key:
            best_key = key
            best = (bits, f, p, result.e_total)
    return best


def reference_corr_partner(rng, x, rho):
    """A vector whose sample Pearson correlation with x is rho; the same RNG
    calls in the same order as mecoff.scenario._exact_corr_partner."""
    xc = x - x.mean()
    xn = xc / np.linalg.norm(xc)
    for _ in range(16):
        z = rng.standard_normal(len(x))
        zc = z - z.mean()
        zc = zc - (zc @ xn) * xn
        nz = np.linalg.norm(zc)
        if nz > 1e-9:
            zn = zc / nz
            return rho * xn + np.sqrt(max(0.0, 1.0 - rho * rho)) * zn
    raise RuntimeError("could not draw noise independent of the reference frame")


def reference_synthesize_frames(rng, n_frames, length, rho_lo, rho_hi):
    """Counterpart of mecoff.scenario.synthesize_frames."""
    frames = [rng.standard_normal(length)]
    targets = []
    for _ in range(n_frames - 1):
        rho = float(rng.uniform(rho_lo, rho_hi))
        frames.append(reference_corr_partner(rng, frames[-1], rho))
        targets.append(rho)
    return frames, targets


def reference_pearson(x, y):
    """Pearson coefficient of two equal-length 1-D arrays, clamped to [-1, 1],
    centring both on every call through `mean`. Where sx * sy leaves the
    normal range the denominator is sqrt(sx) * sqrt(sy). Raises
    DegenerateSignalError when either input is constant or has zero
    variance."""
    xc = x - x.mean()
    yc = y - y.mean()
    sx = float(xc @ xc)
    sy = float(yc @ yc)
    if x.min() == x.max() or y.min() == y.max() or sx == 0.0 or sy == 0.0:
        raise DegenerateSignalError("zero-variance signal in correlation")
    prod = sx * sy
    if np.finfo(float).tiny <= prod < np.inf:
        den = float(np.sqrt(prod))
    else:
        den = float(np.sqrt(sx)) * float(np.sqrt(sy))
    r = float(xc @ yc) / den
    return max(-1.0, min(1.0, r))


def reference_filter(frames, alpha, beta):
    """The running-reference filter of mecoff.correlation, calling
    `reference_pearson` on the raw data of every (reference, frame) pair;
    beta = alpha gives the single-threshold policy."""
    epochs = [fr.epoch for fr in frames]
    if any(b <= a for a, b in zip(epochs, epochs[1:])):
        raise InvalidParameterError("frames must be ordered by strictly increasing epoch")
    out = []
    ref = None
    for fr in frames:
        r = -np.inf
        if ref is not None:
            try:
                r = reference_pearson(ref.data, fr.data)
            except DegenerateSignalError:
                pass
        ref_epoch = fr.epoch if ref is None else ref.epoch
        if r > alpha:
            out.append(FilterDecision(fr.epoch, FilterAction.SKIP, 0.0, ref_epoch))
            continue
        if r > beta:
            out.append(FilterDecision(fr.epoch, FilterAction.PROCESS_DIFF, 1.0 - r, ref_epoch))
        else:
            out.append(FilterDecision(fr.epoch, FilterAction.PROCESS_FULL, 1.0, ref_epoch))
        ref = fr
    return out


# One hand-written group-and-fold loop per task-domain reduction, so that
# mecoff.correlation.fold_units is not checked against itself.


def reference_dedup(units: Iterable[Unit]) -> tuple[tuple[Unit, ...], dict[int, int]]:
    """Collapse each class of identical units to one representative.

    The lowest-id member survives; its deadline becomes the minimum over the
    class so every sharer's requirement is still honoured, and its (d, w)
    the maximum so the fullest requested variant is computed. The returned
    share map points each removed unit at the representative whose result it
    reuses.
    """
    groups: dict[tuple[int, int, int], list[Unit]] = {}
    for u in sorted(units, key=lambda u: (u.user, u.id)):
        groups.setdefault((u.user, u.type_id, u.source_id), []).append(u)
    kept: list[Unit] = []
    share: dict[int, int] = {}
    for members in groups.values():
        rep = members[0]
        if len(members) > 1:
            rep = replace(
                rep,
                d=max(m.d for m in members),
                w=max(m.w for m in members),
                deadline=min(m.deadline for m in members),
            )
            for m in members[1:]:
                share[m.id] = rep.id
        kept.append(rep)
    kept.sort(key=lambda u: (u.user, u.id))
    return tuple(kept), share


def reference_merge_shared_source(
    units: Iterable[Unit],
) -> tuple[tuple[Unit, ...], dict[int, tuple[int, ...]]]:
    """Fuse units that read the same source into one super-unit.

    Expects dedup to have run already. The super-unit transmits the shared
    input once (d = max over members), computes everything (w = sum) and
    inherits the tightest deadline, so placing it locally costs exactly what
    the members would have cost. The returned map lists the member ids
    folded into each super-unit.
    """
    groups: dict[tuple[int, int], list[Unit]] = {}
    for u in sorted(units, key=lambda u: (u.user, u.id)):
        groups.setdefault((u.user, u.source_id), []).append(u)
    out: list[Unit] = []
    merged: dict[int, tuple[int, ...]] = {}
    for members in groups.values():
        if len(members) == 1:
            out.append(members[0])
            continue
        rep = members[0]
        super_unit = replace(
            rep,
            d=max(m.d for m in members),
            w=sum(m.w for m in members),
            deadline=min(m.deadline for m in members),
        )
        merged[super_unit.id] = tuple(m.id for m in members)
        out.append(super_unit)
    out.sort(key=lambda u: (u.user, u.id))
    return tuple(out), merged


def reference_atomic_tasks(units: tuple[Unit, ...]) -> tuple[Unit, ...]:
    """Collapse each task to a single unit: summed bits and cycles, the
    tightest member deadline, the smallest member id. type/source ids are
    synthetic negatives so atoms never correlate."""
    by_task: dict[int, list[Unit]] = {}
    for u in units:
        by_task.setdefault(u.task_id, []).append(u)
    atoms = []
    for task_id in sorted(by_task):
        members = by_task[task_id]
        atoms.append(
            Unit(
                id=min(m.id for m in members),
                user=members[0].user,
                task_id=task_id,
                type_id=-1 - task_id,
                source_id=-1 - task_id,
                d=sum(m.d for m in members),
                w=sum(m.w for m in members),
                deadline=min(m.deadline for m in members),
            )
        )
    return tuple(atoms)
