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
The scenario reference is the plain form of `generate`: the planted unit
as a tagged (kind, unit) pair, each unit's cycles from a closure, and each
task's frames stored whole and then filtered by `reference_filter`.
`tx_energy_total` is the transmit energy in its log_eta(2) form, against
which the p·d/r of `placement_energy` is checked, and `load_rows` parses a
results.csv back into rows.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import deque
from dataclasses import fields, replace
from pathlib import Path
from typing import Iterable

import numpy as np

from mecoff.correlation import FilterAction, FilterDecision
from mecoff.errors import ConfigError, DegenerateSignalError, InvalidParameterError
from mecoff.harness import CSV_HEADER, SweepRow
from mecoff.model import ChannelState, DeviceCaps, MecCaps, Unit, snr, uplink_rate
from mecoff.scenario import _TYPE_PARSERS, Scenario, ScenarioConfig, UserScenario, noise_density
from mecoff.schedule import Assignment, check_constraints, evaluate
from mecoff.tune import (
    F_MIN_FLOOR,
    enumerate_feasible,
    min_feasible_frequency,
    min_feasible_power,
    order_units,
)

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
    """Smallest clock at which the placement passes at power p, by bisection:
    on an all-local placement, the counterpart of
    mecoff.tune.min_feasible_frequency."""
    units = tuple(units)
    if all(assignment.bits):
        feasible = _accepted(assignment, units, caps.f_max, p, ch, mec, caps)
        return min(F_MIN_FLOOR, caps.f_max) if feasible else None
    return _bisect(
        lambda f: _accepted(assignment, units, f, p, ch, mec, caps), caps.f_max, _ABS_F
    )


def bisect_min_power(assignment, units, ch, mec, caps, f):
    """Smallest power at which the placement passes at clock f, by bisection:
    on an all-offloaded placement, the counterpart of
    mecoff.tune.min_feasible_power."""
    units = tuple(units)
    if not any(assignment.bits):
        return 0.0
    return _bisect(
        lambda p: _accepted(assignment, units, f, p, ch, mec, caps), caps.p_max, _ABS_P
    )


def exhaustive_best(units, ch, mec, caps, *, tune=True):
    """Counterpart of mecoff.tune.optimize_user that takes no shortcut.

    Every member of the feasible set is built as an Assignment, tuned through
    min_feasible_frequency on its local side and min_feasible_power on its
    offloaded side, or left at (f_max, p_max) without `tune`, then evaluated
    and revalidated as a whole.
    Returns (bits, f, p, energy) of the least (energy, popcount, bits) key,
    or None when no member has a point.
    """
    units = tuple(units)
    fs = enumerate_feasible(order_units(units), ch, mec, caps)
    best_key = None
    best = None
    for bits in fs.bits:
        asg = Assignment(fs.order, bits)
        f, p = caps.f_max, caps.p_max
        if tune:
            offloaded, local = asg.split(units)
            f = min_feasible_frequency(local, caps)
            p = min_feasible_power(offloaded, ch, mec, caps)
            if f is None or p is None:
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
    calls in the same order as the draw loop of mecoff.scenario.synthesize_frames."""
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
        rho = float(rng.uniform(rho_lo, rho_hi + 0.0))  # -0.0 + 0.0 is 0.0
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
    """The running-reference filter of mecoff.correlation over the rows of a
    frame array (row i is epoch i), calling `reference_pearson` on the raw
    rows of every (reference, frame) pair; beta = alpha gives the
    single-threshold policy."""
    rows = np.asarray(frames, dtype=float)
    out = []
    ref = None
    for epoch, row in enumerate(rows):
        r = -np.inf
        if ref is not None:
            try:
                r = reference_pearson(rows[ref], row)
            except DegenerateSignalError:
                pass
        ref_epoch = epoch if ref is None else ref
        if r > alpha:
            out.append(FilterDecision(epoch, FilterAction.SKIP, 0.0, ref_epoch))
            continue
        if r > beta:
            out.append(FilterDecision(epoch, FilterAction.PROCESS_DIFF, 1.0 - r, ref_epoch))
        else:
            out.append(FilterDecision(epoch, FilterAction.PROCESS_FULL, 1.0, ref_epoch))
        ref = epoch
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


def _reference_channel(rng, target_snr_db, bw, p_max):
    """Counterpart of mecoff.scenario.sample_channel."""
    h = float(rng.rayleigh(scale=np.sqrt(0.5)))
    return ChannelState(h=h, bw=bw, n0=noise_density(target_snr_db, bw, p_max))


def _reference_split_size(rng: np.random.Generator, total: int, n: int) -> list[int]:
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


def reference_generate(
    config: ScenarioConfig,
    snr_db: float | None = None,
    seed=None,
) -> Scenario:
    """Draw one scenario. snr_db defaults to the first configured setpoint,
    seed to config.seed; seed may be an int or a numpy SeedSequence.

    Counterpart of mecoff.scenario.generate: its straightforward form, with
    the plant as a tagged (kind, unit) pair and cycles from a closure.
    """
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

    users: list[UserScenario] = []
    for user in range(config.n_users):
        channel = _reference_channel(rng, snr_db, config.bw, config.p_max)
        n_tasks = int(rng.integers(config.tasks_per_user[0], config.tasks_per_user[1] + 1))
        units: list[Unit] = []
        frames: dict[int, np.ndarray] = {}
        kept: dict[int, tuple[float, ...]] = {}
        uid = 0
        next_type = 0
        next_source = 0
        for task in range(n_tasks):
            size = int(rng.integers(int(config.task_size[0]), int(config.task_size[1]) + 1))
            deadline = float(config.deadlines[int(rng.integers(len(config.deadlines)))])
            n_units = int(
                rng.integers(config.units_per_task[0], config.units_per_task[1] + 1)
            )
            if config.cycle_model == "per_bit":
                density = float(rng.uniform(*config.cycle_density))
                cycles_of = lambda d: d * density
            else:
                total_cycles = float(rng.uniform(*config.cycle_density))
                cycles_of = lambda d: total_cycles * d / size

            # optionally tie this task's first unit to an earlier unit;
            # needs >= 2 units so the drawn task size is still met exactly
            plant: tuple[str, Unit] | None = None
            if units and n_units >= 2:
                roll = float(rng.random())
                if roll < config.dup_unit_fraction:
                    plant = ("dup", units[int(rng.integers(len(units)))])
                elif roll < config.dup_unit_fraction + config.shared_source_fraction:
                    plant = ("shared", units[int(rng.integers(len(units)))])
                if plant is not None and plant[1].d > size - (n_units - 1):
                    plant = None  # the copied unit would not fit in this task

            if plant is not None:
                rest = (
                    _reference_split_size(rng, size - int(plant[1].d), n_units - 1)
                    if n_units > 1 else []
                )
                sizes = [int(plant[1].d)] + rest
            else:
                sizes = _reference_split_size(rng, size, n_units)

            for j, d_j in enumerate(sizes):
                if j == 0 and plant is not None:
                    kind, ref = plant
                    if kind == "dup":
                        type_id, source_id, w_j = ref.type_id, ref.source_id, ref.w
                    else:  # shared source, own computation
                        type_id, source_id, w_j = next_type, ref.source_id, cycles_of(d_j)
                        next_type += 1
                else:
                    type_id, source_id, w_j = next_type, next_source, cycles_of(d_j)
                    next_type += 1
                    next_source += 1
                units.append(
                    Unit(
                        id=uid,
                        user=user,
                        task_id=task,
                        type_id=type_id,
                        source_id=source_id,
                        d=float(d_j),
                        w=float(w_j),
                        deadline=deadline,
                    )
                )
                uid += 1

            data, _ = reference_synthesize_frames(
                rng, config.frames_per_task, config.frame_len, *config.frame_rho
            )
            frames[task] = np.array(data)
            beta = config.beta if config.filter_mode == "multi" else config.alpha
            kept[task] = tuple(
                d.kept_fraction for d in reference_filter(frames[task], config.alpha, beta)
            )
        users.append(
            UserScenario(units=tuple(units), frames=frames, kept=kept, channel=channel,
                         n_tasks=n_tasks)
        )
    return Scenario(config=config, snr_db=float(snr_db), users=tuple(users), caps=caps, mec=mec)


def tx_energy_total(d_total: float, p: float, ch: ChannelState) -> float:
    """Energy to push d_total bits at power p: (D/bw) * p * log_eta(2)
    with eta = 1 + snr(p), through log1p as in `uplink_rate`. Algebraically
    identical to p * D / rate(p).
    """
    if p <= 0:
        raise InvalidParameterError(f"transmit power must be positive, got {p}")
    return (d_total / ch.bw) * p * (math.log(2.0) / math.log1p(snr(p, ch)))


def load_rows(path: str | Path) -> list[SweepRow]:
    """Parse a results.csv written by emit (round-trips exactly)."""
    row_fields = fields(SweepRow)
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ConfigError(f"{path}: not a sweep results file")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != len(row_fields):
            raise ConfigError(f"{path}:{lineno}: expected {len(row_fields)} fields, got {line!r}")
        rows.append(SweepRow(*(_TYPE_PARSERS[f.type](c) for f, c in zip(row_fields, cells))))
    return rows
