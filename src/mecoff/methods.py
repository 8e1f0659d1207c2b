"""The five-method comparison ladder, one row of stages per method.

M1  task granularity, least-energy feasible placement at maximum clock and
    power, no tuning.
M2  M1 plus clock/power tuning per placement.
M3  M2 at unit granularity (tasks split before the search).
M4  M3 plus time-domain frame filtering to shrink the workload.
M5  M4 plus task-domain dedup and shared-source merging.

Every row ends in the same leaf scorer, `optimize_user`. A user whose
placement tree yields no feasible leaf fails at decision time: all of its
tasks are recorded as failed at zero energy.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .correlation import dedup, fold_units, merge_shared_source
from .errors import InvalidParameterError
from .model import Unit
from .scenario import Scenario, UserScenario
# Not called here, but bench/layers.py traces these names at this binding.
from .correlation import filter_multi, filter_single  # noqa: F401
from .schedule import evaluate  # noqa: F401
from .tune import enumerate_feasible  # noqa: F401
from .tune import TunedSolution, optimize_user


@dataclass(frozen=True)
class Method:
    """The stages of one method, applied in field order."""

    time_filter: bool  # scale units by their task's kept frame fraction
    atomic: bool  # collapse each task to one unit
    reduce: bool  # dedup identical units, merge shared-source units
    tune: bool  # tune each leaf's clock and power instead of using the maxima


LADDER = {
    "M1": Method(time_filter=False, atomic=True, reduce=False, tune=False),
    "M2": Method(time_filter=False, atomic=True, reduce=False, tune=True),
    "M3": Method(time_filter=False, atomic=False, reduce=False, tune=True),
    "M4": Method(time_filter=True, atomic=False, reduce=False, tune=True),
    "M5": Method(time_filter=True, atomic=False, reduce=True, tune=True),
}
METHOD_IDS = tuple(LADDER)


@dataclass(frozen=True)
class MethodResult:
    """Per-user outcome of one method run.

    Failed tasks contribute zero energy; `ts` is the achieved makespan (0
    when the user failed outright and nothing ran).
    """

    energy: float
    failed_tasks: int
    total_tasks: int
    ts: float
    solution: TunedSolution | None


def _atomic_tasks(units: tuple[Unit, ...]) -> tuple[Unit, ...]:
    """Collapse each task to a single unit: summed bits and cycles, the
    tightest member deadline, the smallest member id. type/source ids are
    synthetic negatives so atoms never correlate."""
    return tuple(
        replace(atom, type_id=-1 - atom.task_id, source_id=-1 - atom.task_id)
        for atom, _ in fold_units(units, lambda u: (u.user, u.task_id), sum, sum)
    )


def _time_filtered(user: UserScenario) -> tuple[Unit, ...]:
    """The user's units, each scaled by its task's kept fraction: the mean
    of its frames' kept fractions, taken as `generate` drew the frames."""
    scale = {task: sum(kept) / len(kept) for task, kept in user.kept.items()}
    return tuple(replace(u, d=u.d * scale[u.task_id], w=u.w * scale[u.task_id]) for u in user.units)


def run_method(method_id: str, scenario: Scenario, user_index: int) -> MethodResult:
    """Run one method for one user of a scenario."""
    method = LADDER.get(method_id)
    if method is None:
        raise InvalidParameterError(f"unknown method {method_id!r}, expected one of {METHOD_IDS}")
    user = scenario.users[user_index]
    total_tasks = user.n_tasks

    work = user.units
    if method.time_filter:
        work = _time_filtered(user)
    if method.atomic:
        work = _atomic_tasks(work)
    if method.reduce:
        work, _ = dedup(work)
        work, _ = merge_shared_source(work)
    solution = optimize_user(work, user.channel, scenario.mec, scenario.caps, tune=method.tune)
    return MethodResult(
        energy=solution.energy if solution else 0.0,
        failed_tasks=0 if solution else total_tasks,
        total_tasks=total_tasks,
        ts=solution.schedule.ts if solution else 0.0,
        solution=solution,
    )
