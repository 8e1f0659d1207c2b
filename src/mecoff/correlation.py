"""Workload reduction ahead of placement.

Two independent mechanisms:

* time domain -- successive frames of a task's information source are
  compared with the Pearson coefficient against a running reference frame;
  highly correlated updates are skipped or processed partially.
* task domain -- units that are exact copies of each other (same type and
  source) are processed once with the result shared, and distinct units
  reading the same source are merged so the shared input is transmitted
  only once. Both are one group-and-fold, `fold_units`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, Hashable, Iterable, Sequence

import numpy as np

from .errors import DegenerateSignalError, InvalidParameterError
from .model import Unit

_NORMAL_MIN = sys.float_info.min  # least positive normal double


class FilterAction(Enum):
    PROCESS_FULL = "full"
    PROCESS_DIFF = "diff"
    SKIP = "skip"


@dataclass(frozen=True)
class FilterDecision:
    """What to do with one frame, and which earlier frame it was compared to.

    kept_fraction is the share of the frame's data and cycles still worth
    processing: 1 for a full pass, 0 for a skip, in between for a diff.
    epoch and reference_epoch are row indices of the task's frame array;
    the first frame references itself.
    """

    epoch: int
    action: FilterAction
    kept_fraction: float
    reference_epoch: int

    def __post_init__(self):
        kept, action = self.kept_fraction, self.action
        diff = 0.0 < kept < 1.0  # first, so a kept_fraction that does not compare raises TypeError
        if action is FilterAction.SKIP:
            ok = kept == 0.0
        elif action is FilterAction.PROCESS_FULL:
            ok = kept == 1.0
        elif action is FilterAction.PROCESS_DIFF:
            ok = diff
        else:
            raise KeyError(action)
        if not ok:
            raise InvalidParameterError(
                f"kept_fraction {self.kept_fraction} inconsistent with {self.action}"
            )


def _centre(x: np.ndarray, out: np.ndarray | None = None) -> tuple[np.ndarray, float]:
    """(x - mean(x), squared norm of that): one frame's share of a Pearson
    coefficient, the centred copy written into `out` when given. The mean is
    sum/n, the float operations of ndarray.mean. A frame whose finite
    samples are all equal gets a squared norm of exactly 0.

    Raises InvalidParameterError when a sample is not finite or the squared
    norm of a non-constant frame overflows; such a frame has no correlation.
    """
    n = len(x)
    mean = float(np.add.reduce(x) / n)
    xc = np.subtract(x, mean, out=out)
    sx = float(xc @ xc)
    if not sx < math.inf:  # nan or inf: a non-finite sample, or overflow
        if math.isfinite(x[0]) and x.min() == x.max():  # constant, but its sum overflowed
            return np.zeros_like(x), 0.0
        raise InvalidParameterError("correlation of a frame with a non-finite sample or norm")
    # a constant frame whose mean does not round back exactly centres to
    # residues of a few ulps of the mean, not zeros: test any sx that small
    slack = 2.0 * n * sys.float_info.epsilon * mean
    if sx <= max(n * slack * slack, _NORMAL_MIN) and x.min() == x.max():
        sx = 0.0
    return xc, sx


def _pearson_centred(a: tuple[np.ndarray, float], b: tuple[np.ndarray, float]) -> float:
    """Pearson coefficient of two `_centre` results, clamped to [-1, 1].

    Raises DegenerateSignalError when either input has zero variance.
    """
    (xc, sx), (yc, sy) = a, b
    if sx == 0.0 or sy == 0.0:
        raise DegenerateSignalError("zero-variance signal in correlation")
    prod = sx * sy
    if _NORMAL_MIN <= prod < math.inf:
        den = math.sqrt(prod)
    else:  # the product under- or overflowed; the split form does not
        den = math.sqrt(sx) * math.sqrt(sy)
    r = float(xc @ yc) / den
    return max(-1.0, min(1.0, r))


class RunningFilter:
    """The decision loop of both policies, as described in `filter_multi`,
    fed one frame at a time as its `_centre` pair (centred copy, squared
    norm). It keeps its own copy of the running reference's centred row, so
    a producer may reuse its buffers."""

    def __init__(self, alpha: float, beta: float):
        self.alpha, self.beta = alpha, beta
        self.epoch = 0
        self.ref: tuple[np.ndarray, float] | None = None
        self.ref_epoch = 0  # the first frame references itself

    def push(self, xc: np.ndarray, sx: float) -> FilterDecision:
        epoch, self.epoch = self.epoch, self.epoch + 1
        r = -math.inf  # the first frame and degenerate frames are processed fully
        if self.ref is not None:
            try:
                r = _pearson_centred(self.ref, (xc, sx))
            except DegenerateSignalError:
                pass
        if r > self.alpha:
            return FilterDecision(epoch, FilterAction.SKIP, 0.0, self.ref_epoch)
        if r > self.beta:
            decision = FilterDecision(epoch, FilterAction.PROCESS_DIFF, 1.0 - r, self.ref_epoch)
        else:
            decision = FilterDecision(epoch, FilterAction.PROCESS_FULL, 1.0, self.ref_epoch)
        self.ref, self.ref_epoch = (xc.copy(), sx), epoch
        return decision


# `_centre` classifies overflowing and non-finite frames itself, so numpy's
# warnings for them are silenced once per call of the two callers below.
@np.errstate(over="ignore", invalid="ignore")
def pearson(x: Sequence[float], y: Sequence[float]) -> float:
    """Pearson correlation coefficient, clamped to [-1, 1].

    Raises DegenerateSignalError when either input has zero variance and
    InvalidParameterError when either holds a non-finite sample.
    """
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    if xa.ndim != 1 or xa.shape != ya.shape or len(xa) < 2:
        raise InvalidParameterError("pearson needs two equal-length vectors (len >= 2)")
    return _pearson_centred(_centre(xa), _centre(ya))


@np.errstate(over="ignore", invalid="ignore")
def _filter(frames: np.ndarray, alpha: float, beta: float) -> list[FilterDecision]:
    """`RunningFilter` over the rows of a frame array, each centred once."""
    try:
        rows = np.asarray(frames, dtype=float)
    except (TypeError, ValueError) as exc:  # ragged rows, or not numbers at all
        raise InvalidParameterError(f"frames must be numeric rows of equal length: {exc}") from exc
    if rows.shape[:1] == (0,):  # zero frames
        return []
    if rows.ndim != 2 or rows.shape[1] < 2:
        raise InvalidParameterError("frames must be a 2-D array with at least two samples per row")
    running = RunningFilter(alpha, beta)
    return [running.push(*_centre(row)) for row in rows]


def filter_single(frames: np.ndarray, alpha: float) -> list[FilterDecision]:
    """Single-threshold policy: skip a frame when its correlation with the
    running reference strictly exceeds alpha, otherwise process it fully and
    make it the new reference. Degenerate (constant) frames are processed
    fully as the conservative fallback.
    """
    if not 0.0 < alpha < 1.0:
        raise InvalidParameterError(f"alpha must lie in (0, 1), got {alpha}")
    return _filter(frames, alpha, alpha)  # beta = alpha: the diff band is empty


def filter_multi(frames: np.ndarray, alpha: float, beta: float) -> list[FilterDecision]:
    """Two-threshold policy.

    `frames` is a task's (frames, samples) array, row i holding epoch i, or
    anything np.asarray turns into one; InvalidParameterError unless it is
    2-D with at least two samples per row. Zero frames give no decisions.

    Correlation r against the running reference selects the branch:
    r > alpha skips the frame (reference unchanged); beta < r <= alpha
    processes only the novel part, keeping fraction 1 - r, and the frame
    becomes the new reference; r <= beta processes the frame fully and it
    becomes the new reference. Comparisons are strict at alpha and beta.
    """
    if not 0.0 < beta < alpha < 1.0:
        raise InvalidParameterError(
            f"thresholds must satisfy 0 < beta < alpha < 1 (alpha={alpha}, beta={beta})"
        )
    return _filter(frames, alpha, beta)


def fold_units(
    units: Iterable[Unit],
    key: Callable[[Unit], Hashable],
    d_of: Callable[[Iterable[float]], float],
    w_of: Callable[[Iterable[float]], float],
) -> list[tuple[Unit, list[Unit]]]:
    """Group units by `key` and fold each group into its first member in
    (user, id) order, whose id it keeps; groups come out in that order too.
    A folded unit takes d_of the members' d, w_of their w and the tightest
    deadline; a lone member comes back unchanged. Returns (folded unit,
    members) per group."""
    groups: dict[Hashable, list[Unit]] = {}
    for u in sorted(units, key=lambda u: (u.user, u.id)):
        groups.setdefault(key(u), []).append(u)
    out = []
    for members in groups.values():
        first = members[0]
        if len(members) > 1:
            first = replace(
                first,
                d=d_of(m.d for m in members),
                w=w_of(m.w for m in members),
                deadline=min(m.deadline for m in members),
            )
        out.append((first, members))
    return out


def dedup(units: Iterable[Unit]) -> tuple[tuple[Unit, ...], dict[int, int]]:
    """Collapse each class of identical units to one representative.

    The lowest-id member survives; its deadline becomes the minimum over the
    class so every sharer's requirement is still honoured, and its (d, w)
    the maximum so the fullest requested variant is computed. The returned
    share map points each removed unit at the representative whose result it
    reuses.
    """
    groups = fold_units(units, lambda u: (u.user, u.type_id, u.source_id), max, max)
    share = {m.id: rep.id for rep, members in groups for m in members[1:]}
    return tuple(rep for rep, _ in groups), share


def merge_shared_source(
    units: Iterable[Unit],
) -> tuple[tuple[Unit, ...], dict[int, tuple[int, ...]]]:
    """Fuse units that read the same source into one super-unit.

    Expects dedup to have run already. The super-unit transmits the shared
    input once (d = max over members), computes everything (w = sum) and
    inherits the tightest deadline. Offloaded, it sends the shared input
    once; run locally, it must finish every member's cycles by the earliest
    member deadline, so it can cost more than the members placed one by one
    would. The returned map lists the member ids folded into each super-unit.
    """
    groups = fold_units(units, lambda u: (u.user, u.source_id), max, sum)
    merged = {rep.id: tuple(m.id for m in ms) for rep, ms in groups if len(ms) > 1}
    return tuple(rep for rep, _ in groups), merged
