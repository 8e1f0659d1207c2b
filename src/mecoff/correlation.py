"""Workload reduction ahead of placement.

Two independent mechanisms:

* time domain -- successive frames of a task's information source are
  compared with the Pearson coefficient against a running reference frame;
  highly correlated updates are skipped or processed partially.
* task domain -- units that are exact copies of each other (same type and
  source) are processed once with the result shared, and distinct units
  reading the same source are merged so the shared input is transmitted
  only once.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from .errors import DegenerateSignalError, InvalidParameterError
from .model import Unit


@dataclass(frozen=True)
class Frame:
    """One time-indexed snapshot of a task's information source."""

    task_label: int
    epoch: int
    data: np.ndarray

    def __post_init__(self):
        if len(self.data) < 2:
            raise InvalidParameterError("frames need at least two samples")


class FilterAction(Enum):
    PROCESS_FULL = "full"
    PROCESS_DIFF = "diff"
    SKIP = "skip"


@dataclass(frozen=True)
class FilterDecision:
    """What to do with one frame, and which earlier frame it was compared to.

    kept_fraction is the share of the frame's data and cycles still worth
    processing: 1 for a full pass, 0 for a skip, in between for a diff.
    The first frame of a sequence references itself.
    """

    epoch: int
    action: FilterAction
    kept_fraction: float
    reference_epoch: int

    def __post_init__(self):
        ok = {
            FilterAction.SKIP: self.kept_fraction == 0.0,
            FilterAction.PROCESS_FULL: self.kept_fraction == 1.0,
            FilterAction.PROCESS_DIFF: 0.0 < self.kept_fraction < 1.0,
        }[self.action]
        if not ok:
            raise InvalidParameterError(
                f"kept_fraction {self.kept_fraction} inconsistent with {self.action}"
            )


def pearson(x: Sequence[float], y: Sequence[float]) -> float:
    """Pearson correlation coefficient, clamped to [-1, 1].

    Raises DegenerateSignalError when either input has zero variance.
    """
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    if xa.ndim != 1 or xa.shape != ya.shape or len(xa) < 2:
        raise InvalidParameterError("pearson needs two equal-length vectors (len >= 2)")
    xc = xa - xa.mean()
    yc = ya - ya.mean()
    sx = float(xc @ xc)
    sy = float(yc @ yc)
    if sx == 0.0 or sy == 0.0:
        raise DegenerateSignalError("zero-variance signal in correlation")
    r = float(xc @ yc) / float(np.sqrt(sx * sy))
    return max(-1.0, min(1.0, r))


def _check_frames(frames: Sequence[Frame]) -> None:
    epochs = [fr.epoch for fr in frames]
    if any(b <= a for a, b in zip(epochs, epochs[1:])):
        raise InvalidParameterError("frames must be ordered by strictly increasing epoch")


def _filter(frames: Sequence[Frame], alpha: float, beta: float) -> list[FilterDecision]:
    """The decision loop of both policies, as described in `filter_multi`."""
    _check_frames(frames)
    out: list[FilterDecision] = []
    ref: Frame | None = None
    for fr in frames:
        r = -np.inf  # the first frame and degenerate frames are processed fully
        if ref is not None:
            try:
                r = pearson(ref.data, fr.data)
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


def filter_single(frames: Sequence[Frame], alpha: float) -> list[FilterDecision]:
    """Single-threshold policy: skip a frame when its correlation with the
    running reference strictly exceeds alpha, otherwise process it fully and
    make it the new reference. Degenerate (constant) frames are processed
    fully as the conservative fallback.
    """
    if not 0.0 < alpha < 1.0:
        raise InvalidParameterError(f"alpha must lie in (0, 1), got {alpha}")
    return _filter(frames, alpha, alpha)  # beta = alpha: the diff band is empty


def filter_multi(frames: Sequence[Frame], alpha: float, beta: float) -> list[FilterDecision]:
    """Two-threshold policy.

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


def dedup(units: Iterable[Unit]) -> tuple[tuple[Unit, ...], dict[int, int]]:
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


def merge_shared_source(
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

