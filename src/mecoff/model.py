"""Physical cost model: domain types, SNR and the uplink rate and its inverse.

Everything here is a pure function of explicit inputs over small frozen
dataclasses, so every value is unit-testable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidParameterError


@dataclass(frozen=True)
class Unit:
    """Smallest indivisible piece of work.

    Attributes:
        id: unique within a user.
        user: owning device.
        task_id: task this unit was split from.
        type_id: kind of computation performed.
        source_id: information source feeding the unit. Two units matching
            on (type_id, source_id) are interchangeable copies; two sharing
            only source_id consume the same input data.
        d: input size in bits.
        w: workload in CPU cycles.
        deadline: completion requirement in seconds.
    """

    id: int
    user: int
    task_id: int
    type_id: int
    source_id: int
    d: float
    w: float
    deadline: float

    def __post_init__(self):
        if self.d <= 0 or self.w <= 0 or self.deadline <= 0:
            raise InvalidParameterError(
                f"unit {self.id}: d, w and deadline must be positive "
                f"(d={self.d}, w={self.w}, deadline={self.deadline})"
            )


@dataclass(frozen=True)
class ChannelState:
    """Uplink channel: amplitude gain h, bandwidth bw in Hz, noise density n0 in W/Hz."""

    h: float
    bw: float
    n0: float

    def __post_init__(self):
        if self.h < 0:
            raise InvalidParameterError(f"channel gain must be >= 0, got {self.h}")
        if self.bw <= 0 or self.n0 <= 0:
            raise InvalidParameterError(
                f"bandwidth and noise density must be positive (bw={self.bw}, n0={self.n0})"
            )


@dataclass(frozen=True)
class DeviceCaps:
    """Device-side limits: clock cap, transmit power cap, CPU energy constant
    kappa (J·s²/cycle³ scale) and the whole-user completion deadline."""

    f_max: float
    p_max: float
    kappa: float
    user_deadline: float

    def __post_init__(self):
        if min(self.f_max, self.p_max, self.kappa, self.user_deadline) <= 0:
            raise InvalidParameterError("all device capability fields must be positive")


@dataclass(frozen=True)
class MecCaps:
    """Edge-server compute rate reserved for one user, in cycles/s."""

    f_mec: float

    def __post_init__(self):
        if self.f_mec <= 0:
            raise InvalidParameterError(f"f_mec must be positive, got {self.f_mec}")


def snr(p: float, ch: ChannelState) -> float:
    """Signal-to-noise ratio p*h^2 / (bw*n0) at transmit power p."""
    return p * ch.h * ch.h / (ch.bw * ch.n0)


def uplink_rate(ch: ChannelState, snr_value: float) -> float:
    """Shannon uplink rate bw*log2(1+snr) in bits/s.

    Computed through log1p, which keeps full precision at small snr where
    1 + snr would round away most of its digits. Returns 0 for snr 0; a zero
    rate must be rejected before any division (see `schedule.mec_pipeline`).
    """
    if snr_value < 0:
        raise InvalidParameterError(f"snr must be >= 0, got {snr_value}")
    return ch.bw * math.log1p(snr_value) / math.log(2.0)


def power_for_rate(ch: ChannelState, r: float) -> float:
    """Transmit power at which the uplink runs at r bits/s, the inverse of
    uplink_rate through expm1; inf for a zero gain or past expm1's range."""
    gain = snr(1.0, ch)
    x = r * math.log(2.0) / ch.bw
    if gain == 0 or x >= 709.0:  # expm1 overflows past ~709.78
        return math.inf
    return math.expm1(x) / gain

