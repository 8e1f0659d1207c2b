import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mecoff.errors import ConstraintViolationError, InvalidParameterError
from mecoff.model import (
    ChannelState,
    DeviceCaps,
    MecCaps,
    Unit,
    power_for_rate,
    snr,
    uplink_rate,
)
from mecoff.schedule import (
    Assignment,
    evaluate,
    local_sequence,
    mec_pipeline,
    placement_energy,
)
from oracles import tx_energy_total


def make_channel(h=1.0, bw=1.0, n0=1.0):
    return ChannelState(h=h, bw=bw, n0=n0)


CAPS = DeviceCaps(f_max=2e9, p_max=1.0, kappa=1e-11, user_deadline=0.1)


class TestSnr:
    def test_identity_case(self):
        assert snr(1.0, make_channel()) == 1.0

    def test_zero_power(self):
        assert snr(0.0, make_channel(h=3.0, bw=2e6, n0=1e-9)) == 0.0

    def test_direct_evaluation(self):
        # p=0.1, h^2=4, bw*n0=0.04 -> 10
        ch = make_channel(h=2.0, bw=0.2, n0=0.2)
        assert snr(0.1, ch) == pytest.approx(10.0, rel=1e-12)

    @given(st.floats(0.0, 10.0), st.floats(0.0, 100.0))
    def test_linear_in_power(self, a, p):
        ch = make_channel(h=1.3, bw=2.0, n0=0.5)
        assert snr(a * p, ch) == pytest.approx(a * snr(p, ch), rel=1e-12, abs=1e-300)


class TestUplinkRate:
    def test_snr_one(self):
        assert uplink_rate(make_channel(bw=20e6), 1.0) == pytest.approx(20e6)

    def test_snr_three(self):
        assert uplink_rate(make_channel(bw=20e6), 3.0) == pytest.approx(40e6)

    def test_snr_ten(self):
        assert uplink_rate(make_channel(bw=20e6), 10.0) == pytest.approx(
            20e6 * math.log2(11.0), rel=1e-12
        )

    def test_rejects_negative_snr(self):
        with pytest.raises(InvalidParameterError):
            uplink_rate(make_channel(), -0.1)

    def test_increasing_and_concave(self):
        ch = make_channel(bw=20e6)
        grid = np.linspace(0.0, 200.0, 400)
        rates = np.array([uplink_rate(ch, s) for s in grid])
        first = np.diff(rates)
        assert np.all(first > 0)
        assert np.all(np.diff(first) <= 1e-9 * rates.max())


class TestPowerForRate:
    @given(st.floats(-3.0, 6.0), st.floats(1e3, 1e9))
    def test_inverts_uplink_rate(self, log_gain, r):
        ch = make_channel(h=math.sqrt(10.0**log_gain), bw=20e6)
        p = power_for_rate(ch, r)
        assert uplink_rate(ch, snr(p, ch)) == pytest.approx(r, rel=1e-12)

    def test_zero_gain_or_beyond_range_needs_infinite_power(self):
        assert power_for_rate(make_channel(h=0.0, bw=20e6), 1e6) == math.inf
        assert power_for_rate(make_channel(bw=1.0), 1025.0) == math.inf
        assert power_for_rate(make_channel(bw=20e6), math.inf) == math.inf


def unit(i=0, d=1e6, w=1e8):
    return Unit(id=i, user=0, task_id=0, type_id=i, source_id=i, d=d, w=w, deadline=1.0)


FAST_MEC = MecCaps(1e30)  # server time negligible next to any upload here


class TestLocalCompute:
    """A local unit takes w/f seconds and kappa*w*f^2 joules
    (`local_sequence`, `placement_energy`, `evaluate`)."""

    def test_quotient(self):
        assert local_sequence([unit(w=2e8)], 2e9) == pytest.approx((0.1,))

    def test_identity(self):
        assert local_sequence([unit(w=3.7e9)], 3.7e9) == (1.0,)

    def test_direct(self):
        assert local_sequence([unit(w=1.875e8)], 2e9) == pytest.approx((0.09375,))

    def test_rejects_nonpositive_clock(self):
        for f in (0.0, -1e9):
            with pytest.raises(InvalidParameterError):
                local_sequence([unit()], f)

    @given(st.floats(1.0, 1e12), st.floats(1e3, 1e10))
    def test_round_trip(self, w, f):
        (done,) = local_sequence([unit(w=w)], f)
        assert done * f == pytest.approx(w, rel=1e-12)

    def test_energy_kappa_scale(self):
        e = placement_energy([], [unit(w=1e6)], 1.0, 0.0, make_channel(), CAPS)
        assert e == pytest.approx(1e-5)

    def test_energy_direct(self):
        e = placement_energy([], [unit(w=2e8)], 2e9, 0.0, make_channel(), CAPS)
        assert e == pytest.approx(8e15)

    def test_energy_increasing_in_clock(self):
        fs = np.linspace(1e6, 2e9, 50)
        es = [placement_energy([], [unit()], f, 0.0, make_channel(), CAPS) for f in fs]
        assert all(b > a for a, b in zip(es, es[1:]))

    def test_energy_rejects_overclock(self):
        with pytest.raises(ConstraintViolationError) as err:
            evaluate(
                Assignment([0], [0]), [unit()], CAPS.f_max * 1.01, 0.0,
                make_channel(), MecCaps(2e10), CAPS,
            )
        assert err.value.constraints == ("C4",)


class TestTransmission:
    """An offloaded unit uploads for d/r seconds at p*d/r joules
    (`mec_pipeline`, `placement_energy`)."""

    def test_latency_identity(self):
        # one second up, one second on the server
        assert mec_pipeline([unit(d=1e6, w=2e10)], 1e6, MecCaps(2e10)) == (2.0,)

    def test_latency_chained(self):
        rate = uplink_rate(make_channel(bw=20e6), 10.0)
        (done,) = mec_pipeline([unit(d=1e6)], rate, FAST_MEC)
        assert done == pytest.approx(0.0144533, rel=1e-5)

    def test_latency_direct(self):
        assert mec_pipeline([unit(d=2e6)], 4e7, FAST_MEC) == pytest.approx((0.05,))

    def test_latency_rejects_zero_rate(self):
        for r in (0.0, -1e6):
            with pytest.raises(InvalidParameterError):
                mec_pipeline([unit()], r, FAST_MEC)

    def test_latency_decreasing_in_rate(self):
        rs = np.linspace(1e6, 1e9, 40)
        ts = [mec_pipeline([unit(d=5e6)], r, FAST_MEC)[0] for r in rs]
        assert all(b < a for a, b in zip(ts, ts[1:]))

    def test_energy_zero_power(self):
        # nothing offloaded costs no radio energy, whatever the power; an
        # offloaded unit at zero power (zero rate) is rejected, not divided by
        ch = make_channel(bw=20e6)
        assert placement_energy([], [], 1e9, 0.0, ch, CAPS) == 0.0
        with pytest.raises(InvalidParameterError):
            placement_energy([unit()], [], 1e9, 0.0, ch, CAPS)
        with pytest.raises(InvalidParameterError):
            placement_energy([unit()], [], 1e9, 1.0, make_channel(h=0.0, bw=20e6), CAPS)

    def test_energy_identity(self):
        ch = make_channel(bw=20e6)
        u = unit(d=1e6)
        rate = uplink_rate(ch, snr(1.0, ch))
        assert placement_energy([u], [], 1e9, 1.0, ch, CAPS) == u.d / rate

    def test_energy_product(self):
        ch = make_channel(bw=20e6, n0=1e-2)
        us = [unit(0, d=1e6), unit(1, d=3e5)]
        e = placement_energy(us, [], 1e9, 0.1, ch, CAPS)
        rate = uplink_rate(ch, snr(0.1, ch))
        assert e == pytest.approx(0.1 * 1.3e6 / rate, rel=1e-12)
        assert e == pytest.approx(tx_energy_total(1.3e6, 0.1, ch), rel=1e-12)


class TestMecLatency:
    """The server runs an offloaded unit for w/f_mec seconds, FIFO
    (`mec_pipeline`)."""

    def test_identity(self):
        # uploads of a microsecond: the second unit waits for the server
        lt = mec_pipeline([unit(0, d=1.0, w=2e10), unit(1, d=1.0, w=2e10)], 1e6, MecCaps(2e10))
        assert lt[1] == lt[0] + 1.0

    def test_direct(self):
        lt = mec_pipeline(
            [unit(0, d=1.0, w=1.875e8), unit(1, d=1.0, w=4.5e8)], 1e9, MecCaps(2e10)
        )
        assert lt[0] == pytest.approx(1e-9 + 0.009375)
        assert lt[1] - lt[0] == pytest.approx(0.0225)


class TestDomainTypes:
    def test_unit_rejects_nonpositive_fields(self):
        with pytest.raises(InvalidParameterError):
            Unit(id=0, user=0, task_id=0, type_id=0, source_id=0, d=0, w=1, deadline=1)
        with pytest.raises(InvalidParameterError):
            Unit(id=0, user=0, task_id=0, type_id=0, source_id=0, d=1, w=-1, deadline=1)

    def test_channel_rejects_bad_fields(self):
        with pytest.raises(InvalidParameterError):
            ChannelState(h=-0.1, bw=1.0, n0=1.0)
        with pytest.raises(InvalidParameterError):
            ChannelState(h=1.0, bw=0.0, n0=1.0)

    def test_caps_reject_nonpositive(self):
        with pytest.raises(InvalidParameterError):
            DeviceCaps(f_max=0, p_max=1, kappa=1, user_deadline=1)
        with pytest.raises(InvalidParameterError):
            MecCaps(f_mec=0)
