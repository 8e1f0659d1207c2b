import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mecoff.errors import ConstraintViolationError, InvalidParameterError
from mecoff.model import ChannelState, DeviceCaps, MecCaps, Unit
from mecoff.schedule import (
    Assignment,
    check_constraints,
    evaluate,
    local_sequence,
    mec_pipeline,
    placement_energy,
)
from oracles import des_pipeline

# with rate = 1 and f_mec = 1, a unit's d and w ARE its transmit/compute times
UNIT_MEC = MecCaps(f_mec=1.0)
UNIT_CH = ChannelState(h=1.0, bw=1.0, n0=1.0)


def timed_units(tx, comp, deadline=1e9):
    return [
        Unit(id=i, user=0, task_id=0, type_id=i, source_id=i, d=t, w=c, deadline=deadline)
        for i, (t, c) in enumerate(zip(tx, comp))
    ]


times = st.lists(st.floats(1e-3, 10.0), min_size=1, max_size=20)


class TestMecPipeline:
    def test_empty(self):
        assert mec_pipeline([], 1.0, UNIT_MEC) == ()

    def test_hand_trace(self):
        units = timed_units([2.0, 1.0, 3.0], [1.0, 4.0, 1.0])
        out = mec_pipeline(units, 1.0, UNIT_MEC)
        assert out == pytest.approx((3.0, 7.0, 8.0))

    def test_single_unit(self):
        assert mec_pipeline(timed_units([5.0], [2.0]), 1.0, UNIT_MEC) == (7.0,)

    def test_rejects_zero_rate(self):
        with pytest.raises(InvalidParameterError):
            mec_pipeline(timed_units([1.0], [1.0]), 0.0, UNIT_MEC)

    @given(times, st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_event_simulation(self, tx, data):
        comp = data.draw(st.lists(st.floats(1e-3, 10.0), min_size=len(tx), max_size=len(tx)))
        out = mec_pipeline(timed_units(tx, comp), 1.0, UNIT_MEC)
        oracle = des_pipeline(tx, comp)
        assert out == pytest.approx(oracle, abs=1e-9)

    @given(times, st.data())
    @settings(max_examples=100, deadline=None)
    def test_work_conservation(self, tx, data):
        comp = data.draw(st.lists(st.floats(1e-3, 10.0), min_size=len(tx), max_size=len(tx)))
        last = mec_pipeline(timed_units(tx, comp), 1.0, UNIT_MEC)[-1]
        assert last >= max(sum(tx), sum(comp)) - 1e-9
        assert last <= sum(tx) + sum(comp) + 1e-9

    @given(times, st.data())
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_stage_times(self, tx, data):
        comp = data.draw(st.lists(st.floats(1e-3, 10.0), min_size=len(tx), max_size=len(tx)))
        idx = data.draw(st.integers(0, len(tx) - 1))
        bump = data.draw(st.floats(0.1, 5.0))
        base = mec_pipeline(timed_units(tx, comp), 1.0, UNIT_MEC)
        tx2 = list(tx)
        tx2[idx] += bump
        bumped_tx = mec_pipeline(timed_units(tx2, comp), 1.0, UNIT_MEC)
        comp2 = list(comp)
        comp2[idx] += bump
        bumped_cm = mec_pipeline(timed_units(tx, comp2), 1.0, UNIT_MEC)
        for j in range(idx, len(tx)):
            assert bumped_tx[j] >= base[j] - 1e-12
            assert bumped_cm[j] >= base[j] - 1e-12

    @given(times, st.data())
    @settings(max_examples=100, deadline=None)
    def test_completion_times_follow_the_pipeline(self, tx, data):
        # the first unit never waits for the server; every later one waits
        # for its own upload and for the unit ahead of it
        comp = data.draw(st.lists(st.floats(1e-3, 10.0), min_size=len(tx), max_size=len(tx)))
        lt = mec_pipeline(timed_units(tx, comp), 1.0, UNIT_MEC)
        assert lt[0] == tx[0] + comp[0]
        for j in range(1, len(tx)):
            assert lt[j] >= lt[j - 1] + comp[j]
            assert lt[j] >= sum(tx[: j + 1]) + comp[j]


class TestLocalSequence:
    def test_cumulative(self):
        out = local_sequence(timed_units([1, 1, 1], [1.0, 2.0, 3.0]), 1.0)
        assert out == pytest.approx((1.0, 3.0, 6.0))

    def test_single(self):
        assert local_sequence(timed_units([1.0], [0.1]), 1.0) == pytest.approx((0.1,))

    def test_hand_sum(self):
        out = local_sequence(timed_units([1, 1, 1], [0.05, 0.05, 0.02]), 1.0)
        assert out == pytest.approx((0.05, 0.10, 0.12))

    def test_rejects_zero_clock(self):
        with pytest.raises(InvalidParameterError):
            local_sequence(timed_units([1.0], [1.0]), 0.0)

    def test_empty(self):
        assert local_sequence([], 0.0) == ()


def small_caps(user_deadline=1e9, f_max=10.0, p_max=10.0, kappa=1e-3):
    return DeviceCaps(f_max=f_max, p_max=p_max, kappa=kappa, user_deadline=user_deadline)


class TestEvaluate:
    def test_all_local(self):
        units = timed_units([1, 1, 1], [2.0, 3.0, 4.0])
        asg = Assignment([0, 1, 2], [0, 0, 0])
        res = evaluate(asg, units, 1.0, 1.0, UNIT_CH, UNIT_MEC, small_caps())
        assert res.lt_mec == {}
        assert res.e_total == pytest.approx(1e-3 * (2.0 + 3.0 + 4.0))  # kappa * w * f^2, f = 1
        assert res.ts == pytest.approx(9.0)

    def test_all_mec(self):
        units = timed_units([2.0, 1.0], [1.0, 1.0])
        asg = Assignment([0, 1], [1, 1])
        res = evaluate(asg, units, 1.0, 1.0, UNIT_CH, UNIT_MEC, small_caps())
        assert res.lt_local == {}
        assert res.e_total == pytest.approx(2.0 + 1.0)  # p * d / rate, p = rate = 1

    def test_mixed_composition(self):
        units = timed_units([2.0, 1.0, 3.0, 1.0], [1.0, 4.0, 1.0, 1.0])
        asg = Assignment(order=(0, 1, 2, 3), bits=(1, 1, 1, 0))
        res = evaluate(asg, units, 1.0, 1.0, UNIT_CH, UNIT_MEC, small_caps())
        assert res.ts == pytest.approx(8.0)  # max(local 1.0, pipeline 8.0)
        assert res.lt_local[3] == pytest.approx(1.0)
        assert res.lt_mec == pytest.approx({0: 3.0, 1: 7.0, 2: 8.0})

    def test_energy_accounting(self):
        units = timed_units([2.0, 3.0], [1.0, 5.0])
        asg = Assignment([0, 1], [1, 0])
        caps = small_caps(kappa=0.5)
        res = evaluate(asg, units, 2.0, 0.7, UNIT_CH, UNIT_MEC, caps)
        # rate at p=0.7: bw*log2(1.7)
        rate = np.log2(1.7)
        assert res.e_total == pytest.approx(0.7 * 2.0 / rate + 0.5 * 5.0 * 4.0)

    def test_cap_violations(self):
        units = timed_units([1.0], [1.0])
        asg = Assignment([0], [0])
        with pytest.raises(ConstraintViolationError) as err:
            evaluate(asg, units, 11.0, 1.0, UNIT_CH, UNIT_MEC, small_caps())
        assert err.value.constraints == ("C4",)
        with pytest.raises(ConstraintViolationError) as err:
            evaluate(asg, units, 1.0, 11.0, UNIT_CH, UNIT_MEC, small_caps())
        assert err.value.constraints == ("C5",)

    def test_placement_must_cover_units(self):
        units = timed_units([1.0, 1.0], [1.0, 1.0])
        asg = Assignment([0], [0])
        with pytest.raises(InvalidParameterError):
            evaluate(asg, units, 1.0, 1.0, UNIT_CH, UNIT_MEC, small_caps())


class TestCheckConstraints:
    def test_boundary_deadline_feasible(self):
        units = timed_units([2.0], [1.0], deadline=3.0)
        asg = Assignment([0], [1])
        res = evaluate(asg, units, 1.0, 1.0, UNIT_CH, UNIT_MEC, small_caps())
        assert res.lt_mec[0] == pytest.approx(3.0)
        assert check_constraints(res, units, small_caps()).ok

    def test_local_violation_named(self):
        units = timed_units([1.0], [0.12], deadline=0.10)
        asg = Assignment([0], [0])
        res = evaluate(asg, units, 1.0, 1.0, UNIT_CH, UNIT_MEC, small_caps())
        report = check_constraints(res, units, small_caps())
        assert [(v.constraint, v.unit_id) for v in report.violations] == [("C2", 0)]

    def test_user_deadline_violation(self):
        units = timed_units([2.0, 1.0, 3.0], [1.0, 4.0, 1.0])
        asg = Assignment([0, 1, 2], [1, 1, 1])
        caps = small_caps(user_deadline=7.0)
        res = evaluate(asg, units, 1.0, 1.0, UNIT_CH, UNIT_MEC, caps)
        report = check_constraints(res, units, caps)
        assert ("C3", None) in [(v.constraint, v.unit_id) for v in report.violations]


class TestAssignment:
    def test_rejects_duplicate_order(self):
        with pytest.raises(InvalidParameterError):
            Assignment(order=(0, 0), bits=(0, 0))

    def test_rejects_partial_placement(self):
        for bits in [(0,), (0, 1, 1), ()]:
            with pytest.raises(InvalidParameterError):
                Assignment(order=(0, 1), bits=bits)

    @pytest.mark.parametrize("bits", [(0, 2), (-1, 1), (0.5, 1)])
    def test_rejects_bits_outside_zero_one(self, bits):
        with pytest.raises(InvalidParameterError):
            Assignment(order=(0, 1), bits=bits)

    def test_bit_round_trip(self):
        asg = Assignment((5, 3, 9), (1, 0, 1))
        assert asg.bits == (1, 0, 1)
        units = [Unit(id=i, user=0, task_id=0, type_id=i, source_id=i, d=1.0, w=1.0, deadline=1.0)
                 for i in (9, 5, 3)]
        offloaded, local = asg.split(units)  # each side in processing order
        assert [u.id for u in offloaded] == [5, 9]
        assert [u.id for u in local] == [3]
        assert Assignment([5, 3, 9], [1, 0, 1]) == asg  # sequences are stored as tuples


class TestPlacementEnergy:
    def test_equals_evaluate_total_and_its_unit_terms(self):
        rng = np.random.default_rng(31)
        for _ in range(300):
            k = int(rng.integers(1, 9))
            us = [
                Unit(id=i, user=0, task_id=0, type_id=i, source_id=i,
                     d=float(rng.uniform(1e4, 3e6)), w=float(rng.uniform(1e6, 1e9)),
                     deadline=1.0)
                for i in range(k)
            ]
            bits = [int(b) for b in rng.integers(0, 2, size=k)]
            asg = Assignment(range(k), bits)
            ch = ChannelState(h=float(rng.uniform(0.05, 3.0)), bw=20e6,
                              n0=float(10.0 ** rng.uniform(-12, -6)))
            caps = DeviceCaps(f_max=2e9, p_max=1.0, kappa=float(10.0 ** rng.uniform(-28, -11)),
                              user_deadline=1.0)
            f = float(rng.uniform(1e6, 2e9))
            p = float(rng.uniform(1e-4, 1.0)) if any(bits) else float(rng.choice([0.0, 0.5]))
            res = evaluate(asg, us, f, p, ch, UNIT_MEC, caps)
            offloaded = [u for u, b in zip(us, bits) if b]
            local = [u for u, b in zip(us, bits) if not b]
            energy = placement_energy(offloaded, local, f, p, ch, caps)
            assert energy == res.e_total
            rate = ch.bw * np.log1p(p * ch.h**2 / (ch.bw * ch.n0)) / np.log(2.0)
            by_hand = sum(p * u.d / rate for u in offloaded) + sum(caps.kappa * u.w * f**2 for u in local)
            assert energy == pytest.approx(by_hand, rel=1e-12)
