import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mecoff.allocate import enumerate_feasible, order_units
import mecoff.tune
from mecoff.errors import ConstraintViolationError, InvalidParameterError
from mecoff.harness import cell_seed
from mecoff.model import ChannelState, DeviceCaps, MecCaps, Unit, snr, uplink_rate
from mecoff.scenario import ScenarioConfig, demo_config, generate
from mecoff.schedule import (
    ConstraintReport,
    Violation,
    assignment_from_bits,
    check_constraints,
    evaluate,
)
from mecoff.tune import (
    F_MIN_FLOOR,
    TunedSolution,
    min_feasible_frequency,
    min_feasible_power,
    optimize_user,
    tx_energy_total,
)
from oracles import bisect_min_frequency, bisect_min_power, exhaustive_best, grid_search_best

MEC = MecCaps(f_mec=20e9)


def channel(mean_snr_at_1w=100.0, bw=20e6, h=1.0):
    return ChannelState(h=h, bw=bw, n0=1.0 / (bw * mean_snr_at_1w))


def caps(user_deadline=0.2, f_max=2e9, p_max=1.0, kappa=1e-26):
    return DeviceCaps(f_max=f_max, p_max=p_max, kappa=kappa, user_deadline=user_deadline)


def unit(uid, d=1e6, w=2e8, deadline=0.1):
    return Unit(id=uid, user=0, task_id=0, type_id=uid, source_id=uid,
                d=d, w=w, deadline=deadline)


class TestTxEnergyTotal:
    def test_identity_case(self):
        # D = bw bits, unity gain factor: eta = 2, log_2(2) = 1 -> 1 J
        ch = ChannelState(h=1.0, bw=1.0, n0=1.0)
        assert tx_energy_total(1.0, 1.0, ch) == pytest.approx(1.0)

    def test_direct_evaluation(self):
        ch = ChannelState(h=1.0, bw=1.0, n0=1.0)
        assert tx_energy_total(1.0, 3.0, ch) == pytest.approx(1.5)

    def test_rejects_nonpositive_power(self):
        with pytest.raises(InvalidParameterError):
            tx_energy_total(1e6, 0.0, channel())

    def test_equals_power_times_duration(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            ch = channel(mean_snr_at_1w=float(rng.uniform(1, 1e5)),
                         h=float(rng.uniform(0.05, 3.0)))
            p = float(rng.uniform(1e-4, 1.0))
            d = float(rng.uniform(1e4, 1e7))
            direct = p * d / uplink_rate(ch, snr(p, ch))
            assert tx_energy_total(d, p, ch) == pytest.approx(direct, rel=1e-9)

    def test_strictly_increasing_in_power(self):
        ch = channel()
        ps = np.linspace(1e-4, 1.0, 500)
        es = [tx_energy_total(1e6, p, ch) for p in ps]
        assert all(b > a for a, b in zip(es, es[1:]))


class TestMinFeasibleFrequency:
    def test_no_local_units_returns_floor(self):
        us = [unit(0)]
        asg = assignment_from_bits([0], [1])
        f = min_feasible_frequency(asg, us, channel(), MEC, caps(), p=1.0)
        assert f == F_MIN_FLOOR

    def test_matches_closed_form(self):
        # single local unit: smallest clock is w / deadline
        us = [unit(0, w=1e8, deadline=0.1)]
        asg = assignment_from_bits([0], [0])
        f = min_feasible_frequency(asg, us, channel(), MEC, caps(user_deadline=10.0), p=1.0)
        assert f == pytest.approx(1e9, rel=1e-6)

    def test_infeasible_when_cap_too_low(self):
        us = [unit(0, w=3e8, deadline=0.1)]
        asg = assignment_from_bits([0], [0])
        assert min_feasible_frequency(asg, us, channel(), MEC, caps(f_max=2e9), p=1.0) is None

    def test_cumulative_constraint_drives_clock(self):
        # two local units; the second's cumulative deadline dominates
        us = [unit(0, w=1e8, deadline=0.1), unit(1, w=2e8, deadline=0.12)]
        asg = assignment_from_bits([0, 1], [0, 0])
        f = min_feasible_frequency(
            asg, us, channel(), MEC, caps(user_deadline=10.0, f_max=4e9), p=1.0
        )
        assert f == pytest.approx(3e8 / 0.12, rel=1e-6)

    def test_within_tolerance_of_fine_grid(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            us = [unit(i, w=float(rng.integers(4e7, 1.3e8)), deadline=0.2)
                  for i in range(3)]
            asg = assignment_from_bits([u.id for u in order_units(us)], [0, 0, 0])
            c = caps(user_deadline=0.5)
            f = min_feasible_frequency(asg, us, channel(), MEC, c, p=1.0)
            assert f is not None
            # independent fine grid: step 1e-7 of the range
            step = 1e-7 * c.f_max
            grid = np.arange(max(step, f - 1000 * step), min(c.f_max, f + 1000 * step), step)
            feasible = [
                g for g in grid
                if check_constraints(evaluate(asg, us, g, 1.0, channel(), MEC, c), us, c).ok
            ]
            assert feasible
            assert abs(f - feasible[0]) / feasible[0] <= 1e-6


class TestMinFeasiblePower:
    def test_no_offloaded_units_returns_zero(self):
        us = [unit(0)]
        asg = assignment_from_bits([0], [0])
        assert min_feasible_power(asg, us, channel(), MEC, caps(), f=2e9) == 0.0

    def test_matches_closed_form_single_unit(self):
        # required rate r* = d / (deadline - compute); p = (2^(r*/bw) - 1) * bw * n0 / h^2
        ch = channel(mean_snr_at_1w=1000.0)
        us = [unit(0, d=2e6, w=4e8, deadline=0.05)]
        asg = assignment_from_bits([0], [1])
        p = min_feasible_power(asg, us, ch, MEC, caps(user_deadline=1.0), f=2e9)
        r_star = 2e6 / (0.05 - 4e8 / 20e9)
        expected = (2 ** (r_star / ch.bw) - 1) * ch.bw * ch.n0 / ch.h**2
        assert p == pytest.approx(expected, rel=1e-6)

    def test_infeasible_beyond_cap(self):
        ch = channel(mean_snr_at_1w=1.0)  # terrible channel
        us = [unit(0, d=5e6, w=4e8, deadline=0.03)]
        asg = assignment_from_bits([0], [1])
        assert min_feasible_power(asg, us, ch, MEC, caps(), f=2e9) is None

    def test_local_side_beyond_repair(self):
        us = [unit(0, w=1e9, deadline=0.1), unit(1, d=1e5, w=1e7, deadline=0.2)]
        asg = assignment_from_bits([0, 1], [0, 1])
        # local unit needs 0.5 s at f_max: no power can fix that
        assert min_feasible_power(asg, us, channel(), MEC, caps(), f=2e9) is None

    def test_within_tolerance_of_fine_grid(self):
        rng = np.random.default_rng(8)
        checked = 0
        for _ in range(40):
            ch = channel(mean_snr_at_1w=float(rng.uniform(20, 300)))
            us = [unit(i, d=float(rng.integers(5e5, 3e6)),
                       w=float(rng.integers(5e7, 5e8)),
                       deadline=float(rng.choice([0.05, 0.1]))) for i in range(2)]
            asg = assignment_from_bits([u.id for u in order_units(us)], [1, 1])
            c = caps(user_deadline=0.5)
            p = min_feasible_power(asg, us, ch, MEC, c, f=2e9)
            if p is None or p < 0.1:  # keep the grid step meaningful
                continue
            checked += 1
            step = 1e-7 * c.p_max
            grid = np.arange(max(step, p - 2000 * step), min(c.p_max, p + 2000 * step), step)
            feasible = [
                g for g in grid
                if check_constraints(evaluate(asg, us, 2e9, g, ch, MEC, c), us, c).ok
            ]
            assert feasible
            assert abs(p - feasible[0]) / feasible[0] <= 1e-6
        assert checked >= 5


class TestOptimizeUser:
    def test_empty_feasible_set_is_total_failure(self):
        # nothing fits: local too slow, channel too weak
        ch = channel(mean_snr_at_1w=0.01)
        us = [unit(0, d=5e6, w=4e9, deadline=0.05)]
        assert optimize_user(us, ch, MEC, caps()) is None

    def test_terrible_channel_prefers_local(self):
        ch = channel(mean_snr_at_1w=1e-3)
        us = [unit(i, d=1e6, w=5e7, deadline=0.1) for i in range(3)]
        sol = optimize_user(us, ch, MEC, caps(user_deadline=0.5))
        assert sol is not None
        assert sol.assignment.bits() == (0, 0, 0)

    def test_never_worse_than_untuned(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            ch = channel(mean_snr_at_1w=float(rng.uniform(10, 1e4)))
            us = [unit(i, d=float(rng.integers(2e5, 2e6)),
                       w=float(rng.integers(5e7, 1e9)),
                       deadline=float(rng.choice([0.1, 0.2]))) for i in range(4)]
            c = caps(user_deadline=0.4)
            sol = optimize_user(us, ch, MEC, c)
            if sol is None:
                continue
            untuned = evaluate(sol.assignment, us, c.f_max, c.p_max, ch, MEC, c)
            assert sol.energy <= untuned.e_total + 1e-12

    def test_returned_solution_is_revalidated(self):
        ch = channel()
        us = [unit(i) for i in range(3)]
        c = caps()
        sol = optimize_user(us, ch, MEC, c)
        assert sol is not None
        report = check_constraints(sol.schedule, us, c)
        assert report.ok
        assert sol.f <= c.f_max and sol.p <= c.p_max
        assert sol.energy == sol.schedule.e_total

    def test_revalidation_failure_names_the_constraints(self, monkeypatch):
        report = ConstraintReport((Violation("C2", 1), Violation("C1", 0), Violation("C2", 2)))
        monkeypatch.setattr(mecoff.tune, "check_constraints", lambda *args: report)
        with pytest.raises(ConstraintViolationError, match="failed revalidation") as info:
            optimize_user([unit(i) for i in range(3)], channel(), MEC, caps())
        assert info.value.constraints == ("C1", "C2")
        assert isinstance(info.value, RuntimeError)

    def test_close_to_exhaustive_grid(self):
        rng = np.random.default_rng(23)
        gaps = []
        for _ in range(15):
            ch = channel(mean_snr_at_1w=float(rng.uniform(20, 2000)))
            k = int(rng.integers(2, 5))
            us = [unit(i, d=float(rng.integers(2e5, 2e6)),
                       w=float(rng.integers(5e7, 8e8)),
                       deadline=float(rng.choice([0.1, 0.2]))) for i in range(k)]
            c = caps(user_deadline=0.4)
            sol = optimize_user(us, ch, MEC, c)
            best = grid_search_best(us, ch, MEC, c)
            if sol is None:
                assert best is None or best == pytest.approx(0.0)
                continue
            assert best is not None
            gaps.append((sol.energy - best) / best)
        # the tuner may beat the discrete grid but must never trail it
        assert max(gaps) <= 5e-3


def accepted(asg, us, f, p, ch, c):
    return check_constraints(evaluate(asg, us, f, p, ch, MEC, c), us, c).ok


def rel_gap(a, b):
    return abs(a - b) / max(abs(a), abs(b)) if a != b else 0.0


@st.composite
def tuning_cases(draw):
    """A placement of 1..5 units with its channel and caps.

    The gain (snr per watt) is zero, vanishing (rates near 1e-290 bit/s),
    small (1 + snr keeps few of snr's digits) or typical.
    Deadlines are either drawn, or set exactly at the completion times the
    placement reaches at a drawn (f0, p0) point, with the user deadline
    drawn or exactly at the makespan.
    """
    k = draw(st.integers(1, 5))
    gain = draw(st.one_of(
        st.just(0.0),
        *(st.floats(lo, hi).map(lambda e: 10.0**e) for lo, hi in ((-300, -17), (-17, -9), (-2, 5)))
    ))
    ch = ChannelState(h=math.sqrt(gain), bw=20e6, n0=1.0 / 20e6)
    bits = draw(st.lists(st.integers(0, 1), min_size=k, max_size=k))
    us = [
        unit(i, d=draw(st.floats(1e5, 3e6)), w=draw(st.floats(1e6, 1e9)),
             deadline=draw(st.floats(0.005, 2.0)))
        for i in range(k)
    ]
    asg = assignment_from_bits(range(k), bits)
    t_user = draw(st.floats(0.005, 2.0))
    if draw(st.booleans()):
        f0 = 2e9 * draw(st.floats(0.01, 1.0))
        p0 = draw(st.floats(0.01, 1.0))
        if not any(bits) or uplink_rate(ch, snr(p0, ch)) > 0:
            loose = [replace(u, deadline=1e300) for u in us]
            res = evaluate(asg, loose, f0, p0, ch, MEC, caps(user_deadline=1e300))
            done = {**res.lt_local, **res.lt_mec}
            us = [replace(u, deadline=done[u.id]) for u in us]
            if draw(st.booleans()):
                t_user = res.ts
    return asg, us, ch, caps(user_deadline=t_user)


class TestClosedFormsAgainstBisection:
    @settings(max_examples=300, deadline=None)
    @given(tuning_cases())
    def test_agree_with_oracle_and_revalidate(self, case):
        asg, us, ch, c = case
        f = min_feasible_frequency(asg, us, ch, MEC, c, p=c.p_max)
        f_ref = bisect_min_frequency(asg, us, ch, MEC, c, p=c.p_max)
        assert (f is None) == (f_ref is None)
        if f is None:
            return
        assert rel_gap(f, f_ref) <= 1e-7
        assert accepted(asg, us, f, c.p_max, ch, c)

        p = min_feasible_power(asg, us, ch, MEC, c, f=f)
        p_ref = bisect_min_power(asg, us, ch, MEC, c, f=f)
        assert (p is None) == (p_ref is None)
        if p is None:
            return
        assert rel_gap(p, p_ref) <= 1e-7
        assert accepted(asg, us, f, p, ch, c)

    @pytest.mark.parametrize("h", [0.0, 1e-160])
    def test_zero_or_vanishing_gain_cannot_offload(self, h):
        ch = ChannelState(h=h, bw=20e6, n0=1.0 / 20e6)
        us = [unit(0), unit(1)]
        asg = assignment_from_bits([0, 1], [0, 1])
        assert min_feasible_power(asg, us, ch, MEC, caps(), f=2e9) is None
        assert min_feasible_frequency(asg, us, ch, MEC, caps(), p=1.0) is None

    def test_point_on_every_deadline_is_returned_exactly(self):
        # deadlines set at the completion times reached at (f0, p0): the
        # closed forms land on that point, and it must pass revalidation
        ch = channel()
        us = [unit(0, w=3e8), unit(1, d=2e6), unit(2, w=1e8), unit(3, d=5e5)]
        asg = assignment_from_bits([0, 1, 2, 3], [0, 1, 0, 1])
        res = evaluate(asg, us, 7e8, 0.3, ch, MEC, caps(user_deadline=10.0))
        done = {**res.lt_local, **res.lt_mec}
        tight = [replace(u, deadline=done[u.id]) for u in us]
        c = caps(user_deadline=res.ts)
        f = min_feasible_frequency(asg, tight, ch, MEC, c, p=1.0)
        p = min_feasible_power(asg, tight, ch, MEC, c, f=f)
        assert f == pytest.approx(7e8, rel=1e-12)
        assert p == pytest.approx(0.3, rel=1e-9)
        assert accepted(asg, tight, f, p, ch, c)


def tuned_point(asg, us, ch, mec, c):
    f = min_feasible_frequency(asg, us, ch, mec, c, p=c.p_max)
    p = None if f is None else min_feasible_power(asg, us, ch, mec, c, f=f)
    return None if p is None else (f, p)


def _feasible_members(units, ch, c, mec=MEC):
    fs = enumerate_feasible(order_units(units), c.f_max, c.p_max, ch, mec, c)
    return [assignment_from_bits(fs.order, bits) for bits in fs.bits]


class TestEveryFeasibleLeafIsTuned:
    """Every placement feasible at (f_max, p_max) has a tuned point."""

    def test_generated_scenarios(self):
        big_tree = ScenarioConfig(
            n_users=2, tasks_per_user=(4, 4), units_per_task=(3, 3),
            cycle_density=(40.0, 160.0), kappa=1e-26, deadlines=(2.0,), user_deadline=2.0,
            dup_unit_fraction=0.0, shared_source_fraction=0.0,
        )
        draws = [(big_tree, 30.0, cell_seed(42, 0, 0))] + [
            (demo_config(), snr_db, cell_seed(7, i, r))
            for i, snr_db in enumerate((10.0, 20.0, 30.0, 40.0, 50.0)) for r in range(4)
        ]
        leaves = 0
        for cfg, snr_db, seed in draws:
            scenario = generate(cfg, snr_db=snr_db, seed=seed)
            for user in scenario.users:
                ch, mec, c = user.channel, scenario.mec, scenario.caps
                for asg in _feasible_members(user.units, ch, c, mec):
                    leaves += 1
                    point = tuned_point(asg, user.units, ch, mec, c)
                    assert point is not None, asg.bits()
        assert leaves > 4096

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 6), st.floats(-2.0, 5.0), st.data())
    def test_deadlines_exactly_at_the_caps(self, k, log_gain, data):
        # a random placement whose units finish exactly on their deadlines
        # at (f_max, p_max) is feasible there and must keep a tuned point
        ch = ChannelState(h=math.sqrt(10.0**log_gain), bw=20e6, n0=1.0 / 20e6)
        bits = data.draw(st.lists(st.integers(0, 1), min_size=k, max_size=k))
        us = [unit(i, d=data.draw(st.floats(1e5, 3e6)), w=data.draw(st.floats(1e6, 1e9)),
                   deadline=1e300) for i in range(k)]
        asg = assignment_from_bits(range(k), bits)
        res = evaluate(asg, us, 2e9, 1.0, ch, MEC, caps(user_deadline=1e300))
        done = {**res.lt_local, **res.lt_mec}
        us = [replace(u, deadline=done[u.id]) for u in us]
        c = caps(user_deadline=res.ts)
        members = _feasible_members(us, ch, c)
        assert members
        for member in members:
            assert tuned_point(member, us, ch, MEC, c) is not None


@st.composite
def user_cases(draw):
    """A user of 1..8 units with its channel and caps, for the leaf scorer.

    The gain is zero, vanishing or typical. Some units are twins of earlier
    ones (same bits, cycles and deadline), so mirrored placements tie
    exactly on energy. Deadlines are either drawn, or set exactly at the
    completion times a drawn placement reaches at a drawn (f0, p0) point,
    with the user deadline drawn or exactly at the makespan.
    """
    k = draw(st.integers(1, 8))
    gain = draw(st.one_of(
        st.just(0.0),
        *(st.floats(lo, hi).map(lambda e: 10.0**e) for lo, hi in ((-300, -17), (-2, 5)))
    ))
    ch = ChannelState(h=math.sqrt(gain), bw=20e6, n0=1.0 / 20e6)
    us = []
    for i in range(k):
        if us and draw(st.booleans()):
            us.append(replace(draw(st.sampled_from(us)), id=i, type_id=i, source_id=i))
        else:
            us.append(unit(i, d=draw(st.floats(1e5, 3e6)), w=draw(st.floats(1e6, 1e9)),
                           deadline=draw(st.floats(0.005, 2.0))))
    t_user = draw(st.floats(0.005, 2.0))
    if draw(st.booleans()):
        bits = draw(st.lists(st.integers(0, 1), min_size=k, max_size=k))
        f0 = 2e9 * draw(st.floats(0.01, 1.0))
        p0 = draw(st.floats(0.01, 1.0))
        if not any(bits) or uplink_rate(ch, snr(p0, ch)) > 0:
            loose = [replace(u, deadline=1e300) for u in us]
            asg = assignment_from_bits(range(k), bits)
            res = evaluate(asg, loose, f0, p0, ch, MEC, caps(user_deadline=1e300))
            done = {**res.lt_local, **res.lt_mec}
            us = [replace(u, deadline=done[u.id]) for u in us]
            if draw(st.booleans()):
                t_user = res.ts
    return us, ch, caps(user_deadline=t_user)


def solution_tuple(sol):
    return None if sol is None else (sol.assignment.bits(), sol.f, sol.p, sol.energy)


class TestLeafScorerAgainstExhaustive:
    """optimize_user scores leaves without building schedules; the oracle
    builds, tunes, evaluates and revalidates every one."""

    @settings(max_examples=150, deadline=None)
    @given(user_cases(), st.booleans())
    def test_same_winner_point_and_energy(self, case, tune):
        us, ch, c = case
        sol = optimize_user(us, ch, MEC, c, tune=tune)
        assert solution_tuple(sol) == exhaustive_best(us, ch, MEC, c, tune=tune)
        if sol is not None:
            assert sol.energy == sol.schedule.e_total

    @pytest.mark.parametrize("tune", [True, False])
    def test_twin_units_tie_and_the_bits_decide(self, tune):
        # both local needs 3e8 cycles by 0.1 s, past f_max; offloading both
        # costs more than offloading one, and either one costs the same
        us = [unit(0, w=1.5e8), unit(1, w=1.5e8)]
        c = caps(kappa=1e-30)
        sol = optimize_user(us, channel(), MEC, c, tune=tune)
        assert sol.assignment.bits() == (0, 1)
        mirror = evaluate(assignment_from_bits([0, 1], [1, 0]), us, sol.f, sol.p, channel(), MEC, c)
        assert mirror.e_total == sol.energy
        assert solution_tuple(sol) == exhaustive_best(us, channel(), MEC, c, tune=tune)


def loose_user(k=12):
    """k units whose every placement meets every deadline at the maxima."""
    return [unit(i, d=1e6 + 1e4 * i, w=2e8 - 1e6 * i, deadline=2.0) for i in range(k)]


class TestLeafScoringWork:
    """Only the winner of a user's feasible set is evaluated and checked."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(mecoff.tune, "evaluate", counted("evaluate", evaluate))
        monkeypatch.setattr(
            mecoff.tune, "check_constraints", counted("check", check_constraints)
        )
        return calls

    @pytest.mark.parametrize("tune", [True, False])
    def test_once_per_solved_user(self, calls, tune):
        us, c = loose_user(), caps(user_deadline=2.0)
        assert len(enumerate_feasible(order_units(us), c.f_max, c.p_max, channel(), MEC, c)) == 4096
        assert optimize_user(us, channel(), MEC, c, tune=tune) is not None
        assert calls == Counter(evaluate=1, check=1)

    def test_never_for_an_empty_feasible_set(self, calls):
        ch = channel(mean_snr_at_1w=0.01)
        assert optimize_user([unit(0, d=5e6, w=4e9, deadline=0.05)], ch, MEC, caps()) is None
        assert calls == Counter()
