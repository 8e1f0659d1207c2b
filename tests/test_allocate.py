from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mecoff.allocate import (
    MAX_TREE_DEPTH,
    enumerate_feasible,
    order_units,
)
from mecoff.errors import InvalidParameterError
from mecoff.model import ChannelState, DeviceCaps, MecCaps, Unit
from mecoff.schedule import assignment_from_bits, check_constraints, evaluate
from oracles import brute_force_feasible

CH = ChannelState(h=1.0, bw=20e6, n0=1.0 / (20e6 * 100))  # mean snr 100 at 1 W
MEC = MecCaps(f_mec=20e9)


def caps(user_deadline=0.2, f_max=2e9, p_max=1.0):
    return DeviceCaps(f_max=f_max, p_max=p_max, kappa=1e-26, user_deadline=user_deadline)


def unit(uid, d=1e6, w=2e8, deadline=0.1, type_id=None, source_id=None):
    return Unit(id=uid, user=0, task_id=0, type_id=uid if type_id is None else type_id,
                source_id=uid if source_id is None else source_id, d=d, w=w, deadline=deadline)


def random_units(rng, k):
    return [
        unit(
            i,
            d=float(rng.integers(2e5, 2e6)),
            w=float(rng.integers(5e7, 2e9)),
            deadline=float(rng.choice([0.05, 0.1, 0.2])),
        )
        for i in range(k)
    ]


class TestOrderUnits:
    def test_deadline_then_id(self):
        us = [unit(1, deadline=0.1), unit(2, deadline=0.05), unit(3, deadline=0.05)]
        assert [u.id for u in order_units(us)] == [2, 3, 1]

    def test_single(self):
        us = [unit(7)]
        assert order_units(us) == tuple(us)

    def test_sorted_input_unchanged(self):
        us = [unit(0, deadline=0.05), unit(1, deadline=0.05), unit(2, deadline=0.1)]
        assert order_units(us) == tuple(us)


class TestEnumerateFeasible:
    def test_tiny_both_feasible(self):
        us = [unit(0, d=1e5, w=1e7, deadline=0.2)]
        fs = enumerate_feasible(order_units(us), 2e9, 1.0, CH, MEC, caps())
        assert set(fs.bits) == {(0,), (1,)}
        # offload branch explored first
        assert fs.bits == ((1,), (0,))

    def test_tree_is_bounded(self):
        us = random_units(np.random.default_rng(0), 4)
        fs = enumerate_feasible(order_units(us), 2e9, 1.0, CH, MEC, caps())
        assert len(fs) <= 2**4

    def test_local_infeasible_unit_forced_to_mec(self):
        # local compute would need 1 s, both deadlines far below that
        us = [unit(0, d=5e5, w=2e9, deadline=0.15), unit(1, d=5e5, w=2e9, deadline=0.15)]
        fs = enumerate_feasible(order_units(us), 2e9, 1.0, CH, MEC, caps())
        oracle = brute_force_feasible(order_units(us), 2e9, 1.0, CH, MEC, caps())
        assert set(fs.bits) == oracle
        assert all(b[0] == 1 for b in fs.bits)

    def test_brute_force_equality_random(self):
        rng = np.random.default_rng(42)
        for trial in range(40):
            k = int(rng.integers(2, 9))
            us = random_units(rng, k)
            c = caps(user_deadline=float(rng.choice([0.1, 0.2, 0.5])))
            fs = enumerate_feasible(order_units(us), 2e9, 1.0, CH, MEC, c)
            oracle = brute_force_feasible(order_units(us), 2e9, 1.0, CH, MEC, c)
            assert set(fs.bits) == oracle

    def test_every_member_passes_checks(self):
        rng = np.random.default_rng(3)
        us = random_units(rng, 6)
        fs = enumerate_feasible(order_units(us), 2e9, 1.0, CH, MEC, caps())
        for bits in fs.bits:
            asg = assignment_from_bits(fs.order, bits)
            res = evaluate(asg, us, 2e9, 1.0, CH, MEC, caps())
            assert check_constraints(res, us, caps()).ok

    def test_pruned_prefix_never_recovers(self):
        # find a placement whose first deadline miss occurs at unit j, then
        # verify no feasible member shares that prefix
        rng = np.random.default_rng(9)
        us = random_units(rng, 6)
        ordered = order_units(us)
        fs = enumerate_feasible(ordered, 2e9, 1.0, CH, MEC, caps())
        feasible = set(fs.bits)
        for bits in [tuple(rng.integers(0, 2, size=6)) for _ in range(20)]:
            asg = assignment_from_bits(fs.order, bits)
            res = evaluate(asg, us, 2e9, 1.0, CH, MEC, caps())
            report = check_constraints(res, us, caps())
            per_unit = [v.unit_id for v in report.violations if v.unit_id is not None]
            if not per_unit:
                continue
            first_bad = min(fs.order.index(uid) for uid in per_unit)
            prefix = bits[: first_bad + 1]
            assert not any(f[: first_bad + 1] == prefix for f in feasible)

    def test_determinism(self):
        rng = np.random.default_rng(5)
        us = random_units(rng, 7)
        a = enumerate_feasible(order_units(us), 2e9, 1.0, CH, MEC, caps())
        b = enumerate_feasible(order_units(us), 2e9, 1.0, CH, MEC, caps())
        assert a.bits == b.bits

    def test_depth_cap(self):
        us = [unit(i) for i in range(MAX_TREE_DEPTH + 1)]
        with pytest.raises(InvalidParameterError):
            enumerate_feasible(order_units(us), 2e9, 1.0, CH, MEC, caps())

    def test_zero_power_kills_offload_branch(self):
        us = [unit(0, d=1e5, w=1e7, deadline=0.2)]
        fs = enumerate_feasible(order_units(us), 2e9, 0.0, CH, MEC, caps())
        assert set(fs.bits) == {(0,)}


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 7), st.data())
def test_brute_force_equality_with_deadlines_on_completion_times(k, data):
    # Every unit of one placement finishes exactly on its deadline, so the
    # tree's incremental recurrence and evaluate/check_constraints must agree
    # to the last bit on which placements meet their deadlines.
    us = [unit(i, d=data.draw(st.floats(1e4, 3e6)), w=data.draw(st.floats(1e6, 2e9)),
               deadline=1e300) for i in range(k)]
    bits = data.draw(st.lists(st.integers(0, 1), min_size=k, max_size=k))
    asg = assignment_from_bits(range(k), bits)
    res = evaluate(asg, us, 2e9, 1.0, CH, MEC, caps(user_deadline=1e300))
    done = {**res.lt_local, **res.lt_mec}
    ordered = order_units([replace(u, deadline=done[u.id]) for u in us])
    c = caps(user_deadline=res.ts)
    fs = enumerate_feasible(ordered, 2e9, 1.0, CH, MEC, c)
    assert set(fs.bits) == brute_force_feasible(ordered, 2e9, 1.0, CH, MEC, c)
