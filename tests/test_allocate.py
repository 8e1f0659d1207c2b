import math
import sys
from dataclasses import replace
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mecoff.errors import InvalidParameterError
from mecoff.model import ChannelState, DeviceCaps, MecCaps, Unit, power_for_rate
from mecoff.schedule import Assignment, check_constraints, evaluate, placement_energy, split_by_bits
from mecoff.tune import (
    MAX_TREE_DEPTH,
    PRUNE_MARGIN,
    branch_and_bound,
    enumerate_feasible,
    min_feasible_frequency,
    min_feasible_power,
    order_units,
)
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
        fs = enumerate_feasible(order_units(us), CH, MEC, caps())
        assert set(fs.bits) == {(0,), (1,)}
        # offload branch explored first
        assert fs.bits == ((1,), (0,))

    def test_tree_is_bounded(self):
        us = random_units(np.random.default_rng(0), 4)
        fs = enumerate_feasible(order_units(us), CH, MEC, caps())
        assert len(fs.bits) <= 2**4

    def test_local_infeasible_unit_forced_to_mec(self):
        # local compute would need 1 s, both deadlines far below that
        us = [unit(0, d=5e5, w=2e9, deadline=0.15), unit(1, d=5e5, w=2e9, deadline=0.15)]
        fs = enumerate_feasible(order_units(us), CH, MEC, caps())
        oracle = brute_force_feasible(order_units(us), 2e9, 1.0, CH, MEC, caps())
        assert set(fs.bits) == oracle
        assert all(b[0] == 1 for b in fs.bits)

    def test_brute_force_equality_random(self):
        rng = np.random.default_rng(42)
        for trial in range(40):
            k = int(rng.integers(2, 9))
            us = random_units(rng, k)
            c = caps(user_deadline=float(rng.choice([0.1, 0.2, 0.5])))
            fs = enumerate_feasible(order_units(us), CH, MEC, c)
            oracle = brute_force_feasible(order_units(us), 2e9, 1.0, CH, MEC, c)
            assert set(fs.bits) == oracle

    def test_every_member_passes_checks(self):
        rng = np.random.default_rng(3)
        us = random_units(rng, 6)
        fs = enumerate_feasible(order_units(us), CH, MEC, caps())
        for bits in fs.bits:
            asg = Assignment(fs.order, bits)
            res = evaluate(asg, us, 2e9, 1.0, CH, MEC, caps())
            assert check_constraints(res, us, caps()).ok

    def test_pruned_prefix_never_recovers(self):
        # find a placement whose first deadline miss occurs at unit j, then
        # verify no feasible member shares that prefix
        rng = np.random.default_rng(9)
        us = random_units(rng, 6)
        ordered = order_units(us)
        fs = enumerate_feasible(ordered, CH, MEC, caps())
        feasible = set(fs.bits)
        for bits in [tuple(rng.integers(0, 2, size=6)) for _ in range(20)]:
            asg = Assignment(fs.order, bits)
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
        a = enumerate_feasible(order_units(us), CH, MEC, caps())
        b = enumerate_feasible(order_units(us), CH, MEC, caps())
        assert a.bits == b.bits

    def test_depth_cap(self):
        us = [unit(i) for i in range(MAX_TREE_DEPTH + 1)]
        with pytest.raises(InvalidParameterError):
            enumerate_feasible(order_units(us), CH, MEC, caps())

    def test_zero_gain_kills_offload_branch(self):
        us = [unit(0, d=1e5, w=1e7, deadline=0.2)]
        fs = enumerate_feasible(order_units(us), replace(CH, h=0.0), MEC, caps())
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
    asg = Assignment(range(k), bits)
    res = evaluate(asg, us, 2e9, 1.0, CH, MEC, caps(user_deadline=1e300))
    done = {**res.lt_local, **res.lt_mec}
    ordered = order_units([replace(u, deadline=done[u.id]) for u in us])
    c = caps(user_deadline=res.ts)
    fs = enumerate_feasible(ordered, CH, MEC, c)
    assert set(fs.bits) == brute_force_feasible(ordered, 2e9, 1.0, CH, MEC, c)


@st.composite
def margin_cases(draw):
    """A deadline-ordered user of 1..8 units at 0..50 dB, with its caps.

    Deadlines are loose (every placement fits), drawn, or exactly on the
    completion times a drawn placement reaches at a drawn (f0, p0), with the
    user deadline then exactly at the makespan.
    """
    k = draw(st.integers(1, 8))
    ch = ChannelState(h=1.0, bw=20e6, n0=1.0 / (20e6 * 10.0 ** (draw(st.floats(0.0, 50.0)) / 10)))
    us = [unit(i, d=draw(st.floats(1e5, 3e6)), w=draw(st.floats(1e6, 1e9)),
               deadline=draw(st.floats(0.005, 2.0))) for i in range(k)]
    t_user = draw(st.floats(0.005, 2.0))
    mode = draw(st.sampled_from(["loose", "drawn", "exact"]))
    if mode == "loose":
        us = [replace(u, deadline=50.0) for u in us]
        t_user = 50.0
    elif mode == "exact":
        bits = draw(st.lists(st.integers(0, 1), min_size=k, max_size=k))
        res = evaluate(Assignment(range(k), bits), [replace(u, deadline=1e300) for u in us],
                       2e9 * draw(st.floats(0.01, 1.0)), draw(st.floats(0.01, 1.0)),
                       ch, MEC, caps(user_deadline=1e300))
        done = {**res.lt_local, **res.lt_mec}
        us = [replace(u, deadline=done[u.id]) for u in us]
        t_user = res.ts
    return order_units(us), ch, caps(user_deadline=t_user)


def walk_nodes(ordered, ch, c):
    """The leaves feasible at the maxima, and for every node the walk
    expands the floats its cost cut reads: (bound, local cycles, f_lb, bits
    offloaded, r_lb), keyed by the node's bits.

    The incumbent is infinite, so nothing is cut. It reads each node from
    the walk's own frame, so the floats checked are those the cut compares.
    """
    nodes = {}

    def incumbent():
        frame = sys._getframe(1)
        assert frame.f_code is branch_and_bound.__code__
        v = frame.f_locals
        sent = v["sent"][-1] if v["sent"] else 0.0
        nodes[v["bits"]] = (v["e_loc"] + v["e_off"], v["w_loc"], v["f_lb"], sent, v["r_lb"])
        return math.inf

    leaves = list(branch_and_bound(ordered, ch, MEC, c, incumbent))
    return leaves, nodes


def exact_rate(p, ch):
    """bw * log2(1 + p * h^2 / (bw * n0)), in the current decimal context."""
    gain = Decimal(ch.h) ** 2 / (Decimal(ch.bw) * Decimal(ch.n0))
    return Decimal(ch.bw) * (1 + p * gain).ln() / Decimal(2).ln()


def exact_power(r, ch):
    """The inverse of `exact_rate`."""
    gain = Decimal(ch.h) ** 2 / (Decimal(ch.bw) * Decimal(ch.n0))
    return ((Decimal(r) * Decimal(2).ln() / Decimal(ch.bw)).exp() - 1) / gain


def exact_energy(w_local, f, d_offloaded, p, ch, c):
    """kappa * W * f^2 + p * D / rate(p) for W local cycles at clock f and
    D offloaded bits at power p."""
    energy = Decimal(c.kappa) * Decimal(w_local) * Decimal(f) ** 2
    if d_offloaded:
        energy += Decimal(p) * Decimal(d_offloaded) / exact_rate(Decimal(p), ch)
    return energy


def assert_within(value, exact, rel):
    assert abs(Decimal(value) - exact) <= Decimal(rel) * abs(exact), (value, exact)


class TestPruneMarginAgainstExactArithmetic:
    """The cost cut drops a node only when its bound exceeds the incumbent by
    more than PRUNE_MARGIN (relative). Checked here in 50-digit decimals: the
    floors never exceed a leaf's minimum clock and power, each node's bound
    and each leaf's energy, at its minimum point and at the caps, are within
    1e-13 of the exact energies at their own float points, and no node's
    bound exceeds either energy of a leaf below it by the margin."""

    @settings(max_examples=60, deadline=None)
    @given(margin_cases())
    def test_every_node_on_the_path_to_every_feasible_leaf(self, case):
        ordered, ch, c = case
        with localcontext() as ctx:
            ctx.prec = 50
            leaves, nodes = walk_nodes(ordered, ch, c)
            for bound, w_loc, f_lb, sent, r_lb in nodes.values():
                f_b = min(f_lb, c.f_max)
                p_b = min(exact_power(r_lb, ch), Decimal(c.p_max))
                assert_within(bound, exact_energy(w_loc, f_b, sent, p_b, ch, c), 1e-13)
            for bits in leaves:
                offloaded, local = split_by_bits(ordered, bits)
                f, p = min_feasible_frequency(local, c), min_feasible_power(offloaded, ch, MEC, c)
                for f_e, p_e in ((f, p), (c.f_max, c.p_max)):
                    energy = placement_energy(offloaded, local, f_e, p_e, ch, c)
                    exact = sum(exact_energy(u.w, f_e, 0.0, p_e, ch, c) for u in local)
                    exact += sum(exact_energy(0.0, f_e, u.d, p_e, ch, c) for u in offloaded)
                    assert_within(energy, exact, 1e-13)
                    for depth in range(len(bits) + 1):
                        assert nodes[bits[:depth]][0] <= energy * (1.0 + PRUNE_MARGIN)
                for depth in range(len(bits) + 1):
                    _, _, f_lb, _, r_lb = nodes[bits[:depth]]
                    assert min(f_lb, c.f_max) <= f
                    assert min(power_for_rate(ch, r_lb), c.p_max) <= p
