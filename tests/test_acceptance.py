"""End-to-end acceptance gates, one test per criterion.

Each test pins its tolerances and runtime budget and prints a PASS line
(visible with `pytest -s`). The sweep-based criteria use the demo preset
at seed 42 with 4 users, 100 replications and the 10..50 dB setpoints.
"""

import itertools
import time
from dataclasses import replace

import numpy as np
import pytest

from mecoff.correlation import FilterAction, filter_multi, filter_single, pearson
from mecoff.harness import SweepSpec, render_csv, run_sweep
from mecoff.methods import METHOD_IDS, run_method
from mecoff.model import ChannelState, DeviceCaps, MecCaps, Unit, snr, uplink_rate
from mecoff.scenario import demo_config, generate
from mecoff.schedule import mec_pipeline
from mecoff.tune import enumerate_feasible, optimize_user, order_units
from oracles import brute_force_feasible, des_pipeline, grid_search_best, tx_energy_total

MEC = MecCaps(f_mec=20e9)
SNRS = (10.0, 20.0, 30.0, 40.0, 50.0)


def report(name, t0, budget):
    elapsed = time.perf_counter() - t0
    print(f"ACCEPTANCE {name}: PASS ({elapsed:.1f}s, budget {budget:.0f}s)")
    assert elapsed < budget, f"{name} exceeded its runtime budget ({elapsed:.1f}s)"


def make_units(rng, k, d_range=(2e5, 2e6), w_range=(5e7, 2e9), deadlines=(0.05, 0.1, 0.2)):
    return [
        Unit(
            id=i, user=0, task_id=0, type_id=i, source_id=i,
            d=float(rng.integers(*d_range)),
            w=float(rng.integers(*w_range)),
            deadline=float(rng.choice(deadlines)),
        )
        for i in range(k)
    ]


def test_criterion_1_schedule_oracle():
    """Pipeline recurrence equals an independent event simulation (1e-9 s)."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(1001)
    mec = MecCaps(f_mec=1.0)
    for _ in range(1000):
        n = int(rng.integers(1, 21))
        tx = rng.uniform(1e-3, 5.0, size=n).tolist()
        comp = rng.uniform(1e-3, 5.0, size=n).tolist()
        units = [
            Unit(id=i, user=0, task_id=0, type_id=i, source_id=i,
                 d=tx[i], w=comp[i], deadline=1e9)
            for i in range(n)
        ]
        ours = mec_pipeline(units, 1.0, mec)
        oracle = des_pipeline(tx, comp)
        assert max(abs(a - b) for a, b in zip(ours, oracle)) <= 1e-9
    report("1 schedule-oracle", t0, 5.0)


def test_criterion_2_allocator_oracle():
    """Pruned tree search equals exhaustive feasibility filtering (set equality)."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(2002)
    ch = ChannelState(h=1.0, bw=20e6, n0=1.0 / (20e6 * 100))
    sizes = [12] * 5 + [int(rng.integers(2, 13)) for _ in range(195)]
    for k in sizes:
        units = make_units(rng, k)
        caps = DeviceCaps(f_max=2e9, p_max=1.0, kappa=1e-26,
                          user_deadline=float(rng.choice([0.1, 0.2, 0.5])))
        ordered = order_units(units)
        ours = set(enumerate_feasible(ordered, ch, MEC, caps).bits)
        oracle = brute_force_feasible(ordered, caps.f_max, caps.p_max, ch, MEC, caps)
        assert ours == oracle
    report("2 allocator-oracle", t0, 30.0)


def test_criterion_3_tuner_oracle():
    """Tuned energy within 0.5% of an exhaustive placement x 200x200 grid search.

    The gap is one-sided: the tuner works on the continuum, so it may beat
    the discrete grid, but it must never trail the best grid point by more
    than the tolerance.
    """
    t0 = time.perf_counter()
    rng = np.random.default_rng(3003)
    feasible_checked = 0
    worst_gap = 0.0
    for _ in range(100):
        k = int(rng.integers(2, 7))
        ch = ChannelState(h=float(rng.uniform(0.3, 2.0)), bw=20e6,
                          n0=1.0 / (20e6 * float(rng.uniform(20, 2000))))
        units = make_units(rng, k, w_range=(5e7, 8e8), deadlines=(0.1, 0.2))
        caps = DeviceCaps(f_max=2e9, p_max=1.0, kappa=1e-26, user_deadline=0.4)
        sol = optimize_user(units, ch, MEC, caps)
        best = grid_search_best(units, ch, MEC, caps)
        if sol is None:
            assert best is None  # grid agrees nothing fits
            continue
        assert best is not None
        feasible_checked += 1
        worst_gap = max(worst_gap, (sol.energy - best) / best)
    assert feasible_checked >= 60
    assert worst_gap <= 5e-3, f"tuner trails the exhaustive grid by {worst_gap:.2%}"
    report("3 tuner-oracle", t0, 60.0)


def test_criterion_4_e1_monotonicity():
    """Transmission energy strictly increasing in power; closed form matches
    p*D/rate to 1e-9 relative."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(4004)
    d_total = 1e6
    grid = np.linspace(1e-4, 1.0, 10_000)
    for _ in range(50):
        ch = ChannelState(h=float(rng.uniform(0.05, 3.0)), bw=20e6,
                          n0=1.0 / (20e6 * float(rng.uniform(1, 1e5))))
        es = np.array([tx_energy_total(d_total, p, ch) for p in grid])
        assert np.all(np.diff(es) > 0.0)
        gain = ch.h * ch.h / (ch.bw * ch.n0)
        direct = grid * d_total / (ch.bw * np.log2(1.0 + grid * gain))
        assert np.max(np.abs(es - direct) / direct) <= 1e-9
    report("4 E1-monotonicity", t0, 1.0)


def _ladder_config():
    return replace(
        demo_config(seed=0),
        n_users=1,
        tasks_per_user=(1, 2),
        units_per_task=(2, 3),
        deadlines=(0.5, 1.0),
        user_deadline=2.0,
        dup_unit_fraction=0.5,
        shared_source_fraction=0.2,
    )


def test_criterion_5_ladder_dominance():
    """energy(M1) >= energy(M2) >= ... >= energy(M5) on feasible draws,
    strictly M5 < M3 whenever a duplicate unit was planted."""
    t0 = time.perf_counter()
    cfg = _ladder_config()
    checked = 0
    dup_hits = 0
    seed = 0
    snr_cycle = itertools.cycle(SNRS)
    while checked < 500:
        seed += 1
        assert seed < 2000, "too many infeasible draws for the ladder check"
        sc = generate(cfg, snr_db=next(snr_cycle), seed=seed)
        results = {m: run_method(m, sc, 0) for m in METHOD_IDS}
        if any(r.failed_tasks for r in results.values()):
            continue
        checked += 1
        e = {m: results[m].energy for m in METHOD_IDS}
        for hi, lo in (("M1", "M2"), ("M2", "M3"), ("M3", "M4"), ("M4", "M5")):
            assert e[hi] >= e[lo] * (1 - 1e-9), (seed, hi, lo, e)
        keys = [(u.type_id, u.source_id) for u in sc.users[0].units]
        if len(set(keys)) < len(keys):  # a duplicate was injected
            dup_hits += 1
            assert e["M5"] < e["M3"], (seed, e)
    assert dup_hits >= 100
    report("5 ladder-dominance", t0, 120.0)


@pytest.fixture(scope="module")
def trend_sweep():
    spec = SweepSpec(
        config=demo_config(seed=42),
        methods=METHOD_IDS,
        snr_points_db=SNRS,
        replications=100,
        seed=42,
    )
    t0 = time.perf_counter()
    rows = run_sweep(spec)
    return spec, rows, time.perf_counter() - t0


def test_criterion_6_trend_reproduction(trend_sweep):
    """Energy and failure trends of the five methods across the SNR sweep."""
    _, rows, elapsed = trend_sweep
    by = {(r.snr_db, r.method): r for r in rows}
    # (a) the workload-reducing methods sit below every baseline at >= 20 dB
    for s in SNRS:
        if s < 20.0:
            continue
        baseline_floor = min(by[(s, m)].mean_energy_j for m in ("M1", "M2", "M3"))
        for m in ("M4", "M5"):
            assert by[(s, m)].mean_energy_j < baseline_floor, (s, m)
    # (b) failure probability nonincreasing in SNR per method ...
    for m in METHOD_IDS:
        fails = [by[(s, m)].failure_probability for s in SNRS]
        assert all(b <= a for a, b in zip(fails, fails[1:])), (m, fails)
    # ... and nonincreasing in method index per SNR
    for s in SNRS:
        fails = [by[(s, m)].failure_probability for m in METHOD_IDS]
        assert all(b <= a for a, b in zip(fails, fails[1:])), (s, fails)
    # (c) energy/failure coupling stays visible: both columns are reported
    for r in rows:
        assert r.mean_energy_j >= 0.0
        assert 0.0 <= r.failure_probability <= 1.0
    assert any(by[(10.0, m)].failure_probability > 0 for m in METHOD_IDS)
    print(f"ACCEPTANCE 6 trend-reproduction: PASS (sweep {elapsed:.1f}s, budget 60s)")
    assert elapsed < 60.0


def _exact_corr_frames(spec_rels, length=128, seed=7):
    """A frame array whose row correlation against a chosen earlier row is
    planted exactly; spec_rels[i] = (reference row, rho) for row i+1."""
    rng = np.random.default_rng(seed)
    frames = [rng.standard_normal(length)]
    for ref_idx, rho in spec_rels:
        x = frames[ref_idx]
        xc = x - x.mean()
        xn = xc / np.linalg.norm(xc)
        z = rng.standard_normal(length)
        zc = z - z.mean()
        zc -= (zc @ xn) * xn
        zn = zc / np.linalg.norm(zc)
        frames.append(rho * xn + np.sqrt(1 - rho * rho) * zn)
    return np.array(frames)


FULL, DIFF, SKIP = FilterAction.PROCESS_FULL, FilterAction.PROCESS_DIFF, FilterAction.SKIP

# (mode, planted relations, expected actions, expected reference epochs)
FILTER_CASES = [
    ("single", [], [FULL], [0]),
    ("single", [(0, 0.95)], [FULL, SKIP], [0, 0]),
    ("single", [(0, 0.85)], [FULL, FULL], [0, 0]),
    ("single", [(0, 0.95), (0, 0.85), (2, 0.95)], [FULL, SKIP, FULL, SKIP], [0, 0, 0, 2]),
    ("single", [(0, 0.95), (0, 0.95)], [FULL, SKIP, SKIP], [0, 0, 0]),
    ("single", [(0, 0.901)], [FULL, SKIP], [0, 0]),
    ("single", [(0, 0.899)], [FULL, FULL], [0, 0]),
    ("single", [(0, 0.2), (1, 0.2)], [FULL, FULL, FULL], [0, 0, 1]),
    ("single", [(0, -0.8)], [FULL, FULL], [0, 0]),
    ("single", [(0, 0.95), (0, 0.95), (0, 0.85), (3, 0.99)],
     [FULL, SKIP, SKIP, FULL, SKIP], [0, 0, 0, 0, 3]),
    ("multi", [], [FULL], [0]),
    ("multi", [(0, 0.95)], [FULL, SKIP], [0, 0]),
    ("multi", [(0, 0.7)], [FULL, DIFF], [0, 0]),
    ("multi", [(0, 0.2)], [FULL, FULL], [0, 0]),
    ("multi", [(0, 0.7), (1, 0.95)], [FULL, DIFF, SKIP], [0, 0, 1]),
    ("multi", [(0, 0.55), (1, 0.55), (2, 0.45)], [FULL, DIFF, DIFF, FULL], [0, 0, 1, 2]),
    ("multi", [(0, 0.95), (0, 0.6)], [FULL, SKIP, DIFF], [0, 0, 0]),
    ("multi", [(0, 0.45), (1, 0.85)], [FULL, FULL, DIFF], [0, 0, 1]),
    ("multi", [(0, -0.3)], [FULL, FULL], [0, 0]),
    ("multi", [(0, 0.6), (1, 0.6), (2, 0.95), (2, 0.51)],
     [FULL, DIFF, DIFF, SKIP, DIFF], [0, 0, 1, 2, 2]),
]


def test_criterion_7_correlation_filter():
    """Filter decisions match hand-written traces; pearson matches an
    independent implementation to 1e-12."""
    t0 = time.perf_counter()
    assert len(FILTER_CASES) == 20
    for i, (mode, rels, expected_actions, expected_refs) in enumerate(FILTER_CASES):
        frames = _exact_corr_frames(rels, seed=100 + i)
        if mode == "single":
            decisions = filter_single(frames, alpha=0.9)
        else:
            decisions = filter_multi(frames, alpha=0.9, beta=0.5)
        assert [d.action for d in decisions] == expected_actions, (i, mode)
        assert [d.reference_epoch for d in decisions] == expected_refs, (i, mode)
        for d, rel in zip(decisions[1:], rels):
            if d.action is DIFF:
                assert d.kept_fraction == pytest.approx(1.0 - rel[1], abs=1e-9)
    rng = np.random.default_rng(7007)
    for _ in range(1000):
        n = int(rng.integers(2, 128))
        x, y = rng.standard_normal(n), rng.standard_normal(n)
        assert pearson(x, y) == pytest.approx(np.corrcoef(x, y)[0, 1], abs=1e-12)
    report("7 correlation-filter", t0, 2.0)


def test_criterion_8_sweep_determinism(trend_sweep):
    """A second execution of the criterion-6 sweep is byte-identical."""
    spec, rows, _ = trend_sweep
    first = render_csv(rows)
    second = render_csv(run_sweep(spec))
    assert first == second
    print("ACCEPTANCE 8 determinism: PASS (byte-identical CSV)")
