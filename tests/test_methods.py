from dataclasses import replace

import pytest

import mecoff.correlation
import mecoff.methods
from mecoff.cli import main
from mecoff.harness import SweepSpec, cell_seed, run_sweep
from mecoff.methods import METHOD_IDS, run_method
from mecoff.scenario import demo_config, generate, save_config


def run_all(scenario, user=0):
    return {m: run_method(m, scenario, user) for m in METHOD_IDS}


def loose_config(**overrides):
    """Regime where every method succeeds, so energies are comparable."""
    base = demo_config(seed=0)
    defaults = dict(
        n_users=1,
        deadlines=(0.5, 1.0),
        user_deadline=2.0,
        tasks_per_user=(2, 3),
        units_per_task=(2, 3),
    )
    defaults.update(overrides)
    return replace(base, **defaults)


class TestLadder:
    def test_dominance_on_feasible_draws(self):
        checked = 0
        for seed in range(30):
            sc = generate(loose_config(), snr_db=20.0, seed=seed)
            results = run_all(sc)
            if any(r.failed_tasks for r in results.values()):
                continue
            checked += 1
            e = {m: results[m].energy for m in METHOD_IDS}
            assert e["M1"] >= e["M2"] * (1 - 1e-9)
            assert e["M2"] >= e["M3"] * (1 - 1e-9)
            assert e["M3"] >= e["M4"] * (1 - 1e-9)
            assert e["M4"] >= e["M5"] * (1 - 1e-9)
        assert checked >= 25

    def test_duplicates_make_m5_strictly_cheaper(self):
        cfg = loose_config(dup_unit_fraction=0.9, shared_source_fraction=0.0,
                           tasks_per_user=(3, 4))
        hits = 0
        for seed in range(20):
            sc = generate(cfg, snr_db=20.0, seed=seed)
            user = sc.users[0]
            keys = [(u.type_id, u.source_id) for u in user.units]
            if len(set(keys)) == len(keys):
                continue  # no duplicate planted in this draw
            results = run_all(sc)
            if any(r.failed_tasks for r in results.values()):
                continue
            hits += 1
            assert results["M5"].energy < results["M3"].energy
        assert hits >= 10

    def test_no_correlation_collapses_the_top_of_the_ladder(self):
        # single frame per task and no planted relations: filters and dedup
        # are no-ops, so M3, M4 and M5 coincide
        cfg = loose_config(frames_per_task=1, dup_unit_fraction=0.0,
                           shared_source_fraction=0.0)
        sc = generate(cfg, snr_db=30.0, seed=3)
        results = run_all(sc)
        assert results["M3"].energy == pytest.approx(results["M4"].energy, rel=1e-12)
        assert results["M4"].energy == pytest.approx(results["M5"].energy, rel=1e-12)
        assert results["M3"].solution.assignment == results["M5"].solution.assignment


class TestFailureConvention:
    def test_hopeless_channel_fails_everything(self):
        # \approx -60 dB setpoint: no placement can move any bits in time,
        # and the workload is far too big to run locally
        cfg = loose_config(deadlines=(0.05, 0.1), user_deadline=0.1,
                           cycle_density=(2000.0, 4000.0))
        sc = generate(cfg, snr_db=-60.0, seed=1)
        for m in METHOD_IDS:
            r = run_method(m, sc, 0)
            assert r.failed_tasks == r.total_tasks > 0
            assert r.energy == 0.0
            assert r.ts == 0.0
            assert r.solution is None

    def test_success_reports_schedule(self):
        sc = generate(loose_config(), snr_db=30.0, seed=2)
        r = run_method("M3", sc, 0)
        assert r.failed_tasks == 0
        assert r.total_tasks == sc.users[0].n_tasks
        assert r.ts == r.solution.schedule.ts
        assert r.energy == r.solution.energy

    def test_m1_equals_m2_failures(self):
        # tuning cannot change decision-stage feasibility
        cfg = loose_config(deadlines=(0.05, 0.1), user_deadline=0.12)
        for seed in range(10):
            sc = generate(cfg, snr_db=10.0, seed=seed)
            r1 = run_method("M1", sc, 0)
            r2 = run_method("M2", sc, 0)
            assert r1.failed_tasks == r2.failed_tasks


class TestMethodSemantics:
    def test_m1_runs_at_maxima(self):
        sc = generate(loose_config(), snr_db=20.0, seed=4)
        r = run_method("M1", sc, 0)
        assert r.solution.f == sc.caps.f_max
        assert r.solution.p == sc.caps.p_max

    def test_m1_m2_share_placement_space(self):
        # same task-granularity placement tree: M2 is M1 plus tuning, so it
        # can only improve energy
        for seed in range(8):
            sc = generate(loose_config(), snr_db=20.0, seed=seed)
            r1, r2 = run_method("M1", sc, 0), run_method("M2", sc, 0)
            if r1.solution and r2.solution:
                assert r2.energy <= r1.energy * (1 + 1e-9)
                assert len(r1.solution.assignment.order) == sc.users[0].n_tasks

    def test_m3_uses_unit_granularity(self):
        sc = generate(loose_config(), snr_db=20.0, seed=5)
        r = run_method("M3", sc, 0)
        assert len(r.solution.assignment.order) == len(sc.users[0].units)

    def test_m4_filtering_reduces_workload(self):
        sc = generate(loose_config(), snr_db=20.0, seed=6)
        r3, r4 = run_method("M3", sc, 0), run_method("M4", sc, 0)
        if r3.solution and r4.solution:
            assert r4.energy <= r3.energy * (1 + 1e-9)

    def test_unknown_method_rejected(self):
        sc = generate(loose_config(), snr_db=20.0, seed=0)
        with pytest.raises(Exception):
            run_method("M6", sc, 0)


class TestFilterSharedByM4AndM5:
    @pytest.mark.parametrize("mode", ["multi", "single"])
    def test_sweep_makes_no_filter_call(self, monkeypatch, mode):
        # the frames are filtered as generate draws them; M4 and M5 read `kept`
        calls = []
        for module in (mecoff.methods, mecoff.correlation):
            for name in ("filter_multi", "filter_single"):
                monkeypatch.setattr(module, name, lambda *a, name=name: calls.append(name))
        cfg = replace(demo_config(seed=3), filter_mode=mode)
        spec = SweepSpec(config=cfg, methods=("M4", "M5"), snr_points_db=(20.0, 40.0),
                         replications=3, seed=3)
        rows = run_sweep(spec)
        assert calls == [] and len(rows) == 4
        sc = generate(cfg, 20.0, cell_seed(spec.seed, 0, 0))
        assert any(sum(kept) < len(kept) for user in sc.users for kept in user.kept.values())

    def test_m5_row_does_not_depend_on_m4(self, tmp_path, capsys):
        cfg = tmp_path / "scenario.cfg"
        save_config(demo_config(), cfg)
        rows = {}
        for methods in ("M5", "M4,M5", "M5,M4"):
            out = tmp_path / methods.replace(",", "_")
            assert main(["sweep", "--config", str(cfg), "--methods", methods, "--snr", "10,40",
                         "--reps", "3", "--seed", "5", "--out", str(out)]) == 0
            lines = (out / "results.csv").read_text().splitlines()
            rows[methods] = [line for line in lines if line.split(",")[1] == "M5"]
        assert len(rows["M5"]) == 2
        assert rows["M5"] == rows["M4,M5"] == rows["M5,M4"]
