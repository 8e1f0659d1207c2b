import math
from pathlib import Path

import numpy as np
import pytest

from mecoff.correlation import pearson
from mecoff.errors import ConfigError
from mecoff.model import snr
from mecoff.scenario import (
    Scenario,
    ScenarioConfig,
    demo_config,
    generate,
    load_config,
    noise_density,
    sample_channel,
    save_config,
    synthesize_frames,
)


def small_config(**overrides):
    base = dict(
        n_users=2,
        tasks_per_user=(1, 3),
        units_per_task=(2, 4),
        frames_per_task=3,
        frame_len=64,
        seed=5,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def scenarios_equal(a: Scenario, b: Scenario) -> bool:
    if (a.snr_db, a.caps, a.mec, len(a.users)) != (b.snr_db, b.caps, b.mec, len(b.users)):
        return False
    for ua, ub in zip(a.users, b.users):
        if ua.units != ub.units or ua.channel != ub.channel or ua.n_tasks != ub.n_tasks:
            return False
        if set(ua.frames) != set(ub.frames):
            return False
        for t in ua.frames:
            for fa, fb in zip(ua.frames[t], ub.frames[t]):
                if (fa.task_label, fa.epoch) != (fb.task_label, fb.epoch):
                    return False
                if not np.array_equal(fa.data, fb.data):
                    return False
    return True


class TestSampleChannel:
    def test_mean_snr_scaling_definition(self):
        ch = sample_channel(np.random.default_rng(0), 0.0, bw=20e6, p_max=1.0)
        assert ch.n0 == pytest.approx(1.0 / 20e6)

    def test_monte_carlo_mean(self):
        rng = np.random.default_rng(123)
        bw, p_max, snr_db = 20e6, 1.0, 17.0
        values = [
            snr(p_max, sample_channel(rng, snr_db, bw, p_max)) for _ in range(100_000)
        ]
        assert np.mean(values) == pytest.approx(10 ** (snr_db / 10), rel=0.02)

    def test_seed_determinism(self):
        a = sample_channel(np.random.default_rng(9), 20.0, 20e6, 1.0)
        b = sample_channel(np.random.default_rng(9), 20.0, 20e6, 1.0)
        assert a == b


class TestSynthesizeFrames:
    def test_planted_correlations_exact(self):
        rng = np.random.default_rng(1)
        frames, targets = synthesize_frames(rng, 6, 256, 0.3, 0.99)
        assert len(frames) == 6 and len(targets) == 5
        for x, y, rho in zip(frames, frames[1:], targets):
            assert pearson(x, y) == pytest.approx(rho, abs=0.05)  # exact by construction
            assert pearson(x, y) == pytest.approx(rho, abs=1e-9)


class TestGenerate:
    def test_bit_identical_for_same_seed(self):
        cfg = small_config()
        assert scenarios_equal(generate(cfg, 20.0, 7), generate(cfg, 20.0, 7))

    def test_different_seeds_differ(self):
        cfg = small_config()
        assert not scenarios_equal(generate(cfg, 20.0, 7), generate(cfg, 20.0, 8))

    def test_task_size_conservation(self):
        cfg = small_config(seed=3)
        sc = generate(cfg)
        for user in sc.users:
            by_task = {}
            for u in user.units:
                by_task.setdefault(u.task_id, []).append(u)
            for members in by_task.values():
                total = sum(m.d for m in members)
                assert cfg.task_size[0] <= total <= cfg.task_size[1]
                assert total == int(total)  # integral bits, exact sum

    def test_values_inside_ranges(self):
        cfg = small_config(seed=11)
        sc = generate(cfg, 30.0)
        for user in sc.users:
            n_tasks = len({u.task_id for u in user.units})
            assert cfg.tasks_per_user[0] <= n_tasks <= cfg.tasks_per_user[1]
            for u in user.units:
                assert u.deadline in cfg.deadlines
            for t, frames in user.frames.items():
                assert len(frames) == cfg.frames_per_task
                assert all(len(fr.data) == cfg.frame_len for fr in frames)

    def test_zero_fractions_mean_no_correlation(self):
        cfg = small_config(dup_unit_fraction=0.0, shared_source_fraction=0.0, seed=2)
        sc = generate(cfg)
        for user in sc.users:
            keys = [(u.type_id, u.source_id) for u in user.units]
            sources = [u.source_id for u in user.units]
            assert len(set(keys)) == len(keys)
            assert len(set(sources)) == len(sources)

    def test_planted_duplicates_appear(self):
        cfg = small_config(
            n_users=8, tasks_per_user=(3, 4), dup_unit_fraction=0.9,
            shared_source_fraction=0.0, seed=6,
        )
        sc = generate(cfg)
        dup_pairs = 0
        for user in sc.users:
            keys = [(u.type_id, u.source_id) for u in user.units]
            dup_pairs += len(keys) - len(set(keys))
        assert dup_pairs > 0

    def test_unit_ids_sequential_within_user(self):
        sc = generate(small_config(seed=9))
        for user in sc.users:
            assert [u.id for u in user.units] == list(range(len(user.units)))

    def test_invalid_config_names_field(self):
        with pytest.raises(ConfigError, match="tasks_per_user"):
            generate(small_config(tasks_per_user=(3, 1)))

    def test_cycle_model_per_task(self):
        cfg = small_config(cycle_model="per_task", cycle_density=(1500.0, 4500.0), seed=4)
        sc = generate(cfg)
        for user in sc.users:
            by_task = {}
            for u in user.units:
                by_task.setdefault(u.task_id, []).append(u)
            for members in by_task.values():
                total_w = sum(m.w for m in members)
                assert 1500.0 <= total_w <= 4500.0 + 1e-6


class TestValidateRejectsUnrunnableConfigs:
    def test_tree_deeper_than_the_search_allows(self):
        with pytest.raises(ConfigError, match="tasks_per_user x units_per_task"):
            small_config(tasks_per_user=(5, 5), units_per_task=(5, 5)).validate()

    def test_tree_depth_at_the_limit_is_accepted(self):
        small_config(tasks_per_user=(4, 4), units_per_task=(6, 6)).validate()

    def test_task_too_small_to_split(self):
        with pytest.raises(ConfigError, match="task_size"):
            small_config(task_size=(2.0, 3.0), units_per_task=(5, 5)).validate()

    def test_smallest_splittable_task_runs(self):
        cfg = small_config(task_size=(5.0, 6.0), units_per_task=(5, 5), seed=3)
        for seed in range(5):
            sc = generate(cfg, seed=seed)
            assert all(u.d >= 1 for user in sc.users for u in user.units)

    def test_two_sample_frames_cannot_be_correlated(self):
        with pytest.raises(ConfigError, match="frame_len"):
            small_config(frame_len=2, frames_per_task=3).validate()

    @pytest.mark.parametrize("frame_len, frames_per_task", [(2, 1), (3, 8)])
    def test_shortest_runnable_frames(self, frame_len, frames_per_task):
        cfg = small_config(frame_len=frame_len, frames_per_task=frames_per_task)
        for seed in range(5):
            sc = generate(cfg, seed=seed)
            assert all(
                len(f.data) == frame_len
                for user in sc.users for frames in user.frames.values() for f in frames
            )


class TestConfigIo:
    def test_round_trip(self, tmp_path):
        cfg = demo_config(seed=99)
        path = tmp_path / "scenario.cfg"
        save_config(cfg, path)
        loaded = load_config(path)
        assert loaded == cfg

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("n_users = 4\nwarp_drive = 9\n")
        with pytest.raises(ConfigError, match="warp_drive"):
            load_config(path)

    def test_bad_value_names_key(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("n_users = banana\n")
        with pytest.raises(ConfigError, match="n_users"):
            load_config(path)

    def test_comments_and_defaults(self, tmp_path):
        path = tmp_path / "partial.cfg"
        path.write_text("# comment\nn_users = 3  # trailing\n")
        cfg = load_config(path)
        assert cfg.n_users == 3
        assert cfg.bw == ScenarioConfig().bw

    def test_validation_runs_on_load(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("alpha = 0.2\nbeta = 0.5\n")
        with pytest.raises(ConfigError):
            load_config(path)



class TestValidateRejectsNonFiniteFields:
    @pytest.mark.parametrize("field, value", [
        ("task_size", (1e6, math.inf)),
        ("task_size", (1e6, math.nan)),
        ("cycle_density", (40.0, math.inf)),
        ("bw", math.inf),
        ("f_max", math.inf),
        ("p_max", math.inf),
        ("kappa", math.nan),
        ("deadlines", (0.1, math.inf)),
    ])
    def test_field_is_named(self, field, value):
        with pytest.raises(ConfigError, match=f"^{field}:"):
            small_config(**{field: value}).validate()

    def test_shipped_configs_still_validate(self):
        demo_config().validate()
        workloads = sorted((Path(__file__).parents[1] / "bench" / "workloads").glob("*.cfg"))
        assert len(workloads) == 3
        for path in workloads:
            load_config(path)


class TestNoiseDensity:
    @pytest.mark.parametrize("snr_db", [-400.0, 0.0, 17.0, 400.0])
    def test_representable_setpoint(self, snr_db):
        n0 = noise_density(snr_db, 20e6, 1.0)
        assert n0 == 1.0 / (20e6 * 10.0 ** (snr_db / 10.0))
        assert sample_channel(np.random.default_rng(0), snr_db, 20e6, 1.0).n0 == n0

    @pytest.mark.parametrize("snr_db, bw", [
        (4000.0, 20e6),  # 10^(snr/10) overflows
        (-4000.0, 20e6),  # 10^(snr/10) underflows to 0
        (3050.0, 20e6),  # bw * 10^(snr/10) overflows, n0 = 0
        (math.inf, 20e6),
        (-math.inf, 20e6),
        (math.nan, 20e6),
    ])
    def test_unrepresentable_setpoint(self, snr_db, bw):
        with pytest.raises(ConfigError, match="snr setpoint"):
            noise_density(snr_db, bw, 1.0)
        with pytest.raises(ConfigError, match="snr setpoint"):
            sample_channel(np.random.default_rng(0), snr_db, bw, 1.0)
        with pytest.raises(ConfigError, match="snr setpoint"):
            small_config(target_snr_db=(10.0, snr_db), bw=bw).validate()
