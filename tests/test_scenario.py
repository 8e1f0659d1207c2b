import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mecoff.correlation import pearson
from mecoff.errors import ConfigError
from mecoff.harness import SweepSpec, run_sweep
from mecoff.methods import run_method
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
from mecoff.tune import MAX_TREE_DEPTH
from oracles import reference_generate, reference_synthesize_frames


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
        if not all(np.array_equal(ua.frames[t], ub.frames[t]) for t in ua.frames):
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
        assert frames.shape == (6, 256) and len(targets) == 5
        for x, y, rho in zip(frames, frames[1:], targets):
            assert pearson(x, y) == pytest.approx(rho, abs=0.05)  # exact by construction
            assert pearson(x, y) == pytest.approx(rho, abs=1e-9)

    def test_signed_zero_range_draws_zero(self):
        # 0.0 <= -0.0 holds, so the config validates; the draw must not fail
        frames, targets = synthesize_frames(np.random.default_rng(3), 3, 8, 0.0, -0.0)
        assert frames.shape == (3, 8) and targets == [0.0, 0.0]

    @given(
        st.integers(0, 2**32),
        st.integers(1, 6),
        st.integers(3, 512),
        st.one_of(st.sampled_from([-1.0, 1.0]), st.floats(-1.0, 1.0)),
        st.one_of(st.sampled_from([-1.0, 1.0]), st.floats(-1.0, 1.0)),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_reference_bit_for_bit(self, seed, n_frames, length, r1, r2):
        rho_lo, rho_hi = sorted((r1, r2))
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        frames, targets = synthesize_frames(rng, n_frames, length, rho_lo, rho_hi)
        ref_frames, ref_targets = reference_synthesize_frames(
            ref_rng, n_frames, length, rho_lo, rho_hi
        )
        assert frames.shape == (n_frames, length) and frames.flags.c_contiguous
        assert [f.tobytes() for f in frames] == [f.tobytes() for f in ref_frames]
        assert targets == ref_targets
        assert rng.bit_generator.state == ref_rng.bit_generator.state


class TestGenerate:
    def test_bit_identical_for_same_seed(self):
        cfg = small_config()
        assert scenarios_equal(generate(cfg, 20.0, 7), generate(cfg, 20.0, 7))

    def test_filter_memo_leaves_equality_alone(self):
        cfg = small_config()
        a, b = generate(cfg, 20.0, 7), generate(cfg, 20.0, 7)
        for u in range(len(a.users)):
            run_method("M4", a, u)
        assert a._filtered_units and not b._filtered_units
        assert scenarios_equal(a, b)
        assert (a.snr_db, a.caps, a.mec, a.config) == (b.snr_db, b.caps, b.mec, b.config)
        assert "_filtered_units" not in repr(a)
        fresh = dataclasses.replace(a)  # same users, empty memo
        assert not fresh._filtered_units and fresh == a

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
                assert frames.shape == (cfg.frames_per_task, cfg.frame_len)
                assert frames.dtype == np.float64 and frames.flags.c_contiguous

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


@st.composite
def generator_configs(draw):
    """Configs that reach every branch of the task draw: both cycle models,
    planted copies and shared sources, and task sizes just above the unit
    count, where `_split_size` gives parts back and a planted unit may not
    fit."""
    units_hi = draw(st.integers(1, 8))
    units_lo = draw(st.integers(max(1, units_hi - 2), units_hi))
    if draw(st.booleans()):
        size_lo = draw(st.integers(units_hi, units_hi + 1))
        size_hi = draw(st.integers(size_lo, size_lo + 4))
    else:
        size_lo = draw(st.integers(1_000, 100_000))
        size_hi = draw(st.integers(size_lo, 3 * size_lo))
    density_lo = draw(st.floats(1.0, 5_000.0))
    return ScenarioConfig(
        n_users=draw(st.integers(1, 4)),
        tasks_per_user=(1, draw(st.integers(1, min(5, MAX_TREE_DEPTH // units_hi)))),
        units_per_task=(units_lo, units_hi),
        task_size=(float(size_lo), float(size_hi)),
        cycle_density=(density_lo, density_lo * draw(st.floats(1.0, 4.0))),
        cycle_model=draw(st.sampled_from(["per_bit", "per_task"])),
        deadlines=(0.05, 0.1, 0.2),
        frames_per_task=draw(st.integers(1, 3)),
        frame_len=draw(st.integers(3, 16)),
        dup_unit_fraction=draw(st.floats(0.0, 0.5)),
        shared_source_fraction=draw(st.floats(0.0, 0.5)),
    )


class TestGenerateAgainstReference:
    @given(generator_configs(), st.integers(0, 2**32), st.sampled_from([0.0, 25.0]))
    @settings(max_examples=300, deadline=None)
    def test_same_draw_and_rng_state(self, cfg, seed, snr_db):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        sc = generate(cfg, snr_db, rng)  # default_rng hands a Generator back as is
        ref = reference_generate(cfg, snr_db, ref_rng)
        assert len(sc.users) == len(ref.users)
        for user, ref_user in zip(sc.users, ref.users):
            assert user.units == ref_user.units
            assert user.channel == ref_user.channel
            assert user.n_tasks == ref_user.n_tasks
            assert sorted(user.frames) == sorted(ref_user.frames)
            for task, seq in user.frames.items():
                ref_seq = ref_user.frames[task]
                assert (seq.shape, seq.tobytes()) == (ref_seq.shape, ref_seq.tobytes())
        assert (sc.caps, sc.mec, sc.snr_db) == (ref.caps, ref.mec, ref.snr_db)
        assert rng.bit_generator.state == ref_rng.bit_generator.state


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
                frames.shape == (frames_per_task, frame_len)
                for user in sc.users for frames in user.frames.values()
            )


class TestValidateRejectsNonIntegralCounts:
    @pytest.mark.parametrize("field, value", [
        ("n_users", 2.5),
        ("frames_per_task", 2.5),
        ("frame_len", 256.5),
        ("seed", 1.0),
        ("tasks_per_user", (1.5, 2)),
        ("units_per_task", (2, 2.5)),
        ("units_per_task", 3),
    ])
    def test_field_is_named(self, field, value):
        cfg = small_config(**{field: value})
        with pytest.raises(ConfigError, match=f"^{field}: need integers"):
            cfg.validate()
        with pytest.raises(ConfigError, match=f"^{field}:"):
            run_sweep(SweepSpec(config=cfg, methods=("M1",), replications=1))

    def test_numpy_integers_are_counts(self):
        cfg = small_config(n_users=np.int64(2), units_per_task=(np.int64(2), 3))
        cfg.validate()
        assert len(generate(cfg).users) == 2


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
        ScenarioConfig().validate()
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

    def test_noise_power_that_underflows(self):
        # n0 = 1e-30 is finite and positive, but bw * n0, the divisor of
        # snr, rounds to 0
        with pytest.raises(ConfigError, match="snr setpoint"):
            noise_density(300.0, 1e-300, 1e-300)
        with pytest.raises(ConfigError, match="snr setpoint"):
            small_config(target_snr_db=(300.0,), bw=1e-300, p_max=1e-300).validate()
