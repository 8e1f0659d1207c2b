import sys
from dataclasses import replace

import numpy as np
import pytest

import mecoff.cli
import mecoff.tune
from mecoff.cli import main
from mecoff.errors import InvalidParameterError
from mecoff.scenario import demo_config, save_config
from mecoff.schedule import ConstraintReport, Violation
from oracles import load_rows


def write_cfg(tmp_path, cfg=None):
    path = tmp_path / "scenario.cfg"
    save_config(cfg or demo_config(), path)
    return path


class TestSweepCommand:
    def test_writes_csv(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "out"
        code = main([
            "sweep", "--config", str(cfg), "--methods", "M1,M5", "--snr", "20,40",
            "--reps", "2", "--seed", "3", "--out", str(out), "--format", "csv",
        ])
        assert code == 0
        rows = load_rows(out / "results.csv")
        assert [(r.snr_db, r.method) for r in rows] == [
            (20.0, "M1"), (20.0, "M5"), (40.0, "M1"), (40.0, "M5")
        ]
        assert "results.csv" in capsys.readouterr().out

    def test_plotdata_format(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "plots"
        code = main([
            "sweep", "--config", str(cfg), "--methods", "M3", "--snr", "30",
            "--reps", "1", "--out", str(out), "--format", "plotdata",
        ])
        assert code == 0
        assert (out / "plot_energy_M3.dat").exists()
        assert (out / "plot_failure_M3.dat").exists()

    def test_library_error_is_reported_without_traceback(self, tmp_path, capsys, monkeypatch):
        def fail(spec):
            raise InvalidParameterError("refusing to enumerate 25 units")

        monkeypatch.setattr(mecoff.cli, "run_sweep", fail)
        code = main(["sweep", "--config", str(write_cfg(tmp_path)), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: refusing to enumerate")
        assert "Traceback" not in err

    def test_revalidation_failure_is_reported_without_traceback(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr(
            mecoff.tune, "check_constraints",
            lambda result, units, caps: ConstraintReport((Violation("C3", None),)),
        )
        code = main([
            "sweep", "--config", str(write_cfg(tmp_path)), "--methods", "M3", "--snr", "30",
            "--reps", "1", "--out", str(tmp_path / "o"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: point")
        assert "Traceback" not in err

    def test_benchmark_argv_is_accepted(self, tmp_path):
        # the argv bench/run.py builds, --workers included
        cfg = write_cfg(tmp_path)
        argv = ["sweep", "--config", str(cfg), "--methods", "M1,M5", "--snr", "30",
                "--reps", "1", "--seed", "42", "--format", "csv"]
        assert main(argv + ["--out", str(tmp_path / "a"), "--workers", "1"]) == 0
        assert main(argv + ["--out", str(tmp_path / "b")]) == 0
        assert (tmp_path / "a" / "results.csv").read_bytes() == (
            tmp_path / "b" / "results.csv"
        ).read_bytes()

    @pytest.mark.parametrize("args", [
        ["--seed", "-1"],
        ["--snr", "abc"],
        ["--snr", "10,,20"],
        ["--snr", "nan"],
    ])
    def test_bad_seed_or_snr_is_reported(self, tmp_path, capsys, args):
        code = main(["sweep", "--config", str(write_cfg(tmp_path)), "--reps", "1",
                     "--out", str(tmp_path / "o")] + args)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_repeated_method_is_reported(self, tmp_path, capsys):
        code = main(["sweep", "--config", str(write_cfg(tmp_path)), "--methods", "M1,M3,M1",
                     "--reps", "1", "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: methods:") and "'M1'" in err
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_bad_config_is_reported(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("nonsense = 1\n")
        code = main(["sweep", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "nonsense" in capsys.readouterr().err


class TestDemoCommand:
    def test_runs_and_prints(self, tmp_path, capsys):
        code = main(["demo", "--reps", "1", "--seed", "1", "--out", str(tmp_path / "d")])
        assert code == 0
        out = capsys.readouterr().out
        assert "M1" in out and "M5" in out
        assert (tmp_path / "d" / "results.csv").exists()

    def test_negative_seed_is_reported(self, capsys):
        assert main(["demo", "--reps", "1", "--seed", "-1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: seed")
        assert "Traceback" not in err


class TestValidateConfigCommand:
    def test_ok(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        assert main(["validate-config", "--config", str(cfg)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_invalid(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("alpha = 0.1\nbeta = 0.9\n")
        assert main(["validate-config", "--config", str(path)]) == 2
        assert "error" in capsys.readouterr().err

    def test_missing_file(self, tmp_path):
        assert main(["validate-config", "--config", str(tmp_path / "nope.cfg")]) == 2

    @pytest.mark.parametrize("text", [
        "tasks_per_user = 5,5\nunits_per_task = 5,5\n",
        "task_size = 2,3\nunits_per_task = 5,5\n",
        "frame_len = 2\nframes_per_task = 3\n",
        "seed = -1\n",
        "target_snr_db = 10,nan\n",
    ])
    def test_configs_that_would_crash_a_sweep(self, tmp_path, capsys, text):
        path = tmp_path / "crash.cfg"
        path.write_text(text)
        assert main(["validate-config", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestNonFiniteAndExtremeInputs:
    @pytest.mark.parametrize("text, field", [
        ("task_size = 1e6,inf\n", "task_size"),
        ("task_size = 1e6,nan\n", "task_size"),
        ("cycle_density = 40,inf\n", "cycle_density"),
        ("bw = inf\n", "bw"),
        ("f_max = inf\n", "f_max"),
        ("p_max = inf\n", "p_max"),
        ("tasks_per_user = 1,inf\n", "tasks_per_user"),
        ("target_snr_db = 10,4000\n", "snr setpoint 4000.0"),
    ])
    def test_validate_config_names_the_field(self, tmp_path, capsys, text, field):
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        assert main(["validate-config", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert field in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("snr", ["4000", "-4000"])
    def test_unrepresentable_snr_setpoint_is_reported(self, tmp_path, capsys, snr):
        code = main(["sweep", "--config", str(write_cfg(tmp_path)), "--snr", snr,
                     "--reps", "1", "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: snr setpoint")
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("snr", ["400", "-400"])
    def test_extreme_representable_snr_setpoint_runs(self, tmp_path, snr):
        code = main(["sweep", "--config", str(write_cfg(tmp_path)), "--snr", snr,
                     "--methods", "M1,M5", "--reps", "1", "--out", str(tmp_path / "o")])
        assert code == 0
        assert [r.snr_db for r in load_rows(tmp_path / "o" / "results.csv")] == [float(snr)] * 2


    def test_noise_power_that_underflows_is_reported(self, tmp_path, capsys):
        path = write_cfg(tmp_path, replace(demo_config(), bw=1e-300, p_max=1e-300,
                                           target_snr_db=(300.0,)))
        for argv in (["validate-config", "--config", str(path)],
                     ["sweep", "--config", str(path), "--reps", "1", "--out", str(tmp_path / "o")]):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: snr setpoint")
            assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_clock_floor_that_underflows_runs(self, tmp_path, capsys):
        # f* = W / dl underflows to 0 for every local side
        path = write_cfg(tmp_path, replace(demo_config(), cycle_density=(1e-300, 1e-300),
                                           deadlines=(1e300, 1e300), user_deadline=1e300,
                                           kappa=1e-300))
        out = tmp_path / "o"
        assert main(["validate-config", "--config", str(path)]) == 0
        assert main(["sweep", "--config", str(path), "--reps", "1", "--out", str(out)]) == 0
        assert "error:" not in capsys.readouterr().err
        assert len(load_rows(out / "results.csv")) == 25

    def test_signed_zero_rho_range_runs(self, tmp_path, capsys):
        path = write_cfg(tmp_path, replace(demo_config(), frame_rho=(0.0, -0.0)))
        assert main(["validate-config", "--config", str(path)]) == 0
        assert main(["sweep", "--config", str(path), "--reps", "1",
                     "--out", str(tmp_path / "o")]) == 0
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("f_max", [5e5, 1e-300])
    def test_clock_cap_below_the_floor_runs(self, tmp_path, capsys, f_max):
        # a cap below F_MIN_FLOOR: all-offload winners must still run at a
        # clock within it
        path = write_cfg(tmp_path, replace(demo_config(), f_max=f_max))
        out = tmp_path / "o"
        assert main(["validate-config", "--config", str(path)]) == 0
        assert main(["sweep", "--config", str(path), "--reps", "3", "--out", str(out)]) == 0
        assert "error:" not in capsys.readouterr().err
        rows = load_rows(out / "results.csv")
        assert len(rows) == 25 and min(r.failure_probability for r in rows) < 1.0

    @pytest.mark.parametrize("hi", [1e19, 9.3e18, 2.0**63])
    def test_task_size_beyond_int64_is_reported(self, tmp_path, capsys, hi):
        # generate draws a task size below int(hi) + 1 as an int64
        path = write_cfg(tmp_path, replace(demo_config(), task_size=(hi, hi)))
        for argv in (["validate-config", "--config", str(path)],
                     ["sweep", "--config", str(path), "--reps", "1", "--out", str(tmp_path / "o")]):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: task_size")
            assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("changes", [
        {"cycle_model": "per_task", "cycle_density": (5e-324, 5e-324)},  # zero at generate
        {"cycle_density": (5e-324, 5e-324), "task_size": (3, 6)},  # zero after M4's scaling
    ])
    def test_cycles_that_underflow_are_reported(self, tmp_path, capsys, changes):
        path = write_cfg(tmp_path, replace(demo_config(), **changes))
        for argv in (["validate-config", "--config", str(path)],
                     ["sweep", "--config", str(path), "--reps", "1", "--out", str(tmp_path / "o")]):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: cycle_density")
            assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_cycles_just_above_the_underflow_bound_run(self, tmp_path, capsys):
        # a 1-bit unit keeps at least 1/frames_per_task of its cycles under M4
        lo = demo_config().frames_per_task * sys.float_info.min
        path = write_cfg(tmp_path, replace(demo_config(), cycle_density=(lo, lo), task_size=(3, 6)))
        out = tmp_path / "o"
        assert main(["validate-config", "--config", str(path)]) == 0
        assert main(["sweep", "--config", str(path), "--reps", "3", "--out", str(out)]) == 0
        assert "error:" not in capsys.readouterr().err
        assert len(load_rows(out / "results.csv")) == 25

    def test_task_size_just_below_int64_runs(self, tmp_path):
        hi = float(np.nextafter(2.0**63, 0))
        path = write_cfg(tmp_path, replace(demo_config(), task_size=(hi, hi)))
        out = tmp_path / "o"
        assert main(["sweep", "--config", str(path), "--reps", "1", "--out", str(out)]) == 0
        assert len(load_rows(out / "results.csv")) == 25


class TestFileSystemAndEncodingErrors:
    @pytest.mark.parametrize("case", ["sweep-out-is-file", "demo-out-is-file",
                                      "config-is-directory", "config-not-utf8"])
    def test_reported_without_traceback(self, tmp_path, capsys, case):
        taken = tmp_path / "taken"
        taken.write_text("")
        argv = {
            "sweep-out-is-file": ["sweep", "--config", str(write_cfg(tmp_path)),
                                  "--methods", "M1", "--reps", "1", "--out", str(taken)],
            "demo-out-is-file": ["demo", "--reps", "1", "--out", str(taken)],
            "config-is-directory": ["validate-config", "--config", str(tmp_path)],
            "config-not-utf8": ["validate-config", "--config", str(taken)],
        }[case]
        if case == "config-not-utf8":
            taken.write_bytes(b"alpha = 0.9 # \xff\n")
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err
        if case == "config-not-utf8":
            assert str(taken) in err and "UTF-8" in err
