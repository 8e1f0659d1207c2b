import pytest

import mecoff.cli
from mecoff.cli import main
from mecoff.errors import InvalidParameterError
from mecoff.harness import load_rows
from mecoff.scenario import demo_config, save_config


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
        def fail(spec, workers=1):
            raise InvalidParameterError("refusing to enumerate 25 units")

        monkeypatch.setattr(mecoff.cli, "run_sweep", fail)
        code = main(["sweep", "--config", str(write_cfg(tmp_path)), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: refusing to enumerate")
        assert "Traceback" not in err

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
    ])
    def test_configs_that_would_crash_a_sweep(self, tmp_path, capsys, text):
        path = tmp_path / "crash.cfg"
        path.write_text(text)
        assert main(["validate-config", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
