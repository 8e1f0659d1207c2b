import pytest

from mecoff.errors import ConfigError
from mecoff.harness import (
    CSV_HEADER,
    SweepSpec,
    cell_seed,
    emit,
    load_rows,
    render_csv,
    run_sweep,
)
from mecoff.scenario import demo_config


def tiny_spec(**overrides):
    base = dict(
        config=demo_config(),
        methods=("M1", "M3", "M5"),
        snr_points_db=(10.0, 30.0),
        replications=3,
        seed=11,
    )
    base.update(overrides)
    return SweepSpec(**base)


class TestSpecValidation:
    def test_empty_methods_rejected(self):
        with pytest.raises(ConfigError):
            tiny_spec(methods=())

    def test_unknown_method_rejected(self):
        with pytest.raises(ConfigError):
            tiny_spec(methods=("M1", "M9"))

    def test_zero_replications_rejected(self):
        with pytest.raises(ConfigError):
            tiny_spec(replications=0)

    def test_snr_defaults_to_config(self):
        spec = tiny_spec(snr_points_db=None)
        assert spec.snr_points == spec.config.target_snr_db


class TestRunSweep:
    def test_deterministic(self):
        spec = tiny_spec()
        assert run_sweep(spec) == run_sweep(spec)

    def test_one_row_per_cell(self):
        spec = tiny_spec()
        rows = run_sweep(spec)
        assert len(rows) == len(spec.snr_points) * len(spec.methods)
        assert [(r.snr_db, r.method) for r in rows] == [
            (s, m) for s in spec.snr_points for m in spec.methods
        ]

    def test_appending_snr_point_keeps_cells(self):
        rows2 = run_sweep(tiny_spec())
        rows3 = run_sweep(tiny_spec(snr_points_db=(10.0, 30.0, 50.0)))
        kept = [r for r in rows3 if r.snr_db in (10.0, 30.0)]
        assert rows2 == kept

    def test_ladder_visible_in_aggregates(self):
        rows = run_sweep(tiny_spec(methods=("M3", "M5"), replications=5))
        by = {(r.snr_db, r.method): r for r in rows}
        for snr in (10.0, 30.0):
            assert by[(snr, "M5")].mean_energy_j <= by[(snr, "M3")].mean_energy_j * (1 + 1e-9)

    def test_bounded_probabilities(self):
        for r in run_sweep(tiny_spec()):
            assert 0.0 <= r.failure_probability <= 1.0
            assert r.mean_energy_j >= 0.0

    def test_cell_seed_splitting(self):
        a = cell_seed(7, 0, 1).generate_state(4)
        b = cell_seed(7, 0, 1).generate_state(4)
        c = cell_seed(7, 1, 0).generate_state(4)
        assert list(a) == list(b)
        assert list(a) != list(c)


class TestEmit:
    def test_csv_round_trip(self, tmp_path):
        rows = run_sweep(tiny_spec())
        (path,) = emit(rows, "csv", tmp_path)
        assert path.name == "results.csv"
        assert path.read_text().splitlines()[0] == CSV_HEADER
        assert load_rows(path) == rows

    def test_json_shape(self, tmp_path):
        import json

        rows = run_sweep(tiny_spec())
        (path,) = emit(rows, "json", tmp_path)
        payload = json.loads(path.read_text())
        assert len(payload) == len(rows)
        assert payload[0]["method"] == rows[0].method

    def test_plotdata_per_method_series(self, tmp_path):
        rows = run_sweep(tiny_spec())
        paths = emit(rows, "plotdata", tmp_path)
        names = sorted(p.name for p in paths)
        assert names == sorted(
            f"plot_{stem}_{m}.dat" for stem in ("energy", "failure") for m in ("M1", "M3", "M5")
        )
        body = (tmp_path / "plot_energy_M1.dat").read_text().splitlines()
        assert len(body) == 1 + 2  # header + one line per snr point

    def test_empty_table_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            emit([], "csv", tmp_path)

    def test_unknown_format_rejected(self, tmp_path):
        rows = run_sweep(tiny_spec())
        with pytest.raises(ConfigError):
            emit(rows, "parquet", tmp_path)

    def test_byte_identical_rendering(self):
        spec = tiny_spec()
        assert render_csv(run_sweep(spec)) == render_csv(run_sweep(spec))
