"""Tests of the benchmark's own machinery: python3 -m pytest bench -q"""

from dataclasses import replace

import pytest

import run
from layers import RUN_METHOD, TARGETS, traced_metrics
from spans import MissingProbe, Span, Target, Tracer, self_times, totals_by_name

mecoff = run.import_mecoff()


def test_self_time_on_hand_built_tree():
    # root [0, 10] holds a [1, 4] and b [5, 9]; a holds a1 [2, 3]
    spans = [
        Span("root", 0.0, 10.0, -1, None),
        Span("a", 1.0, 4.0, 0, None),
        Span("a1", 2.0, 3.0, 1, None),
        Span("b", 5.0, 9.0, 0, None),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    spans.append(Span("a", 9.5, 10.0, 0, None))
    assert self_times(spans)[0] == 2.5
    assert totals_by_name(spans)["a"] == (2, 3.5, 2.5)


def test_tail_rule_at_20_and_10000_samples():
    value, pct = run.tail([float(i) for i in range(20)])
    assert (value, pct) == (9.0, 50.0)  # ten of the twenty samples lie beyond it
    value, pct = run.tail([float(i) for i in range(10000)][::-1])
    assert (value, pct) == (9989.0, 99.9)


def test_tail_rule_below_eleven_samples_reports_the_maximum():
    assert run.tail([1.0, 5.0, 2.0]) == (5.0, 100.0)
    with pytest.raises(ValueError):
        run.tail([])


def test_solve_latency_is_the_median_of_its_repeats():
    sweeps = [
        [("M1", 3.0, 0, 1), ("M3", 9.0, 0, 2)],
        [("M1", 2.0, 0, 1), ("M3", 11.0, 0, 2)],
        [("M1", 7.0, 0, 1), ("M3", 10.0, 0, 2)],
    ]
    assert run.solve_latencies(sweeps) == [("M1", 3.0), ("M3", 10.0)]
    with pytest.raises(RuntimeError):
        run.solve_latencies([sweeps[0], sweeps[0][::-1]])


def _lookup(path):
    module_name, attr = path.rsplit(".", 1)
    return getattr(__import__(module_name, fromlist=[attr]), attr)


def test_tracer_restores_every_name_it_patched():
    originals = {t.path: _lookup(t.path) for t in TARGETS}
    tracer = Tracer(TARGETS)
    with tracer:
        assert not tracer.absent
        for path, original in originals.items():
            assert _lookup(path) is not original
    for path, original in originals.items():
        assert _lookup(path) is original


def test_absent_name_is_reported_and_skipped(monkeypatch):
    monkeypatch.delattr(mecoff.tune, "min_feasible_power")
    tracer = Tracer(TARGETS)
    with tracer:
        assert tracer.absent == ["mecoff.tune.min_feasible_power"]
    assert not hasattr(mecoff.tune, "min_feasible_power")
    figures = traced_metrics(tracer)
    assert figures["tune.min_power.calls"] == 0 and figures["tune.min_power.self_s"] == 0.0


def test_missing_solve_probe_fails_loudly(monkeypatch, capsys):
    original = mecoff.cli.load_config
    monkeypatch.delattr(mecoff.harness, "run_method")
    with pytest.raises(MissingProbe):
        Tracer([Target("mecoff.cli.load_config", "x"), Target(RUN_METHOD, "methods.run", required=True)]).install()
    assert mecoff.cli.load_config is original  # what was patched before the failure is restored
    assert run.run_one(run.WORKLOADS["frames_heavy"], 42, 0.0, trace=True) == 3
    assert '"correct"' not in capsys.readouterr().out


def test_workload_configs_load_and_sweep_demo_is_the_demo_preset():
    from mecoff.scenario import demo_config, load_config

    configs = {name: load_config(w.config) for name, w in run.WORKLOADS.items()}
    assert configs["sweep_demo"] == demo_config(seed=42)
    assert configs["big_tree"].target_snr_db == (30.0,)


def test_reference_comparison():
    ref = run.WORKLOADS["big_tree"].reference.read_text()
    assert run.compare_to_reference(ref, ref) == []
    lines = ref.splitlines()
    snr, method, energy, fail, ts, reps = lines[1].split(",")
    close = f"{snr},{method},{float(energy) * (1 + 1e-9)!r},{fail},{ts},{reps}"
    assert run.compare_to_reference("\n".join([lines[0], close, *lines[2:]]), ref) == []
    far = f"{snr},{method},{float(energy) * (1 + 1e-5)!r},{fail},{ts},{reps}"
    assert len(run.compare_to_reference("\n".join([lines[0], far, *lines[2:]]), ref)) == 1
    flipped = f"{snr},{method},{energy},0.5,{ts},{reps}"
    assert len(run.compare_to_reference("\n".join([lines[0], flipped, *lines[2:]]), ref)) == 1


def test_recheck_accepts_every_method_and_catches_a_bad_point():
    from mecoff.methods import run_method
    from mecoff.scenario import demo_config, generate

    scenario = generate(demo_config(seed=42), snr_db=30.0, seed=3)
    placed = None
    for method in ("M1", "M2", "M3", "M4", "M5"):
        for user in range(len(scenario.users)):
            result = run_method(method, scenario, user)
            assert run.recheck(method, scenario, user, result) is None
            if result.solution is not None and method == "M3":
                placed = (user, result)
    user, result = placed
    too_fast = replace(result, solution=replace(result.solution, f=scenario.caps.f_max * 2))
    assert "f_max" in run.recheck("M3", scenario, user, too_fast)
    cheaper = replace(result, energy=result.energy * 0.5)
    assert "energy" in run.recheck("M3", scenario, user, cheaper)
