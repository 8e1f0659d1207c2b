"""The scripts under scripts/ run end to end, each in its own interpreter."""

import json
import os
import subprocess
import sys
from pathlib import Path

from mecoff.methods import METHOD_IDS
from oracles import load_rows

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    path = os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=120,
    )


def test_kstress_scores_leaves():
    # its probe wraps mecoff.tune.placement_energy: a search that no longer
    # scored leaves through that binding would read 0 without any error
    proc = run_script("kstress.py", "--k", "3", "--snr", "30", "--repeats", "1")
    assert proc.returncode == 0, proc.stderr
    (run,) = json.loads(proc.stdout)["runs"]
    assert run["k"] == 3 and run["snr_db"] == 30.0
    assert run["leaves_scored"] >= 1


def test_run_trends_writes_results_and_plot_data(tmp_path):
    proc = run_script("run_trends.py", "--reps", "1", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    plots = sorted(p.name for p in tmp_path.glob("plot_*.dat"))
    assert plots == sorted(f"plot_{kind}_{m}.dat" for kind in ("energy", "failure") for m in METHOD_IDS)
    assert len(load_rows(tmp_path / "results.csv")) == 5 * len(METHOD_IDS)
