"""The experiment scripts under ``scripts/`` run end to end on tiny inputs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from sdofkit.chansim import CSV_COLUMNS

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script, args, csv_name", [
    ("run_region_table.py", ["--n2-max", "3"], None),
    ("run_distance_sweep.py", ["--trials", "2", "--out", "distance.csv"], "distance.csv"),
    ("run_uncertainty_sweep.py", ["--trials", "2", "--n2", "2"], "uncertainty_n22.csv"),
])
def test_script_runs(tmp_path, script, args, csv_name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    if csv_name is None:
        assert proc.stdout.split("\n")[0].split() == ["N2", "SU1", "SU2", "E1", "E2", "strict",
                                                      "boundary"]
    else:
        assert (tmp_path / csv_name).read_text().splitlines()[0] == ",".join(CSV_COLUMNS)
