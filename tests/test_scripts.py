"""Smoke runs of the two desk scripts under scripts/, each in a fresh interpreter."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )


def test_extremal_survey_json():
    proc = run_script(
        "extremal_survey.py", "--json", "--property", "sum", "orient23", "--edge-cap", "3"
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    cells = {(c["property"], c["n"]): c for c in payload["cells"]}
    assert sorted(cells) == [("orient23", 6), ("orient23", 7)] + [("sum", n) for n in range(4, 9)]
    assert (cells[("sum", 8)]["empirical_max"], cells[("sum", 8)]["witness"]) == (25, "G~~~~_")
    assert all(cells[("sum", n)]["relation"] == "attained" for n in range(4, 9))
    seven = cells[("orient23", 7)]
    assert (seven["bound"], seven["empirical_max"], seven["relation"]) == (18, 19, "exceeds")
    assert payload["minimal_failures"] == {
        "orient23": [{"edges": 3, "graph6": "E`?G"}],
        "sum": [{"edges": 2, "graph6": "C`"}],
    }


def test_preserver_theorem_runs():
    proc = run_script("preserver_theorem_runs.py", "--sample-count", "200")
    assert proc.returncode == 0, proc.stderr
    out = proc.stdout
    assert "n=4 sum       exhaustive: checked=720 survivors=48 vertex-induced=24 " in out
    assert "n=5 product   exhaustive: checked=3628800 survivors=120 vertex-induced=120 " in out
    assert "n=6 orient23  vertex-only: checked=720 survivors=720 " in out
    assert "n=6 orient23  sample     : checked=200 survivors=0 " in out
    assert "counterexample re-verification: 200 of 200 confirmed" in out
