import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
REPRODUCE = ROOT / "scripts" / "reproduce_results.py"


def test_reproduce_results_quick(tmp_path):
    spec = importlib.util.spec_from_file_location("reproduce_results", REPRODUCE)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, str(REPRODUCE), "--quick", "--out-dir", str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "overall: PASS" in proc.stdout
    reports = sorted(p.name for p in tmp_path.glob("*.json"))
    assert reports == [f"{idx:02d}_{suite}.json" for idx, (suite, _) in enumerate(script.CANONICAL)]
    for name in reports:
        assert all(r["pass"] for r in json.loads((tmp_path / name).read_text()))
