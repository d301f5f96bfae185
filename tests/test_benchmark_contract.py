"""The benchmark's output contract, checked on a one-pass ``magic`` run.

``perfbench/run.py`` must end its standard output with one strict JSON
result line that carries every end-to-end metric ``BENCHMARK.json`` names,
each finite.  A traced run must also report every ``magic.*`` and
``coding.*`` per-layer metric, which needs every wrapped library name to
exist: ``perfbench/layers.py`` leaves the metrics of a missing name out of the
report instead of failing, so a renamed search, decoder or fidelity function
would otherwise drop its metrics silently.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def run_magic(trace: int) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "magic", "--seed", "1",
           "--seconds", "1", "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr[-2000:]
    lines = done.stdout.strip().splitlines()
    assert lines, "no output"
    return json.loads(lines[-1], parse_constant=_reject_constant)


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_is_strict_json_with_finite_metrics(trace):
    result = run_magic(trace)
    assert result["correct"] is True
    metrics = result["metrics"]
    names = [m["name"] for m in BENCHMARK["end_to_end"]] if trace == 0 else [
        m["name"] for m in BENCHMARK["per_layer"] if m["name"].startswith(("magic.", "coding."))
    ]
    for name in names:
        assert name in metrics, f"{name} missing from the result line"
    for name, entry in metrics.items():
        assert math.isfinite(entry["value"]), f"{name} = {entry['value']}"
    if trace:
        header = json.loads((ROOT / ".perfbench" / "trace-magic.jsonl").read_text().splitlines()[0])
        assert header["missing"] == []
