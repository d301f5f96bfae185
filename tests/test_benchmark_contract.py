"""The benchmark's output contract, checked on one-second ``magic``,
``sweep`` and ``capacity`` runs.

``perfbench/run.py`` must end its standard output with one strict JSON
result line that carries every end-to-end metric ``BENCHMARK.json`` names,
each finite, with every request checked correct.  A traced run must also
report the per-layer metrics of the workload's layers (``magic.*`` and
``coding.*`` for ``magic``, ``channel.*`` for ``sweep``, ``capacity.*`` for
``capacity``), which needs every
wrapped library name to exist: ``perfbench/layers.py`` leaves the metrics of
a missing name out of the report instead of failing, so a renamed search,
decoder, fidelity or Choi function would otherwise drop its metrics
silently.
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


def run_workload(workload: str, trace: int) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr[-2000:]
    lines = done.stdout.strip().splitlines()
    assert lines, "no output"
    return json.loads(lines[-1], parse_constant=_reject_constant)


def check_result_line(workload: str, trace: int, layers: tuple[str, ...]) -> dict:
    result = run_workload(workload, trace)
    assert result["correct"] is True
    metrics = result["metrics"]
    names = [m["name"] for m in BENCHMARK["end_to_end"]] if trace == 0 else [
        m["name"] for m in BENCHMARK["per_layer"] if m["name"].startswith(layers)
    ]
    for name in names:
        assert name in metrics, f"{name} missing from the result line"
    for name, entry in metrics.items():
        assert math.isfinite(entry["value"]), f"{name} = {entry['value']}"
    if trace:
        header = json.loads((ROOT / ".perfbench" / f"trace-{workload}.jsonl").read_text().splitlines()[0])
        assert header["missing"] == []
    return metrics


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_is_strict_json_with_finite_metrics(trace):
    check_result_line("magic", trace, ("magic.", "coding."))


@pytest.mark.parametrize("trace", [0, 1])
def test_sweep_result_line_is_strict_json_with_finite_metrics(trace):
    check_result_line("sweep", trace, ("channel.",))


@pytest.mark.parametrize("trace", [0, 1])
def test_capacity_result_line_is_strict_json_with_finite_metrics(trace):
    metrics = check_result_line("capacity", trace, ("capacity.",))
    if trace:
        # scipy.optimize is imported on first use; the tracer must still see minimize
        assert metrics["capacity.minimize.nfev"]["value"] > 0
        # every optimizer evaluation goes through the evaluator that the
        # ``_ic_matrix_fn`` factory returns, so the tracer must count each one
        assert metrics["capacity.ic.calls"]["value"] >= metrics["capacity.minimize.nfev"]["value"]
