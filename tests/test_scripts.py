import csv
import importlib.util
import io
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
REPRODUCE = ROOT / "scripts" / "reproduce_results.py"
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}


def test_import_leaves_scipy_unloaded():
    # scipy.linalg and scipy.optimize take longer to import than the rest of
    # qmc; only the cone program and the optimizer use them, on first call
    code = "import sys, qmc; print(sorted(m for m in ('scipy.linalg', 'scipy.optimize') if m in sys.modules))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=ENV, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"



SWEEP_PATH = """
import sys
import numpy as np
from qmc import (BSParams, BeamSplitterChannel, CharacteristicTable, DensityMatrix, QuditParams, WeylIndex,
                 characteristic_function, coherent_information, complement_identity_check, convolve,
                 degradation_witness, inverse_weyl_transform, preset_state, weyl_operator)
from qmc.states import random_density_matrix, random_pure_state, stabilizer_family

params, rng = QuditParams(7), np.random.default_rng(0)
bs, inputs = BSParams(params, 2, 2), [random_density_matrix(params, rng) for _ in range(3)]
family = stabilizer_family(params)
worst = max(coherent_information(BeamSplitterChannel(bs, family.state_at(i)), rho)
            for i in range(len(family)) for rho in inputs)
assert worst <= 1e-9, worst
assert complement_identity_check(bs, random_density_matrix(params, rng)).passed
shift = WeylIndex.make(params, 3, 5)
w = weyl_operator(params, shift)
displaced = DensityMatrix(params, w @ preset_state("symmetric-pm1", params).matrix @ w.conj().T)
assert degradation_witness(bs, displaced, displacement=shift).passed
pair, pair_bs = QuditParams(7, 2), BSParams(QuditParams(7, 2), 2, 2)
out = convolve(pair_bs, random_density_matrix(pair, rng), random_density_matrix(pair, rng))
assert abs(np.trace(out.matrix) - 1) <= 1e-10
env, rho = random_pure_state(params, rng), random_density_matrix(params, rng)
two = coherent_information(BeamSplitterChannel(pair_bs, env.tensor(env)), rho.tensor(rho))
assert abs(two - 2 * coherent_information(BeamSplitterChannel(bs, env), rho)) <= 1e-8
rho = random_density_matrix(params, rng)
back = inverse_weyl_transform(CharacteristicTable(params, characteristic_function(rho).values))
assert np.max(np.abs(back - rho.matrix)) <= 1e-10
print(sorted(m for m in ('scipy.linalg', 'scipy.optimize') if m in sys.modules))
"""


def test_sweep_path_leaves_scipy_unloaded():
    # every request kind of a sweep: a theorem-2 slice over the stabilizer
    # family, a complement identity, a degradation witness, a dim-49
    # convolution, the two-copy additivity pair and a characteristic-table
    # round trip; none of them needs scipy
    proc = subprocess.run([sys.executable, "-c", SWEEP_PATH], capture_output=True, text=True, env=ENV, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"

def test_capacity_sweep_rows_respect_the_magic_bound():
    # d = 7 has 4 nontrivial pairs, each against the 6 preset environments
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "capacity_sweep.py"), "--d", "7", "--restarts", "1",
         "--iterations", "5", "--random-envs", "0"],
        capture_output=True, text=True, env=ENV, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    rows = list(csv.DictReader(io.StringIO(proc.stdout)))
    assert proc.stdout.splitlines()[0] == "d,s,t,environment,lower_bound_bits,magic_bound_bits,slack_bits"
    assert len(rows) == 24 and len({(r["s"], r["t"]) for r in rows}) == 4
    assert all(float(r["slack_bits"]) >= -1e-6 for r in rows)


def test_reproduce_results_quick(tmp_path):
    spec = importlib.util.spec_from_file_location("reproduce_results", REPRODUCE)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    proc = subprocess.run(
        [sys.executable, str(REPRODUCE), "--quick", "--out-dir", str(tmp_path)],
        capture_output=True, text=True, env=ENV, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "overall: PASS" in proc.stdout
    reports = sorted(p.name for p in tmp_path.glob("*.json"))
    assert reports == [f"{idx:02d}_{suite}.json" for idx, (suite, _) in enumerate(script.CANONICAL)]
    for name in reports:
        assert all(r["pass"] for r in json.loads((tmp_path / name).read_text()))
