import json
import math
import re

import numpy as np
import pytest

from qmc.cli import main
from qmc.states import preset_state, random_density_matrix, write_state
from qmc.weyl import QuditParams, valid_st_pairs

# every valid weight pair at d = 3 and d = 5 is trivial; at d = 7 two of them
TRIVIAL_WEIGHTS = [(d, b.s, b.t) for d in (3, 5) for b in valid_st_pairs(QuditParams(d))] + [(7, 1, 0), (7, 0, 1)]


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def strip_wall_time(text: str) -> str:
    return re.sub(r'"wall_time_ms": [0-9.e+-]+', '"wall_time_ms": X', text)


class TestParams:
    def test_d7_nontrivial_count(self, capsys):
        code, out = run(["params", "--d", "7"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["results"]["nontrivial_count"] == 4
        assert payload["version"] == "0.1.0"

    def test_d2_empty_nontrivial(self, capsys):
        code, out = run(["params", "--d", "2"], capsys)
        assert code == 0
        assert json.loads(out)["results"]["nontrivial_count"] == 0

    def test_d13_count(self, capsys):
        code, out = run(["params", "--d", "13"], capsys)
        assert json.loads(out)["results"]["nontrivial_count"] == 8

    def test_non_prime_exits_2(self, capsys):
        code, _ = run(["params", "--d", "6"], capsys)
        assert code == 2

    def test_csv_format(self, capsys):
        code, out = run(["params", "--d", "7", "--format", "csv"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "s,t,s2,t2,nontrivial"
        assert len(lines) > 4


class TestCoherent:
    def test_half_bit_example(self, capsys, tmp_path):
        state = np.zeros((13, 13), dtype=complex)
        state[0, 0] = state[9, 9] = 0.5
        from qmc.states import DensityMatrix

        path = tmp_path / "input.json"
        write_state(path, DensityMatrix(QuditParams(13), state))
        code, out = run(
            ["coherent", "--d", "13", "--s", "2", "--t", "6",
             "--env", "preset:uniform-01", "--input", f"file:{path}"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["results"]["coherent_information_bits"] == pytest.approx(0.5, abs=1e-9)
        assert payload["results"]["route_disagreement"] <= 1e-8

    def test_missing_weights_exit_2(self, capsys):
        code, _ = run(["coherent", "--d", "7", "--env", "preset:uniform-01",
                       "--input", "preset:ket-zero"], capsys)
        assert code == 2

    def test_bad_preset_exit_2(self, capsys):
        code, _ = run(["coherent", "--d", "7", "--s", "2", "--t", "2",
                       "--env", "preset:bogus", "--input", "preset:ket-zero"], capsys)
        assert code == 2


class TestMagicAndWigner:
    def test_magic_uniform_01(self, capsys):
        code, out = run(["magic", "--d", "7", "--env", "preset:uniform-01"], capsys)
        assert code == 0
        results = json.loads(out)["results"]
        assert results["mrm_bits"] == pytest.approx(math.log2(7), abs=1e-9)
        assert results["wigner_negativity"] > 0

    def test_magic_certifies_a_full_rank_d11_file_environment(self, capsys, tmp_path):
        path = tmp_path / "env.json"
        write_state(path, random_density_matrix(QuditParams(11), np.random.default_rng(2024)))
        code, out = run(["magic", "--d", "11", "--env", f"file:{path}"], capsys)
        assert code == 0
        results = json.loads(out)["results"]
        assert results["mrm_inf_certified"] is True
        assert "mrm_inf_note" not in results
        assert results["mrm_inf_bits"] == pytest.approx(0.575133430425, abs=1e-9)

    def test_wigner_negativity_reported(self, capsys):
        code, out = run(["wigner", "--d", "7", "--env", "preset:uniform-01"], capsys)
        assert code == 0
        results = json.loads(out)["results"]
        assert results["negativity"] > 0
        assert results["raw_min"] < -1e-6


class TestCapacityCommand:
    def test_requires_seed(self, capsys):
        code, _ = run(["capacity", "--d", "13", "--s", "2", "--t", "6",
                       "--env", "preset:uniform-01"], capsys)
        assert code == 2

    def test_finds_half_bit_d13(self, capsys):
        code, out = run(
            ["capacity", "--d", "13", "--s", "2", "--t", "6", "--env", "preset:uniform-01",
             "--seed", "1", "--restarts", "2", "--iterations", "60"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["results"]["best_value"] >= 0.5 - 1e-6
        assert payload["results"]["lower_bound_only"] is True

    def test_deterministic_output(self, capsys, tmp_path):
        args = ["capacity", "--d", "7", "--s", "2", "--t", "2", "--env", "preset:appc-a",
                "--seed", "3", "--restarts", "1", "--iterations", "40"]
        code1, out1 = run(args, capsys)
        code2, out2 = run(args, capsys)
        assert code1 == code2 == 0
        assert strip_wall_time(out1) == strip_wall_time(out2)
        assert out1 != strip_wall_time(out1)  # wall time actually present


class TestConvolveAndClt:
    def test_convolve_writes_state(self, capsys):
        code, out = run(["convolve", "--d", "7", "--s", "2", "--t", "2",
                         "--a", "preset:uniform-01", "--b", "preset:uniform-01"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["results"]["entropy_bits"] > 0
        assert payload["results"]["state"]["form"] == "dense"

    def test_clt_csv_trace(self, capsys):
        code, out = run(["clt", "--d", "7", "--s", "2", "--t", "2",
                         "--input", "preset:uniform-01", "--steps", "10",
                         "--format", "csv"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "step,distance"
        assert len(lines) == 11
        distances = [float(row.split(",")[1]) for row in lines[1:]]
        assert distances == sorted(distances, reverse=True)


class TestFidelityCommand:
    def test_magic_code_value(self, capsys):
        code, out = run(["fidelity", "--d", "13", "--s", "2", "--t", "6",
                         "--env", "preset:appe-magic", "--K", "2"], capsys)
        assert code == 0
        results = json.loads(out)["results"]
        assert results["magic_code_fidelity"] == pytest.approx(0.75, abs=1e-9)
        assert results["computational_code_fidelity"] <= 0.5 + 1e-9


    def test_negative_trials_exit_2_naming_the_flag(self, capsys):
        code = main(["fidelity", "--d", "7", "--s", "2", "--t", "2", "--env", "preset:ket-zero",
                     "--trials", "-3", "--seed", "1"])
        captured = capsys.readouterr()
        assert code == 2
        assert "--trials must be at least 0, got -3" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_logical_dim_below_one_exits_2_naming_the_flag(self, value, capsys):
        code = main(["fidelity", "--d", "7", "--s", "2", "--t", "5", "--env", "preset:appc-a", "--K", value,
                     "--trials", "0"])
        captured = capsys.readouterr()
        assert code == 2
        assert f"--K must be at least 1, got {value}" in captured.err
        assert captured.out == ""

    def test_zero_trials_means_no_search(self, capsys):
        code, out = run(["fidelity", "--d", "7", "--s", "2", "--t", "2", "--env", "preset:ket-zero",
                         "--trials", "0"], capsys)
        assert code == 0
        assert "search" not in json.loads(out)["results"]


class TestVerifyCommand:
    @pytest.mark.parametrize("flag", ["--trials", "--samples", "--env-samples", "--K"])
    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_vacuous_counts_exit_2_naming_the_flag(self, flag, value, capsys):
        code = main(["verify", "--suite", "coding", "--d", "7", "--s", "2", "--t", "2", flag, value, "--seed", "1"])
        captured = capsys.readouterr()
        assert code == 2
        assert f"{flag} must be at least 1, got {value}" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("field", ["trials", "samples", "env_samples", "logical_dim"])
    def test_verify_config_rejects_counts_below_one(self, field):
        from qmc.verify import VerifyConfig

        with pytest.raises(ValueError, match=f"{field} must be at least 1, got 0"):
            VerifyConfig(**{field: 0})

    def test_theorem3_suite(self, capsys):
        code, out = run(["verify", "--suite", "theorem-3", "--d", "13", "--s", "2", "--t", "6",
                         "--seed", "7", "--restarts", "1", "--iterations", "40"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["results"]["pass"] is True
        suites = payload["results"]["suites"]
        assert suites[0]["theorem"] == "theorem-3"
        assert set(suites[0]) >= {"theorem", "config", "samples", "worst_violation", "pass"}

    def test_unknown_suite_exit_2(self, capsys):
        code, _ = run(["verify", "--suite", "bogus", "--d", "7", "--seed", "1"], capsys)
        assert code == 2

    def test_failing_suite_exits_1(self, capsys, monkeypatch):
        import qmc.cli as cli_mod
        from qmc.verify import CheckLine, SuiteReport

        def fake_run_suite(name, cfg):
            rep = SuiteReport(suite=name, config=cfg.to_dict(), samples=1)
            rep.checks.append(CheckLine("forced failure", 1.0, 0.0))
            return [rep]

        monkeypatch.setattr(cli_mod, "run_suite", fake_run_suite)
        code, out = run(["verify", "--suite", "lemmas", "--d", "7", "--seed", "1"], capsys)
        assert code == 1
        assert json.loads(out)["results"]["pass"] is False

    @pytest.mark.parametrize("suite", ["theorem-2", "theorem-3", "theorem-4", "theorem-5", "lemmas", "coding", "all"])
    def test_unsupported_n_rejected_by_name_before_work(self, suite, capsys, monkeypatch):
        import qmc.verify as verify_mod

        def started(*args):
            raise AssertionError("the suite started before its n was checked")

        for name, entry in verify_mod.SUITES.items():
            monkeypatch.setitem(verify_mod.SUITES, name, entry._replace(run=started))
        code = main(["verify", "--suite", suite, "--d", "7", "--n", "2", "--s", "2", "--t", "2", "--seed", "1"])
        err = capsys.readouterr().err
        assert code == 2
        assert f"suite {suite!r}" in err and "n=1 only, got n=2" in err
        first = verify_mod.suite_members(suite)[0]  # 'all' is rejected by its first member
        assert verify_mod.SUITES[first].single_qudit in err

    @pytest.mark.parametrize("suite", ["theorem-2", "theorem-3", "theorem-4", "lemmas", "coding", "all"])
    @pytest.mark.parametrize("d, s, t", TRIVIAL_WEIGHTS)
    def test_trivial_weights_rejected_by_name_before_work(self, suite, d, s, t, capsys, monkeypatch):
        import qmc.verify as verify_mod

        def started(*args):
            raise AssertionError("the suite started before its weights were checked")

        for name, entry in verify_mod.SUITES.items():
            monkeypatch.setitem(verify_mod.SUITES, name, entry._replace(run=started))
        code = main(["verify", "--suite", suite, "--d", str(d), "--s", str(s), "--t", str(t), "--seed", "1"])
        captured = capsys.readouterr()
        assert code == 2
        assert f"suite {suite!r}" in captured.err and "nontrivial weights" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("d, s, t", TRIVIAL_WEIGHTS)
    def test_theorem5_runs_and_passes_on_trivial_weights(self, d, s, t, capsys):
        code, out = run(["verify", "--suite", "theorem-5", "--d", str(d), "--s", str(s), "--t", str(t),
                         "--seed", "1", "--env-samples", "2"], capsys)
        assert code == 0
        assert json.loads(out)["results"]["pass"] is True

    @pytest.mark.parametrize("n, extra", [(2, []), (3, ["--env-samples", "1"])])
    def test_theorem5_passes_past_dim_49(self, n, extra, capsys):
        code = main(["verify", "--suite", "theorem-5", "--d", "7", "--n", str(n), "--s", "2", "--t", "5",
                     "--seed", "7", *extra])
        captured = capsys.readouterr()
        assert code == 0
        assert json.loads(captured.out)["results"]["pass"] is True
        lines = captured.err.splitlines()
        assert lines and all(line.startswith("[PASS] theorem-5:") for line in lines)

    @pytest.mark.parametrize("suite", ["theorem-4", "all"])
    def test_two_copy_layout_rejected_before_the_optimizer(self, suite, monkeypatch):
        # theorem-4 builds a channel on two copies of the qudit: at d = 19,
        # 19^2 = 361 exceeds MAX_DIM, which is caught before any optimizer run
        import qmc.verify as verify_mod

        calls = []
        monkeypatch.setattr(verify_mod, "qcap_one_shot", lambda *args, **kwargs: calls.append(1))
        cfg = verify_mod.VerifyConfig(d=19, s=2, t=4, restarts=1, iterations=5, env_samples=1, seed=7)
        with pytest.raises(ValueError, match=f"suite {suite!r} builds 2-qudit channels.*361 exceeds"):
            verify_mod.run_suite(suite, cfg)
        assert calls == []

    def test_two_copy_premise_rejects_exactly_past_d17(self):
        from qmc.verify import VerifyConfig, check_suite_n
        from qmc.weyl import is_prime

        for d in filter(is_prime, range(7, 338)):
            bs = next(b for b in valid_st_pairs(QuditParams(d)) if b.nontrivial)
            cfg = VerifyConfig(d=d, s=bs.s, t=bs.t)
            for suite in ("theorem-4", "all"):
                if d >= 19:
                    with pytest.raises(ValueError, match="2-qudit channels"):
                        check_suite_n(suite, cfg)
                else:
                    check_suite_n(suite, cfg)

    def test_theorem5_runs_at_n2_with_unequal_weights(self):
        from qmc.verify import VerifyConfig
        from qmc.verify import check_suite_n

        check_suite_n("theorem-5", VerifyConfig(d=7, s=2, t=5, n=2))


class TestThreadCap:
    def test_serial_by_default(self, monkeypatch):
        from qmc.parallel import max_workers

        monkeypatch.delenv("QMC_THREADS", raising=False)
        assert max_workers() == 1
        monkeypatch.setenv("QMC_THREADS", " ")
        assert max_workers() == 1

    def test_env_var_caps_workers(self, monkeypatch):
        from qmc.parallel import max_workers, parallel_map

        monkeypatch.setenv("QMC_THREADS", "2")
        assert max_workers() == 2
        assert parallel_map(lambda v: v * v, [1, 2, 3]) == [1, 4, 9]
        monkeypatch.setenv("QMC_THREADS", "1")
        assert parallel_map(lambda v: v + 1, [1, 2]) == [2, 3]

    def test_invalid_env_var_rejected(self, monkeypatch):
        from qmc.parallel import max_workers

        monkeypatch.setenv("QMC_THREADS", "zero")
        with pytest.raises(ValueError, match="QMC_THREADS"):
            max_workers()
        monkeypatch.setenv("QMC_THREADS", "0")
        with pytest.raises(ValueError, match="positive"):
            max_workers()


class TestStateFileFlow:
    def test_roundtrip_through_convolve(self, capsys, tmp_path):
        rho = preset_state("symmetric-pm1", QuditParams(7))
        path = tmp_path / "in.json"
        write_state(path, rho)
        out_path = tmp_path / "report.json"
        code = main(["convolve", "--d", "7", "--s", "2", "--t", "2",
                     "--a", str(path), "--b", f"file:{path}", "--out", str(out_path)])
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert payload["results"]["entropy_bits"] >= 0

    def test_dimension_mismatch_exit_2(self, capsys, tmp_path):
        rho = preset_state("ket-zero", QuditParams(7))
        path = tmp_path / "in.json"
        write_state(path, rho)
        code, _ = run(["magic", "--d", "13", "--env", str(path)], capsys)
        assert code == 2
