import math
import tracemalloc

import numpy as np
import pytest

from qmc.capacity import (
    CapacityWitness,
    OptimizerBudget,
    VerifyConfig,
    _objective,
    capacity_witness_construction,
    coherent_information,
    coherent_information_purification,
    qcap_one_shot,
    verify_theorem,
)
from qmc.channel import BeamSplitterChannel
from qmc.states import (
    DensityMatrix,
    preset_state,
    random_density_matrix,
    random_pure_state,
    stabilizer_family,
)
from qmc.weyl import BSParams, QuditParams

from oracles import ic_gradient_fd

P7 = QuditParams(7)
BS72 = BSParams(P7, 2, 2)
P13 = QuditParams(13)
BS13 = BSParams(P13, 2, 6)

SMALL = OptimizerBudget(restarts=4, iterations=120, pool_random=8, pool_pairs=40, polish_steps=1)


def channel(bs, env):
    return BeamSplitterChannel(bs, env)


class TestCoherentInformation:
    def test_half_bit_witness_d13(self):
        w = capacity_witness_construction(BS13)
        chan = channel(BS13, w.environment)
        assert coherent_information(chan, w.input_state) == pytest.approx(0.5, abs=1e-9)

    def test_balanced_witness_value(self):
        w = capacity_witness_construction(BS72)
        chan = channel(BS72, w.environment)
        value = coherent_information(chan, w.input_state)
        assert value == pytest.approx(w.expected_bits, abs=1e-12)
        assert value == pytest.approx(0.0178, abs=5e-4)

    def test_stabilizer_environment_nonpositive(self, rng):
        family = stabilizer_family(P7)
        for idx in (0, 19, 56):
            chan = channel(BS72, family.state_at(idx))
            for _ in range(5):
                rho = random_density_matrix(P7, rng)
                assert coherent_information(chan, rho) <= 1e-9

    def test_two_routes_agree_on_pure_environments(self, rng):
        # with a pure environment the complement output is the Stinespring
        # environment, so the cheap route must match the purification route
        env = random_pure_state(P7, rng)
        chan = channel(BS72, env)
        for _ in range(5):
            rho = random_density_matrix(P7, rng, rank=int(rng.integers(1, 8)))
            a = coherent_information(chan, rho)
            b = coherent_information_purification(chan, rho)
            assert abs(a - b) <= 1e-8

    def test_routes_agree_for_every_environment_rank(self, rng):
        # one route for all environments: the E x E' complement must match the
        # reference/output side of the same pure state, rank-deficient inputs too
        for bs in (BS72, BSParams(P7, 2, 5)):
            for env_rank in range(1, 8):
                chan = channel(bs, random_density_matrix(P7, rng, rank=env_rank))
                for input_rank in (1, 2, 4, 7):
                    rho = random_density_matrix(P7, rng, rank=input_rank)
                    a = coherent_information(chan, rho)
                    b = coherent_information_purification(chan, rho)
                    assert abs(a - b) <= 1e-10

    def test_pure_environment_pure_input_is_zero(self, rng):
        chan = channel(BS72, random_pure_state(P7, rng))
        assert abs(coherent_information(chan, random_pure_state(P7, rng))) <= 1e-9

    def test_additive_on_products(self, rng):
        env1 = random_density_matrix(P7, rng)
        env2 = random_density_matrix(P7, rng)
        chan1 = channel(BS72, env1)
        chan2 = channel(BS72, env2)
        joint = BeamSplitterChannel(BSParams(QuditParams(7, 2), 2, 2), env1.tensor(env2))
        rho1 = random_density_matrix(P7, rng)
        rho2 = random_density_matrix(P7, rng)
        lhs = coherent_information(joint, rho1.tensor(rho2))
        rhs = coherent_information(chan1, rho1) + coherent_information(chan2, rho2)
        assert abs(lhs - rhs) <= 1e-8

    def test_oversized_sides_rejected_up_front(self, rng):
        # full-rank environment and input at dim 121: the E x E' complement and
        # the reference/output side would both be 14641 wide (3.4 GB each)
        params = QuditParams(11, 2)
        chan = BeamSplitterChannel(BSParams(params, 5, 3), random_density_matrix(params, rng))
        rho = random_density_matrix(params, rng)
        for route in (coherent_information, coherent_information_purification):
            tracemalloc.start()
            try:
                with pytest.raises(ValueError, match=r"dim 121 with rank 121 .* GB"):
                    route(chan, rho)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= 64 * 2**20


class TestGradient:
    @pytest.mark.parametrize(
        "bs, env_rank",
        [(BS72, 1), (BS72, 3), (BS72, 7), (BSParams(P7, 2, 5), 1), (BSParams(P7, 2, 5), 3),
         (BSParams(P7, 2, 5), 7), (BS13, 1)],
        ids=["d7-22-r1", "d7-22-r3", "d7-22-r7", "d7-25-r1", "d7-25-r3", "d7-25-r7", "d13-26-r1"],
    )
    def test_matches_central_differences(self, rng, bs, env_rank):
        chan = channel(bs, random_density_matrix(bs.params, rng, rank=env_rank))
        ic_of_matrix, value_and_grad, _, to_state = _objective(chan)
        dim = bs.params.dim
        for _ in range(2):
            x = rng.normal(size=2 * dim * dim)
            value, grad = value_and_grad(x)
            assert value == pytest.approx(ic_of_matrix(to_state(x)), abs=1e-12)
            reference = ic_gradient_fd(lambda y: ic_of_matrix(to_state(y)), x)
            assert np.max(np.abs(grad - reference)) <= 1e-6


class TestWitnessConstruction:
    def test_unequal_squares_case(self):
        w = capacity_witness_construction(BS13)
        assert w.case == "unequal-squares"
        assert w.expected_bits == pytest.approx(0.5, abs=1e-15)
        # input is the uniform mixture of |0> and |t^{-1} s> = |9>
        diag = np.real(np.diag(w.input_state.matrix))
        assert diag[0] == pytest.approx(0.5) and diag[9] == pytest.approx(0.5)

    def test_balanced_case_spectra(self):
        w = capacity_witness_construction(BS72)
        assert w.case == "balanced"
        chan = channel(BS72, w.environment)
        out_vals = np.linalg.eigvalsh(chan.apply(w.input_state).matrix)[::-1][:3]
        expected_out = sorted(
            [66 / 125, (59 + math.sqrt(1321)) / 250, (59 - math.sqrt(1321)) / 250], reverse=True
        )
        assert np.max(np.abs(out_vals - expected_out)) <= 1e-9
        comp_vals = np.linalg.eigvalsh(chan.apply_complement(w.input_state).matrix)[::-1][:3]
        expected_comp = sorted(
            [59 / 125, 3 * (11 - math.sqrt(61)) / 125, 3 * (11 + math.sqrt(61)) / 125], reverse=True
        )
        assert np.max(np.abs(comp_vals - expected_comp)) <= 1e-9

    def test_anti_balanced_matches_balanced(self):
        bs_anti = BSParams(P7, 2, 5)
        w_anti = capacity_witness_construction(bs_anti)
        assert w_anti.case == "anti-balanced"
        value_anti = coherent_information(channel(bs_anti, w_anti.environment), w_anti.input_state)
        w_bal = capacity_witness_construction(BS72)
        value_bal = coherent_information(channel(BS72, w_bal.environment), w_bal.input_state)
        assert value_anti == pytest.approx(value_bal, abs=1e-9)

    def test_trivial_weights_rejected(self):
        with pytest.raises(ValueError, match="nontrivial"):
            capacity_witness_construction(BSParams(P7, 1, 0))


class TestOptimizer:
    def test_stabilizer_environment_stays_flat(self):
        env = preset_state("ket-zero", P7)
        report = qcap_one_shot(channel(BS72, env), SMALL, seed=11)
        assert report.best_value <= 1e-6

    def test_pool_recovers_half_bit_at_d13(self):
        env = preset_state("uniform-01", P13)
        report = qcap_one_shot(channel(BS13, env), SMALL, seed=5)
        assert report.best_value >= 0.5 - 1e-6

    def test_random_full_rank_environments_reach_zero(self, rng):
        # pure inputs give I_c = 0, so the one-shot capacity is never negative
        for k in range(3):
            env = random_density_matrix(P7, rng)
            report = qcap_one_shot(channel(BS72, env), SMALL, seed=20 + k)
            assert report.best_value >= -1e-9

    def test_counters_reported(self, rng):
        env = random_density_matrix(P7, rng)
        report = qcap_one_shot(channel(BS72, env), SMALL, seed=3)
        payload = report.to_dict()
        pool = 1 + SMALL.pool_pairs + SMALL.pool_random
        assert payload["evaluations"] == report.evaluations > pool + SMALL.restarts
        assert payload["restarts_converged"] == report.restarts_converged
        assert 0 < report.restarts_converged <= SMALL.restarts
        assert payload["budget_exhausted"] is False
        starved = qcap_one_shot(channel(BS72, env), OptimizerBudget(restarts=2, iterations=1), seed=3)
        assert starved.budget_exhausted is True

    def test_symmetric_environment_stays_flat(self):
        env = preset_state("symmetric-pm1", P7)
        report = qcap_one_shot(channel(BS72, env), SMALL, seed=2)
        assert report.best_value <= 1e-4

    def test_traces_monotone_and_recompute_matches(self, rng):
        env = random_density_matrix(P7, rng)
        report = qcap_one_shot(channel(BS72, env), SMALL, seed=7)
        assert all(b >= a for a, b in zip(report.traces, report.traces[1:]))
        assert abs(report.best_value - report.recomputed_value) <= 1e-10
        assert report.best_value >= report.pool_best

    def test_deterministic_given_seed(self, rng):
        env = random_density_matrix(P7, rng)
        r1 = qcap_one_shot(channel(BS72, env), SMALL, seed=9)
        r2 = qcap_one_shot(channel(BS72, env), SMALL, seed=9)
        assert r1.best_value == r2.best_value
        assert np.array_equal(r1.best_state.matrix, r2.best_state.matrix)

    def test_screening_only_budget_with_warm_start(self):
        env = preset_state("uniform-01", P7)
        witness = capacity_witness_construction(BS72)
        budget = OptimizerBudget(restarts=0, iterations=0, pool_random=4, pool_pairs=10, polish_steps=0)
        report = qcap_one_shot(
            channel(BS72, env), budget, seed=1, initial_states=(witness.input_state,)
        )
        floor = coherent_information(channel(BS72, env), witness.input_state)
        assert report.best_value >= floor - 1e-12

    def test_rejects_oversized_space(self):
        params = QuditParams(7, 3)  # dim 343
        env = preset_state("maximally-mixed", params)
        chan = BeamSplitterChannel(BSParams(params, 2, 2), env)
        with pytest.raises(ValueError, match="49"):
            qcap_one_shot(chan, SMALL, seed=0)


class TestVerifySuites:
    def test_magic_gain_suite_d13(self):
        cfg = VerifyConfig(d=13, s=2, t=6, seed=3, restarts=2, iterations=100)
        report = verify_theorem("theorem-3", cfg)
        assert report.passed, [c.to_dict() for c in report.checks if not c.passed]
        assert report.suite == "theorem-3"
        assert report.worst_violation <= 0

    def test_stabilizer_suite_small(self):
        cfg = VerifyConfig(d=7, s=2, t=2, seed=4, samples=5, env_samples=1, restarts=2, iterations=60)
        report = verify_theorem("theorem-2", cfg)
        assert report.passed

    def test_magic_bound_suite_small(self):
        cfg = VerifyConfig(d=7, s=2, t=2, seed=5, env_samples=2, restarts=2, iterations=60)
        report = verify_theorem("theorem-4", cfg)
        assert report.passed, [c.to_dict() for c in report.checks if not c.passed]

    def test_symmetry_suite_small(self):
        cfg = VerifyConfig(d=7, s=2, t=2, seed=6, env_samples=3, restarts=2, iterations=60)
        report = verify_theorem("theorem-5", cfg)
        assert report.passed
        assert any("degradation" in c.claim for c in report.checks)

    def test_unknown_suite(self):
        with pytest.raises(ValueError, match="unknown theorem"):
            verify_theorem("theorem-9", VerifyConfig())

    def test_report_serialization(self):
        cfg = VerifyConfig(d=13, s=2, t=6, seed=3, restarts=1, iterations=40)
        report = verify_theorem("theorem-3", cfg)
        payload = report.to_dict()
        assert set(payload) >= {"theorem", "config", "samples", "worst_violation", "pass", "checks"}
        assert payload["pass"] is True
        assert all(line.startswith("[PASS]") for line in report.lines())
