import gc
import math
import re
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from qmc.capacity import (
    OptimizerBudget,
    _ic_matrix_fn,
    _objective,
    capacity_witness_construction,
    coherent_information,
    coherent_information_purification,
    qcap_one_shot,
)
from qmc.channel import BeamSplitterChannel
from qmc.linalg import von_neumann_entropies
from qmc.states import (
    DensityMatrix,
    StabilizerFamily,
    branch_columns,
    preset_state,
    random_density_matrix,
    random_pure_state,
    stabilizer_family,
)
from qmc.verify import VerifyConfig, run_suite
from qmc.weyl import BSParams, QuditParams, WeylMultiplier, _raw_table, valid_st_pairs

from oracles import (
    gather_sum,
    gather_sum_adjoint,
    ic_gradient_fd,
    multiplier_from_matrices,
    purified_gather_sum,
    purified_gather_sum_adjoint,
    purifiers,
)

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

    def test_evaluator_built_once_per_channel(self, rng, monkeypatch):
        # two channels on one environment state, four evaluations: the state
        # is purified once and each channel builds its kernel once
        calls, built = [], []
        from_tables = WeylMultiplier.from_tables

        def counting(matrices):
            calls.append(1)
            return branch_columns(matrices)

        def building(*args, **kwargs):
            built.append(1)
            return from_tables(*args, **kwargs)

        monkeypatch.setattr("qmc.states.branch_columns", counting)
        monkeypatch.setattr(WeylMultiplier, "from_tables", building)
        env = random_density_matrix(P7, rng)
        chan, other = channel(BS72, env), channel(BSParams(P7, 2, 5), env)
        first, second = random_density_matrix(P7, rng), random_density_matrix(P7, rng)
        values = [coherent_information(chan, first), coherent_information(chan, second)]
        others = [coherent_information(other, first), coherent_information(other, second)]
        assert len(calls) == 1 and len(built) == 2
        fresh = channel(BS72, DensityMatrix(P7, env.matrix))
        assert values == [coherent_information(fresh, first), coherent_information(fresh, second)]
        assert len(calls) == 2
        fresh = channel(BSParams(P7, 2, 5), DensityMatrix(P7, env.matrix))
        assert others == [coherent_information(fresh, first), coherent_information(fresh, second)]

    def test_used_channel_freed_without_cyclic_gc(self, rng):
        # the cached kernel must not hold the channel in a reference cycle
        chan = channel(BS72, random_density_matrix(P7, rng))
        coherent_information(chan, random_density_matrix(P7, rng))
        _ic_matrix_fn(chan)(random_density_matrix(P7, rng).matrix, grad=True)
        ref = weakref.ref(chan)
        gc.disable()
        try:
            del chan
            assert ref() is None
        finally:
            gc.enable()

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

    def test_dim343_value_and_gradient_memory_bounded(self, rng):
        # a pure product environment keeps the E x E' side at dim 343; the value
        # is three times the single-qudit one
        env, rho = random_pure_state(P7, rng), random_density_matrix(P7, rng)
        bs = BSParams(QuditParams(7, 3), 2, 2)
        chan = BeamSplitterChannel(bs, env.tensor(env).tensor(env))
        tracemalloc.start()
        try:
            value, grad = _ic_matrix_fn(chan)(rho.tensor(rho).tensor(rho).matrix, grad=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 64 * 2**20
        assert abs(value - 3 * coherent_information(channel(BS72, env), rho)) <= 1e-9
        assert np.max(np.abs(grad - grad.conj().T)) <= 1e-9

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
         (BSParams(P7, 2, 5), 7), (BS13, 1), (BSParams(P7, 0, 1), 3)],
        ids=["d7-22-r1", "d7-22-r3", "d7-22-r7", "d7-25-r1", "d7-25-r3", "d7-25-r7", "d13-26-r1", "d7-01-r3"],
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


def oracle_images(chan, rho):
    """(channel output, E x E' complement output) by the gather oracles."""
    (i, j), (ic, jc) = chan.gather_indices(), chan.gather_indices(complement=True)
    return gather_sum(rho, chan.environment.matrix, i, j), purified_gather_sum(rho, chan.environment.purifier, ic, jc)


def oracle_adjoint(chan, out_probe, comp_probe):
    """N^dag(out_probe) + N^c^dag(comp_probe) by the gather oracles."""
    (i, j), (ic, jc) = chan.gather_indices(), chan.gather_indices(complement=True)
    return gather_sum_adjoint(out_probe, chan.environment.matrix, i, j) + purified_gather_sum_adjoint(
        comp_probe, chan.environment.purifier, ic, jc
    )


def dense_entropy(m):
    vals = np.linalg.eigvalsh(m)
    vals = vals[vals > 0]
    return float(-np.sum(vals * np.log2(vals)))


def dense_log2(m):
    vals, vecs = np.linalg.eigh(m)
    return (vecs * np.log2(np.maximum(vals, 1e-300))) @ vecs.conj().T


def random_hermitian(dim, rng):
    h = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (h + h.conj().T) / 2


class TestFusedKernel:
    """The two-block multiplier behind the evaluator (channel and E x E'
    complement from one input DFT) against the independent gather oracles
    and a dense eigensolve."""

    @pytest.mark.parametrize("env_rank", [1, 3, 7])
    @pytest.mark.parametrize("st", [(bs.s, bs.t) for bs in valid_st_pairs(P7)], ids=lambda st: f"s{st[0]}t{st[1]}")
    def test_images_and_adjoint_match_oracles(self, rng, st, env_rank):
        # every valid pair, the trivial ones (a scale of 0, read by a sum) too
        chan = channel(BSParams(P7, *st), random_density_matrix(P7, rng, rank=env_rank))
        kernel = chan.coherent_multiplier
        rho = random_density_matrix(P7, rng).matrix
        images = [image for stack in kernel.images(rho) for image in stack]
        expected = oracle_images(chan, rho)
        assert len(images) == 2
        for image, oracle in zip(images, expected):
            assert np.max(np.abs(image - oracle)) <= 1e-12
        probes = [random_hermitian(side, rng) for side in (7, 7 * env_rank)]
        assert np.max(np.abs(kernel.adjoint(*probes) - oracle_adjoint(chan, *probes))) <= 1e-11

    @pytest.mark.parametrize(
        "bs",
        [BSParams(QuditParams(5), 1, 0), BS72, BSParams(QuditParams(11), 3, 5), BS13],
        ids=["d5", "d7", "d11", "d13"],
    )
    @pytest.mark.parametrize("env_rank", ["1", "2", "d"])
    def test_values_match_dense_oracle(self, rng, bs, env_rank):
        dim = bs.params.dim
        env = random_density_matrix(bs.params, rng, rank=dim if env_rank == "d" else int(env_rank))
        chan = channel(bs, env)
        for rho in (random_density_matrix(bs.params, rng), random_pure_state(bs.params, rng)):
            out, comp = oracle_images(chan, rho.matrix)
            assert abs(coherent_information(chan, rho) - (dense_entropy(out) - dense_entropy(comp))) <= 1e-12

    def test_value_matches_dense_oracle_two_qudits(self, rng):
        # d = 7, n = 2 with a pure product environment: both sides are 49 wide
        env = random_pure_state(P7, rng)
        chan = BeamSplitterChannel(BSParams(QuditParams(7, 2), 2, 2), env.tensor(env))
        rho = random_density_matrix(QuditParams(7, 2), rng)
        out, comp = oracle_images(chan, rho.matrix)
        assert abs(coherent_information(chan, rho) - (dense_entropy(out) - dense_entropy(comp))) <= 1e-12

    @pytest.mark.parametrize("env_rank", [1, 3, 7])
    def test_gradient_matches_oracle_adjoints_and_differences(self, rng, env_rank):
        chan = channel(BS72, random_density_matrix(P7, rng, rank=env_rank))
        rho = random_density_matrix(P7, rng).matrix
        value, grad = _ic_matrix_fn(chan)(rho, grad=True)
        out, comp = oracle_images(chan, rho)
        log_out, log_comp = dense_log2(out), dense_log2(comp)
        expected = oracle_adjoint(chan, -log_out, log_comp)
        assert value == pytest.approx(dense_entropy(out) - dense_entropy(comp), abs=1e-12)
        assert np.max(np.abs(grad - expected)) <= 1e-10 * max(np.max(np.abs(log_out)), np.max(np.abs(log_comp)))
        # dI_c = Tr(A dm) along Hermitian traceless directions
        directions = [random_hermitian(7, rng) for _ in range(6)]
        directions = [h - np.trace(h) / 7 * np.eye(7) for h in directions]
        reference = ic_gradient_fd(lambda x: _ic_matrix_fn(chan)(rho + sum(c * h for c, h in zip(x, directions))), np.zeros(6))
        assert np.max(np.abs([np.sum(grad * h.T).real for h in directions] - reference)) <= 1e-6

    def test_pure_environment_uses_one_stacked_eigensolve(self, rng, monkeypatch):
        chan = channel(BS72, random_pure_state(P7, rng))
        rho = random_density_matrix(P7, rng).matrix
        _ic_matrix_fn(chan)(rho, grad=True)  # builds the purifier (one eigh) and the kernel
        calls = []

        def counting(name, original):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(np.linalg, "eigvalsh", counting("eigvalsh", np.linalg.eigvalsh))
        monkeypatch.setattr(np.linalg, "eigh", counting("eigh", np.linalg.eigh))
        monkeypatch.setattr(BeamSplitterChannel, "apply_matrix", counting("apply_matrix", BeamSplitterChannel.apply_matrix))
        _ic_matrix_fn(chan)(rho)
        assert calls == ["eigvalsh"]
        calls.clear()
        _ic_matrix_fn(chan)(rho, grad=True)
        assert calls == ["eigh"]

    def test_family_slices_transform_and_purify_each_state_once(self, rng, monkeypatch):
        # two theorem-2 slices over fresh d = 7 member states, with fresh
        # channel objects in each as the benchmark builds them: one purifier
        # eigensolve per environment state in all (none in the second
        # slice) and one input DFT per input state
        family = StabilizerFamily(P7, [replace(m, state=None) for m in stabilizer_family(P7).members])
        envs = [family.state_at(i) for i in range(len(family))]
        eighs, tables = [], []
        eigh = np.linalg.eigh

        def counting_eigh(*args, **kwargs):
            eighs.append(1)
            return eigh(*args, **kwargs)

        def counting_table(params, m):
            tables.append(id(m))
            return _raw_table(params, m)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        monkeypatch.setattr("qmc.states._raw_table", counting_table)
        slices = []
        for first in (True, False):
            inputs = [random_density_matrix(P7, rng) for _ in range(3)]
            eighs.clear()
            tables.clear()
            values = [[coherent_information(channel(BS72, env), rho) for rho in inputs] for env in envs]
            assert len(eighs) == (len(envs) if first else 0)
            transformed = inputs + envs if first else inputs
            assert sorted(tables) == sorted(id(state.matrix) for state in transformed)
            slices.append((inputs, values))
        monkeypatch.undo()
        # bit for bit the multipliers built from the matrices, and their values:
        # the one-block maps from the state's kept tables, as apply_matrix
        # builds them, and the coherent pair
        bs = BS72
        for i, env in enumerate(envs):
            p = purifiers(env.matrix)
            vec = p.reshape(-1)
            purified = (-bs.t, np.outer(vec, vec.conj()), bs.s, p.shape[1])
            chan = channel(bs, env)
            built = (
                WeylMultiplier.from_tables(P7, [(bs.s, env.raw_table, bs.t, 1)]),
                WeylMultiplier.from_tables(P7, [(-bs.t, env.raw_table, bs.s, 1)]),
                WeylMultiplier.from_tables(P7, [(-bs.t, env.purified_table, bs.s, p.shape[1])]),
                chan.coherent_multiplier,
            )
            blocks = ([(bs.s, env.matrix, bs.t, 1)], [(-bs.t, env.matrix, bs.s, 1)], [purified],
                      [(bs.s, env.matrix, bs.t, 1), purified])
            for kernel, block in zip(built, blocks):
                reference = multiplier_from_matrices(P7, block)
                assert [x.tobytes() for x in kernel.symbols] == [x.tobytes() for x in reference.symbols]
            reference = multiplier_from_matrices(P7, blocks[3])
            one_block = [multiplier_from_matrices(P7, block) for block in blocks[:2]]
            for inputs, values in slices:
                for rho, value in zip(inputs, values[i]):
                    for complement, kernel in enumerate(one_block):
                        assert chan.apply_matrix(rho.matrix, complement).tobytes() == kernel(rho.matrix).tobytes()
                    images = reference.images(rho.matrix)
                    got = chan.coherent_multiplier.images_of_table(rho.raw_table)
                    assert [x.tobytes() for x in got] == [x.tobytes() for x in images]
                    h = np.concatenate([von_neumann_entropies(x) for x in images])
                    assert value == float(h[0] - h[1])

    @pytest.mark.parametrize("env_rank", [1, 3])
    def test_negative_eigenvalue_named(self, rng, env_rank):
        # a Hermitian, trace-one input that is not a state: some output has an
        # eigenvalue below -NEGATIVE_EIG_TOL, and the value path says which
        chan = channel(BS72, random_density_matrix(P7, rng, rank=env_rank))
        m = np.zeros((7, 7), dtype=complex)
        m[0, 0], m[1, 1] = 2.0, -1.0
        lows = [float(np.linalg.eigvalsh(image)[0]) for image in oracle_images(chan, m)]
        assert min(lows) < -1e-9
        with pytest.raises(ValueError, match="density matrix has negative eigenvalue") as info:
            _ic_matrix_fn(chan)(m)
        reported = float(re.search(r"eigenvalue (\S+)$", str(info.value)).group(1))
        assert any(low < -1e-9 and reported == pytest.approx(low, rel=1e-2) for low in lows)


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
        report = run_suite("theorem-3", cfg)[0]
        assert report.passed, [c.to_dict() for c in report.checks if not c.passed]
        assert report.suite == "theorem-3"
        assert report.worst_violation <= 0

    def test_stabilizer_suite_small(self):
        cfg = VerifyConfig(d=7, s=2, t=2, seed=4, samples=5, env_samples=1, restarts=2, iterations=60)
        report = run_suite("theorem-2", cfg)[0]
        assert report.passed

    def test_magic_bound_suite_small(self):
        cfg = VerifyConfig(d=7, s=2, t=2, seed=5, env_samples=2, restarts=2, iterations=60)
        report = run_suite("theorem-4", cfg)[0]
        assert report.passed, [c.to_dict() for c in report.checks if not c.passed]

    def test_symmetry_suite_small(self):
        cfg = VerifyConfig(d=7, s=2, t=2, seed=6, env_samples=3, restarts=2, iterations=60)
        report = run_suite("theorem-5", cfg)[0]
        assert report.passed
        assert any("degradation" in c.claim for c in report.checks)

    def test_unknown_suite(self):
        with pytest.raises(ValueError, match="unknown suite 'theorem-9'"):
            run_suite("theorem-9", VerifyConfig())

    def test_report_serialization(self):
        cfg = VerifyConfig(d=13, s=2, t=6, seed=3, restarts=1, iterations=40)
        report = run_suite("theorem-3", cfg)[0]
        payload = report.to_dict()
        assert set(payload) >= {"theorem", "config", "samples", "worst_violation", "pass", "checks"}
        assert payload["pass"] is True
        assert all(line.startswith("[PASS]") for line in report.lines())
