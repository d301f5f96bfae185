import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qmc.capacity import _entropy_and_log, _ic_matrix_fn, coherent_information
import qmc.channel
import qmc.linalg
import qmc.states
import qmc.weyl
from qmc.channel import (
    BeamSplitterChannel,
    ChoiTable,
    beam_splitter_permutation,
    complement_identity_check,
    convolve,
    convolve_complement,
    degradation_witness,
    iterate_convolution,
)
from qmc.linalg import frobenius_distance, von_neumann_entropy
from qmc.states import (
    DensityMatrix,
    preset_state,
    random_density_matrix,
    random_pure_state,
    stabilizer_family,
)
from qmc.weyl import (
    BSParams,
    QuditParams,
    WeylIndex,
    WeylMultiplier,
    characteristic_function,
    valid_st_pairs,
    weyl_operator,
    wigner_function,
)
from qmc.verify import covariance_mismatches

from oracles import (
    ChoiMatrix,
    beam_splitter_unitary,
    channel_oracle,
    choi_dense,
    choi_from_kraus,
    choi_stinespring,
    choi_table_dense,
    conjugated,
    covariance_mismatch_loop,
    displace,
    gather_sum,
    gather_sum_adjoint,
    parity_operator,
    phase_inversion,
    purified_gather_sum,
    purified_gather_sum_adjoint,
    random_clifford,
    stinespring_isometry,
    table_value,
    weyl_dense,
)

P7 = QuditParams(7)
BS72 = BSParams(P7, 2, 2)
P13 = QuditParams(13)
BS13 = BSParams(P13, 2, 6)


def valid_pairs(*layouts):
    """(d, n, s, t) for every valid weight pair of each (d, n) layout."""
    return [(d, n, b.s, b.t) for d, n in layouts for b in valid_st_pairs(QuditParams(d, n))]


def two_ket_mixture(params, kets):
    m = np.zeros((params.dim, params.dim), dtype=complex)
    for k in kets:
        m[k % params.dim, k % params.dim] = 1.0 / len(kets)
    return DensityMatrix(params, m)


class TestUnitary:
    def test_trivial_weights_give_identity(self):
        u = beam_splitter_unitary(7, 1, 1, 0)
        assert np.array_equal(u, np.eye(49).astype(complex))

    def test_index_map_balanced(self):
        perm = beam_splitter_permutation(BS72)
        for i in range(7):
            for j in range(7):
                expected = ((2 * i + 2 * j) % 7) * 7 + ((-2 * i + 2 * j) % 7)
                assert perm[i * 7 + j] == expected

    def test_unitarity_all_d7_pairs(self):
        for bs in valid_st_pairs(P7):
            u = beam_splitter_unitary(7, 1, bs.s, bs.t)
            assert np.array_equal(u @ u.conj().T, np.eye(49).astype(complex))

    def test_covariance_random_labels(self, rng):
        u = beam_splitter_unitary(7, 1, 2, 2)
        for _ in range(6):
            pa, qa, pb, qb = (int(v) for v in rng.integers(0, 7, size=4))
            wa = weyl_operator(P7, WeylIndex.make(P7, pa, qa))
            wb = weyl_operator(P7, WeylIndex.make(P7, pb, qb))
            lhs = u @ np.kron(wa, wb) @ u.conj().T
            wa2 = weyl_operator(P7, WeylIndex.make(P7, 2 * pa + 2 * pb, 2 * qa + 2 * qb))
            wb2 = weyl_operator(P7, WeylIndex.make(P7, -2 * pa + 2 * pb, -2 * qa + 2 * qb))
            assert np.max(np.abs(lhs - np.kron(wa2, wb2))) <= 1e-12


class TestCovarianceCount:
    """The lemma suite's exact covariance count against the dense kron loop."""

    @pytest.mark.parametrize("d, n, s, t", valid_pairs((5, 1), (7, 1), (11, 1)))
    def test_matches_kron_oracle(self, d, n, s, t):
        covariance = ((s, t), (-t, s))
        count = covariance_mismatches(BSParams(QuditParams(d), s, t), covariance)
        assert count == covariance_mismatch_loop(d, s, t, covariance) == 0

    @pytest.mark.parametrize("d, n, s, t", [case for case in valid_pairs((5, 1), (7, 1)) if case[3]])
    def test_mutated_label_map_is_counted(self, d, n, s, t):
        mutated = ((s, t), (t, s))  # b' = t a + s b; the same map as the true one when t = 0
        count = covariance_mismatches(BSParams(QuditParams(d), s, t), mutated)
        assert count > 0
        assert count == covariance_mismatch_loop(d, s, t, mutated)


class TestApply:
    def test_vacuum_in_vacuum_out(self):
        env = preset_state("ket-zero", P7)
        chan = BeamSplitterChannel(BS72, env)
        out = chan.apply(env)
        assert frobenius_distance(out, env) <= 1e-12

    def test_explicit_d13_instantiation(self):
        env = preset_state("uniform-01", P13)
        chan = BeamSplitterChannel(BS13, env)
        rho = two_ket_mixture(P13, [0, 9])
        out = chan.apply(rho)
        expected = two_ket_mixture(P13, [0, 6, 5, 11]).matrix
        assert frobenius_distance(out, expected) <= 1e-12
        comp = chan.apply_complement(rho)
        expected_comp = np.zeros((13, 13), dtype=complex)
        expected_comp[0, 0] = 0.5
        expected_comp[11, 11] = 0.25
        expected_comp[2, 2] = 0.25
        assert frobenius_distance(comp, expected_comp) <= 1e-12

    def test_weyl_covariance_of_channel(self, rng):
        env = random_density_matrix(P7, rng)
        chan = BeamSplitterChannel(BS72, env)
        rho = random_density_matrix(P7, rng)
        for _ in range(4):
            x = WeylIndex.make(P7, int(rng.integers(7)), int(rng.integers(7)))
            lhs = chan.apply(displace(rho, x))
            rhs = displace(chan.apply(rho), x.scale(2, 7))
            assert frobenius_distance(lhs, rhs) <= 1e-11

    def test_pure_global_state_balances_entropies(self, rng):
        env = random_pure_state(P7, rng)
        rho = random_pure_state(P7, rng)
        chan = BeamSplitterChannel(BS72, env)
        s_out = von_neumann_entropy(chan.apply(rho).matrix)
        s_comp = von_neumann_entropy(chan.apply_complement(rho).matrix)
        assert abs(s_out - s_comp) <= 1e-9

    @pytest.mark.parametrize("d, n", [(3, 1), (5, 1), (7, 1), (13, 1), (3, 2), (5, 2)])
    @given(
        seed=st.integers(0, 2**32 - 1),
        pure_rho=st.booleans(),
        env_rank=st.sampled_from([1, 2, 7]),
    )
    def test_gather_matches_dense_oracle(self, d, n, seed, pure_rho, env_rank):
        # every valid pair, trivial ones included (d = 3 and d = 5 have no
        # nontrivial ones): the gather oracle against the dense one, and the
        # multipliers against both for the channel, the complement, the
        # E x E' complement and, through <L, N(rho)> = <N^dag(L), rho>, the
        # adjoints.  The gradient's log2 terms reach LOG_FLOOR on trivial
        # pairs, so their adjoint images are compared relative to the largest
        # log entry.
        params = QuditParams(d, n)
        rng = np.random.default_rng(seed)
        rho = (random_pure_state if pure_rho else random_density_matrix)(params, rng).matrix
        sigma = random_density_matrix(params, rng, rank=min(env_rank, params.dim)).matrix
        for bs in valid_st_pairs(params):
            chan = BeamSplitterChannel(bs, DensityMatrix(params, sigma))
            (i, j), (ic, jc) = chan.gather_indices(), chan.gather_indices(complement=True)
            out, comp = channel_oracle(rho, sigma, beam_splitter_unitary(d, n, bs.s, bs.t))
            purified = purified_gather_sum(rho, chan.environment.purifier, ic, jc)
            assert np.max(np.abs(gather_sum(rho, sigma, i, j) - out)) <= 1e-12
            assert np.max(np.abs(gather_sum(rho, sigma, ic, jc) - comp)) <= 1e-12
            assert np.max(np.abs(chan.apply_matrix(rho) - out)) <= 1e-12
            assert np.max(np.abs(chan.apply_matrix(rho, complement=True) - comp)) <= 1e-12
            env = chan.environment
            forward = WeylMultiplier.from_tables(params, [(bs.s, env.raw_table, bs.t, 1)])
            complement = WeylMultiplier.from_tables(params, [(-bs.t, env.purified_table, bs.s, chan.environment.purifier.shape[1])])
            assert np.max(np.abs(complement(rho) - purified)) <= 1e-12
            maps = (
                (forward, out, lambda m: gather_sum_adjoint(m, sigma, i, j)),
                (complement, purified, lambda m: purified_gather_sum_adjoint(m, chan.environment.purifier, ic, jc)),
            )
            logs = []
            for multiplier, image, oracle_adjoint in maps:
                probe = rng.normal(size=image.shape) + 1j * rng.normal(size=image.shape)
                assert abs(np.vdot(probe, image) - np.vdot(multiplier.adjoint(probe), rho)) <= 1e-12
                logs.append(_entropy_and_log(multiplier(rho))[1])
                adjoint, expected = multiplier.adjoint(logs[-1]), oracle_adjoint(logs[-1])
                assert np.max(np.abs(adjoint - expected)) <= 1e-12 * np.max(np.abs(logs[-1]))
            _, grad = _ic_matrix_fn(chan)(rho, grad=True)
            expected = purified_gather_sum_adjoint(logs[1], chan.environment.purifier, ic, jc) - gather_sum_adjoint(logs[0], sigma, i, j)
            assert np.max(np.abs(grad - expected)) <= 1e-12 * max(np.max(np.abs(log)) for log in logs)

    def test_dim121_memory_bounded_and_table_identity(self, rng):
        # the dense joint state alone would take 121^4 complex entries (3.4 GB)
        params = QuditParams(11, 2)
        bs = BSParams(params, 5, 3)
        rho = random_density_matrix(params, rng)
        sigma = random_density_matrix(params, rng)
        chan = BeamSplitterChannel(bs, sigma)
        tracemalloc.start()
        try:
            out = chan.apply_matrix(rho.matrix)
            comp = chan.apply_matrix(rho.matrix, complement=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 128 * 2**20
        (i, j), (ic, jc) = chan.gather_indices(), chan.gather_indices(complement=True)
        expected_out = gather_sum(rho.matrix, sigma.matrix, i, j)
        expected_comp = gather_sum(rho.matrix, sigma.matrix, ic, jc)
        assert np.max(np.abs(out - expected_out)) <= 1e-12
        assert np.max(np.abs(comp - expected_comp)) <= 1e-12
        rt = characteristic_function(rho)
        st_ = characteristic_function(sigma)
        out_table = characteristic_function(DensityMatrix(params, expected_out)).values
        assert np.max(np.abs(out_table - rt.scaled(bs.s) * st_.scaled(bs.t))) <= 1e-10
        comp_table = characteristic_function(DensityMatrix(params, expected_comp)).values
        assert np.max(np.abs(comp_table - rt.scaled(-bs.t) * st_.scaled(bs.s))) <= 1e-10

    def test_dimension_mismatch(self):
        env = preset_state("ket-zero", P7)
        chan = BeamSplitterChannel(BS72, env)
        with pytest.raises(ValueError, match="layout"):
            chan.apply(preset_state("ket-zero", P13))


class TestConvolution:
    def test_table_multiplication_rule(self, rng):
        rho = random_density_matrix(P7, rng)
        sig = random_density_matrix(P7, rng)
        out, _ = channel_oracle(rho.matrix, sig.matrix, beam_splitter_unitary(7, 1, 2, 2))
        out_table = characteristic_function(DensityMatrix(P7, out))
        rt = characteristic_function(rho)
        st_ = characteristic_function(sig)
        worst = 0.0
        for p in range(7):
            for q in range(7):
                x = WeylIndex.make(P7, p, q)
                lhs = table_value(out_table, x)
                rhs = table_value(rt, x.scale(2, 7)) * table_value(st_, x.scale(2, 7))
                worst = max(worst, abs(lhs - rhs))
        assert worst <= 1e-10

    def test_complement_table_rule(self, rng):
        rho = random_density_matrix(P7, rng)
        sig = random_density_matrix(P7, rng)
        _, comp = channel_oracle(rho.matrix, sig.matrix, beam_splitter_unitary(7, 1, 2, 2))
        out_table = characteristic_function(DensityMatrix(P7, comp))
        rt = characteristic_function(rho)
        st_ = characteristic_function(sig)
        for p in range(7):
            for q in range(7):
                x = WeylIndex.make(P7, p, q)
                lhs = table_value(out_table, x)
                rhs = table_value(rt, x.scale(-2, 7)) * table_value(st_, x.scale(2, 7))
                assert abs(lhs - rhs) <= 1e-10

    def test_stabilizer_closure(self, rng):
        family = stabilizer_family(P7)
        for _ in range(12):
            i, j = rng.integers(0, len(family), size=2)
            out = convolve(BS72, family.state_at(int(i)), family.state_at(int(j)))
            _, dist = family.nearest_member_distance(out)
            assert dist <= 1e-9

    def test_balanced_convolution_has_nonnegative_wigner(self, rng):
        rho = random_density_matrix(P7, rng)
        sig = random_density_matrix(P7, rng)
        out = convolve(BS72, rho, sig)
        assert wigner_function(out).min() >= -1e-10

    def test_entropy_growth(self, rng):
        for _ in range(5):
            rho = random_density_matrix(P7, rng)
            sig = random_density_matrix(P7, rng)
            s_rho = von_neumann_entropy(rho.matrix)
            s_sig = von_neumann_entropy(sig.matrix)
            assert von_neumann_entropy(convolve(BS72, rho, sig).matrix) >= max(s_rho, s_sig) - 1e-9
            assert von_neumann_entropy(convolve_complement(BS72, rho, sig).matrix) >= s_sig - 1e-9

    def test_clifford_compatibility_spectra(self, rng):
        u = random_clifford(P7, seed=31)
        rho = random_density_matrix(P7, rng)
        sig = random_density_matrix(P7, rng)
        plain = np.linalg.eigvalsh(convolve(BS72, rho, sig).matrix)
        rotated = np.linalg.eigvalsh(
            convolve(BS72, conjugated(rho, u), conjugated(sig, u)).matrix
        )
        assert np.max(np.abs(plain - rotated)) <= 1e-9


class TestIterateConvolution:
    def test_zero_mean_stabilizer_is_fixed_point(self):
        # exact fixed points are the zero-mean members (characteristic values
        # in {0, 1}); displaced members wander through the family instead
        family = stabilizer_family(P7)
        for idx, member in enumerate(family.members):
            if all(abs(char - 1.0) <= 1e-12 for _, char in member.generators):
                trace = iterate_convolution(BS72, family.state_at(idx), 10)
                assert all(dist <= 1e-12 for _, dist in trace)

    def test_displaced_stabilizer_stays_in_family(self):
        family = stabilizer_family(P7)
        state = family.state_at(3)  # character is a nontrivial root of unity
        out = state
        for _ in range(3):
            out = convolve(BS72, out, state)
            _, dist = family.nearest_member_distance(out)
            assert dist <= 1e-9

    def test_uniform_01_respects_contraction_bound(self):
        rho = preset_state("uniform-01", P7)
        mags = np.abs(characteristic_function(rho).values)
        m_star = mags[mags < 1.0 - 1e-9].max()
        assert m_star == pytest.approx(math.cos(math.pi / 7), abs=1e-12)
        trace = iterate_convolution(BS72, rho, 20)
        assert trace[-1][1] <= m_star**20 + 1e-12
        for step, dist in trace:
            assert dist <= m_star**step + 1e-12

    def test_random_state_contracts_below_threshold(self, rng):
        rho = random_density_matrix(P7, rng)
        trace = iterate_convolution(BS72, rho, 80)
        dists = [dist for _, dist in trace]
        assert all(b <= a + 1e-12 for a, b in zip(dists, dists[1:]))
        crossing = next(i for i, d in enumerate(dists) if d <= 1e-9)
        assert all(b < a for a, b in zip(dists[:crossing], dists[1 : crossing + 1]))


class TestChoi:
    def test_identity_channel_choi_is_entangled_projector(self):
        chan = BeamSplitterChannel(BSParams(P7, 1, 0), preset_state("ket-zero", P7))
        choi = choi_table_dense(chan.choi())
        phi = np.eye(7, dtype=complex).reshape(-1) / math.sqrt(7)
        assert frobenius_distance(choi, np.outer(phi, phi.conj())) <= 1e-12

    def test_random_environments_are_cptp(self, rng):
        for _ in range(50):
            env = random_density_matrix(P7, rng)
            chan = BeamSplitterChannel(BS72, env)
            for table in (chan.choi(), chan.choi(complement=True)):
                # the table's own trace check: the origin term is 1 x 1 with coefficient Tr sigma
                assert table.labels[0, 0] == 0 and abs(table.coeffs[0, 0] - 1.0) <= 1e-10
                dense = choi_table_dense(table)
                assert np.linalg.eigvalsh(dense)[0] >= -1e-10
                ChoiMatrix(7, 7, dense)  # the dense validator: PSD and trace preservation

    def test_trace_check_rejects_bad_table(self):
        table = BeamSplitterChannel(BS72, preset_state("symmetric-pm1", P7)).choi()
        with pytest.raises(ValueError, match="origin"):
            ChoiTable(P7, table.labels, 2 * table.coeffs)
        moved = table.labels.copy()
        moved[0, 0] = 1
        with pytest.raises(ValueError, match="origin"):
            ChoiTable(P7, moved, table.coeffs)

    def test_complement_matches_stinespring_route(self, rng):
        env = random_pure_state(P7, rng)
        chan = BeamSplitterChannel(BS72, env)
        ket = np.linalg.eigh(env.matrix)[1][:, -1]
        v = stinespring_isometry(beam_splitter_unitary(7, 1, 2, 2), ket)
        assert np.max(np.abs(v.conj().T @ v - np.eye(7))) <= 1e-12
        kraus = [v.reshape(7, 7, 7)[a] for a in range(7)]  # <a|_out-A blocks on B
        via_kraus = choi_from_kraus(kraus, 7)
        assert frobenius_distance(via_kraus, choi_stinespring(chan, complement=True).matrix) <= 1e-11
        assert frobenius_distance(via_kraus, choi_table_dense(chan.choi(complement=True))) <= 1e-11

    def test_choi_validation_rejects_bad_matrix(self):
        with pytest.raises(ValueError, match="negative"):
            ChoiMatrix(2, 2, -np.eye(4))

    def test_distance_counts_unmatched_label_pairs(self, rng):
        # the channel's labels s y and the complement's -t y agree only at y = 0
        chan = BeamSplitterChannel(BS72, random_density_matrix(P7, rng))
        table, other = chan.choi(), chan.choi(complement=True)
        assert np.count_nonzero(table.labels == other.labels) == 1
        dense = frobenius_distance(choi_table_dense(table), choi_table_dense(other))
        assert dense > 0.1
        assert abs(table.distance(other) - dense) <= 1e-12

    def test_mutated_tables_fail_the_dense_oracle(self, rng):
        sigma = random_density_matrix(P7, rng)
        chan = BeamSplitterChannel(BS72, sigma)
        shift = WeylIndex.make(P7, 3, 5)
        expected = choi_dense(sigma.matrix, beam_splitter_unitary(7, 1, 2, 2), post_unitary=parity_operator(P7) @ weyl_dense(P7, shift))
        table = chan.choi(parity=True, displacement=shift)
        assert np.max(np.abs(choi_table_dense(table) - expected)) <= 1e-12
        flipped = chan.choi(parity=True, displacement=shift.neg(7))  # every displacement phase conjugated
        dropped = table.coeffs.copy()
        dropped[1, 2] = 0.0  # one term left out
        for mutant in (flipped, ChoiTable(P7, table.labels, dropped)):
            assert np.max(np.abs(choi_table_dense(mutant) - expected)) > 1e-3
            assert abs(table.distance(mutant) - frobenius_distance(choi_table_dense(mutant), expected)) <= 1e-12


def dense_identity_case(d, n, s, t, env):
    """pytest.param for a (d, n, s, t) complement-identity case and its environment kind."""
    return pytest.param(d, n, s, t, env, id=f"{d}-{n}-{s}-{t}" + ("" if env == "mixed" else f"-{env}"))


DENSE_IDENTITY_CASES = [
    *(dense_identity_case(*case, "mixed") for case in valid_pairs((5, 1), (7, 1), (11, 1), (13, 1), (5, 2))),
    dense_identity_case(7, 2, 2, 2, "mixed"),
    dense_identity_case(7, 2, 2, 5, "pure-product"),
]


class TestComplementIdentity:
    def test_random_environments_d7(self, rng):
        for _ in range(5):
            rep = complement_identity_check(BS72, random_density_matrix(P7, rng))
            assert rep.passed, rep.frobenius_distance

    def test_random_environments_d13(self, rng):
        rep = complement_identity_check(BS13, random_density_matrix(P13, rng))
        assert rep.passed

    def test_maximally_mixed_environment(self):
        rep = complement_identity_check(BS72, preset_state("maximally-mixed", P7))
        assert rep.passed

    @pytest.mark.parametrize("d, n, s, t, env", DENSE_IDENTITY_CASES)
    def test_matches_dense_choi_oracle(self, d, n, s, t, env, rng):
        params = QuditParams(d, n)
        if env == "mixed":
            sigma = random_density_matrix(params, rng)
        else:
            single = QuditParams(d)
            sigma = random_pure_state(single, rng).tensor(random_pure_state(single, rng))
        parity = parity_operator(params)
        left = choi_dense(sigma.matrix, beam_splitter_unitary(d, n, s, t), complement=True)
        right = choi_dense(parity @ sigma.matrix @ parity.T, beam_splitter_unitary(d, n, t, s), post_unitary=parity)
        chan = BeamSplitterChannel(BSParams(params, s, t), sigma)
        swapped = BeamSplitterChannel(BSParams(params, t, s), phase_inversion(sigma))
        assert np.max(np.abs(choi_table_dense(chan.choi(complement=True)) - left)) <= 1e-12
        assert np.max(np.abs(choi_table_dense(swapped.choi(parity=True)) - right)) <= 1e-12
        rep = complement_identity_check(BSParams(params, s, t), sigma)
        assert rep.passed
        assert abs(rep.frobenius_distance - frobenius_distance(left, right)) <= 1e-12


class TestDegradationWitness:
    def test_symmetric_two_ket(self):
        rep = degradation_witness(BS72, preset_state("symmetric-pm1", P7))
        assert rep.passed

    def test_zero_mean_stabilizer(self):
        rep = degradation_witness(BS72, preset_state("ket-zero", P7))
        assert rep.passed

    def test_displaced_symmetric_state(self):
        shift = WeylIndex.make(P7, 1, 0)
        env = displace(preset_state("symmetric-pm1", P7), shift)
        rep = degradation_witness(BS72, env, displacement=shift)
        assert rep.passed

    @pytest.mark.parametrize("s", [2, 5])
    @pytest.mark.parametrize("p, q", [(0, 0), (1, 0), (3, 5)])
    @pytest.mark.parametrize("base", ["symmetric-pm1", "random"])
    def test_matches_dense_choi_oracle(self, s, p, q, base, rng):
        parity = parity_operator(P7)
        if base == "random":
            raw = random_density_matrix(P7, rng).matrix
            sigma0 = (raw + parity @ raw @ parity.T) / 2
        else:
            sigma0 = preset_state(base, P7).matrix
        shift = WeylIndex.make(P7, p, q)
        w = weyl_dense(P7, shift)
        sigma = DensityMatrix(P7, w @ sigma0 @ w.conj().T)
        u = beam_splitter_unitary(7, 1, s, s)
        back = shift.scale(-2 * s, 7)
        left = choi_dense(sigma.matrix, u, complement=True)
        right = choi_dense(sigma.matrix, u, post_unitary=parity @ weyl_dense(P7, back))
        chan = BeamSplitterChannel(BSParams(P7, s, s), sigma)
        assert np.max(np.abs(choi_table_dense(chan.choi(complement=True)) - left)) <= 1e-12
        assert np.max(np.abs(choi_table_dense(chan.choi(parity=True, displacement=back)) - right)) <= 1e-12
        rep = degradation_witness(BSParams(P7, s, s), sigma, displacement=shift)
        assert rep.passed
        assert abs(rep.frobenius_distance - frobenius_distance(left, right)) <= 1e-12

    def test_unbalanced_weights_rejected(self):
        with pytest.raises(ValueError, match="differ mod"):
            degradation_witness(BSParams(P7, 2, 5), preset_state("symmetric-pm1", P7))

    def test_asymmetric_environment_rejected(self):
        with pytest.raises(ValueError, match="parity symmetric"):
            degradation_witness(BS72, preset_state("uniform-01", P7))


class TestChoiTableCost:
    """Both symmetry identities on Choi tables: no eigensolve, partial trace
    or reference/output state, and no dense Choi matrix at d^n = 343."""

    def test_identities_make_no_dense_choi_matrix(self, rng, monkeypatch):
        params = QuditParams(7, 3)
        shift = WeylIndex.make(params, (1, 0, 2), (3, 1, 0))
        sigma, env = random_density_matrix(params, rng), displace(preset_state("ket-zero", params), shift)
        checks = (
            lambda: complement_identity_check(BSParams(params, 2, 5), sigma),
            lambda: degradation_witness(BSParams(params, 2, 2), env, displacement=shift),
        )
        for check in checks:
            assert check().passed  # also fills the cached index and DFT tables
        calls = []

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)

            return wrapped

        monkeypatch.setattr(np.linalg, "eigvalsh", counting("eigvalsh", np.linalg.eigvalsh))
        monkeypatch.setattr(np.linalg, "eigh", counting("eigh", np.linalg.eigh))
        for module in (qmc.linalg, qmc.channel):
            monkeypatch.setattr(module, "partial_trace", counting("partial_trace", qmc.linalg.partial_trace), raising=False)
        monkeypatch.setattr(
            BeamSplitterChannel, "reference_output", counting("reference_output", BeamSplitterChannel.reference_output)
        )
        for check in checks:
            tracemalloc.start()
            try:
                assert check().passed
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= 4 * params.dim**2 * 16  # 4 dim^2 complex entries in all, so no array holds more
        assert calls == []


class TestEnvironmentTables:
    """Every map of a channel reads its environment's kept tables: one DFT
    and one eigensolve per environment state, however many channels and
    maps use it."""

    def test_each_environment_is_transformed_once(self, rng, monkeypatch):
        tables, eighs = [], []
        for module in (qmc.weyl, qmc.states, qmc.channel):
            original = module._raw_table

            def counting(params, m, original=original):
                tables.append(id(m))
                return original(params, m)

            monkeypatch.setattr(module, "_raw_table", counting)
        eigh = np.linalg.eigh

        def counting_eigh(m, *args, **kwargs):
            eighs.append(id(m))
            return eigh(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        env, rho = random_density_matrix(P7, rng), random_density_matrix(P7, rng)
        shift = WeylIndex.make(P7, 3, 5)
        for bs in (BS72, BSParams(P7, 2, 5), BSParams(P7, 5, 2)):
            chan = BeamSplitterChannel(bs, env)  # a fresh channel on the same state
            chan.apply_matrix(rho.matrix)
            chan.apply_matrix(rho.matrix, complement=True)
            chan.choi()
            chan.choi(complement=True)
            chan.choi(parity=True, displacement=shift)
            coherent_information(chan, rho)
        assert tables.count(id(env.matrix)) == 1
        assert eighs == [id(env.matrix)]
        sigma = displace(preset_state("symmetric-pm1", P7), shift)
        assert degradation_witness(BS72, sigma, displacement=shift).passed
        assert tables.count(id(sigma.matrix)) == 1


class TestPhaseInversionMap:
    def test_involution(self, rng):
        rho = random_density_matrix(P7, rng)
        assert frobenius_distance(phase_inversion(phase_inversion(rho)), rho) <= 1e-12

    @given(st.integers(0, 10**6))
    @settings(max_examples=10)
    def test_duality_through_parity(self, seed):
        rng = np.random.default_rng(seed)
        rho = random_density_matrix(P7, rng)
        table = characteristic_function(rho)
        flipped = characteristic_function(phase_inversion(rho))
        for p, q in ((1, 0), (0, 1), (3, 5)):
            x = WeylIndex.make(P7, p, q)
            assert table_value(flipped, x) == pytest.approx(table_value(table, x.neg(7)), abs=1e-11)
