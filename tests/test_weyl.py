import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qmc.states import DensityMatrix, random_density_matrix, random_pure_state
from qmc.weyl import (
    BSParams,
    CharacteristicTable,
    QuditParams,
    WeylIndex,
    characteristic_function,
    inverse_weyl_transform,
    valid_st_pairs,
    weyl_operator,
    wigner_function,
)

from oracles import (
    characteristic_function_loop,
    characteristic_value,
    classify_weyl_image,
    clifford_from_word,
    clifford_generators,
    fourier_matrix,
    inverse_weyl_transform_loop,
    parity_operator,
    phase_point_operator,
    random_clifford,
    symplectic_ft_wigner,
    table_value,
    wigner_function_loop,
)

P7 = QuditParams(7)
OMEGA7 = np.exp(2j * np.pi / 7)


def all_weyl_ops(params):
    return {
        (p, q): weyl_operator(params, WeylIndex.make(params, p, q))
        for p in range(params.d)
        for q in range(params.d)
    }


class TestWeylOperator:
    def test_zero_label_is_identity(self):
        assert np.allclose(weyl_operator(P7, WeylIndex.make(P7, 0, 0)), np.eye(7))

    def test_clock(self):
        z = weyl_operator(P7, WeylIndex.make(P7, 1, 0))
        assert np.allclose(z, np.diag([OMEGA7**k for k in range(7)]))

    def test_shift(self):
        x = weyl_operator(P7, WeylIndex.make(P7, 0, 1))
        expected = np.zeros((7, 7), dtype=complex)
        for k in range(7):
            expected[(k + 1) % 7, k] = 1.0
        assert np.allclose(x, expected)

    def test_pq_one_against_operator_product(self):
        # direct product oracle: w(1,1) = omega^{-2^{-1}} Z X, built by hand
        z = np.diag([OMEGA7**k for k in range(7)])
        x = np.zeros((7, 7), dtype=complex)
        for k in range(7):
            x[(k + 1) % 7, k] = 1.0
        expected = OMEGA7 ** (-4) * (z @ x)  # 2^{-1} = 4 mod 7
        got = weyl_operator(P7, WeylIndex.make(P7, 1, 1))
        assert np.allclose(got, expected, atol=1e-14)
        for k in range(7):
            assert got[(k + 1) % 7, k] == pytest.approx(OMEGA7 ** (k + 1 - 4))

    def test_unitarity_and_order(self, rng):
        for _ in range(10):
            x = WeylIndex.make(P7, int(rng.integers(7)), int(rng.integers(7)))
            w = weyl_operator(P7, x)
            assert np.allclose(w @ w.conj().T, np.eye(7), atol=1e-13)
            assert np.allclose(np.linalg.matrix_power(w, 7), np.eye(7), atol=1e-12)
            assert np.allclose(w.conj().T, weyl_operator(P7, x.neg(7)), atol=1e-13)

    def test_orthonormal_basis(self):
        ops = all_weyl_ops(P7)
        labels = list(ops)
        for a in labels:
            for b in labels:
                inner = np.trace(ops[a].conj().T @ ops[b]) / 7
                expected = 1.0 if a == b else 0.0
                assert abs(inner - expected) <= 1e-12

    def test_two_qudit_label(self):
        params = QuditParams(3, 2)
        x = WeylIndex.make(params, (1, 0), (0, 2))
        w = weyl_operator(params, x)
        single = QuditParams(3)
        left = weyl_operator(single, WeylIndex.make(single, 1, 0))
        right = weyl_operator(single, WeylIndex.make(single, 0, 2))
        assert np.allclose(w, np.kron(left, right), atol=1e-14)

    def test_orthonormality_two_qudits_random_subset(self, rng):
        params = QuditParams(7, 2)
        labels = [
            WeylIndex.make(params, tuple(rng.integers(0, 7, size=2)), tuple(rng.integers(0, 7, size=2)))
            for _ in range(12)
        ]
        ops = [weyl_operator(params, x) for x in labels]
        for i, a in enumerate(ops):
            for j, b in enumerate(ops):
                inner = np.trace(a.conj().T @ b) / params.dim
                expected = 1.0 if labels[i] == labels[j] else 0.0
                assert abs(inner - expected) <= 1e-12

    def test_d2_rejected(self):
        params = QuditParams(2)
        with pytest.raises(ValueError, match="d=2"):
            weyl_operator(params, WeylIndex.make(params, 1, 0))


class TestCharacteristicFunction:
    def test_ket_zero(self):
        rho = DensityMatrix.from_ket(P7, [1, 0, 0, 0, 0, 0, 0])
        table = characteristic_function(rho)
        for p in range(7):
            for q in range(7):
                expected = 1.0 if q == 0 else 0.0
                assert abs(table_value(table, WeylIndex.make(P7, p, q)) - expected) <= 1e-12

    def test_unit_trace_entry(self, rng):
        rho = random_density_matrix(P7, rng)
        assert table_value(characteristic_function(rho), WeylIndex.zero(P7)) == pytest.approx(1.0)

    def test_maximally_mixed_indicator(self):
        rho = DensityMatrix(P7, np.eye(7) / 7)
        table = characteristic_function(rho).values
        expected = np.zeros((7, 7))
        expected[0, 0] = 1.0
        assert np.allclose(table, expected, atol=1e-13)

    @pytest.mark.parametrize("kind", ["ket-zero", "mixed", "random"])
    def test_round_trip(self, kind, rng):
        if kind == "ket-zero":
            rho = DensityMatrix.from_ket(P7, np.eye(7)[0])
        elif kind == "mixed":
            rho = DensityMatrix(P7, np.eye(7) / 7)
        else:
            rho = random_density_matrix(P7, rng)
        rebuilt = inverse_weyl_transform(characteristic_function(rho))
        assert np.max(np.abs(rebuilt - rho.matrix)) <= 1e-10

    @given(st.integers(0, 10**6))
    def test_magnitudes_bounded(self, seed):
        rng = np.random.default_rng(seed)
        rho = random_density_matrix(P7, rng)
        assert np.max(np.abs(characteristic_function(rho).values)) <= 1.0 + 1e-10


class TestPhasePointOperators:
    def test_parity_d3(self):
        params = QuditParams(3)
        a0 = phase_point_operator(params, WeylIndex.zero(params))
        expected = np.zeros((3, 3))
        expected[0, 0] = expected[1, 2] = expected[2, 1] = 1.0
        assert np.allclose(a0, expected)

    def test_parity_squares_to_identity(self):
        a0 = parity_operator(P7)
        assert np.array_equal(a0 @ a0, np.eye(7).astype(complex))

    def test_orthonormality_d7(self):
        ops = [
            phase_point_operator(P7, WeylIndex.make(P7, p, q))
            for p in range(7)
            for q in range(7)
        ]
        for a in ops:
            assert np.max(np.abs(a - a.conj().T)) <= 1e-12
            assert abs(np.trace(a) - 1.0) <= 1e-12
        stack = np.stack(ops)
        grams = np.einsum("aji,bji->ab", stack.conj(), stack) / 7
        assert np.allclose(grams, np.eye(49), atol=1e-12)

    def test_parity_flips_weyl_labels(self, rng):
        a0 = parity_operator(P7)
        for _ in range(10):
            x = WeylIndex.make(P7, int(rng.integers(7)), int(rng.integers(7)))
            lhs = a0 @ weyl_operator(P7, x) @ a0.conj().T
            assert np.allclose(lhs, weyl_operator(P7, x.neg(7)), atol=1e-13)


class TestWigner:
    def test_maximally_mixed_constant(self):
        rho = DensityMatrix(P7, np.eye(7) / 7)
        table = wigner_function(rho)
        assert np.allclose(table, np.full((7, 7), 1 / 7), atol=1e-13)

    def test_normalization(self, rng):
        rho = random_density_matrix(P7, rng)
        table = wigner_function(rho)
        assert abs(table.sum() - 7.0) <= 1e-10
        assert abs((table / 7).sum() - 1.0) <= 1e-10

    def test_superposition_has_negative_entry(self):
        rho = DensityMatrix.from_ket(P7, np.eye(7)[0] + np.eye(7)[1])
        assert wigner_function(rho).min() < -1e-6

    def test_matches_symplectic_transform_oracle(self, rng):
        params = QuditParams(5)
        for _ in range(3):
            rho = random_density_matrix(params, rng)
            table = characteristic_function(rho)

            def char_fn(p_vec, q_vec):
                return table_value(table, WeylIndex.make(params, p_vec, q_vec))

            oracle = symplectic_ft_wigner(rho.matrix, 5, 1, char_fn)
            assert np.max(np.abs(wigner_function(rho) - oracle)) <= 1e-9


KERNEL_LAYOUTS = [(3, 1), (5, 1), (7, 1), (3, 2), (13, 1), (5, 2), (3, 3), (7, 2)]  # d^n = 3 .. 49


class TestDftKernel:
    @settings(max_examples=40)
    @given(st.sampled_from(KERNEL_LAYOUTS), st.booleans(), st.integers(0, 2**32 - 1))
    def test_matches_loop_oracles(self, layout, pure, seed):
        params = QuditParams(*layout)
        rng = np.random.default_rng(seed)
        rho = random_pure_state(params, rng) if pure else random_density_matrix(params, rng)
        table = characteristic_function(rho)
        looped = characteristic_function_loop(params, rho.matrix)
        assert np.max(np.abs(table.values - looped)) <= 1e-12
        back = inverse_weyl_transform(CharacteristicTable(params, looped))
        assert np.max(np.abs(back - inverse_weyl_transform_loop(params, looped))) <= 1e-12
        assert np.max(np.abs(wigner_function(rho) - wigner_function_loop(params, rho.matrix))) <= 1e-12

    def test_dim343_bounded_memory(self, rng):
        params = QuditParams(7, 3)
        rho = random_density_matrix(params, rng)
        tracemalloc.start()
        try:
            table = characteristic_function(rho)
            back = inverse_weyl_transform(table)
            wigner = wigner_function(rho)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 64 * 2**20
        assert np.max(np.abs(back - rho.matrix)) <= 1e-10
        assert abs(wigner.sum() - params.dim) <= 1e-10
        for pe, qe in rng.integers(0, params.dim, size=(16, 2)):
            digits = [np.unravel_index(v, (7, 7, 7)) for v in (pe, qe)]
            x = WeylIndex.make(params, digits[0], digits[1])
            assert abs(table.values[pe, qe] - characteristic_value(params, rho.matrix, x)) <= 1e-12

    def test_wigner_imaginary_residue_rejected(self):
        # |0><1| is no state: its Wigner table is complex
        off_diagonal = SimpleNamespace(params=P7, matrix=np.outer(np.eye(7)[0], np.eye(7)[1]))
        with pytest.raises(ValueError, match="imaginary residue"):
            wigner_function(off_diagonal)

    def test_d2_rejected(self):
        params = QuditParams(2)
        rho = DensityMatrix(params, np.eye(2) / 2)
        for transform in (characteristic_function, wigner_function):
            with pytest.raises(ValueError, match="d=2"):
                transform(rho)
        with pytest.raises(ValueError, match="d=2"):
            inverse_weyl_transform(CharacteristicTable(params, np.eye(2, dtype=complex)))


class TestValidStPairs:
    def test_d2_has_no_nontrivial(self):
        pairs = valid_st_pairs(QuditParams(2))
        assert {(b.s, b.t) for b in pairs} == {(0, 1), (1, 0)}
        assert all(not b.nontrivial for b in pairs)

    def test_d7_nontrivial_set(self):
        pairs = {(b.s, b.t) for b in valid_st_pairs(P7) if b.nontrivial}
        assert pairs == {(2, 2), (2, 5), (5, 2), (5, 5)}

    def test_d13_against_brute_force(self):
        params = QuditParams(13)
        got = {(b.s, b.t) for b in valid_st_pairs(params) if b.nontrivial}
        oracle = {
            (s, t)
            for s in range(13)
            for t in range(13)
            if (s * s + t * t) % 13 == 1
            and (s * s) % 13 not in (0, 1)
            and (t * t) % 13 not in (0, 1)
        }
        assert got == oracle
        assert len(got) == 8
        assert (2, 6) in got
        assert (2 * 2) % 13 == 4 and (6 * 6) % 13 == 10

    def test_invalid_pair_rejected(self):
        with pytest.raises(ValueError, match="violates"):
            BSParams(P7, 1, 1)


class TestClifford:
    def test_identity_word(self):
        assert np.allclose(clifford_from_word(P7, []), np.eye(7))

    def test_fourier_conjugates_clock_to_shift(self):
        f = fourier_matrix(7)
        z = weyl_operator(P7, WeylIndex.make(P7, 1, 0))
        x = weyl_operator(P7, WeylIndex.make(P7, 0, 1))
        assert np.allclose(f @ z @ f.conj().T, x, atol=1e-12)

    def test_generators_preserve_weyl_frame(self):
        ops = all_weyl_ops(P7)
        for name, gen in clifford_generators(P7).items():
            for label, op in ops.items():
                if label == (0, 0):
                    continue
                image = gen @ op @ gen.conj().T
                assert classify_weyl_image(image, ops) is not None, (name, label)

    def test_random_word_closure(self):
        ops = all_weyl_ops(P7)
        u = random_clifford(P7, seed=99)
        assert np.allclose(u @ u.conj().T, np.eye(7), atol=1e-11)
        for label, op in ops.items():
            if label == (0, 0):
                continue
            image = u @ op @ u.conj().T
            assert classify_weyl_image(image, ops) is not None, label

    def test_short_word_rejected(self):
        with pytest.raises(ValueError, match="20"):
            random_clifford(P7, seed=1, length=5)
