import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qmc.linalg import (
    frobenius_distance,
    partial_trace,
    relative_entropy,
    tensor,
    von_neumann_entropy,
)

from oracles import dinf_bisection, eig_hermitian, max_relative_entropy, partial_trace_loop


def random_hermitian(rng, size):
    g = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
    return (g + g.conj().T) / 2


def random_density(rng, size, rank=None):
    rank = size if rank is None else rank
    g = rng.normal(size=(size, rank)) + 1j * rng.normal(size=(size, rank))
    m = g @ g.conj().T
    return m / np.trace(m).real


class TestEigHermitian:
    def test_identity(self):
        spec = eig_hermitian(np.eye(3))
        assert np.allclose(spec.eigenvalues, [1.0, 1.0, 1.0])

    def test_known_rational_spectrum(self):
        vals = [59 / 125, 3 * (11 - math.sqrt(61)) / 125, 3 * (11 + math.sqrt(61)) / 125]
        spec = eig_hermitian(np.diag(vals))
        assert np.allclose(spec.eigenvalues, sorted(vals, reverse=True), atol=1e-15)

    def test_reconstruction_random_7(self, rng):
        m = random_hermitian(rng, 7)
        spec = eig_hermitian(m)
        rebuilt = (spec.eigenvectors * spec.eigenvalues) @ spec.eigenvectors.conj().T
        assert frobenius_distance(m, rebuilt) <= 1e-9

    def test_reconstruction_hundred_matrices(self, rng):
        for _ in range(100):
            size = int(rng.integers(2, 50))
            m = random_hermitian(rng, size)
            spec = eig_hermitian(m)
            rebuilt = (spec.eigenvectors * spec.eigenvalues) @ spec.eigenvectors.conj().T
            assert frobenius_distance(m, rebuilt) <= 1e-9
            assert np.all(np.diff(spec.eigenvalues) <= 1e-12)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            eig_hermitian(np.ones((2, 3)))

    def test_rejects_non_hermitian(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="Hermitian"):
            eig_hermitian(m)


class TestPartialTrace:
    def test_product_state(self, rng):
        a = random_density(rng, 3)
        b = random_hermitian(rng, 5)
        out = partial_trace(tensor(a, b), [3, 5], keep=[0])
        assert np.allclose(out, a * np.trace(b), atol=1e-12)

    def test_maximally_entangled(self):
        k = 4
        v = np.eye(k).reshape(-1) / math.sqrt(k)
        out = partial_trace(np.outer(v, v.conj()), [k, k], keep=[1])
        assert np.allclose(out, np.eye(k) / k, atol=1e-12)

    def test_random_against_loop_oracle(self, rng):
        m = rng.normal(size=(21, 21)) + 1j * rng.normal(size=(21, 21))
        fast = partial_trace(m, [3, 7], keep=[0])
        slow = partial_trace_loop(m, [3, 7], keep=[0])
        assert np.allclose(fast, slow, atol=1e-12)
        fast_b = partial_trace(m, [3, 7], keep=[1])
        slow_b = partial_trace_loop(m, [3, 7], keep=[1])
        assert np.allclose(fast_b, slow_b, atol=1e-12)

    def test_trace_preserved(self, rng):
        m = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
        out = partial_trace(m, [2, 2, 3], keep=[0, 2])
        assert abs(np.trace(out) - np.trace(m)) <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            partial_trace(np.eye(6), [2, 2], keep=[0])

    @given(st.integers(0, 10**6))
    def test_inverts_tensor(self, seed):
        rng = np.random.default_rng(seed)
        a = random_density(rng, 4)
        b = random_density(rng, 3)
        out = partial_trace(tensor(a, b), [4, 3], keep=[0])
        assert np.max(np.abs(out - a)) <= 1e-12


class TestEntropy:
    def test_pure_state(self):
        assert von_neumann_entropy(np.diag([1.0, 0.0, 0.0])) == 0.0

    def test_maximally_mixed_7(self):
        assert abs(von_neumann_entropy(np.eye(7) / 7) - math.log2(7)) <= 1e-12

    def test_half_quarter_quarter(self):
        m = np.diag([0.5, 0.25, 0.25, 0.0])
        assert abs(von_neumann_entropy(m) - 1.5) <= 1e-12

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError, match="negative"):
            von_neumann_entropy(np.diag([1.1, -0.1]))


class TestRelativeEntropy:
    def test_self_is_zero(self, rng):
        rho = random_density(rng, 7)
        assert relative_entropy(rho, rho) <= 1e-10

    def test_support_mismatch_infinite(self):
        psi = np.zeros(7, dtype=complex)
        psi[0] = psi[1] = 1 / math.sqrt(2)
        magic = np.outer(psi, psi.conj())
        stab = np.diag([0.0, 0.0, 1.0, 0, 0, 0, 0]).astype(complex)
        assert relative_entropy(magic, stab) == math.inf

    def test_pure_vs_maximally_mixed(self):
        rho = np.diag([1.0] + [0.0] * 6).astype(complex)
        # closed form: -S(rho) - Tr rho log2(I/7) = log2 7
        assert abs(relative_entropy(rho, np.eye(7) / 7) - math.log2(7)) <= 1e-12

    def test_nonnegative_and_faithful(self, rng):
        for _ in range(20):
            rho = random_density(rng, 5)
            sigma = random_density(rng, 5)
            d = relative_entropy(rho, sigma)
            assert d >= 0.0
            if frobenius_distance(rho, sigma) > 1e-8:
                assert d > 0.0
        rho = random_density(rng, 5)
        assert relative_entropy(rho, rho.copy()) <= 1e-10


class TestMaxRelativeEntropy:
    def test_self_is_zero(self, rng):
        rho = random_density(rng, 7)
        assert abs(max_relative_entropy(rho, rho)) <= 1e-9

    def test_pure_vs_maximally_mixed(self):
        rho = np.diag([1.0] + [0.0] * 6).astype(complex)
        assert abs(max_relative_entropy(rho, np.eye(7) / 7) - math.log2(7)) <= 1e-12

    def test_against_bisection_oracle(self, rng):
        for _ in range(5):
            rho = random_density(rng, 7)
            sigma = random_density(rng, 7)
            fast = max_relative_entropy(rho, sigma)
            slow = dinf_bisection(rho, sigma)
            assert abs(fast - slow) <= 1e-8

    @given(st.integers(0, 10**6))
    def test_dominates_relative_entropy(self, seed):
        rng = np.random.default_rng(seed)
        rho = random_density(rng, 6)
        sigma = random_density(rng, 6)
        assert max_relative_entropy(rho, sigma) >= relative_entropy(rho, sigma) - 1e-9
