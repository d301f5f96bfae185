import math
import warnings

import numpy as np
import pytest

import qmc.magic as magic
from qmc.magic import (
    ConeProgramResult,
    MrmInfError,
    mrm,
    mrm_enumerated,
    mrm_inf,
    mrm_inf_certificate,
    simplex_max,
    wigner_negativity,
)
from qmc.states import (
    mean_state,
    preset_state,
    pure_stabilizer_projectors,
    random_density_matrix,
    random_pure_state,
    stabilizer_family,
)
from qmc.weyl import QuditParams, WeylIndex

from oracles import clifford_dressed_environment, displace, max_relative_entropy, stabilizer_weight_bracket

P7 = QuditParams(7)


def assert_recomputed_certificates(rho, result, projectors):
    """Both halves of the bracket from the returned weights and dual alone:
    the upper from the residual spectrum, the lower from dual feasibility
    (W~ >= 0 and Tr(P_i W~) <= 1 for every generator) and Tr(rho W~)."""
    weights = np.asarray(result.weights)
    resid = np.einsum("i,ijk->jk", weights, projectors) - rho.matrix
    assert weights.min() >= 0.0
    assert np.linalg.eigvalsh((resid + resid.conj().T) / 2)[0] >= -1e-8
    assert result.value_bits == pytest.approx(math.log2(weights.sum()), abs=1e-12)
    assert -1e-12 <= weights.sum() - result.lower_bound_weight <= 1e-9
    dual = np.asarray(result.dual)
    assert np.linalg.eigvalsh(dual)[0] >= -1e-12
    assert np.real(np.einsum("ijk,kj->i", projectors, dual)).max() <= 1 + 1e-12
    lower = float(np.real(np.trace(rho.matrix @ dual)))
    assert abs(lower - result.lower_bound_weight) <= 1e-12 * result.lower_bound_weight
    assert result.certified


class TestMrm:
    def test_zero_on_every_enumerated_member(self):
        family = stabilizer_family(P7)
        for i in range(len(family)):
            value = mrm(family.state_at(i))
            assert -1e-9 <= value <= 1e-9

    def test_uniform_01(self):
        assert mrm(preset_state("uniform-01", P7)) == pytest.approx(math.log2(7), abs=1e-12)

    def test_repeated_magic_scales_linearly(self):
        params = QuditParams(7, 2)
        magic = preset_state("uniform-01", P7)
        for copies, word in ((1, None), (2, None), (2, ["F0", "CX01", "P1", "X0"])):
            env = clifford_dressed_environment(params, magic, copies=copies, word=word)
            expected = copies * math.log2(7)
            assert mrm(env) == pytest.approx(expected, abs=1e-9)

    def test_nonnegative_on_random_states(self, rng):
        for _ in range(10):
            assert mrm(random_density_matrix(P7, rng)) >= -1e-9


class TestMrmEnumerated:
    def test_zero_on_pure_stabilizer(self):
        family = stabilizer_family(P7)
        assert mrm_enumerated(family.state_at(5)) <= 1e-10

    def test_pure_magic_hits_maximally_mixed(self, rng):
        psi = random_pure_state(P7, rng)
        # every rank-one member is support-mismatched, leaving only I/d
        assert mrm_enumerated(psi) == pytest.approx(math.log2(7), abs=1e-9)

    def test_agrees_with_mean_state_route_on_flattened_inputs(self, rng):
        for _ in range(5):
            rho = random_density_matrix(P7, rng)
            if np.max(np.abs(mean_state(rho).matrix - np.eye(7) / 7)) > 1e-9:
                continue
            assert mrm_enumerated(rho) == pytest.approx(mrm(rho), abs=1e-9)


class TestWignerNegativity:
    def test_zero_on_stabilizers(self):
        family = stabilizer_family(P7)
        assert wigner_negativity(family.state_at(12)) == 0.0
        assert wigner_negativity(preset_state("maximally-mixed", P7)) == 0.0

    def test_positive_on_uniform_01(self):
        assert wigner_negativity(preset_state("uniform-01", P7)) > 1e-3


class TestSimplex:
    def test_small_known_lp(self):
        # max x + y s.t. x + 2y <= 4, 3x + y <= 6 -> optimum at (8/5, 6/5)
        res = simplex_max(np.array([1.0, 1.0]), np.array([[1.0, 2.0], [3.0, 1.0]]), np.array([4.0, 6.0]))
        assert res.objective == pytest.approx(14 / 5, abs=1e-12)
        assert np.allclose(res.x, [8 / 5, 6 / 5], atol=1e-12)

    def test_duals_solve_the_transposed_problem(self):
        c = np.array([3.0, 5.0])
        a = np.array([[1.0, 0.0], [0.0, 2.0], [3.0, 2.0]])
        b = np.array([4.0, 12.0, 18.0])
        res = simplex_max(c, a, b)
        assert res.objective == pytest.approx(36.0, abs=1e-12)
        # weak duality with equality at the optimum
        assert res.dual @ b == pytest.approx(res.objective, abs=1e-12)
        assert np.all(a.T @ res.dual >= c - 1e-12)

    def test_rejects_negative_rhs(self):
        with pytest.raises(ValueError, match="b >= 0"):
            simplex_max(np.ones(1), np.ones((1, 1)), np.array([-1.0]))

    def test_warm_start_after_appending_columns(self):
        # the cone program's pattern: columns are appended, the RHS stays
        rng = np.random.default_rng(3)
        a, c, b = rng.random((8, 40)), rng.random(40), np.ones(8)
        first = simplex_max(c[:24], a[:, :24], b)
        warm = simplex_max(c, a, b, basis=first.basis)
        cold = simplex_max(c, a, b)
        assert warm.objective == pytest.approx(cold.objective, abs=1e-12)
        assert np.max(np.abs(warm.dual - cold.dual)) <= 1e-12
        assert np.max(np.abs(warm.x - cold.x)) <= 1e-12
        assert warm.pivots < cold.pivots
        # the returned basis reproduces the optimum without a pivot
        again = simplex_max(c, a, b, basis=warm.basis)
        assert again.pivots == 0 and again.objective == pytest.approx(cold.objective, abs=1e-12)

    def test_unusable_basis_falls_back_to_slack_start(self):
        c = np.array([1.0, 1.0])
        a = np.array([[1.0, 2.0], [2.0, 1.0]])
        b = np.array([1.0, 4.0])
        cold = simplex_max(c, a, b)
        # columns 0 and 1 as basis put x1 = -2/3: infeasible; a repeated
        # column is singular
        for basis in ([0, 1], [0, 0]):
            res = simplex_max(c, a, b, basis=basis)
            assert res.objective == cold.objective and res.pivots == cold.pivots
            assert np.array_equal(res.dual, cold.dual) and np.array_equal(res.basis, cold.basis)

    def test_rejects_malformed_basis(self):
        c, a, b = np.ones(2), np.eye(2), np.ones(2)
        for basis in ([0], [0, 2], [0, -3]):
            with pytest.raises(ValueError, match="basis"):
                simplex_max(c, a, b, basis=basis)


class TestMrmInf:
    def test_zero_on_pure_stabilizer(self):
        family = stabilizer_family(P7)
        assert abs(mrm_inf(family.state_at(7))) <= 1e-9

    def test_zero_on_maximally_mixed(self):
        assert abs(mrm_inf(preset_state("maximally-mixed", P7))) <= 1e-9

    def test_certificates_on_uniform_01(self):
        result = mrm_inf_certificate(preset_state("uniform-01", P7))
        assert isinstance(result, ConeProgramResult)
        assert result.cuts <= 500
        assert result.min_residual_eigenvalue >= -1e-8
        assert result.lp_gap <= 1e-9
        assert result.certified

    def test_uniform_01_against_bracket_oracle(self):
        rho = preset_state("uniform-01", P7)
        value = mrm_inf(rho)
        w_lo, w_hi = stabilizer_weight_bracket(rho.matrix, pure_stabilizer_projectors(P7))
        assert math.log2(w_lo) - 1e-4 <= value <= math.log2(w_hi) + 1e-4

    def test_below_dmax_to_every_member(self, rng):
        # each enumerated member lies in the hull, so D_inf to it bounds mrm_inf
        rho = random_density_matrix(P7, rng, rank=2)
        family = stabilizer_family(P7)
        bound = min(max_relative_entropy(rho.matrix, family.state_at(i).matrix) for i in range(len(family)))
        assert math.isfinite(bound)
        assert mrm_inf(rho) <= bound + 1e-9

    def test_displacement_invariance(self, rng):
        rho = random_density_matrix(P7, rng, rank=2)
        base = mrm_inf(rho)
        for _ in range(3):
            x = WeylIndex.make(P7, int(rng.integers(7)), int(rng.integers(7)))
            assert mrm_inf(displace(rho, x)) == pytest.approx(base, abs=1e-6)

    def test_counters_repeat_for_a_fixed_seed(self):
        runs = [mrm_inf_certificate(random_density_matrix(P7, np.random.default_rng(11), rank=3)) for _ in range(2)]
        counters = [(r.rounds, r.pivots, r.cuts) for r in runs]
        assert counters[0] == counters[1]
        assert counters[0][0] >= 1 and counters[0][1] >= 1
        assert runs[0].value_bits == runs[1].value_bits

    def test_full_rank_panel_certifies(self):
        # 20 seeded full-rank d=7 states: every one certifies, with both
        # certificates recomputed here from the returned weights
        rng = np.random.default_rng(2024)
        states = [random_density_matrix(P7, rng) for _ in range(20)]
        projectors = pure_stabilizer_projectors(P7)
        results = [mrm_inf_certificate(rho) for rho in states]
        for rho, result in zip(states, results):
            assert_recomputed_certificates(rho, result, projectors)
        for rho, result in zip(states[:2], results):
            w_lo, w_hi = stabilizer_weight_bracket(rho.matrix, projectors)
            assert math.log2(w_lo) - 1e-4 <= result.value_bits <= math.log2(w_hi) + 1e-4

    @pytest.mark.parametrize("d, count", [(11, 5), (13, 3)])
    def test_large_full_rank_panels_certify(self, d, count):
        # the cutting planes hit their 500-cut cap on every one of these
        params = QuditParams(d)
        rng = np.random.default_rng(2024)
        projectors = pure_stabilizer_projectors(params)
        for _ in range(count):
            rho = random_density_matrix(params, rng)
            assert_recomputed_certificates(rho, mrm_inf_certificate(rho), projectors)

    @pytest.mark.parametrize("d", [7, 11, 13])
    def test_zero_on_stabilizer_states_and_maximally_mixed(self, d):
        params = QuditParams(d)
        family = stabilizer_family(params)
        states = [family.state_at(i) for i in (0, d, len(family) - 2)] + [preset_state("maximally-mixed", params)]
        projectors = pure_stabilizer_projectors(params)
        for rho in states:
            result = mrm_inf_certificate(rho)
            assert abs(result.value_bits) <= 1e-9
            assert_recomputed_certificates(rho, result, projectors)

    def test_iteration_cap_raises_with_a_certified_lower_bound(self, monkeypatch):
        rho = random_density_matrix(P7, np.random.default_rng(5))
        value = mrm_inf_certificate(rho).value_bits
        monkeypatch.setattr(magic, "MAX_ITERATIONS", 2)
        with pytest.raises(MrmInfError, match="iteration cap 2") as info:
            mrm_inf_certificate(rho)
        assert math.isfinite(info.value.best_bound_bits)
        assert info.value.best_bound_bits <= value

    def test_counters_describe_the_interior_point_run(self):
        result = mrm_inf_certificate(random_density_matrix(P7, np.random.default_rng(12)))
        assert result.cuts == 0
        assert 1 <= result.rounds < magic.MAX_ITERATIONS
        # one Schur factorization per iteration, more when it is retried
        # with a shifted diagonal
        assert result.rounds <= result.pivots <= len(magic._SCHUR_SHIFTS) * result.rounds

    def test_soft_comparison_with_mean_state_route(self, rng):
        # empirical comparison only: findings are reported, not asserted away;
        # should the cone program stop short, the carried lower bound still
        # decides the comparison direction
        findings = []
        for k in range(3):
            rho = random_density_matrix(P7, rng)
            if np.max(np.abs(mean_state(rho).matrix - np.eye(7) / 7)) > 1e-9:
                continue
            try:
                value = mrm_inf(rho)
            except MrmInfError as exc:
                value = exc.best_bound_bits
            gap = value - mrm(rho)
            if gap < -1e-6:
                findings.append((k, gap))
        if findings:
            warnings.warn(f"max-relative monotone fell below the entropy-gap route: {findings}")
