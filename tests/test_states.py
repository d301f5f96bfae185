import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qmc.linalg import frobenius_distance, von_neumann_entropy
from qmc.states import (
    DensityMatrix,
    enumerate_stabilizers,
    mean_state,
    preset_state,
    random_density_matrix,
    random_pure_state,
    read_state,
    stabilizer_family,
    state_from_payload,
    write_state,
)
from qmc.weyl import QuditParams, BSParams, WeylIndex, characteristic_function, weyl_operator, wigner_function

from oracles import (
    clifford_dressed_environment,
    enumerate_single_reference,
    enumerate_two_reference,
    group_dephasing,
    is_phase_inversion_symmetric,
    purify,
)

P7 = QuditParams(7)
P3 = QuditParams(3)


class TestDensityMatrix:
    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(P3, np.eye(3))

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="negative"):
            DensityMatrix(P3, np.diag([1.2, -0.2, 0.0]))

    def test_rejects_non_hermitian(self):
        m = np.diag([0.5, 0.5, 0.0]).astype(complex)
        m[0, 1] = 0.1
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(P3, m)

    def test_tensor_layout(self):
        a = preset_state("ket-zero", P3)
        b = preset_state("maximally-mixed", P3)
        joint = a.tensor(b)
        assert joint.params == QuditParams(3, 2)
        assert abs(joint.matrix[0, 0] - 1 / 3) <= 1e-14


    def test_source_array_mutation_leaves_state_and_tables(self, rng):
        # a contiguous complex source is the case np.ascontiguousarray aliases
        source = random_density_matrix(P7, rng).matrix.copy()
        rho = DensityMatrix(P7, source)
        matrix = rho.matrix.copy()
        table, purifier, purified = rho.raw_table.copy(), rho.purifier.copy(), rho.purified_table.copy()
        source[:] = np.eye(7) / 7
        assert np.array_equal(rho.matrix, matrix)
        assert np.array_equal(rho.raw_table, table)
        assert np.array_equal(rho.purifier, purifier)
        assert np.array_equal(rho.purified_table, purified)
        assert np.array_equal(rho.raw_table, DensityMatrix(P7, matrix).raw_table)

    def test_matrix_and_tables_are_read_only(self, rng):
        rho = random_density_matrix(P7, rng)
        for array in (rho.matrix, rho.raw_table, rho.purifier, rho.purified_table):
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            rho.matrix *= 2.0

class TestPresets:
    def test_uniform_01(self):
        rho = preset_state("uniform-01", P7)
        expected = np.zeros((7, 7))
        expected[:2, :2] = 0.5
        assert np.allclose(rho.matrix, expected)

    def test_symmetric_pm1_support(self):
        rho = preset_state("symmetric-pm1", P7)
        support = np.flatnonzero(np.abs(np.diag(rho.matrix)) > 1e-12)
        assert set(support) == {1, 6}

    def test_asymmetric_two_ket_amplitudes(self):
        rho = preset_state("appc-a", P7)
        assert rho.matrix[0, 0] == pytest.approx(2 / 5)
        assert rho.matrix[1, 1] == pytest.approx(3 / 5)
        rho_b = preset_state("appc-b", P7)
        assert rho_b.matrix[6, 6] == pytest.approx(3 / 5)

    def test_magic_two_ket_needs_bsparams(self):
        with pytest.raises(ValueError, match="appe-magic"):
            preset_state("appe-magic", P7)
        bs = BSParams(P7, 2, 2)
        rho = preset_state("appe-magic", P7, bs)
        assert rho.matrix[2, 2] == pytest.approx(0.5)

    def test_maximally_mixed_two_qudits(self):
        rho = preset_state("maximally-mixed", QuditParams(3, 2))
        assert np.allclose(rho.matrix, np.eye(9) / 9)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown preset"):
            preset_state("nope", P7)


class TestEnumeration:
    def test_counts_d3(self):
        family = enumerate_stabilizers(P3)
        assert len(family) == 3 * 4 + 1
        assert sum(m.rank == 1 for m in family.members) == 12

    def test_counts_d7(self):
        family = enumerate_stabilizers(P7)
        assert len(family) == 57
        assert len(family.pure_states()) == 56

    def test_members_are_weyl_eigenstates(self):
        family = enumerate_stabilizers(P7)
        for i, member in enumerate(family.members):
            state = family.state_at(i)
            for label, char in member.generators:
                w = weyl_operator(P7, label)
                assert np.max(np.abs(w @ state.matrix - char * state.matrix)) <= 1e-10

    def test_pure_members_have_flat_characteristic_magnitudes(self):
        family = enumerate_stabilizers(P7)
        for state in family.pure_states():
            mags = np.abs(characteristic_function(state).values)
            assert np.all((mags <= 1e-10) | (np.abs(mags - 1.0) <= 1e-10))

    def test_members_pairwise_distinct(self):
        family = enumerate_stabilizers(P3)
        states = [family.state_at(i) for i in range(len(family))]
        for i in range(len(states)):
            for j in range(i + 1, len(states)):
                assert frobenius_distance(states[i], states[j]) > 1e-8

    def test_unsupported_layouts(self):
        with pytest.raises(ValueError, match="unsupported"):
            enumerate_stabilizers(QuditParams(3, 2))
        with pytest.raises(ValueError, match="d=2"):
            enumerate_stabilizers(QuditParams(2))
        with pytest.raises(ValueError, match="n=1 only, got n=2"):
            stabilizer_family(QuditParams(3, 2))


class TestHudson:
    def test_every_member_nonnegative(self):
        family = enumerate_stabilizers(P7)
        for i in range(len(family)):
            assert wigner_function(family.state_at(i)).min() >= -1e-12

    def test_random_pure_states_show_negativity(self):
        rng = np.random.default_rng(7121)
        family = enumerate_stabilizers(P7)
        failures = []
        for k in range(100):
            psi = random_pure_state(P7, rng)
            _, dist = family.nearest_member_distance(psi)
            if dist < 1e-6:
                continue  # astronomically unlikely; would not be a counterexample
            if wigner_function(psi).min() >= -1e-6:
                failures.append(k)
        if failures:
            print(f"nonnegative-Wigner non-stabilizer candidates at draws {failures}")
        assert len(failures) <= 1


class TestMeanState:
    def test_fixed_point_on_stabilizers(self):
        family = enumerate_stabilizers(P7)
        for i in (0, 10, 33, 56):
            state = family.state_at(i)
            assert frobenius_distance(mean_state(state), state) <= 1e-10

    def test_uniform_01_flattens(self):
        assert frobenius_distance(mean_state(preset_state("uniform-01", P7)), np.eye(7) / 7) <= 1e-10

    def test_random_magic_pure_flattens(self, rng):
        psi = random_pure_state(P7, rng)
        assert frobenius_distance(mean_state(psi), np.eye(7) / 7) <= 1e-10

    def test_output_magnitudes_are_flat(self, rng):
        rho = random_density_matrix(P7, rng, rank=2)
        mags = np.abs(characteristic_function(mean_state(rho)).values)
        assert np.all((mags <= 1e-9) | (np.abs(mags - 1.0) <= 1e-9))

    @given(st.integers(0, 10**6))
    @settings(max_examples=10)
    def test_entropy_never_decreases(self, seed):
        rng = np.random.default_rng(seed)
        rho = random_density_matrix(P7, rng)
        assert von_neumann_entropy(rho.matrix) <= von_neumann_entropy(mean_state(rho).matrix) + 1e-9


class TestPurify:
    def test_pure_input_gets_trivial_reference(self):
        pure = purify(preset_state("uniform-01", P7).matrix)
        assert pure.ref_dim == 1
        assert frobenius_distance(pure.reduced(), preset_state("uniform-01", P7)) <= 1e-10

    def test_maximally_mixed_gets_maximal_reference(self):
        pure = purify(preset_state("maximally-mixed", P7).matrix)
        assert pure.ref_dim == 7
        assert frobenius_distance(pure.reduced(), np.eye(7) / 7) <= 1e-10

    def test_random_round_trip(self, rng):
        rho = random_density_matrix(P7, rng, rank=4)
        pure = purify(rho.matrix)
        assert pure.ref_dim == 4
        assert frobenius_distance(pure.reduced(), rho) <= 1e-10


def clock_and_shift(params):
    return weyl_operator(params, WeylIndex.make(params, 1, 0)), weyl_operator(params, WeylIndex.make(params, 0, 1))


class TestDephasing:
    def test_clock_group_keeps_diagonal(self, rng):
        rho = random_density_matrix(P7, rng)
        clock, _ = clock_and_shift(P7)
        out = group_dephasing(rho.matrix, [clock], 7)
        assert frobenius_distance(out, np.diag(np.diag(rho.matrix))) <= 1e-12

    def test_idempotent(self, rng):
        rho = random_density_matrix(P7, rng)
        gens = [weyl_operator(P7, WeylIndex.make(P7, 2, 1))]
        once = group_dephasing(rho.matrix, gens, 7)
        twice = group_dephasing(once, gens, 7)
        assert frobenius_distance(once, twice) <= 1e-10

    def test_fixes_its_stabilizer_state(self):
        # every enumerated member is fixed by dephasing over its own stabilizer group
        family = stabilizer_family(P7)
        for i, member in enumerate(family.members):
            state = family.state_at(i)
            gens = [weyl_operator(P7, label) for label, _ in member.generators]
            assert frobenius_distance(group_dephasing(state.matrix, gens, 7), state) <= 1e-10

    def test_rejects_non_commuting_generators(self, rng):
        rho = random_density_matrix(P7, rng)
        with pytest.raises(ValueError, match="commute"):
            group_dephasing(rho.matrix, list(clock_and_shift(P7)), 7)


class TestPhaseInversionSymmetry:
    def test_zero_mean_stabilizers_are_symmetric(self):
        family = stabilizer_family(P7)
        checked = 0
        for i, member in enumerate(family.members):
            if all(abs(char - 1.0) <= 1e-12 for _, char in member.generators):
                assert is_phase_inversion_symmetric(P7, family.state_at(i).matrix)
                checked += 1
        assert checked >= 8  # one per direction plus the maximally mixed state

    def test_symmetric_two_ket_state(self):
        assert is_phase_inversion_symmetric(P7, preset_state("symmetric-pm1", P7).matrix)

    def test_uniform_01_is_not_symmetric(self):
        assert not is_phase_inversion_symmetric(P7, preset_state("uniform-01", P7).matrix)


class TestCliffordDressedEnvironment:
    def test_plain_tensor_layout(self):
        params = QuditParams(7, 2)
        env = clifford_dressed_environment(params, preset_state("uniform-01", P7), copies=1)
        probe = preset_state("uniform-01", P7).tensor(preset_state("ket-zero", P7))
        assert frobenius_distance(env, probe) <= 1e-12

    def test_dressing_preserves_entropy(self):
        params = QuditParams(7, 2)
        env = clifford_dressed_environment(params, preset_state("appc-a", P7), copies=2, seed=3)
        assert von_neumann_entropy(env.matrix) <= 1e-9


class TestStateFiles:
    def test_dense_round_trip_bit_stable(self, rng, tmp_path):
        rho = random_density_matrix(P7, rng)
        path = tmp_path / "state.json"
        write_state(path, rho)
        back = read_state(path)
        assert np.array_equal(back.matrix, rho.matrix)
        path2 = tmp_path / "state2.json"
        write_state(path2, back)
        assert path.read_bytes() == path2.read_bytes()

    def test_ket_payload(self):
        payload = {"d": 7, "n": 1, "form": "ket", "amplitudes": [[1.0, 0.0], [1.0, 0.0]] + [[0.0, 0.0]] * 5}
        rho = state_from_payload(payload)
        assert frobenius_distance(rho, preset_state("uniform-01", P7)) <= 1e-12

    def test_preset_payload_with_weights(self):
        payload = {"d": 7, "n": 1, "form": "preset", "preset": "appe-magic", "s": 2, "t": 2}
        rho = state_from_payload(payload)
        assert rho.matrix[2, 2] == pytest.approx(0.5)

    def test_bad_form(self):
        with pytest.raises(ValueError, match="unknown state form"):
            state_from_payload({"d": 7, "form": "sparse"})


def member_keys(family):
    return [(m.rank, tuple((g.p, g.q, char) for g, char in m.generators)) for m in family.members]


class TestEnumerationParity:
    @pytest.mark.parametrize("d", [3, 5, 7, 11, 13])
    def test_single_qudit_matches_reference(self, d):
        params = QuditParams(d)
        family, reference = enumerate_stabilizers(params), enumerate_single_reference(params)
        assert member_keys(family) == member_keys(reference)
        for i in range(len(reference)):
            assert np.array_equal(family.state_at(i).matrix, reference.state_at(i).matrix)

    def test_two_qudit_matches_reference(self):
        params = QuditParams(7, 2)
        assert member_keys(enumerate_stabilizers(params)) == member_keys(enumerate_two_reference(params))

    def test_two_qudit_planes_are_isotropic_and_distinct(self):
        d = 7
        family = enumerate_stabilizers(QuditParams(d, 2))
        pairs = {}
        for m in family.members:
            if m.rank == 2:
                (u, _), (v, _) = m.generators
                u, v = (*u.p, *u.q), (*v.p, *v.q)
                assert (u[0] * v[2] + u[1] * v[3] - u[2] * v[0] - u[3] * v[1]) % d == 0
                pairs[u, v] = pairs.get((u, v), 0) + 1
        assert len(pairs) == 19_600 // d**2 and set(pairs.values()) == {d**2}

        def line(vec):
            lead = next(x for x in vec if x)
            return tuple(x * pow(lead, -1, d) % d for x in vec)

        planes = {
            frozenset(
                line(tuple((a * x + b * y) % d for x, y in zip(u, v)))
                for a in range(d)
                for b in range(d)
                if a or b
            )
            for u, v in pairs
        }
        assert len(planes) == len(pairs)
        assert all(len(plane) == d + 1 for plane in planes)


class TestHeavyEnumeration:
    def test_two_qudit_counts_and_spot_checks(self):
        params = QuditParams(7, 2)
        family = enumerate_stabilizers(params)
        ranks = [m.rank for m in family.members]
        assert ranks.count(2) == 19_600
        assert ranks.count(1) == 2_800
        assert ranks.count(0) == 1
        rng = np.random.default_rng(5)
        for i in rng.integers(0, 19_600, size=3):
            state = family.state_at(int(i))
            vals = np.linalg.eigvalsh(state.matrix)
            assert vals.min() >= -1e-10
            assert abs(vals.max() - 1.0) <= 1e-10  # rank-one projector
            assert wigner_function(state).min() >= -1e-12
