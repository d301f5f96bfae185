import math
import tracemalloc
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, strategies as st

import qmc.coding as coding
from qmc.channel import BeamSplitterChannel
from qmc.cli import main
from qmc.coding import (
    CodeSpec,
    entanglement_fidelity,
    fidelity_ratio_bound_check,
    magic_code_construction,
    pgm_decoder,
    random_isometry,
    random_relabel_decoder,
    stabilizer_ceiling_search,
    stabilizer_code_construction,
)
from qmc.states import (
    DensityMatrix,
    StabilizerFamily,
    branch_columns,
    enumerate_stabilizers,
    preset_state,
    random_density_matrix,
    random_pure_state,
    stabilizer_family,
)
from qmc.weyl import BSParams, QuditParams, valid_st_pairs

from oracles import (
    beam_splitter_unitary,
    ceiling_search_loop,
    code_from_payload,
    code_to_payload,
    dump_kraus_loop,
    entanglement_fidelity_loop,
    pgm_decoder_loop,
    purifiers,
    ratio_search_loop,
    reference_output_dense,
)

P7 = QuditParams(7)
BS72 = BSParams(P7, 2, 2)
P13 = QuditParams(13)
BS13 = BSParams(P13, 2, 6)


@lru_cache(maxsize=None)
def dense_unitary(bs: BSParams) -> np.ndarray:
    return beam_splitter_unitary(bs.params.d, bs.params.n, bs.s, bs.t)


def oracle_fidelity(code: CodeSpec, chan: BeamSplitterChannel) -> float:
    return entanglement_fidelity_loop(code.encoding, code.kraus, chan.environment.matrix, dense_unitary(chan.bsparams))


def oracle_pgm(encoding: np.ndarray, chan: BeamSplitterChannel) -> list[np.ndarray]:
    return pgm_decoder_loop(encoding, chan.environment.matrix, dense_unitary(chan.bsparams))


def assert_same_decoder(got, expected, tol=1e-12):
    """Same Kraus operators in the same order (logical row and weight of
    each) and the same decoding channel (its Choi matrix, which no choice of
    eigenbasis in a degenerate eigenspace changes).  Operators of weight
    below ``tol`` are round-off on either side of the 1e-12 cut and dropped."""
    got, expected = ([a for a in ops if np.vdot(a, a).real > tol] for ops in (got, expected))
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert np.array_equal(np.abs(a).sum(axis=1) > 1e-9, np.abs(b).sum(axis=1) > 1e-9)
        assert abs(np.vdot(a, a).real - np.vdot(b, b).real) <= tol
    choi = [sum(np.outer(kr.ravel(), kr.ravel().conj()) for kr in ops) for ops in (got, expected)]
    assert np.max(np.abs(choi[0] - choi[1])) <= tol


class TestCodeSpec:
    def test_rejects_non_isometry(self):
        enc = np.ones((7, 2), dtype=complex)
        kraus = stabilizer_code_construction(P7, BS72, 2).kraus
        with pytest.raises(ValueError, match="orthonormal"):
            CodeSpec(2, enc, kraus)

    def test_rejects_incomplete_kraus(self):
        good = stabilizer_code_construction(P7, BS72, 2)
        with pytest.raises(ValueError, match="identity"):
            CodeSpec(2, good.encoding, good.kraus[:1])

    def test_payload_round_trip(self):
        code = stabilizer_code_construction(P7, BS72, 3)
        back = code_from_payload(code_to_payload(code))
        assert np.allclose(back.encoding, code.encoding)
        assert len(back.kraus) == len(code.kraus)
        assert all(np.allclose(a, b) for a, b in zip(back.kraus, code.kraus))


class TestComputationalCode:
    @pytest.mark.parametrize("k,expected", [(2, 0.5), (3, 1 / 3), (4, 0.25), (7, 1 / 7)])
    def test_reaches_exactly_one_over_k(self, k, expected):
        code = stabilizer_code_construction(P7, BS72, k)
        chan = BeamSplitterChannel(BS72, preset_state("ket-zero", P7))
        assert entanglement_fidelity(code, chan) == pytest.approx(expected, abs=1e-12)

    def test_identity_weights_recover_perfectly(self):
        bs = BSParams(P7, 1, 0)
        code = stabilizer_code_construction(P7, bs, 2)
        chan = BeamSplitterChannel(bs, preset_state("ket-zero", P7))
        assert entanglement_fidelity(code, chan) == pytest.approx(1.0, abs=1e-12)

    def test_oversized_logical_dim_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            stabilizer_code_construction(P7, BS72, 8)

    @pytest.mark.parametrize("k", [0, -1])
    def test_empty_logical_dim_rejected(self, k):
        with pytest.raises(ValueError, match=f"logical dimension must be >= 1, got {k}"):
            stabilizer_code_construction(P7, BS72, k)

    def test_two_qudit_code_decodes_digitwise(self):
        # s multiplies each base-d digit of the encoded ket, not its flat index
        params = QuditParams(7, 2)
        bs = BSParams(params, 5, 2)
        code = stabilizer_code_construction(params, bs, 4)
        chan = BeamSplitterChannel(bs, preset_state("ket-zero", params))
        assert entanglement_fidelity(code, chan) == pytest.approx(0.25, abs=1e-12)

    def test_zero_weight_rejected_by_name(self, capsys):
        code = main(["fidelity", "--d", "3", "--s", "0", "--t", "1", "--env", "preset:ket-zero", "--K", "2"])
        assert code == 2
        assert "needs s != 0 mod 3; got s=0" in capsys.readouterr().err


class TestMagicCode:
    def test_three_quarters_at_d13(self):
        env, code = magic_code_construction(BS13)
        chan = BeamSplitterChannel(BS13, env)
        assert entanglement_fidelity(code, chan) == pytest.approx(0.75, abs=1e-9)

    def test_needs_unequal_squares(self):
        with pytest.raises(ValueError, match="s\\^2 != t\\^2"):
            magic_code_construction(BS72)

    def test_completion_independent(self, rng):
        # the channel output on the code space never leaves the four
        # addressed kets, so any unitary completion of the decoder on the
        # rest of the space gives the same fidelity
        env, code = magic_code_construction(BS13)
        chan = BeamSplitterChannel(BS13, env)
        base = entanglement_fidelity(code, chan)
        addressed = {0, 1, (BS13.t**2) % 13, (BS13.s**2) % 13}
        rest = sorted(set(range(13)) - addressed)
        u = random_isometry(len(rest), len(rest), rng)
        kraus = list(code.kraus[:3])
        for col in range(len(rest)):
            kr = np.zeros((2, 13), dtype=complex)
            for row, amp in zip(rest, u[:, col]):
                kr[0, row] = np.conj(amp)
            kraus.append(kr)
        rebuilt = CodeSpec(2, code.encoding, tuple(kraus))
        assert entanglement_fidelity(rebuilt, chan) == pytest.approx(base, abs=1e-12)

    def test_output_support_is_the_addressed_kets(self):
        env, code = magic_code_construction(BS13)
        chan = BeamSplitterChannel(BS13, env)
        phi = code.encoding / math.sqrt(2)
        joint_in = (phi @ phi.conj().T).astype(complex)
        out = chan.apply_matrix(joint_in)
        support = np.flatnonzero(np.abs(np.diag(out)) > 1e-12)
        assert set(support) == {0, 1, (BS13.t**2) % 13, (BS13.s**2) % 13}


class TestFidelityLinearity:
    def test_linear_in_environment(self, rng):
        code = stabilizer_code_construction(P7, BS72, 2)
        env_a = random_pure_state(P7, rng)
        env_b = random_pure_state(P7, rng)
        for lam in (0.25, 0.5, 0.9):
            mix = DensityMatrix(P7, lam * env_a.matrix + (1 - lam) * env_b.matrix)
            f_mix = entanglement_fidelity(code, BeamSplitterChannel(BS72, mix))
            f_a = entanglement_fidelity(code, BeamSplitterChannel(BS72, env_a))
            f_b = entanglement_fidelity(code, BeamSplitterChannel(BS72, env_b))
            assert f_mix == pytest.approx(lam * f_a + (1 - lam) * f_b, abs=1e-10)


class TestPgmDecoder:
    def test_valid_kraus_and_measuring_behavior(self, rng):
        # a measuring decoder cannot keep logical coherence, so even through
        # the identity-weight channel it lands on the 1/K plateau
        enc = random_isometry(7, 2, rng)
        bs = BSParams(P7, 1, 0)
        chan = BeamSplitterChannel(bs, preset_state("ket-zero", P7))
        kraus = pgm_decoder(enc, chan)
        code = CodeSpec(2, enc, kraus)  # constructor checks Kraus completeness
        assert entanglement_fidelity(code, chan) == pytest.approx(0.5, abs=1e-9)

    def test_kraus_count_matches_loop_route_on_ill_conditioned_outputs(self):
        # the output sum's least eigenvalue is 1.6e-5; with fixed 1e-12 cuts
        # the dump met 1.8e-12 of round-off on the stacked route only and
        # returned 14 Kraus operators against the loop route's 13
        rng = np.random.default_rng(20)
        chan = BeamSplitterChannel(BSParams(P13, 2, 7), random_density_matrix(P13, rng, rank=1))
        enc = random_isometry(13, 1, rng)
        stacked, loop = pgm_decoder(enc, chan), oracle_pgm(enc, chan)
        assert len(stacked) == len(loop)
        fidelities = [entanglement_fidelity(CodeSpec(1, enc, kraus), chan) for kraus in (stacked, loop)]
        assert abs(fidelities[0] - fidelities[1]) <= 1e-12


class TestCeilingSearch:
    def test_never_beats_the_ceiling(self):
        report = stabilizer_ceiling_search(P7, BS72, 2, trials=40, seed=8)
        assert report.passed
        assert report.best_value <= 0.5 + 1e-6
        assert report.baseline_value >= 0.5 - 1e-3

    def test_k3_ceiling(self):
        report = stabilizer_ceiling_search(P7, BS72, 3, trials=20, seed=9)
        assert report.best_value <= 1 / 3 + 1e-6

    def test_report_payload(self):
        report = stabilizer_ceiling_search(P7, BS72, 2, trials=5, seed=10)
        payload = report.to_dict()
        assert payload["pass"] is True
        assert payload["trials"] == 5

    def test_negative_trials_rejected(self):
        with pytest.raises(ValueError, match="trials must be >= 0, got -2"):
            stabilizer_ceiling_search(P7, BS72, 2, trials=-2, seed=1)

    @pytest.mark.parametrize("params, bs, trials", [(P7, BS72, 130), (P13, BS13, 400)])
    def test_kept_purifiers_are_the_stacked_ones(self, params, bs, trials, monkeypatch):
        # every block, the maximally mixed member's included, holds byte for
        # byte each member's columns of purifying the block's states as one
        # stack, padded in front with exact zeros where the stack's dropped
        # columns are signed zeros; every seed decodes the same codes to the
        # same fidelities, byte for byte
        family = enumerate_stabilizers(params)
        padded = coding._padded
        state_of = {id(family[e].purifier): family[e] for e in range(len(family))}

        def stacked(kept):
            return purifiers(np.stack([state_of[id(p)].matrix for p in kept]))

        for lo in range(0, trials, 32):
            members = [family[e % len(family)] for e in range(lo, min(lo + 32, trials))]
            kept, reference = padded([m.purifier for m in members]), stacked([m.purifier for m in members])
            assert kept.dtype == reference.dtype and kept.shape == reference.shape
            for state, block, ref in zip(members, kept, reference):
                pad = block.shape[1] - state.purifier.shape[1]
                assert np.count_nonzero(np.abs(ref[:, :pad])) == 0  # the stack drops the same columns
                assert block[:, pad:].tobytes() == ref[:, pad:].tobytes()
                assert np.all(block[:, :pad] == 0)
        gather = BeamSplitterChannel(bs, family[0]).gather_indices()
        trial_block = coding._trial_block
        for seed in (0, 1, 2):
            found, fidelities = [], []
            for route in (padded, stacked):
                fidelities.append([])

                def recording(*args):
                    values = trial_block(*args)
                    fidelities[-1].append(values.tobytes())
                    return values

                monkeypatch.setattr(coding, "_trial_block", recording)
                monkeypatch.setattr(coding, "_padded", route)
                found.append(coding._search_trials(np.random.default_rng(seed), trials, 2, gather, family, -math.inf))
            assert found[0] == found[1]
            assert fidelities[0] == fidelities[1] and len(fidelities[0]) > 0

    def test_second_search_purifies_no_member_again(self, monkeypatch):
        # fresh member states: the cached family's may already hold their purifiers
        family = StabilizerFamily(P7, [replace(m, state=None) for m in stabilizer_family(P7).members])
        calls = []

        def counting(matrices):
            calls.append(id(matrices))
            return branch_columns(matrices)

        monkeypatch.setattr("qmc.states.branch_columns", counting)
        members = sorted(id(family.state_at(i).matrix) for i in range(len(family)))
        first = stabilizer_ceiling_search(P7, BS72, 2, trials=len(family) + 5, seed=3, family=family)
        # each member once, and the baseline's fresh ket-zero environment
        assert sorted(c for c in calls if c in members) == members and len(calls) == len(family) + 1
        second = stabilizer_ceiling_search(P7, BS72, 2, trials=len(family) + 5, seed=3, family=family)
        assert len(calls) == len(family) + 2
        assert first.to_dict() == second.to_dict()

    def test_peak_memory_does_not_grow_with_trials(self):
        # trials run in blocks of at most BLOCK_ELEMENTS elements per array;
        # 400 trials also pass the rank-13 maximally mixed member twice
        family = stabilizer_family(P13)
        stabilizer_ceiling_search(P13, BS13, 2, trials=2, seed=0, family=family)  # warm the caches
        peaks = {}
        for trials in (100, 400):
            tracemalloc.start()
            try:
                stabilizer_ceiling_search(P13, BS13, 2, trials=trials, seed=1, family=family)
                _, peaks[trials] = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peaks[100] <= 2e6
        assert peaks[400] <= 1.25 * peaks[100]


class TestRatioBound:
    def test_negative_trials_rejected(self):
        with pytest.raises(ValueError, match="trials must be >= 0, got -3"):
            fidelity_ratio_bound_check(preset_state("ket-zero", P7), BS72, 2, trials=-3, seed=1)

    def test_stabilizer_environment_degenerates_to_ceiling(self):
        sigma = preset_state("ket-zero", P7)
        report = fidelity_ratio_bound_check(sigma, BS72, 2, trials=15, seed=4)
        assert report.extras["magic_bits"] == pytest.approx(0.0, abs=1e-6)
        assert report.best_value <= 0.5 + 1e-6
        assert report.passed

    def test_magic_two_ket_environment_d13(self):
        sigma = preset_state("appe-magic", P13, BS13)
        report = fidelity_ratio_bound_check(sigma, BS13, 2, trials=8, seed=4)
        assert report.best_value >= 0.75 - 1e-9  # the explicit code is probed
        assert 0.75 <= (2 ** report.extras["magic_bits"]) / 2 + 1e-6
        assert report.passed

    def test_random_magic_environment_d7(self, rng):
        sigma = random_pure_state(P7, rng)
        report = fidelity_ratio_bound_check(sigma, BS72, 2, trials=25, seed=12)
        assert report.passed


class TestOracleParity:
    @pytest.mark.parametrize("d, n", [(3, 1), (5, 1), (7, 1), (13, 1), (3, 2), (5, 2)])
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 3), data=st.data())
    def test_fidelity_and_decoders_match_loop_oracles(self, d, n, seed, k, data):
        params = QuditParams(d, n)
        pairs = valid_st_pairs(params)
        bs = pairs[data.draw(st.integers(0, len(pairs) - 1), label="pair")]
        rank = data.draw(st.integers(1, params.dim), label="environment rank")
        rng = np.random.default_rng(seed)
        chan = BeamSplitterChannel(bs, random_density_matrix(params, rng, rank=rank))
        enc = random_isometry(params.dim, k, rng)

        pgm = pgm_decoder(enc, chan)
        # B = (sum of outputs)^(-1/2) amplifies round-off by the sum's condition number
        joint = reference_output_dense(enc.T, chan.environment.matrix, dense_unitary(bs))
        vals = np.linalg.eigvalsh(np.einsum("rarb->ab", joint.reshape(k, params.dim, k, params.dim)))
        assert_same_decoder(pgm, oracle_pgm(enc, chan), tol=1e-12 / vals[vals > 1e-12].min())
        u = random_isometry(params.dim, params.dim, np.random.default_rng(seed))
        relabel = random_relabel_decoder(k, params.dim, np.random.default_rng(seed))
        for i, kr in enumerate(relabel):
            expected = np.zeros((k, params.dim), dtype=complex)
            expected[i % k] = u[:, i].conj()
            assert np.array_equal(kr, expected)
        codes = [CodeSpec(k, enc, pgm), CodeSpec(k, enc, relabel)]
        if bs.s % d:  # the computational-ket construction decodes through s x_i
            construction = stabilizer_code_construction(params, bs, k)
            recover = construction.kraus[0]
            assert_same_decoder(construction.kraus, [recover] + dump_kraus_loop(k, params.dim, [recover]))
            codes.append(construction)
        else:
            with pytest.raises(ValueError, match="needs s != 0"):
                stabilizer_code_construction(params, bs, k)
        if k == 2 and n == 1 and bs.nontrivial and (bs.s**2 - bs.t**2) % d != 0:
            codes.append(magic_code_construction(bs)[1])
        for code in codes:
            assert abs(entanglement_fidelity(code, chan) - oracle_fidelity(code, chan)) <= 1e-12


P3, P5, P49 = QuditParams(3), QuditParams(5), QuditParams(7, 2)


class TestSearchesMatchOracleRoute:
    """The stacked searches against ``ceiling_search_loop`` and
    ``ratio_search_loop``, which decode one trial at a time through the loop
    oracles: the same seed must give the same best code."""

    @staticmethod
    def assert_same_search(new, old):
        assert abs(new.best_value - old.best_value) <= 1e-12
        assert new.best_descriptor == old.best_descriptor
        assert new.baseline_value == pytest.approx(old.baseline_value, abs=1e-12)
        assert new.bound == pytest.approx(old.bound, abs=1e-12)

    @pytest.mark.parametrize(
        "params, bs, k, trials, seed",
        [
            (P7, BS72, 2, 30, 8),
            (P7, BS72, 3, 20, 9),
            (P13, BS13, 2, 20, 3),
            # 57 members at d = 7: trial 56 runs on the maximally mixed one
            (P7, BS72, 2, 60, 13),
            # 13 members at d = 3: the trials wrap twice past the maximally mixed one
            (P3, BSParams(P3, 2, 0), 1, 30, 5),
            (P3, BSParams(P3, 2, 0), 2, 30, 6),
            (P5, BSParams(P5, 4, 0), 3, 20, 7),
            (P49, BSParams(P49, 2, 2), 2, 3, 11),
        ],
    )
    def test_ceiling_search(self, params, bs, k, trials, seed):
        family = enumerate_stabilizers(params)
        unitary = dense_unitary(bs)
        new = stabilizer_ceiling_search(params, bs, k, trials, seed, family=family)
        self.assert_same_search(new, ceiling_search_loop(family, bs, k, trials, seed, unitary))
        assert new.passed or not bs.nontrivial  # identity-like weights decode perfectly
        if not bs.nontrivial or k == 1:
            return  # the PGM trials tie (at 1 for K = 1, at 1/K on identity-like weights): round-off picks the best
        # while the claim holds the 1/K construction wins the search, so the
        # trials are compared again with it left out
        gather = BeamSplitterChannel(bs, family.state_at(0)).gather_indices()
        value, (trial, name) = coding._search_trials(np.random.default_rng(seed), trials, k, gather, family, -math.inf)
        old = ceiling_search_loop(family, bs, k, trials, seed, unitary, baseline=False)
        assert abs(value - old.best_value) <= 1e-12
        assert f"trial {trial} ({name} decoder, environment {trial % len(family)})" == old.best_descriptor

    def test_ratio_check(self, rng):
        cases = [
            (random_pure_state(P7, rng), BS72, 2, 15, 12),
            (magic_code_construction(BS13)[0], BS13, 2, 10, 4),
            (random_density_matrix(P5, rng), BSParams(P5, 4, 0), 3, 12, 5),
        ]
        for sigma, bs, k, trials, seed in cases:
            new = fidelity_ratio_bound_check(sigma, bs, k, trials, seed)
            old = ratio_search_loop(sigma, bs, k, trials, seed, dense_unitary(bs))
            self.assert_same_search(new, old)
            assert new.extras["magic_bits"] == old.extras["magic_bits"]

    def test_ratio_check_purifies_the_environment_once(self, monkeypatch, rng):
        calls = []

        def counting(matrices):
            calls.append(1)
            return branch_columns(matrices)

        monkeypatch.setattr("qmc.states.branch_columns", counting)
        fidelity_ratio_bound_check(random_pure_state(P7, rng), BS72, 2, trials=10, seed=4)
        assert len(calls) == 1
