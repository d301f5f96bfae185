"""The discrete beam splitter and its channels.

The two-register unitary sends |i, j> to |s i + t j, -t i + s j> (all
arithmetic componentwise mod d), so it is stored as an index permutation and
never materialized.  The channel traces out the second register against a
fixed environment state; the complementary channel traces out the first.

Because the unitary permutes basis kets, the channel is one gather: with
|I[a, b], J[a, b]> the preimage of |a, b>,

    out[a, a'] = sum_b rho[I[a, b], I[a', b]] * sigma[J[a, b], J[a', b]],

and the complement is the same sum with I, J transposed.  The sum costs
dim^3 and runs in chunks of b under a fixed element budget, so the dim^4
joint state is never built.  Choi matrices and other reference/output
states use the Stinespring amplitudes psi[r, I[a, b]] * P[J[a, b], k] of the
environment purified as sigma = P P^dag.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .linalg import frobenius_distance, partial_trace
from .states import DensityMatrix, mean_characteristic_table
from .weyl import (
    BSParams,
    CharacteristicTable,
    QuditParams,
    WeylIndex,
    characteristic_function,
    monomial_conjugate,
    parity_operator,
    scale_indices,
    weyl_action,
    weyl_operator,
    _digit_table,
    _powers,
)

CHOI_PSD_TOL = 1e-10
CHOI_TP_TOL = 1e-10
CHANNEL_EQ_TOL = 1e-9
BRANCH_CUTOFF = 1e-14  # environment eigenvalues below this carry no Stinespring branch
GATHER_BUDGET = 1 << 18  # elements per gathered factor in one chunk of the channel sum
MAX_SIDE = 49 * 49  # largest dense reference/output or E x E' side (the dim-49 product environment)


@lru_cache(maxsize=None)
def _joint_permutation(d: int, n: int, s: int, t: int) -> np.ndarray:
    """perm[(i, j)] = encoding of (s i + t j, -t i + s j); read-only."""
    dim = d**n
    digits = _digit_table(d, n)
    powers = _powers(d, n)
    i_dig = np.repeat(digits, dim, axis=0)
    j_dig = np.tile(digits, (dim, 1))
    a = (s * i_dig + t * j_dig) % d
    b = (-t * i_dig + s * j_dig) % d
    return (a @ powers) * dim + (b @ powers)


@lru_cache(maxsize=None)
def _gather_indices(d: int, n: int, s: int, t: int) -> tuple[np.ndarray, np.ndarray]:
    """(I, J) with U |I[a, b], J[a, b]> = |a, b>: the inverse joint permutation
    reshaped to [a, b]; read-only."""
    perm = _joint_permutation(d, n, s, t)
    inv = np.empty_like(perm)
    inv[perm] = np.arange(perm.size)
    dim = d**n
    i, j = np.divmod(inv.reshape(dim, dim), dim)
    i.flags.writeable = j.flags.writeable = False
    return i, j


def beam_splitter_permutation(bsparams: BSParams) -> np.ndarray:
    return _joint_permutation(bsparams.params.d, bsparams.params.n, bsparams.s, bsparams.t)


def _gather_sum(rho: np.ndarray, sigma: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """out[a, a'] = sum_b rho[i[a, b], i[a', b]] * sigma[j[a, b], j[a', b]].

    The sum runs over chunks of b holding at most ``GATHER_BUDGET`` gathered
    elements per factor.
    """
    dim, width = i.shape
    step = max(1, GATHER_BUDGET // (dim * dim))
    out = np.zeros((dim, dim), dtype=complex)
    for lo in range(0, width, step):
        ib, jb = i[:, lo : lo + step], j[:, lo : lo + step]
        out += np.einsum("xyb,xyb->xy", rho[ib[:, None], ib[None]], sigma[jb[:, None], jb[None]])
    return out


def check_side(dim: int, rank: int, intermediate: int) -> None:
    """Reject a dense side of dim * rank above ``MAX_SIDE`` before anything
    is allocated; ``intermediate`` counts the elements built on the way."""
    side = dim * rank
    if side > MAX_SIDE:
        need = 16 * (side * side + intermediate)
        raise ValueError(
            f"dim {dim} with rank {rank} needs a {side} x {side} matrix ({need / 1e9:.1f} GB with its "
            f"intermediate); sides above {MAX_SIDE} are not supported"
        )


@dataclass(frozen=True)
class BeamSplitterChannel:
    """Beam splitter with a fixed environment in the second register."""

    bsparams: BSParams
    environment: DensityMatrix

    def __post_init__(self):
        if self.environment.params != self.bsparams.params:
            raise ValueError("environment layout does not match the beam-splitter parameters")

    @property
    def params(self) -> QuditParams:
        return self.bsparams.params

    def gather_indices(self, complement: bool = False) -> tuple[np.ndarray, np.ndarray]:
        """(I, J) indexed [kept output, traced output]: the kept register's
        ket a and the traced one's b come from |I[a, b], J[a, b]>."""
        p = self.params
        i, j = _gather_indices(p.d, p.n, self.bsparams.s, self.bsparams.t)
        return (i.T, j.T) if complement else (i, j)

    def environment_purifier(self) -> np.ndarray:
        """P with sigma = P P^dag: columns sqrt(lambda_k) v_k, one per
        environment eigenvalue above ``BRANCH_CUTOFF``."""
        vals, vecs = np.linalg.eigh(self.environment.matrix)
        keep = vals > BRANCH_CUTOFF
        return vecs[:, keep] * np.sqrt(vals[keep])

    def apply_matrix(self, rho_matrix: np.ndarray, complement: bool = False) -> np.ndarray:
        """Channel action on a raw matrix; no state validation (hot path)."""
        i, j = self.gather_indices(complement)
        return _gather_sum(np.asarray(rho_matrix), self.environment.matrix, i, j)

    def reference_output(self, psi: np.ndarray, complement: bool = False) -> np.ndarray:
        """(id x channel)(|psi><psi|) for psi[r, x] on reference x input.

        The Stinespring amplitudes W[r, a, b, k] = psi[r, I[a, b]] * P[J[a, b], k]
        form a pure state on reference, kept output, traced output and the
        environment purifier; the result is W W^dag over (r, a), of size
        refs * dim.  Raises ValueError when that side exceeds ``MAX_SIDE``.
        """
        i, j = self.gather_indices(complement)
        purifier = self.environment_purifier()
        dim, refs = self.params.dim, psi.shape[0]
        check_side(dim, refs, refs * dim * dim * purifier.shape[1])
        amplitudes = psi[:, i, None] * purifier[j]
        w = amplitudes.reshape(refs * dim, -1)
        return w @ w.conj().T

    def apply(self, rho: DensityMatrix) -> DensityMatrix:
        self._check_input(rho)
        return DensityMatrix(self.params, self.apply_matrix(rho.matrix))

    def apply_complement(self, rho: DensityMatrix) -> DensityMatrix:
        self._check_input(rho)
        return DensityMatrix(self.params, self.apply_matrix(rho.matrix, complement=True))

    def _check_input(self, rho: DensityMatrix):
        if rho.params != self.params:
            raise ValueError(f"input layout {rho.params} does not match channel {self.params}")

    def choi(self, complement: bool = False, post_unitary: np.ndarray | None = None) -> "ChoiMatrix":
        """Choi matrix of the channel (optionally with a unitary applied after):
        the reference/output state of the maximally entangled input."""
        dim = self.params.dim
        out = self.reference_output(np.eye(dim, dtype=complex) / np.sqrt(dim), complement)
        if post_unitary is not None:
            lifted = np.kron(np.eye(dim), post_unitary)
            out = lifted @ out @ lifted.conj().T
        return ChoiMatrix(dim, dim, out)


@dataclass(frozen=True)
class ChoiMatrix:
    """(I x channel) applied to the maximally entangled projector."""

    input_dim: int
    output_dim: int
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", m)
        expected = (self.input_dim * self.output_dim,) * 2
        if m.shape != expected:
            raise ValueError(f"Choi shape {m.shape} != {expected}")
        low = float(np.linalg.eigvalsh((m + m.conj().T) / 2)[0])
        if low < -CHOI_PSD_TOL:
            raise ValueError(f"Choi matrix has negative eigenvalue {low:.3e}")
        reduced = partial_trace(m, [self.input_dim, self.output_dim], keep=[0])
        defect = float(np.max(np.abs(reduced - np.eye(self.input_dim) / self.input_dim)))
        if defect > CHOI_TP_TOL:
            raise ValueError(f"Choi reduction misses I/d_in by {defect:.3e}")


def convolve(bsparams: BSParams, rho: DensityMatrix, sigma: DensityMatrix) -> DensityMatrix:
    """Binary convolution: channel output with sigma as the environment."""
    return BeamSplitterChannel(bsparams, sigma).apply(rho)


def convolve_complement(bsparams: BSParams, rho: DensityMatrix, sigma: DensityMatrix) -> DensityMatrix:
    return BeamSplitterChannel(bsparams, sigma).apply_complement(rho)


def iterate_convolution(bsparams: BSParams, rho: DensityMatrix, steps: int) -> list[tuple[int, float]]:
    """Sup-norm characteristic-table distance to the mean state, per step.

    Step k holds the distance of the k-fold repeated self-convolution.  The
    iteration runs entirely in table space via the scaling identity
    Xi_out(x) = Xi_prev(s x) * Xi_rho(t x).
    """
    if steps < 1:
        raise ValueError("need at least one step")
    p = bsparams.params
    base = characteristic_function(rho)
    mean = mean_characteristic_table(base)
    s_idx = scale_indices(p.d, p.n, bsparams.s)
    t_idx = scale_indices(p.d, p.n, bsparams.t)
    scaled_base = base.values[np.ix_(t_idx, t_idx)]
    current = base.values
    out = []
    for step in range(1, steps + 1):
        if step > 1:
            current = current[np.ix_(s_idx, s_idx)] * scaled_base
        out.append((step, float(np.max(np.abs(current - mean)))))
    return out


def phase_inversion(rho: DensityMatrix) -> DensityMatrix:
    """Conjugation by the parity operator (|k> -> |-k>)."""
    a0 = parity_operator(rho.params)
    return rho.conjugated(a0)


def displace(rho: DensityMatrix, x: WeylIndex) -> DensityMatrix:
    rows, phases = weyl_action(rho.params, x)
    return DensityMatrix(rho.params, monomial_conjugate(rho.matrix, rows, phases))


@dataclass(frozen=True)
class ChannelIdentityReport:
    description: str
    frobenius_distance: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.frobenius_distance <= self.tolerance

    def to_dict(self) -> dict:
        return {
            "description": self.description,
            "frobenius_distance": self.frobenius_distance,
            "tolerance": self.tolerance,
            "pass": self.passed,
        }


def complement_identity_check(bsparams: BSParams, sigma: DensityMatrix) -> ChannelIdentityReport:
    """Certify that the complement equals parity-conjugation after the
    swapped-weight channel run on the parity-conjugated environment.

    Both sides are compared as Choi matrices in Frobenius norm.
    """
    left = BeamSplitterChannel(bsparams, sigma).choi(complement=True)
    swapped = BSParams(bsparams.params, bsparams.t, bsparams.s)
    right = BeamSplitterChannel(swapped, phase_inversion(sigma)).choi(
        post_unitary=parity_operator(bsparams.params)
    )
    dist = frobenius_distance(left.matrix, right.matrix)
    return ChannelIdentityReport(
        description="complement vs parity-conjugated swapped-weight channel",
        frobenius_distance=dist,
        tolerance=CHANNEL_EQ_TOL,
    )


@dataclass(frozen=True)
class DegradationReport:
    frobenius_distance: float
    tolerance: float
    degradable: bool
    anti_degradable: bool
    notes: tuple[str, ...] = field(default_factory=tuple)

    @property
    def passed(self) -> bool:
        return self.frobenius_distance <= self.tolerance

    def to_dict(self) -> dict:
        return {
            "frobenius_distance": self.frobenius_distance,
            "tolerance": self.tolerance,
            "degradable": self.degradable,
            "anti_degradable": self.anti_degradable,
            "pass": self.passed,
            "notes": list(self.notes),
        }


def degradation_witness(
    bsparams: BSParams, sigma: DensityMatrix, displacement: WeylIndex | None = None
) -> DegradationReport:
    """Constructive degradation certificate for balanced weights.

    Preconditions (each failure raises with the failing check named): the
    weights satisfy s = t mod d, and the environment is a displaced copy of a
    parity-symmetric state, sigma = w(a) sigma0 w(a)^dag with
    parity-symmetric sigma0.

    On pass, the complement equals a unitary post-processing (parity after a
    displacement) of the channel itself, so the channel is simultaneously
    degradable and anti-degradable, which forces zero quantum capacity.
    """
    p = bsparams.params
    d = p.d
    if bsparams.s % d != bsparams.t % d:
        raise ValueError(f"precondition failed: s={bsparams.s} and t={bsparams.t} differ mod {d}")
    a = displacement if displacement is not None else WeylIndex.zero(p)
    sigma0 = displace(sigma, a.neg(d))
    sym_defect = frobenius_distance(phase_inversion(sigma0), sigma0)
    if sym_defect > CHANNEL_EQ_TOL:
        raise ValueError(
            "precondition failed: displaced-back environment is not parity symmetric "
            f"(defect {sym_defect:.3e})"
        )
    left = BeamSplitterChannel(bsparams, sigma).choi(complement=True)
    shift = a.scale(-2 * bsparams.s, d)
    shift_op = weyl_operator(p, shift)
    post = parity_operator(p) @ shift_op
    right = BeamSplitterChannel(bsparams, sigma).choi(post_unitary=post)
    dist = frobenius_distance(left.matrix, right.matrix)
    passed = dist <= CHANNEL_EQ_TOL
    return DegradationReport(
        frobenius_distance=dist,
        tolerance=CHANNEL_EQ_TOL,
        degradable=passed,
        anti_degradable=passed,
        notes=(
            "degrading map is unitary (parity after a displacement), so degradable and "
            "anti-degradable hold simultaneously",
        ),
    )


def choi_from_kraus(kraus: list[np.ndarray], input_dim: int) -> ChoiMatrix:
    out_dim = kraus[0].shape[0]
    total = np.zeros((input_dim * out_dim, input_dim * out_dim), dtype=complex)
    for k in kraus:
        w = (k.T / np.sqrt(input_dim)).reshape(-1)  # [r, o] = k[o, r] / sqrt(d_in)
        total += np.outer(w, w.conj())
    return ChoiMatrix(input_dim, out_dim, total)
