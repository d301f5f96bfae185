"""The discrete beam splitter and its channels.

The two-register unitary sends |i, j> to |s i + t j, -t i + s j> (all
arithmetic componentwise mod d), so it is stored as an index permutation and
never materialized.  The channel traces out the second register against a
fixed environment state; the complementary channel traces out the first.

On characteristic tables the channel is a multiplication (the beam
splitter's convolution-multiplication duality), Xi_out(x) = Xi_rho(s x)
Xi_sigma(t x), and the complement is Xi_rho(-t x) Xi_sigma(s x).  So both
maps and their adjoints are ``WeylMultiplier``s: dim^3 DFT products, never
the dim^4 joint state.  For the coherent information the channel and its
complement onto the traced register and the environment purifier run as
the two blocks of one multiplier (``coherent_multiplier``).  Reference/
output states use the Stinespring amplitudes psi[r, I[a, b]] * P[J[a, b], k]
of the environment purified as sigma = P P^dag (``stinespring_amplitudes``),
where |I[a, b], J[a, b]> is the preimage of |a, b>.

The environment state owns the tables and the purifier (``DensityMatrix``
computes each on first use and keeps it), so every map of a channel is a
read of them: ``apply_matrix``, ``choi`` and ``coherent_multiplier`` take
the environment's raw table (and, for the E x E' complement, its
purifier-block table) at the weights' scales times a fixed phase, with no
eigensolve or DFT of the environment per channel, and every channel on one
state shares one table and one purifier.  A channel reads them as
``environment.raw_table`` and ``environment.purifier`` and keeps only its
``coherent_multiplier``; the coherent-information evaluator over that kernel
is ``capacity._ic_matrix_fn``, the one route to it.

Choi matrices are held as their dim^2 Weyl coefficients (``ChoiTable``),
never as dim^2 x dim^2 matrices; the symmetry identities
(``complement_identity_check``, ``degradation_witness``) compare such
tables, with a parity or displacement after the channel as a relabel and a
phase per coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .linalg import frobenius_distance
from .states import TRACE_TOL, DensityMatrix, mean_characteristic_table
from .weyl import (
    BSParams,
    CharacteristicTable,
    QuditParams,
    WeylIndex,
    WeylMultiplier,
    characteristic_function,
    monomial_conjugate,
    scale_indices,
    weyl_action,
    _dft_tables,
    _digit_table,
    _powers,
    _raw_table,
)

CHANNEL_EQ_TOL = 1e-9
MAX_SIDE = 49 * 49  # largest dense reference/output or E x E' side (the dim-49 product environment)


@lru_cache(maxsize=None)
def _gather_indices(d: int, n: int, s: int, t: int) -> tuple[np.ndarray, np.ndarray]:
    """(I, J) with U |I[a, b], J[a, b]> = |a, b>: the inverse rotation
    |a, b> -> |s a - t b, t a + s b>, indexed [a, b]; read-only."""
    digits, powers = _digit_table(d, n), _powers(d, n)
    a, b = digits[:, None, :], digits[None, :, :]
    i, j = ((s * a - t * b) % d) @ powers, ((t * a + s * b) % d) @ powers
    i.flags.writeable = j.flags.writeable = False
    return i, j


def beam_splitter_permutation(bsparams: BSParams) -> np.ndarray:
    """perm[(i, j)] = encoding of (s i + t j, -t i + s j), the inverse rotation of the weights (s, -t)."""
    b = bsparams
    i, j = _gather_indices(b.params.d, b.params.n, b.s, -b.t)
    return (i * b.params.dim + j).reshape(-1)


def stinespring_gather(i: np.ndarray, j: np.ndarray, psi: np.ndarray, purifier: np.ndarray) -> np.ndarray:
    """W[..., (r, a), (b, k)] = psi[..., r, I[a, b]] * P[..., J[a, b], k],
    broadcast over the leading axes of psi (..., refs, dim) and the purifier
    P (..., dim, rank); (I, J) are a channel's ``gather_indices``."""
    w = psi[..., i, None] * purifier[..., None, j, :]  # [..., r, a, b, k]
    return w.reshape(*w.shape[:-4], w.shape[-4] * w.shape[-3], -1)


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

    def _weights(self, complement: bool) -> tuple[int, int]:
        """(a, b) with output table Xi_in(a x) Xi_sigma(b x): (s, t) for the
        channel, (-t, s) for the complement."""
        b = self.bsparams
        return (-b.t, b.s) if complement else (b.s, b.t)

    def _purified_block(self) -> tuple:
        """The complement onto E x E' (traced output, environment purifier) as
        a multiplier block, [(e, k), (f, l)]: block (k, l) has p_k p_l^dag,
        p_k column k of the environment's ``purifier``, for sigma, and its
        tables are the environment's ``purified_table``.  A side dim * rank
        above ``MAX_SIDE`` raises ValueError before the large arrays are built."""
        dim, rank = self.environment.purifier.shape
        check_side(dim, rank, 2 * (dim * rank) ** 2)
        a, b = self._weights(complement=True)
        return (a, self.environment.purified_table, b, rank)

    @cached_property
    def coherent_multiplier(self) -> WeylMultiplier:
        """The channel and the E x E' complement as one two-block multiplier,
        the pair of maps whose output entropies give the coherent
        information: one input table and one product make both images."""
        a, b = self._weights(complement=False)
        return WeylMultiplier.from_tables(
            self.params, [(a, self.environment.raw_table, b, 1), self._purified_block()]
        )

    def apply_matrix(self, rho_matrix: np.ndarray, complement: bool = False) -> np.ndarray:
        """Channel action on a raw matrix; no state validation.  The one-block
        multiplier is built from the environment's raw table on each call:
        its symbol costs about as much as one image."""
        a, b = self._weights(complement)
        return WeylMultiplier.from_tables(self.params, [(a, self.environment.raw_table, b, 1)])(rho_matrix)

    def stinespring_amplitudes(self, psi: np.ndarray, complement: bool = False) -> np.ndarray:
        """W[(r, a), (b, k)] = psi[r, I[a, b]] * P[J[a, b], k] for psi[r, x] on
        reference x input: the pure state on reference, kept output, traced
        output and the environment purifier, as a (refs * dim, dim * rank)
        matrix.  Raises ValueError when refs * dim exceeds ``MAX_SIDE``.
        """
        purifier = self.environment.purifier
        dim, refs = self.params.dim, psi.shape[0]
        check_side(dim, refs, refs * dim * dim * purifier.shape[1])
        return stinespring_gather(*self.gather_indices(complement), psi, purifier)

    def reference_output(self, psi: np.ndarray, complement: bool = False) -> np.ndarray:
        """(id x channel)(|psi><psi|) = W W^dag over (r, a), with W the
        ``stinespring_amplitudes`` of psi; of size refs * dim."""
        w = self.stinespring_amplitudes(psi, complement)
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

    def choi(self, complement: bool = False, parity: bool = False, displacement: WeylIndex | None = None) -> "ChoiTable":
        """Choi table of the channel or its complement, followed by
        w(displacement) and then the parity when given (``ChoiTable.of``)."""
        a, b = self._weights(complement)
        return ChoiTable.of(self.params, a, self.environment.raw_table, b, parity, displacement)


@dataclass(frozen=True)
class ChoiTable:
    """The Choi matrix dim^-2 sum_y coeffs[y] conj(w(x_y)) x w(y), one term
    per output label y = (p, q) at [enc(p), enc(q)] as in
    ``CharacteristicTable``, with ``labels[y]`` = enc(p') dim + enc(q') for
    x_y = (p', q').  Tr_out J = I/dim needs the origin's term to be 1 x 1
    with coefficient Tr sigma = 1; the table is rejected beyond ``TRACE_TOL``."""

    params: QuditParams
    labels: np.ndarray
    coeffs: np.ndarray

    def __post_init__(self):
        defect = abs((self.coeffs[0, 0] if self.labels[0, 0] == 0 else 0.0) - 1.0)
        if defect > TRACE_TOL:
            raise ValueError(f"Choi table misses Tr sigma = 1 at the origin by {defect:.3e}")

    @classmethod
    def of(cls, params: QuditParams, a: int, raw: np.ndarray, b: int, parity: bool = False,
           displacement: WeylIndex | None = None) -> "ChoiTable":
        """The multiplier Xi_in(a y) Xi_E(b y), ``raw`` the raw table of E
        (``DensityMatrix.raw_table``, Xi_E before its twist phase), sends
        w(x) to sum_{a y = x} Xi_E(b y) w(y): term y has label a y and
        coefficient Xi_E(b y), the twist and the raw table read at b y.
        w(u) after it puts w^{p_u.q_y - q_u.p_y} on term y; the parity then
        moves term y to -y, negating a, b and u."""
        d, n, dim = params.d, params.n, params.dim
        k = -1 if parity else 1
        ib, ia = scale_indices(d, n, k * b), scale_indices(d, n, k * a).astype(np.int32)  # labels < 343^2
        _, dft, twist, _ = _dft_tables(d, n)  # dft[p, j] = w^{-p.j}
        coeffs = raw[np.ix_(ib, ib)]
        np.multiply(twist[np.ix_(ib, ib)], coeffs, out=coeffs)  # the twist on the left, as in characteristic_function
        if displacement is not None:
            u = displacement.scale(k, d)
            coeffs *= dft[u.q @ _powers(d, n)][:, None]  # in place, row then column: no dim^2 temporary
            coeffs *= dft[u.p @ _powers(d, n)].conj()
        return cls(params, (ia * dim)[:, None] + ia, coeffs)

    def distance(self, other: "ChoiTable") -> float:
        """Frobenius distance of the Choi matrices.  The conj(w(x)) x w(y) are
        orthogonal with squared norm dim^2: a term with equal labels on both
        sides counts |c - c'|^2, one with unequal labels |c|^2 + |c'|^2."""
        gap = self.coeffs - other.coeffs
        apart = self.labels != other.labels
        gap[apart] = np.hypot(np.abs(self.coeffs[apart]), np.abs(other.coeffs[apart]))
        return float(np.linalg.norm(gap)) / self.params.dim


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
    base = characteristic_function(rho)
    mean = mean_characteristic_table(base)
    scaled_base = base.scaled(bsparams.t)
    current = base
    out = []
    for step in range(1, steps + 1):
        if step > 1:
            current = CharacteristicTable(base.params, current.scaled(bsparams.s) * scaled_base)
        out.append((step, float(np.max(np.abs(current.values - mean)))))
    return out


@dataclass(frozen=True)
class ChannelIdentityReport:
    description: str
    frobenius_distance: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.frobenius_distance <= self.tolerance


def complement_identity_check(bsparams: BSParams, sigma: DensityMatrix) -> ChannelIdentityReport:
    """Certify that the complement equals parity-conjugation after the
    swapped-weight channel run on the parity-conjugated environment, by the
    distance of their Choi tables."""
    p = bsparams.params
    neg = scale_indices(p.d, p.n, -1)
    flipped = _raw_table(p, sigma.matrix[np.ix_(neg, neg)])  # the raw table of P sigma P
    right = ChoiTable.of(p, bsparams.t, flipped, bsparams.s, parity=True)
    del flipped  # no more than two tables live at once
    left = BeamSplitterChannel(bsparams, sigma).choi(complement=True)
    return ChannelIdentityReport(
        description="complement vs parity-conjugated swapped-weight channel",
        frobenius_distance=left.distance(right),
        tolerance=CHANNEL_EQ_TOL,
    )


def degradation_witness(
    bsparams: BSParams, sigma: DensityMatrix, displacement: WeylIndex | None = None
) -> ChannelIdentityReport:
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
    sigma0 = monomial_conjugate(sigma.matrix, *weyl_action(p, a.neg(d)))  # w(-a) sigma w(-a)^dag
    neg = scale_indices(d, p.n, -1)
    sym_defect = frobenius_distance(sigma0[np.ix_(neg, neg)], sigma0)
    del sigma0  # freed before the tables are built
    if sym_defect > CHANNEL_EQ_TOL:
        raise ValueError(
            "precondition failed: displaced-back environment is not parity symmetric "
            f"(defect {sym_defect:.3e})"
        )
    chan = BeamSplitterChannel(bsparams, sigma)
    left = chan.choi(complement=True)
    right = chan.choi(parity=True, displacement=a.scale(-2 * bsparams.s, d))
    return ChannelIdentityReport(
        description="complement vs parity after a displacement of the channel",
        frobenius_distance=left.distance(right),
        tolerance=CHANNEL_EQ_TOL,
    )

