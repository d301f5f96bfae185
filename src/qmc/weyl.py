"""Discrete phase space for prime-dimensional qudits.

Weyl (generalized Pauli) operators, characteristic functions, discrete
Wigner functions and beam-splitter parameter enumeration.

Conventions, fixed once here and relied on everywhere else:

* ``X |k> = |k+1 mod d>`` and ``Z |k> = w^k |k>`` with ``w = exp(2*pi*i/d)``.
* For odd prime ``d`` the single-qudit Weyl operator is
  ``w(p, q) = w^{-h p q} Z^p X^q`` with ``h = (d+1)/2`` the inverse of 2
  mod d.  Operator products compose right-to-left, so
  ``w(p, q)|k> = w^{p(k+q) - h p q} |k+q>``.
  This is the unique phase making ``w(x)^d = I`` and ``w(x)^dag = w(-x)``.
* n-qudit Weyl operators are tensor products of the locals; a phase-space
  point is a pair of length-n vectors over Z_d.
* The characteristic function of a state is ``Xi(x) = Tr[rho w(-x)]``.

The phase-space transforms never loop over points.  For a fixed shift q,
``Xi(p, q) = w^{-h p.q} sum_j w^{-p.j} rho[j+q, j]`` is one DFT over Z_d^n
of the q-th shifted diagonal of rho, so the whole table is one matrix
product with the cached DFT matrix.  The inverse transform runs the inverse
DFT and gathers the diagonals back into a matrix; the Wigner table is the
symplectic Fourier transform of Xi, two more DFT products.

``WeylMultiplier`` puts a product Xi_in(a x) Xi_E(b x) between the halves.

Weyl operators, the parity |k> -> |-k> and their products are monomial: a
row permutation with one phase per column.  The library applies them in
that ``(rows, phases)`` form (``weyl_action``, ``monomial_conjugate``);
``weyl_operator`` materializes one for callers that want the matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

MAX_DIM = 343


def is_prime(k: int) -> bool:
    if k < 2:
        return False
    f = 2
    while f * f <= k:
        if k % f == 0:
            return False
        f += 1
    return True


@dataclass(frozen=True)
class QuditParams:
    """Local dimension and qudit count.

    ``d = 2`` is representable (so the no-nontrivial-parameters fact can be
    demonstrated) but the Weyl machinery rejects it.
    """

    d: int
    n: int = 1

    def __post_init__(self):
        if not is_prime(self.d):
            raise ValueError(f"d={self.d} must be prime")
        if self.n < 1:
            raise ValueError(f"n={self.n} must be positive")
        if self.d**self.n > MAX_DIM:
            raise ValueError(f"d^n = {self.d ** self.n} exceeds supported size {MAX_DIM}")

    @property
    def dim(self) -> int:
        return self.d**self.n

    @property
    def half(self) -> int:
        """Multiplicative inverse of 2 mod d, i.e. (d+1)/2 for odd d."""
        return (self.d + 1) // 2

    def require_odd(self):
        if self.d == 2:
            raise ValueError("d=2 is unsupported here: the Weyl phase convention needs odd prime d")


@dataclass(frozen=True)
class WeylIndex:
    """A phase-space point: exponent vectors (p, q) over Z_d."""

    p: tuple[int, ...]
    q: tuple[int, ...]

    @classmethod
    def make(cls, params: QuditParams, p: Sequence[int] | int, q: Sequence[int] | int) -> "WeylIndex":
        if isinstance(p, int):
            p = (p,)
        if isinstance(q, int):
            q = (q,)
        if len(p) != params.n or len(q) != params.n:
            raise ValueError(f"expected length-{params.n} vectors, got {p}, {q}")
        return cls(tuple(int(v) % params.d for v in p), tuple(int(v) % params.d for v in q))

    @classmethod
    def zero(cls, params: QuditParams) -> "WeylIndex":
        return cls((0,) * params.n, (0,) * params.n)

    def neg(self, d: int) -> "WeylIndex":
        return WeylIndex(tuple((-v) % d for v in self.p), tuple((-v) % d for v in self.q))

    def scale(self, k: int, d: int) -> "WeylIndex":
        return WeylIndex(tuple((k * v) % d for v in self.p), tuple((k * v) % d for v in self.q))


@lru_cache(maxsize=None)
def _digit_table(d: int, n: int) -> np.ndarray:
    """Base-d digits (most significant first) of 0..d^n-1; treat as read-only."""
    idx = np.arange(d**n)
    out = np.empty((d**n, n), dtype=np.int64)
    for pos in range(n - 1, -1, -1):
        out[:, pos] = idx % d
        idx = idx // d
    return out


@lru_cache(maxsize=None)
def _powers(d: int, n: int) -> np.ndarray:
    return d ** np.arange(n - 1, -1, -1)


@lru_cache(maxsize=None)
def scale_indices(d: int, n: int, k: int) -> np.ndarray:
    """Index map enc(v) -> enc(k*v mod d) on flat base-d encodings; read-only."""
    table = (_digit_table(d, n) * (k % d)) % d
    return table @ _powers(d, n)


def _weyl_exponents(params: QuditParams, p: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Integer monomial forms of a stack of Weyl operators w(p[g], q[g]), with
    p and q of shape (count, n): w|k> = w^{expo[g, k]} |rows[g, k]>, with the
    exponents reduced mod d."""
    params.require_odd()
    d, n = params.d, params.n
    shifted = _digit_table(d, n) + q[:, None, :]  # w(p, q)|k> lands on |k + q>
    # exponent of w per basis ket: sum_i p_i (k_i + q_i) - h p_i q_i (mod d)
    expo = (shifted * p[:, None, :]).sum(-1) - params.half * (p * q).sum(-1)[:, None]
    return (shifted % d) @ _powers(d, n), expo % d


def _weyl_monomials(params: QuditParams, p: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``_weyl_exponents`` with the phases evaluated: w|k> = phases[g, k] |rows[g, k]>."""
    rows, expo = _weyl_exponents(params, p, q)
    return rows, np.exp(2j * np.pi / params.d) ** expo


def weyl_action(params: QuditParams, x: WeylIndex) -> tuple[np.ndarray, np.ndarray]:
    """Monomial form of w(x): w(x)|k> = phases[k] |rows[k]>.

    Returns (rows, phases) with rows a permutation of 0..dim-1.
    """
    rows, phases = _weyl_monomials(params, np.array([x.p]), np.array([x.q]))
    return rows[0], phases[0]


def weyl_operator(params: QuditParams, x: WeylIndex) -> np.ndarray:
    """Dense n-qudit Weyl operator w(p, q); unitary, w(0,0) = identity."""
    rows, phases = weyl_action(params, x)
    out = np.zeros((params.dim, params.dim), dtype=complex)
    out[rows, np.arange(params.dim)] = phases
    return out


def monomial_conjugate(matrix: np.ndarray, rows: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """w M w^dag for a monomial w given in (rows, phases) form."""
    out = np.empty_like(matrix, dtype=complex)
    out[np.ix_(rows, rows)] = np.outer(phases, phases.conj()) * matrix
    return out


@dataclass(frozen=True)
class CharacteristicTable:
    """Xi(x) = Tr[rho w(-x)] for every phase-space point x.

    ``values[enc(p), enc(q)]`` holds Xi(p, q).
    """

    params: QuditParams
    values: np.ndarray

    def scaled(self, k: int) -> np.ndarray:
        """Table of x -> Xi(k*x), as a plain array."""
        idx = scale_indices(self.params.d, self.params.n, k)
        return self.values[np.ix_(idx, idx)]


@lru_cache(maxsize=None)
def _dft_tables(d: int, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(add, dft, twist, idft) over Z_d^n on flat encodings; read-only.

    ``add[j, q] = enc(j + q)``, ``dft[p, j] = w^{-p.j}``,
    ``twist[p, q] = w^{-h p.q}`` and ``idft = conj(dft)``.
    """
    digits = _digit_table(d, n)
    add = ((digits[:, None, :] + digits[None, :, :]) % d) @ _powers(d, n)
    dot = digits @ digits.T
    roots = np.exp(2j * np.pi * np.arange(d) / d)
    dft, twist = roots[-dot % d], roots[(-((d + 1) // 2) * dot) % d]
    tables = (add, dft, twist, dft.conj())
    for table in tables:
        table.flags.writeable = False
    return tables


@lru_cache(maxsize=None)
def _block_indices(d: int, n: int, rank: int) -> tuple[np.ndarray, np.ndarray]:
    """Gathers, over runs of ``rank`` entries, between a (dim * rank)^2 block
    matrix [(e, k), (f, l)] and its blocks' shifted diagonals [j, (q, k, l)]:
    entry (e, f) of block (k, l) lies on diagonal q = e - f at j = f.
    Returns (to_diagonals[j, q, k], to_matrix[e, k, f]); read-only."""
    add = _dft_tables(d, n)[0]
    dim, k, j = d**n, np.arange(rank), np.arange(d**n)
    sub = add[:, scale_indices(d, n, -1)]  # sub[e, f] = enc(e - f)
    to_diagonals = ((add * rank)[:, :, None] + k) * dim + j[:, None, None]
    to_matrix = (j * dim + sub)[:, None, :] * rank + k[:, None]
    to_diagonals.flags.writeable = to_matrix.flags.writeable = False
    return to_diagonals, to_matrix


def _shifted_diagonals(params: QuditParams, m: np.ndarray, rank: int = 1) -> np.ndarray:
    """D[j, (q, k, l)] = block (k, l) of m at (j + q, j), shape (dim, dim * rank^2)."""
    to_diagonals, _ = _block_indices(params.d, params.n, rank)
    return m.reshape(-1, rank).take(to_diagonals, axis=0).reshape(params.dim, -1)


def _from_shifted_diagonals(params: QuditParams, diagonals: np.ndarray, rank: int = 1) -> np.ndarray:
    """The (dim * rank)^2 block matrix with these shifted diagonals."""
    _, to_matrix = _block_indices(params.d, params.n, rank)
    side = params.dim * rank
    return diagonals.reshape(-1, rank).take(to_matrix, axis=0).reshape(side, side)


@lru_cache(maxsize=None)
def _scaled_transform(d: int, n: int, k: int) -> tuple[np.ndarray, np.ndarray, tuple]:
    """(dft_k, gather_k, read_k): ``dft_k @ m.take(gather_k)`` is the DFT of
    the shifted diagonals of a dim x dim m (its table without the twist) read
    at k x, and ``read_k`` the ``np.ix_`` read of a table at k x; read-only."""
    idx = scale_indices(d, n, k)
    gather = _block_indices(d, n, 1)[0].reshape(d**n, d**n)[:, idx]
    gather.flags.writeable = False
    return _dft_tables(d, n)[1][idx], gather, np.ix_(idx, idx)


def _characteristic_values(params: QuditParams, m: np.ndarray) -> np.ndarray:
    """Xi(p, q) = w^{-h p.q} sum_j w^{-p.j} rho[j + q, j]: for each shift q,
    one DFT of the q-th shifted diagonal of rho."""
    params.require_odd()
    dft, gather, _ = _scaled_transform(params.d, params.n, 1)
    return _dft_tables(params.d, params.n)[2] * (dft @ m.take(gather))


def characteristic_function(rho) -> CharacteristicTable:
    """Characteristic table of a state (anything with .params and .matrix)."""
    m = np.asarray(rho.matrix, dtype=complex)
    return CharacteristicTable(rho.params, _characteristic_values(rho.params, m))


def inverse_weyl_transform(table: CharacteristicTable) -> np.ndarray:
    """Reconstruct the operator (1/d^n) sum_x Xi(x) w(x) from its table.

    Undoes ``characteristic_function`` shift by shift: the inverse DFT of
    column q is the q-th shifted diagonal.
    """
    params = table.params
    params.require_odd()
    _, _, twist, idft = _dft_tables(params.d, params.n)
    return _from_shifted_diagonals(params, idft @ (twist.conj() * table.values) / params.dim)


@dataclass(frozen=True, eq=False)
class WeylMultiplier:
    """X -> Y with Xi_Y(x) = Xi_X(a x) Xi_E(b x) for a fixed E, and its
    adjoint under <X, Y> = Tr(X^dag Y); for a block matrix E over H x C^rank,
    block (k, l) of Y has table Xi_X(a x) Xi_{E_kl}(b x).  Both run on shifted
    diagonals: DFT, read at a, product with ``symbol[p, q, (k, l)]`` (the
    Xi_{E_kl}(b x) with both transforms' phases and 1/dim folded in), inverse
    DFT."""

    params: QuditParams
    scale: int
    rank: int
    symbol: np.ndarray

    @classmethod
    def of(cls, params: QuditParams, scale: int, env: np.ndarray, env_scale: int, rank: int = 1) -> "WeylMultiplier":
        params.require_odd()
        d, n, dim = params.d, params.n, params.dim
        _, dft, twist, _ = _dft_tables(d, n)
        raw = (dft @ _shifted_diagonals(params, np.asarray(env, dtype=complex), rank)).reshape(dim, dim, -1)
        symbol = raw[_scaled_transform(d, n, env_scale)[2]]
        # twist(k x) = twist^(k^2): the phases twist(b x) conj(twist(x)) twist(a x)
        symbol *= (twist ** ((scale**2 + env_scale**2 - 1) % d) / dim)[:, :, None]
        symbol.flags.writeable = False
        return cls(params, scale, rank, symbol)

    def __call__(self, m: np.ndarray) -> np.ndarray:
        """Y for a dim x dim matrix X."""
        p = self.params
        dft, gather, _ = _scaled_transform(p.d, p.n, self.scale)
        table = dft @ np.asarray(m).take(gather)
        diagonals = _dft_tables(p.d, p.n)[3] @ (table[:, :, None] * self.symbol).reshape(p.dim, -1)
        return _from_shifted_diagonals(p, diagonals, self.rank)

    def adjoint(self, m: np.ndarray) -> np.ndarray:
        """The dim x dim image of a (dim * rank)^2 matrix; the read at a turns
        into a read at x / a, or into a sum into x = 0 for a = 0 mod d."""
        p = self.params
        _, dft, _, idft = _dft_tables(p.d, p.n)
        raw = (dft @ _shifted_diagonals(p, m, self.rank)).reshape(self.symbol.shape)
        table = np.zeros((p.dim, p.dim), dtype=complex)
        np.add.at(table, _scaled_transform(p.d, p.n, self.scale)[2], np.einsum("pqb,pqb->pq", raw, self.symbol.conj()))
        return _from_shifted_diagonals(p, idft @ table)


def wigner_function(rho) -> np.ndarray:
    """Raw discrete Wigner table W(x) = Tr[rho A(x)]; sums to d^n.

    A(x) = w(x) A(0) w(x)^dag are the phase-point operators, with A(0) the
    parity |k> -> |-k>.

    Computed as the symplectic Fourier transform of the characteristic
    table, W(u) = (1/d^n) sum_v w^{-[u, v]} Xi(v).  Divide by d^n for the
    quasi-probability normalization.  Raises if the imaginary residue
    exceeds 1e-10 (the exact value is real).
    """
    params: QuditParams = rho.params
    xi = _characteristic_values(params, np.asarray(rho.matrix, dtype=complex))
    _, dft, _, idft = _dft_tables(params.d, params.n)
    values = dft @ xi.T @ idft / params.dim
    residue = float(np.max(np.abs(values.imag)))
    if residue > 1e-10:
        raise ValueError(f"Wigner table has imaginary residue {residue:.3e}")
    return values.real.copy()


@dataclass(frozen=True)
class BSParams:
    """Beam-splitter weights (s, t) with s^2 + t^2 = 1 mod d."""

    params: QuditParams
    s: int
    t: int

    def __post_init__(self):
        d = self.params.d
        object.__setattr__(self, "s", self.s % d)
        object.__setattr__(self, "t", self.t % d)
        if (self.s**2 + self.t**2) % d != 1:
            raise ValueError(f"(s, t)=({self.s}, {self.t}) violates s^2+t^2=1 mod {d}")

    @property
    def nontrivial(self) -> bool:
        d = self.params.d
        return (self.s**2) % d not in (0, 1) and (self.t**2) % d not in (0, 1)


def valid_st_pairs(params: QuditParams) -> list[BSParams]:
    """All (s, t) with s^2 + t^2 = 1 mod d, trivial ones included.

    For d = 2 only (0,1) and (1,0) survive, so the nontrivial set is empty.
    """
    d = params.d
    out = []
    for s in range(d):
        for t in range(d):
            if (s * s + t * t) % d == 1:
                out.append(BSParams(params, s, t))
    return out
