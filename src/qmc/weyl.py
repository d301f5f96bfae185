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

``WeylMultiplier`` puts products Xi_in(a_i x) Xi_{E_i}(b_i x) between the
halves, one per block, all blocks from one forward DFT (or the raw table a
state keeps), with the environments' raw tables read, not recomputed.

Weyl operators, the parity |k> -> |-k> and their products are monomial: a
row permutation with one phase per column.  The library applies them in
that ``(rows, phases)`` form (``weyl_action``, ``monomial_conjugate``);
``weyl_operator`` materializes one for callers that want the matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import groupby
from typing import NamedTuple, Sequence

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
def _diagonal_indices(d: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gathers between a dim x dim matrix and its shifted diagonals D[j, q]:
    entry (e, f) lies on diagonal q = e - f at j = f.  Returns
    (to_diagonals[j, q], to_matrix[e, f]), flat indices; read-only."""
    add = _dft_tables(d, n)[0]
    dim, j = d**n, np.arange(d**n)
    sub = add[:, scale_indices(d, n, -1)]  # sub[e, f] = enc(e - f)
    to_diagonals, to_matrix = add * dim + j[:, None], j * dim + sub
    to_diagonals.flags.writeable = to_matrix.flags.writeable = False
    return to_diagonals, to_matrix


def _from_shifted_diagonals(params: QuditParams, diagonals: np.ndarray) -> np.ndarray:
    """The dim x dim matrix with these shifted diagonals."""
    return diagonals.take(_diagonal_indices(params.d, params.n)[1])


def _raw_table(params: QuditParams, m: np.ndarray) -> np.ndarray:
    """sum_j w^{-p.j} m[j + q, j]: for each shift q, one DFT of the q-th
    shifted diagonal of m (its characteristic table without the twist)."""
    return _dft_tables(params.d, params.n)[1] @ np.asarray(m).take(_diagonal_indices(params.d, params.n)[0])


def characteristic_function(rho) -> CharacteristicTable:
    """Characteristic table of a state (anything with .params and .matrix):
    Xi(p, q) = w^{-h p.q} sum_j w^{-p.j} rho[j + q, j]."""
    params: QuditParams = rho.params
    params.require_odd()
    twist = _dft_tables(params.d, params.n)[2]
    return CharacteristicTable(params, twist * _raw_table(params, np.asarray(rho.matrix, dtype=complex)))


def inverse_weyl_transform(table: CharacteristicTable) -> np.ndarray:
    """Reconstruct the operator (1/d^n) sum_x Xi(x) w(x) from its table.

    Undoes ``characteristic_function`` shift by shift: the inverse DFT of
    column q is the q-th shifted diagonal.
    """
    params = table.params
    params.require_odd()
    _, _, twist, idft = _dft_tables(params.d, params.n)
    return _from_shifted_diagonals(params, idft @ (twist.conj() * table.values) / params.dim)


class _Group(NamedTuple):
    """A run of ``count`` blocks of equal ``rank`` in a ``WeylMultiplier``.

    The group holds entries [start, stop) of the flat buffer of shifted
    diagonals (and of the symbol), in which block c has D_c[j, (q, k, l)] of
    shape (dim, dim rank^2).  ``read`` gives, per entry (c, p, q), the flat
    index of (a_c p, a_c q) in a dim x dim table, a_c the block's scale; it
    is a column for rank > 1, to broadcast over (k, l).  ``runs[(c, e, k,
    f)]`` is the run of ``rank`` entries of the buffer that holds entries
    [(e, k), (f, l)], l = 0..rank-1, of image c: entry (e, f) of block
    (k, l) lies on diagonal q = e - f at j = f.
    """

    count: int
    rank: int
    start: int
    stop: int
    read: np.ndarray
    runs: np.ndarray


def _rows(a: np.ndarray, width: int) -> np.ndarray:
    """A flat array as rows of ``width`` entries; left flat for width 1, so
    that rank-one groups index plain vectors."""
    return a if width == 1 else a.reshape(-1, width)


@lru_cache(maxsize=None)
def _stack_groups(d: int, n: int, scales: tuple[int, ...], ranks: tuple[int, ...]) -> tuple[_Group, ...]:
    """The runs of blocks of equal rank of a ``WeylMultiplier``; each group's
    DFTs are one batched product, so every block gets the very products a
    one-block multiplier makes.  Arrays read-only; the indices hold
    count dim^2 rank entries, not one per image entry."""
    dim, to_matrix = d**n, _diagonal_indices(d, n)[1]
    groups, start, first = [], 0, 0
    for r, run in groupby(ranks):
        count = len(list(run))
        idx = [scale_indices(d, n, a) for a in scales[first : first + count]]
        read = np.concatenate([(i[:, None] * dim + i).reshape(-1) for i in idx])
        runs = (np.arange(count) * dim * dim * r)[:, None, None, None] + (to_matrix * r)[None, :, None, :]
        runs = (runs + np.arange(r)[None, None, :, None]).reshape(-1)
        read.flags.writeable = runs.flags.writeable = False
        read = read if r == 1 else read[:, None]
        groups.append(_Group(count, r, start, start + count * dim * dim * r * r, read, runs))
        start, first = groups[-1].stop, first + count
    return tuple(groups)


def _group_products(groups: tuple[_Group, ...], dim: int, matrix: np.ndarray, images: np.ndarray):
    """(group, matrix @ D) for each group, with D the group's shifted
    diagonals, (count, dim, dim rank^2), of ``images``: the images of all
    blocks, concatenated flat in block order."""
    for g in groups:
        diagonals = np.empty(g.stop - g.start, dtype=complex)
        _rows(diagonals, g.rank)[g.runs] = _rows(images[g.start : g.stop], g.rank)
        yield g, matrix @ diagonals.reshape(g.count, dim, -1)


def _block_table(params: QuditParams, block: np.ndarray, rank: int) -> np.ndarray:
    """The raw tables of the blocks (k, l) of a block matrix over H x C^rank,
    shaped (dim, dim, rank^2): the shifted diagonals of all blocks through
    one DFT product, the one a multiplier group of that rank makes."""
    d, n, dim = params.d, params.n, params.dim
    groups = _stack_groups(d, n, (1,), (rank,))
    ((_, raw),) = _group_products(groups, dim, _dft_tables(d, n)[1], np.asarray(block, dtype=complex).reshape(-1))
    return raw.reshape(dim, dim, -1)


@dataclass(frozen=True, eq=False)
class WeylMultiplier:
    """X -> (Y_1, Y_2, ...), one image per block i, with Xi_{Y_i}(x) =
    Xi_X(a_i x) Xi_{E_i}(b_i x) for fixed E_i, and its adjoint under
    <X, Y> = Tr(X^dag Y).  For a block matrix E_i over H x C^r_i, block
    (k, l) of Y_i has table Xi_X(a_i x) Xi_{E_i,kl}(b_i x).

    One kernel serves all blocks: X's raw table (one DFT of its shifted
    diagonals, or the table a state keeps), a read of that table at a_i x
    for every block, the product with the symbol (every block's
    Xi_{E_i,kl}(b_i x), with both transforms' phases and 1/dim folded in),
    the inverse DFT and the gather into the images, the last three once per
    group of equal rank.  The adjoint runs the same steps backwards on all
    images at once.  A single map is the one-block case.  ``symbols`` holds
    one view per group, rows of rank^2 entries, of one array; the DFT
    matrices and the gather into a matrix are held too, so that a call
    looks nothing up.
    """

    params: QuditParams
    groups: tuple[_Group, ...]
    symbols: tuple[np.ndarray, ...]
    dft: np.ndarray
    idft: np.ndarray
    to_matrix: np.ndarray

    @classmethod
    def from_tables(cls, params: QuditParams, blocks) -> "WeylMultiplier":
        """Blocks (a, T, b, r): input scale, the raw table T of an environment
        block matrix over H x C^r (``_raw_table`` for r = 1, ``_block_table``)
        and its scale.  No transform runs: each block's symbol is a read of
        T at b x times a fixed phase."""
        params.require_odd()
        d, n, dim = params.d, params.n, params.dim
        groups = _stack_groups(d, n, tuple(a % d for a, _, _, _ in blocks), tuple(r for _, _, _, r in blocks))
        _, dft, twist, idft = _dft_tables(d, n)
        parts = []
        for a, table, b, _ in blocks:
            idx = scale_indices(d, n, b)
            # twist(k x) = twist^(k^2): the phases twist(b x) conj(twist(x)) twist(a x)
            phase = twist ** ((a**2 + b**2 - 1) % d) / dim
            parts.append(table.reshape(dim, dim, -1)[idx[:, None], idx] * phase[:, :, None])
        symbol = np.concatenate(parts, axis=None)
        symbol.flags.writeable = False
        symbols = tuple(_rows(symbol[g.start : g.stop], g.rank**2) for g in groups)
        return cls(params, groups, symbols, dft, idft, _diagonal_indices(d, n)[1])

    def images_of_table(self, table: np.ndarray) -> list[np.ndarray]:
        """The images of the X with raw table ``table`` (``_raw_table``), as
        one (count, side, side) stack per group."""
        dim, out = self.params.dim, []
        for g, symbol in zip(self.groups, self.symbols):
            diagonals = (self.idft @ (table.take(g.read) * symbol).reshape(g.count, dim, -1)).reshape(-1)
            out.append(_rows(diagonals, g.rank).take(g.runs, axis=0).reshape(g.count, dim * g.rank, -1))
        return out

    def images(self, m: np.ndarray) -> list[np.ndarray]:
        """The images of a dim x dim X (``images_of_table`` of its raw table)."""
        return self.images_of_table(_raw_table(self.params, m))

    def __call__(self, m: np.ndarray) -> np.ndarray:
        """Y for a dim x dim X; one-block multipliers only."""
        ((image,),) = self.images(m)
        return image

    def adjoint(self, *images: np.ndarray) -> np.ndarray:
        """sum_i N_i^dag(images[i]), a dim x dim matrix, for images in block
        order given as matrices or stacks."""
        dim = self.params.dim
        table = np.zeros(dim * dim, dtype=complex)
        products = _group_products(self.groups, dim, self.dft, np.concatenate(images, axis=None))
        for (g, raw), symbol in zip(products, self.symbols):
            values = raw.reshape(symbol.shape) * symbol.conj()
            if g.rank > 1:
                values = values.sum(axis=1, keepdims=True)  # over (k, l)
            # block c's table at x adds onto a_c x: a permutation of the
            # points for a_c != 0 mod d, all of them onto x = 0 for a_c = 0
            np.add.at(table, g.read, values)
        return (self.idft @ table.reshape(dim, dim)).take(self.to_matrix)


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
    xi = characteristic_function(rho).values
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
