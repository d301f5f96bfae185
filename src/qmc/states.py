"""State construction and the stabilizer universe.

Density matrices, named preset states, the minimal stabilizer-projection
family (one member per isotropic subspace of Z_d^{2n} and character), mean
states, phase-space inversion symmetry, random state sampling, and the JSON
state file format.  A density matrix owns its phase-space tables and its
purifier, computed on first use and kept (``DensityMatrix``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import product
from typing import Sequence

import numpy as np

from .linalg import frobenius_distance
from .weyl import (
    BSParams,
    CharacteristicTable,
    QuditParams,
    WeylIndex,
    characteristic_function,
    inverse_weyl_transform,
    _block_table,
    _digit_table,
    _powers,
    _raw_table,
    _weyl_monomials,
)

HERMITIAN_TOL = 1e-12
TRACE_TOL = 1e-10
PSD_TOL = 1e-10
UNIT_MODULUS_TOL = 1e-9
MEMBER_MATCH_TOL = 1e-8
BRANCH_CUTOFF = 1e-14  # eigenvalues below this carry no purifier column (no Stinespring branch)

PRESET_NAMES = (
    "ket-zero",
    "uniform-01",
    "symmetric-pm1",
    "appc-a",
    "appc-b",
    "appe-magic",
    "maximally-mixed",
)


def branch_columns(states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(C, ranks) for one state or a stack of them: C = V sqrt(diag(lambda))
    over the ascending eigenvalues, with the columns at or below
    ``BRANCH_CUTOFF`` zeroed, and the number of columns kept per state."""
    vals, vecs = np.linalg.eigh(states)
    keep = vals > BRANCH_CUTOFF
    return vecs * np.sqrt(np.where(keep, vals, 0.0))[..., None, :], keep.sum(axis=-1)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class DensityMatrix:
    """A d^n x d^n positive unit-trace matrix tagged with its qudit layout.

    The state holds its own read-only copy of the matrix, so the
    phase-space data it computes on first use and keeps cannot go stale:
    ``raw_table``, and only when a purifier is asked for, ``purifier`` and
    ``purified_table``.  Channels read these and nothing else of the state
    (every map of a channel, its Choi table included); a state sent through
    many channels, or a channel environment shared by many channels, is
    transformed and purified once.
    """

    params: QuditParams
    matrix: np.ndarray

    def __post_init__(self):
        m = _read_only(np.array(self.matrix, dtype=complex, order="C"))  # owned: a caller's array is copied
        object.__setattr__(self, "matrix", m)
        dim = self.params.dim
        if m.shape != (dim, dim):
            raise ValueError(f"matrix shape {m.shape} does not match dim {dim}")
        defect = float(np.max(np.abs(m - m.conj().T)))
        if defect > HERMITIAN_TOL:
            raise ValueError(f"not Hermitian (defect {defect:.3e})")
        tr = complex(np.trace(m))
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"trace {tr} differs from 1")
        low = float(np.linalg.eigvalsh(m)[0])
        if low < -PSD_TOL:
            raise ValueError(f"negative eigenvalue {low:.3e}")

    @cached_property
    def raw_table(self) -> np.ndarray:
        """The characteristic table before its twist phase (``weyl._raw_table``),
        dim x dim; read-only."""
        return _read_only(_raw_table(self.params, self.matrix))

    @cached_property
    def purifier(self) -> np.ndarray:
        """P with rho = P P^dag: columns sqrt(lambda_k) v_k, one per
        eigenvalue above ``BRANCH_CUTOFF``, ascending, from the state's one
        eigensolve (``branch_columns``); read-only."""
        cols, rank = branch_columns(self.matrix)
        return _read_only(np.ascontiguousarray(cols[:, cols.shape[1] - int(rank) :]))

    @cached_property
    def purified_table(self) -> np.ndarray:
        """Raw tables of the purifier block matrix [p_k p_l^dag], over H x C^rank
        (``weyl._block_table``), (dim, dim, rank^2); read-only.  The block
        matrix has side dim * rank, so callers bound that side first."""
        vec = self.purifier.reshape(-1)
        return _read_only(_block_table(self.params, np.outer(vec, vec.conj()), self.purifier.shape[1]))

    @classmethod
    def from_ket(cls, params: QuditParams, amplitudes: Sequence[complex]) -> "DensityMatrix":
        v = np.asarray(amplitudes, dtype=complex)
        if v.shape != (params.dim,):
            raise ValueError(f"ket length {v.shape} does not match dim {params.dim}")
        norm = np.linalg.norm(v)
        if norm < 1e-12:
            raise ValueError("zero vector cannot be normalized")
        v = v / norm
        return cls(params, np.outer(v, v.conj()))

    def tensor(self, other: "DensityMatrix") -> "DensityMatrix":
        if other.params.d != self.params.d:
            raise ValueError("tensor factors must share the local dimension")
        params = QuditParams(self.params.d, self.params.n + other.params.n)
        return DensityMatrix(params, np.kron(self.matrix, other.matrix))


def _basis_ket(dim: int, k: int) -> np.ndarray:
    v = np.zeros(dim, dtype=complex)
    v[k % dim] = 1.0
    return v


def preset_state(name: str, params: QuditParams, bsparams: BSParams | None = None) -> DensityMatrix:
    """Named states used across the verification suites.

    ``appe-magic`` is (|0> + |t>)/sqrt(2) and therefore needs beam-splitter
    parameters.  Only ``ket-zero`` and ``maximally-mixed`` generalize to
    n > 1; the other presets are single-qudit.
    """
    d, dim = params.d, params.dim
    if name == "maximally-mixed":
        return DensityMatrix(params, np.eye(dim) / dim)
    if name == "ket-zero":
        return DensityMatrix.from_ket(params, _basis_ket(dim, 0))
    if params.n != 1:
        raise ValueError(f"preset {name!r} is defined for single qudits only")
    if name == "uniform-01":
        return DensityMatrix.from_ket(params, _basis_ket(d, 0) + _basis_ket(d, 1))
    if name == "symmetric-pm1":
        if d < 3:
            raise ValueError("symmetric-pm1 needs d >= 3")
        return DensityMatrix.from_ket(params, _basis_ket(d, 1) + _basis_ket(d, -1 % d))
    if name == "appc-a":
        return DensityMatrix.from_ket(
            params, np.sqrt(2 / 5) * _basis_ket(d, 0) + np.sqrt(3 / 5) * _basis_ket(d, 1)
        )
    if name == "appc-b":
        return DensityMatrix.from_ket(
            params, np.sqrt(2 / 5) * _basis_ket(d, 0) + np.sqrt(3 / 5) * _basis_ket(d, -1 % d)
        )
    if name == "appe-magic":
        if bsparams is None:
            raise ValueError("preset 'appe-magic' needs beam-splitter parameters for t")
        return DensityMatrix.from_ket(params, _basis_ket(d, 0) + _basis_ket(d, bsparams.t))
    raise ValueError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")


# ---------------------------------------------------------------------------
# Stabilizer enumeration
# ---------------------------------------------------------------------------


@dataclass
class StabilizerMember:
    """One minimal stabilizer-projection state.

    ``generators`` holds (label, character) pairs meaning
    ``w(label) state = character * state``; ``rank`` is the number of
    independent generators (n for pure members, 0 for the maximally mixed
    state).
    """

    rank: int
    generators: tuple[tuple[WeylIndex, complex], ...]
    state: DensityMatrix | None = None


@dataclass
class StabilizerFamily:
    params: QuditParams
    members: list[StabilizerMember] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.members)

    def state_at(self, i: int) -> DensityMatrix:
        member = self.members[i]
        if member.state is None:
            member.state = _materialize_member(self.params, member)
        return member.state

    __getitem__ = state_at  # family[i] builds member i only, on first use

    def pure_states(self) -> list[DensityMatrix]:
        return [self.state_at(i) for i, m in enumerate(self.members) if m.rank == self.params.n]

    def nearest_member_distance(self, rho: DensityMatrix) -> tuple[int, float]:
        best_i, best = -1, np.inf
        for i in range(len(self.members)):
            dist = frobenius_distance(self.state_at(i), rho)
            if dist < best:
                best_i, best = i, dist
        return best_i, best


def _materialize_member(params: QuditParams, member: StabilizerMember) -> DensityMatrix:
    """(1/d^n) sum over the generated group of conj(char) w(label).

    The member's characteristic table is supported on the d^rank labels of
    its group, so its inverse Weyl transform is a sum of d^rank monomials:
    one scatter-add of d^rank * d^n terms, in group order, in place of the
    dense transform's d^{3n} work.
    """
    d, n, dim = params.d, params.n, params.dim
    ks = _digit_table(d, member.rank)  # [element, generator] exponents
    gens = np.array([[*g.p, *g.q] for g, _ in member.generators], dtype=np.int64).reshape(-1, 2 * n)
    chars = np.ones(len(ks), dtype=complex)
    for i, (_, char) in enumerate(member.generators):
        chars = chars * char ** ks[:, i]
    labels = (ks @ gens) % d
    rows, phases = _weyl_monomials(params, labels[:, :n], labels[:, n:])
    out = np.zeros((dim, dim), dtype=complex)
    np.add.at(out, (rows, np.broadcast_to(np.arange(dim), rows.shape)), chars.conj()[:, None] * phases)
    return DensityMatrix(params, out / dim)


def _isotropic_family(params: QuditParams) -> StabilizerFamily:
    """Members from the isotropic subspaces of Z_d^{2n} (Gross 2006), n <= 2.

    The lines are the primitive vectors (first nonzero digit 1), in
    lexicographic order.  For n = 2 the planes are the commuting line pairs
    (i, j) whose other d - 1 lines u_i + c u_j all have an index above j: each
    plane once, under its two lowest lines.  Planes come before lines, each
    subspace with its d^rank characters (the first generator's slowest), and
    the maximally mixed member last.
    """
    d, n = params.d, params.n
    digits = _digit_table(d, 2 * n)[1:]
    lead = digits[np.arange(len(digits)), np.argmax(digits > 0, axis=1)]
    lines = digits[lead == 1]  # rows are (p, q)
    subspaces = [(k,) for k in range(len(lines))]
    if n == 2:
        encode = _powers(d, 2 * n)
        line_of = np.empty(d ** (2 * n), dtype=np.int64)  # nonzero vector -> its line
        for a in range(1, d):
            line_of[(a * lines % d) @ encode] = np.arange(len(lines))
        # symplectic form p_u . q_v - q_u . p_v
        gram = (lines[:, :n] @ lines[:, n:].T - lines[:, n:] @ lines[:, :n].T) % d
        i, j = np.nonzero(np.triu(gram == 0, 1))
        others = line_of[((lines[i, None] + np.arange(1, d)[:, None] * lines[j, None]) % d) @ encode]
        keep = others.min(axis=1) > j
        subspaces = list(zip(i[keep].tolist(), j[keep].tolist())) + subspaces
    labels = [WeylIndex(tuple(v[:n]), tuple(v[n:])) for v in lines.tolist()]
    omega = np.exp(2j * np.pi / d)
    chars = [omega**k for k in range(d)]
    family = StabilizerFamily(params)
    for gens in subspaces:
        for js in product(chars, repeat=len(gens)):
            family.members.append(StabilizerMember(len(gens), tuple(zip((labels[g] for g in gens), js))))
    family.members.append(StabilizerMember(rank=0, generators=()))
    return family


def enumerate_stabilizers(params: QuditParams) -> StabilizerFamily:
    """All minimal stabilizer-projection states for (d, n).

    n=1: the d eigenstates of each of the d+1 phase-space lines (all d(d+1)
    pure states) plus the maximally mixed state, cached with their states
    materialized.  d=7, n=2: the 19,600 pure states, the 2,800 rank-one
    projections and the maximally mixed state, built afresh on each call
    (about 0.1 s) with their states materialized on demand.
    """
    params.require_odd()
    if params.n == 1:
        return _single_family(params)
    if params.n == 2 and params.d == 7:
        return _isotropic_family(params)
    raise ValueError(
        f"stabilizer enumeration unsupported for (d={params.d}, n={params.n}); n=2 requires d=7"
    )


@lru_cache(maxsize=None)
def _single_family(params: QuditParams) -> StabilizerFamily:
    """The n=1 family with every state materialized, built once per layout."""
    family = _isotropic_family(params)
    for i in range(len(family)):
        family.state_at(i)
    return family


def stabilizer_family(params: QuditParams) -> StabilizerFamily:
    """Cached n=1 enumeration; raises ValueError for any other n."""
    if params.n != 1:
        raise ValueError(f"the stabilizer family is available for n=1 only, got n={params.n}")
    return _single_family(params)


def pure_stabilizer_projectors(params: QuditParams) -> np.ndarray:
    """Stack (count, dim, dim) of all pure stabilizer projectors (n=1 only)."""
    if params.n != 1:
        raise ValueError("pure stabilizer projector stack is available for n=1 only")
    family = stabilizer_family(params)
    return np.stack([s.matrix for s in family.pure_states()])


# ---------------------------------------------------------------------------
# Mean state, symmetry
# ---------------------------------------------------------------------------


def mean_characteristic_table(table: CharacteristicTable) -> np.ndarray:
    """Keep unit-modulus entries (within UNIT_MODULUS_TOL), zero the rest."""
    keep = np.abs(table.values) >= 1.0 - UNIT_MODULUS_TOL
    return np.where(keep, table.values, 0.0)


def mean_state(rho: DensityMatrix) -> DensityMatrix:
    """Stabilizer state keeping only the unit-modulus characteristic values.

    For n=1 the result is matched against the enumerated family (Frobenius
    distance <= 1e-8) and a RuntimeError raised if it misses.
    """
    table = characteristic_function(rho)
    kept = mean_characteristic_table(table)
    out = inverse_weyl_transform(CharacteristicTable(rho.params, kept))
    out = (out + out.conj().T) / 2
    result = DensityMatrix(rho.params, out)
    if rho.params.n == 1:
        _, dist = stabilizer_family(rho.params).nearest_member_distance(result)
        if dist > MEMBER_MATCH_TOL:
            raise RuntimeError(f"mean state landed {dist:.3e} away from the enumerated family")
    return result


# ---------------------------------------------------------------------------
# Random states and composite environments
# ---------------------------------------------------------------------------


def random_pure_state(params: QuditParams, rng: np.random.Generator) -> DensityMatrix:
    v = rng.normal(size=params.dim) + 1j * rng.normal(size=params.dim)
    return DensityMatrix.from_ket(params, v)


def random_density_matrix(
    params: QuditParams, rng: np.random.Generator, rank: int | None = None
) -> DensityMatrix:
    rank = params.dim if rank is None else rank
    g = rng.normal(size=(params.dim, rank)) + 1j * rng.normal(size=(params.dim, rank))
    m = g @ g.conj().T
    return DensityMatrix(params, m / np.trace(m).real)


# ---------------------------------------------------------------------------
# JSON state files
# ---------------------------------------------------------------------------


def state_to_payload(rho: DensityMatrix) -> dict:
    return {
        "d": rho.params.d,
        "n": rho.params.n,
        "form": "dense",
        "re": rho.matrix.real.tolist(),
        "im": rho.matrix.imag.tolist(),
    }


def state_from_payload(payload: dict) -> DensityMatrix:
    params = QuditParams(int(payload["d"]), int(payload.get("n", 1)))
    form = payload.get("form", "dense")
    if form == "dense":
        m = np.asarray(payload["re"], dtype=float) + 1j * np.asarray(payload["im"], dtype=float)
        return DensityMatrix(params, m)
    if form == "ket":
        amps = np.asarray([complex(re, im) for re, im in payload["amplitudes"]])
        return DensityMatrix.from_ket(params, amps)
    if form == "preset":
        bs = None
        if "s" in payload and "t" in payload:
            bs = BSParams(params, int(payload["s"]), int(payload["t"]))
        return preset_state(payload["preset"], params, bs)
    raise ValueError(f"unknown state form {form!r}")


def write_state(path, rho: DensityMatrix):
    with open(path, "w") as fh:
        json.dump(state_to_payload(rho), fh, sort_keys=True)
        fh.write("\n")


def read_state(path) -> DensityMatrix:
    with open(path) as fh:
        return state_from_payload(json.load(fh))
