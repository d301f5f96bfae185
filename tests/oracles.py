"""Independent reference implementations used as test oracles.

Everything here is deliberately written from first principles (explicit
loops, brute force, bisection, certificates) and must stay decoupled from
the library code paths it checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from qmc.linalg import partial_trace
from qmc.states import DensityMatrix, StabilizerFamily, StabilizerMember, _materialize_member, preset_state
from qmc.weyl import (
    QuditParams,
    WeylIndex,
    WeylMultiplier,
    _dft_tables,
    _digit_table,
    _group_products,
    _stack_groups,
    monomial_conjugate,
    weyl_action,
)

CHOI_PSD_TOL = 1e-10
CHOI_TP_TOL = 1e-10


class Spectrum(NamedTuple):
    """Eigendecomposition with eigenvalues sorted in descending order."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # column k pairs with eigenvalues[k]


def eig_hermitian(matrix: np.ndarray, tol: float = 1e-10) -> Spectrum:
    """Eigendecompose a Hermitian matrix, eigenvalues descending.

    Raises ValueError on non-square or non-Hermitian input (defect above
    ``tol``).
    """
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    defect = float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0
    if defect > tol:
        raise ValueError(f"matrix is not Hermitian (defect {defect:.3e})")
    vals, vecs = np.linalg.eigh(m)
    return Spectrum(vals[::-1].copy(), vecs[:, ::-1].copy())


def max_relative_entropy(rho: np.ndarray, sigma: np.ndarray, cutoff: float = 1e-10) -> float:
    """D_inf(rho||sigma) = log2 min{l : rho <= l*sigma}, in closed form: the
    top eigenvalue of sigma^{-1/2} rho sigma^{-1/2} on the support of sigma
    (eigenvalues above ``cutoff``); +inf when rho leaks outside it."""
    svals, svecs = np.linalg.eigh(sigma)
    on = svals > cutoff
    off = svecs[:, ~on]
    if off.shape[1] and float(np.real(np.trace(off.conj().T @ rho @ off))) > 1e-9:
        return math.inf
    inv_sqrt = svecs[:, on] * svals[on] ** -0.5
    top = float(np.linalg.eigvalsh(inv_sqrt.conj().T @ rho @ inv_sqrt)[-1])
    return math.log2(max(top, 1e-300))


def choi_from_kraus(kraus: list[np.ndarray], input_dim: int) -> np.ndarray:
    """Choi matrix sum_k |K_k>><<K_k| / d_in of a Kraus list, indexed [(r, o), (r', o')]."""
    vecs = np.stack([(k.T / np.sqrt(input_dim)).reshape(-1) for k in kraus])  # [k, (r, o)]
    return vecs.T @ vecs.conj()


def group_dephasing(rho: np.ndarray, generators: list[np.ndarray], order: int) -> np.ndarray:
    """Average of U rho U^dag over every product of powers (0..order-1) of
    the generators; raises ValueError when two generators do not commute."""
    for i, a in enumerate(generators):
        for b in generators[i + 1 :]:
            if np.max(np.abs(a @ b - b @ a)) > 1e-12:
                raise ValueError("generators do not commute")
    elements = [np.eye(rho.shape[0], dtype=complex)]
    for g in generators:
        powers = [np.linalg.matrix_power(g, k) for k in range(order)]
        elements = [u @ e for e in elements for u in powers]
    return sum(u @ rho @ u.conj().T for u in elements) / len(elements)


class PurifiedState(NamedTuple):
    """Joint pure vector on reference x system, reference factor first."""

    ref_dim: int
    vector: np.ndarray

    def reduced(self) -> np.ndarray:
        """The system marginal: Tr_ref |v><v|."""
        joint = self.vector.reshape(self.ref_dim, -1)
        return joint.T @ joint.conj()


def purify(rho: np.ndarray) -> PurifiedState:
    """Eigen-purification with reference dimension equal to rank(rho)."""
    vals, vecs = np.linalg.eigh(rho)
    order = np.argsort(vals)[::-1]
    vals, vecs = vals[order], vecs[:, order]
    rank = max(int(np.sum(vals > 1e-12)), 1)
    joint = np.zeros((rank, rho.shape[0]), dtype=complex)
    for r in range(rank):
        joint[r] = np.sqrt(max(vals[r], 0.0)) * vecs[:, r]
    vec = joint.reshape(-1)
    return PurifiedState(rank, vec / np.linalg.norm(vec))


def partial_trace_loop(matrix: np.ndarray, dims: list[int], keep: list[int]) -> np.ndarray:
    """Direct index-summation partial trace."""
    n = len(dims)
    keep = sorted(keep)
    traced = [i for i in range(n) if i not in keep]
    kept_dim = int(np.prod([dims[k] for k in keep])) if keep else 1
    out = np.zeros((kept_dim, kept_dim), dtype=complex)

    def decompose(flat):
        digits = []
        for d in reversed(dims):
            digits.append(flat % d)
            flat //= d
        return list(reversed(digits))

    def compose(digits, which):
        val = 0
        for i in which:
            val = val * dims[i] + digits[i]
        return val

    total = int(np.prod(dims))
    for a in range(total):
        da = decompose(a)
        for b in range(total):
            db = decompose(b)
            if all(da[i] == db[i] for i in traced):
                out[compose(da, keep), compose(db, keep)] += matrix[a, b]
    return out


def beam_splitter_unitary(d: int, n: int, s: int, t: int) -> np.ndarray:
    """Dense U|i, j> = |s i + t j, -t i + s j> (digitwise mod d) on two
    n-qudit registers, built ket by ket."""
    dim = d**n

    def digits(flat):
        return [(flat // d**k) % d for k in range(n)]

    def encode(digs):
        return sum(v * d**k for k, v in enumerate(digs))

    u = np.zeros((dim * dim, dim * dim), dtype=complex)
    for i in range(dim):
        for j in range(dim):
            di, dj = digits(i), digits(j)
            a = encode([(s * x + t * y) % d for x, y in zip(di, dj)])
            b = encode([(-t * x + s * y) % d for x, y in zip(di, dj)])
            u[a * dim + b, i * dim + j] = 1.0
    return u


def channel_oracle(rho: np.ndarray, sigma: np.ndarray, unitary: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(channel output, complement output): the joint state U (rho x sigma)
    U^dag, with the second or the first register traced out."""
    dim = rho.shape[0]
    joint = unitary @ np.kron(rho, sigma) @ unitary.conj().T
    blocks = joint.reshape(dim, dim, dim, dim)  # [a, b, a', b']
    return np.einsum("abcb->ac", blocks), np.einsum("abad->bd", blocks)


GATHER_BUDGET = 1 << 18  # elements per gathered factor in one chunk of the gather sum


def gather_sum(rho: np.ndarray, sigma: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """out[a, a'] = sum_b rho[i[a, b], i[a', b]] * sigma[j[a, b], j[a', b]].

    With (i, j) a channel's ``gather_indices`` this is the channel (or, with
    the complement's indices, the complement) read off the permutation
    unitary.  The sum runs over chunks of b holding at most
    ``GATHER_BUDGET`` gathered elements per factor.
    """
    dim, width = i.shape
    step = max(1, GATHER_BUDGET // (dim * dim))
    out = np.zeros((dim, dim), dtype=complex)
    for lo in range(0, width, step):
        ib, jb = i[:, lo : lo + step], j[:, lo : lo + step]
        out += np.einsum("xyb,xyb->xy", rho[ib[:, None], ib[None]], sigma[jb[:, None], jb[None]])
    return out


def gather_sum_adjoint(lmat: np.ndarray, sigma: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """The adjoint of rho -> gather_sum(rho, sigma, i, j) under Tr(X^dag Y):
    each term L[a, a'] conj(sigma[j[a, b], j[a', b]]) is added onto the
    position (i[a, b], i[a', b]) that the forward sum reads."""
    dim = i.shape[0]
    terms = lmat[:, :, None] * sigma[j[:, None, :], j[None, :, :]].conj()
    out = np.zeros((dim, dim), dtype=complex)
    np.add.at(out, (i[:, None, :], i[None, :, :]), terms)
    return out


def _outer_blocks(purifier: np.ndarray):
    for k in range(purifier.shape[1]):
        for l in range(purifier.shape[1]):
            yield k, l, np.outer(purifier[:, k], purifier[:, l].conj())


def purified_gather_sum(rho: np.ndarray, purifier: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """The map onto the kept output and the purifier of sigma = P P^dag,
    indexed [(a, k), (a', l)]: block (k, l) is ``gather_sum`` with the
    rank-one p_k p_l^dag in place of sigma."""
    dim, rank = purifier.shape
    out = np.zeros((dim, rank, dim, rank), dtype=complex)
    for k, l, block in _outer_blocks(purifier):
        out[:, k, :, l] = gather_sum(rho, block, i, j)
    return out.reshape(dim * rank, dim * rank)


def purified_gather_sum_adjoint(lmat: np.ndarray, purifier: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """The adjoint of ``purified_gather_sum``, block by block."""
    dim, rank = purifier.shape
    blocks = lmat.reshape(dim, rank, dim, rank)
    return sum(gather_sum_adjoint(blocks[:, k, :, l], block, i, j) for k, l, block in _outer_blocks(purifier))


def stinespring_isometry(unitary: np.ndarray, env_ket: np.ndarray) -> np.ndarray:
    """V = U (1 x |env>): the (dim^2, dim) isometry of a pure environment."""
    dim = env_ket.shape[0]
    return unitary @ np.kron(np.eye(dim), env_ket.reshape(dim, 1))


ROUND_OFF_EIGENVALUE = 1e-14  # environment eigenvalues at or below this are round-off of zero


def monomial_take(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(cols, phases) with matrix[r, cols[r]] = phases[r] the one nonzero of
    row r, so that matrix @ x is phases[:, None] * x[cols]; asserts that the
    matrix is monomial (one nonzero per row and per column)."""
    cols = np.argmax(matrix != 0, axis=1)
    assert np.count_nonzero(matrix) == len(matrix) and np.array_equal(np.sort(cols), np.arange(len(matrix)))
    return cols, matrix[np.arange(len(matrix)), cols]


def reference_output_dense(psi: np.ndarray, sigma: np.ndarray, unitary: np.ndarray) -> np.ndarray:
    """(id x channel)(|psi><psi|) for psi[r, x], indexed [(r, a), (r', a')]:
    the dense unitary applied to psi[r] x v_k for each eigenvector v_k of the
    environment, weighted by its eigenvalue, with the traced register summed
    out.  The unitary must be a 0/1 permutation (asserted), so it is applied
    as a row take.  Eigenvalues at or below ``ROUND_OFF_EIGENVALUE`` are
    skipped: each adds at most that much times a unit-trace term."""
    refs, dim = psi.shape
    take, ones = monomial_take(unitary)
    assert np.all(ones == 1)
    vals, vecs = np.linalg.eigh(sigma)
    out = np.zeros((refs * dim, refs * dim), dtype=complex)
    for val, env in zip(vals, vecs.T):
        if val <= ROUND_OFF_EIGENVALUE:
            continue
        joint = np.kron(psi, env).T[take]  # U (psi[r] x v_k), [(a, b), r]
        amp = joint.reshape(dim, dim, refs).transpose(2, 0, 1).reshape(refs * dim, dim)
        out += val * (amp @ amp.conj().T)
    return out


def entanglement_fidelity_loop(
    encoding: np.ndarray, kraus, sigma: np.ndarray, unitary: np.ndarray
) -> float:
    """<phi| sum_A (1 x A) J (1 x A)^dag |phi>, one lifted Kraus operator at a
    time: J is the reference/output state of the encoded maximally entangled
    vector and phi the maximally entangled vector on K x K."""
    k = encoding.shape[1]
    joint = reference_output_dense(encoding.T / math.sqrt(k), sigma, unitary)
    decoded = np.zeros((k * k, k * k), dtype=complex)
    for kr in kraus:
        lifted = np.kron(np.eye(k), kr)
        decoded += lifted @ joint @ lifted.conj().T
    phi = np.eye(k, dtype=complex).reshape(-1) / math.sqrt(k)
    return float(np.real(phi.conj() @ decoded @ phi))


def dump_kraus_loop(logical_dim: int, dim: int, used: list[np.ndarray], cut: float = 1e-12) -> list[np.ndarray]:
    """Kraus operators sending the subspace a partial decoder leaves
    unaddressed (eigenvalues of 1 - sum A^dag A above ``cut``) to logical 0,
    one eigenvector at a time."""
    total = sum(kr.conj().T @ kr for kr in used) if used else np.zeros((dim, dim), dtype=complex)
    vals, vecs = np.linalg.eigh(np.eye(dim) - total)
    out = []
    for val, vec in zip(vals, vecs.T):
        if val > cut:
            kr = np.zeros((logical_dim, dim), dtype=complex)
            kr[0] = math.sqrt(val) * vec.conj()
            out.append(kr)
    return out


def pgm_decoder_loop(encoding: np.ndarray, sigma: np.ndarray, unitary: np.ndarray) -> list[np.ndarray]:
    """Pretty-good-measurement decoder, one channel output and one
    eigendecomposition per encoded ket, completed by ``dump_kraus_loop``.
    Eigenvalue cuts: 1e-12 of the output sum's largest eigenvalue for its
    support, 1e-14 times its condition number for the measurement operators
    and the dump."""
    dim, k = encoding.shape
    outputs = [reference_output_dense(encoding[:, i][None], sigma, unitary) for i in range(k)]
    vals, vecs = np.linalg.eigh(sum(outputs))
    floor = 1e-12 * max(vals)
    inv_sqrt = (vecs * [(v**-0.5 if v > floor else 0.0) for v in vals]) @ vecs.conj().T
    cut = 1e-14 * max(vals) / min(v for v in vals if v > floor)
    kraus = []
    for i, out in enumerate(outputs):
        m = inv_sqrt @ out @ inv_sqrt
        mvals, mvecs = np.linalg.eigh((m + m.conj().T) / 2)
        for val, vec in zip(mvals, mvecs.T):
            if val > cut:
                kr = np.zeros((k, dim), dtype=complex)
                kr[i] = math.sqrt(val) * vec.conj()
                kraus.append(kr)
    return kraus + dump_kraus_loop(k, dim, kraus, cut)


def random_isometry_loop(dim: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    """Orthonormal columns from one complex Gaussian draw (real parts, then
    imaginary parts), by QR with the signs of R's diagonal moved into Q."""
    g = rng.normal(size=(dim, cols)) + 1j * rng.normal(size=(dim, cols))
    q, r = np.linalg.qr(g)
    return q[:, :cols] * np.sign(np.diagonal(r)[None, :cols].real + 1e-300)


def _trial_codes_loop(rng, dim: int, k: int, sigma: np.ndarray, unitary: np.ndarray):
    """One search trial's (decoder name, encoding, Kraus list) pairs: a random
    encoding with its PGM decoder, then a random-relabel decoder measuring in
    the columns of a random unitary, outcome c folded onto logical c mod K."""
    enc = random_isometry_loop(dim, k, rng)
    pgm = pgm_decoder_loop(enc, sigma, unitary)
    u = random_isometry_loop(dim, dim, rng)
    relabel = []
    for c in range(dim):
        kr = np.zeros((k, dim), dtype=complex)
        kr[c % k] = u[:, c].conj()
        relabel.append(kr)
    return [("pgm", enc, pgm), ("random-relabel", enc, relabel)]


def ceiling_search_loop(
    family, bsparams, logical_dim: int, trials: int, seed: int, unitary: np.ndarray, baseline: bool = True
):
    """``stabilizer_ceiling_search`` one trial and one code at a time, through
    ``pgm_decoder_loop`` and ``entanglement_fidelity_loop`` on the dense
    beam-splitter ``unitary``; the best code is the first strict improvement.
    With ``baseline`` false the 1/K construction is left out, so the best
    is the best trial."""
    from qmc.coding import SearchReport, stabilizer_code_construction

    params = family.params
    rng = np.random.default_rng(seed)
    best, best_desc, first = -math.inf, "none", -math.inf
    if baseline:
        code = stabilizer_code_construction(params, bsparams, logical_dim)
        zero = preset_state("ket-zero", params).matrix
        best = first = entanglement_fidelity_loop(code.encoding, code.kraus, zero, unitary)
        best_desc = "computational-ket construction on the all-zeros environment"
    for trial in range(trials):
        env = trial % len(family)
        sigma = family.state_at(env).matrix
        for name, enc, kraus in _trial_codes_loop(rng, params.dim, logical_dim, sigma, unitary):
            value = entanglement_fidelity_loop(enc, kraus, sigma, unitary)
            if value > best:
                best, best_desc = value, f"trial {trial} ({name} decoder, environment {env})"
    return SearchReport(best, best_desc, first, 1.0 / logical_dim, 1e-6, trials)


def ratio_search_loop(sigma, bsparams, logical_dim: int, trials: int, seed: int, unitary: np.ndarray):
    """``fidelity_ratio_bound_check`` one trial and one code at a time: the
    constructions as probes, then the trials of ``ceiling_search_loop`` all
    on the one environment sigma."""
    from qmc.coding import SearchReport, magic_code_construction, stabilizer_code_construction
    from qmc.magic import mrm_inf

    params, matrix = sigma.params, sigma.matrix
    magic_bits = mrm_inf(sigma)
    probes = [("computational-ket construction", stabilizer_code_construction(params, bsparams, logical_dim))]
    if logical_dim == 2 and bsparams.nontrivial and (bsparams.s**2 - bsparams.t**2) % params.d != 0:
        probes.append(("magic two-ket construction", magic_code_construction(bsparams)[1]))
    best, best_desc = -math.inf, "none"
    for name, code in probes:
        value = entanglement_fidelity_loop(code.encoding, code.kraus, matrix, unitary)
        if value > best:
            best, best_desc = value, name
    rng = np.random.default_rng(seed)
    for trial in range(trials):
        for name, enc, kraus in _trial_codes_loop(rng, params.dim, logical_dim, matrix, unitary):
            value = entanglement_fidelity_loop(enc, kraus, matrix, unitary)
            if value > best:
                best, best_desc = value, f"trial {trial} ({name} decoder)"
    return SearchReport(
        best, best_desc, 1.0 / logical_dim, 2.0**magic_bits / logical_dim, 1e-6, trials, {"magic_bits": magic_bits}
    )


def code_to_payload(code) -> dict:
    """A CodeSpec as nested [re, im] lists: encoding by column, decoding by Kraus row."""
    return {
        "K": code.logical_dim,
        "encoding": [[[float(a.real), float(a.imag)] for a in col] for col in code.encoding.T],
        "decoding": [
            [[[float(a.real), float(a.imag)] for a in row] for row in kr] for kr in code.kraus
        ],
    }


def code_from_payload(payload: dict):
    """Inverse of ``code_to_payload``; the CodeSpec constructor re-checks the code."""
    from qmc.coding import CodeSpec

    cols = [np.array([complex(re, im) for re, im in col]) for col in payload["encoding"]]
    kraus = tuple(
        np.array([[complex(re, im) for re, im in row] for row in kr]) for kr in payload["decoding"]
    )
    return CodeSpec(int(payload["K"]), np.stack(cols, axis=1), kraus)


def dinf_bisection(rho: np.ndarray, sigma: np.ndarray, iters: int = 60) -> float:
    """log2 of the smallest l with l*sigma - rho PSD, by bisection on l."""

    def feasible(l):
        return np.linalg.eigvalsh(l * sigma - rho)[0] >= -1e-12

    hi = 1.0
    while not feasible(hi):
        hi *= 2.0
        if hi > 1e9:
            return math.inf
    lo = 0.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return math.log2(hi)


def classify_weyl_image(conjugated: np.ndarray, weyl_ops: dict) -> tuple | None:
    """Identify U w U^dag as phase * w(label); None when it is not one.

    ``weyl_ops`` maps labels to dense Weyl matrices.  Uses the orthonormality
    of the Weyl basis: exactly one coefficient of unit modulus.
    """
    dim = conjugated.shape[0]
    hits = []
    for label, op in weyl_ops.items():
        coeff = np.trace(op.conj().T @ conjugated) / dim
        if abs(coeff) > 1e-8:
            hits.append((label, coeff))
    if len(hits) != 1:
        return None
    label, coeff = hits[0]
    if abs(abs(coeff) - 1.0) > 1e-9:
        return None
    return label, coeff


# ---------------------------------------------------------------------------
# Stabilizer enumeration: one loop per layout, lines spanned by hand
# ---------------------------------------------------------------------------


def _line_directions(params) -> list[WeylIndex]:
    """One primitive representative per line through the phase-space origin (n=1)."""
    d = params.d
    dirs = [WeylIndex.make(params, 0, 1)]
    dirs += [WeylIndex.make(params, 1, m) for m in range(d)]
    return dirs


def enumerate_single_reference(params) -> StabilizerFamily:
    """n=1 family: d characters per line direction, the maximally mixed state
    last, states materialized eagerly (the maximally mixed one as a preset)."""
    d = params.d
    omega = np.exp(2j * np.pi / d)
    family = StabilizerFamily(params)
    for direction in _line_directions(params):
        for j in range(d):
            member = StabilizerMember(rank=1, generators=((direction, omega**j),))
            member.state = _materialize_member(params, member)
            family.members.append(member)
    family.members.append(
        StabilizerMember(rank=0, generators=(), state=preset_state("maximally-mixed", params))
    )
    return family


def _primitive_points(d: int, n: int) -> list[tuple[int, ...]]:
    """One representative per line through the origin of Z_d^{2n}."""
    digits = _digit_table(d, 2 * n)
    reps = []
    seen = set()
    for row in digits[1:]:
        vec = tuple(int(v) for v in row)
        if vec in seen:
            continue
        # canonicalize: first nonzero component scaled to 1
        lead = next(v for v in vec if v)
        inv = pow(lead, -1, d)
        canon = tuple((inv * v) % d for v in vec)
        if canon not in seen:
            reps.append(canon)
        for k in range(1, d):
            seen.add(tuple((k * v) % d for v in vec))
    return reps


def enumerate_two_reference(params) -> StabilizerFamily:
    """n=2 family: every commuting pair of lines, its span keyed by the full
    set of d^2 points so that each plane is kept once (first pair seen), then
    the lines and the maximally mixed state; states left unmaterialized."""
    d, n = params.d, params.n
    points = _primitive_points(d, n)
    omega = np.exp(2j * np.pi / d)

    def symp(u, v):
        return sum(u[i] * v[n + i] - v[i] * u[n + i] for i in range(n)) % d

    def label(vec):
        return WeylIndex.make(params, vec[:n], vec[n:])

    planes = {}
    for i, u in enumerate(points):
        for v in points[i + 1 :]:
            if symp(u, v) != 0:
                continue
            span = set()
            for a in range(d):
                for b in range(d):
                    span.add(tuple((a * u[k] + b * v[k]) % d for k in range(len(u))))
            key = tuple(sorted(span))
            planes.setdefault(key, (u, v))

    family = StabilizerFamily(params)
    for u, v in planes.values():
        gu, gv = label(u), label(v)
        for ja in range(d):
            for jb in range(d):
                family.members.append(
                    StabilizerMember(rank=2, generators=((gu, omega**ja), (gv, omega**jb)))
                )
    for u in points:
        gu = label(u)
        for j in range(d):
            family.members.append(StabilizerMember(rank=1, generators=((gu, omega**j),)))
    family.members.append(StabilizerMember(rank=0, generators=()))
    return family


# ---------------------------------------------------------------------------
# Phase-space transforms, one Weyl monomial per point (the library's
# weyl_action), in place of its DFT kernel
# ---------------------------------------------------------------------------


def _digit_rows(params) -> np.ndarray:
    """Base-d digits of 0..d^n-1, most significant first, one row each."""
    return np.stack(np.unravel_index(np.arange(params.dim), (params.d,) * params.n), axis=1)


def _negation(params) -> np.ndarray:
    """Flat index of -x for every flat index x of Z_d^n."""
    shape = (params.d,) * params.n
    return np.ravel_multi_index(tuple((-_digit_rows(params) % params.d).T), shape)


def _phase_space_labels(params):
    """Every phase-space point as (enc(p), enc(q), WeylIndex), row-major."""
    digits = [tuple(int(v) for v in row) for row in _digit_rows(params)]
    for pe, p in enumerate(digits):
        for qe, q in enumerate(digits):
            yield pe, qe, WeylIndex(p, q)


def table_value(table, x) -> complex:
    """Xi(x) read off a ``CharacteristicTable`` at one point, from ``values[enc(p), enc(q)]``."""
    shape = (table.params.d,) * table.params.n
    return complex(table.values[np.ravel_multi_index(x.p, shape), np.ravel_multi_index(x.q, shape)])


def characteristic_value(params, m: np.ndarray, x) -> complex:
    """Xi(x) = Tr[rho w(-x)] at one point."""
    rows, phases = weyl_action(params, x.neg(params.d))
    # Tr[rho w] for monomial w = sum_k phases[k] |rows[k]><k|
    return np.sum(phases * m[np.arange(params.dim), rows])


def characteristic_function_loop(params, m: np.ndarray) -> np.ndarray:
    """The characteristic table [enc(p), enc(q)], point by point."""
    values = np.empty((params.dim, params.dim), dtype=complex)
    for pe, qe, x in _phase_space_labels(params):
        values[pe, qe] = characteristic_value(params, m, x)
    return values


def inverse_weyl_transform_loop(params, values: np.ndarray) -> np.ndarray:
    """(1/d^n) sum_x Xi(x) w(x), one monomial at a time."""
    dim = params.dim
    out = np.zeros((dim, dim), dtype=complex)
    cols = np.arange(dim)
    for pe, qe, x in _phase_space_labels(params):
        rows, phases = weyl_action(params, x)
        out[rows, cols] += values[pe, qe] * phases
    return out / dim


def wigner_function_loop(params, m: np.ndarray) -> np.ndarray:
    """W(x) = Tr[rho w(x) A0 w(x)^dag] point by point, complex (no residue check)."""
    neg = _negation(params)
    values = np.empty((params.dim, params.dim), dtype=complex)
    for pe, qe, x in _phase_space_labels(params):
        rows, phases = weyl_action(params, x)
        # Tr[rho w A0 w^dag] = sum_a conj(ph[a]) ph[neg a] rho[rows[a], rows[neg a]]
        values[pe, qe] = np.sum(phases.conj() * phases[neg] * m[rows, rows[neg]])
    return values


def parity_operator(params) -> np.ndarray:
    """The zero-point phase-space operator: the permutation |k> -> |-k>."""
    dim = params.dim
    out = np.zeros((dim, dim), dtype=complex)
    out[_negation(params), np.arange(dim)] = 1.0
    return out


def phase_point_operator(params, x) -> np.ndarray:
    """A(x) = w(x) A(0) w(x)^dag, with A(0) the parity |k> -> |-k>, as dense products."""
    dim = params.dim
    cols = np.arange(dim)
    a0 = parity_operator(params)
    rows, phases = weyl_action(params, x)
    w = np.zeros((dim, dim), dtype=complex)
    w[rows, cols] = phases
    return w @ a0 @ w.conj().T


def is_phase_inversion_symmetric(params, m: np.ndarray, tol: float = 1e-9) -> bool:
    """True when conjugation by the parity |k> -> |-k> fixes the state.

    Tested both on the matrix and as Xi(x) = Xi(-x) on the point-by-point
    characteristic table; raises RuntimeError when the two routes disagree.
    """
    neg = _negation(params)
    direct = float(np.linalg.norm(m[np.ix_(neg, neg)] - m))
    table = characteristic_function_loop(params, m)
    spectral = float(np.max(np.abs(table - table[np.ix_(neg, neg)])))
    direct_ok = direct <= tol
    spectral_ok = spectral <= 10 * tol  # the table route accumulates slightly more noise
    if direct_ok != spectral_ok:
        raise RuntimeError(
            f"symmetry routes disagree: matrix distance {direct:.3e}, table distance {spectral:.3e}"
        )
    return direct_ok


def symplectic_ft_wigner(rho: np.ndarray, d: int, n: int, char_fn) -> np.ndarray:
    """Wigner table as the symplectic Fourier transform of the characteristic
    table, with explicit integer loops.

    ``char_fn(p_vec, q_vec)`` must return Xi at that point.  Output is
    indexed like the library table: [enc(p), enc(q)].
    """
    dim = d**n
    omega = np.exp(2j * np.pi / d)

    def digits(flat):
        out = []
        for _ in range(n):
            out.append(flat % d)
            flat //= d
        return list(reversed(out))

    table = np.zeros((dim, dim), dtype=complex)
    for pe in range(dim):
        pu = digits(pe)
        for qe in range(dim):
            qu = digits(qe)
            acc = 0.0 + 0.0j
            for pv_e in range(dim):
                pv = digits(pv_e)
                for qv_e in range(dim):
                    qv = digits(qv_e)
                    form = sum(pu[i] * qv[i] - pv[i] * qu[i] for i in range(n)) % d
                    acc += omega ** (-form) * char_fn(pv, qv)
            table[pe, qe] = acc / dim
    assert np.max(np.abs(table.imag)) < 1e-9
    return table.real


# ---------------------------------------------------------------------------
# Dense operators: Weyl matrices from their definition, the covariance and
# Choi identities as dense kron products, and word-based Clifford sampling
# ---------------------------------------------------------------------------


def shift_matrix(d: int) -> np.ndarray:
    """X |k> = |k + 1 mod d>."""
    return np.roll(np.eye(d, dtype=complex), 1, axis=0)


def clock_matrix(d: int) -> np.ndarray:
    """Z |k> = w^k |k>."""
    return np.diag(np.exp(2j * np.pi / d) ** np.arange(d))


def weyl_dense(params, x) -> np.ndarray:
    """w(p, q) = w^{-h p q} Z^p X^q per qudit, kron over the qudits (most
    significant first), multiplied out as dense matrices."""
    d = params.d
    omega, h = np.exp(2j * np.pi / d), (d + 1) // 2
    out = np.eye(1, dtype=complex)
    for p, q in zip(x.p, x.q):
        local = np.linalg.matrix_power(clock_matrix(d), p) @ np.linalg.matrix_power(shift_matrix(d), q)
        out = np.kron(out, omega ** ((-h * p * q) % d) * local)
    return out


def covariance_mismatch_loop(d: int, s: int, t: int, label_map) -> int:
    """Dense reference for the lemma suite's covariance count: the number of
    (label pair, column) entries where U kron(w(a), w(b)) U^dag and
    kron(w(a'), w(b')) differ by more than 1e-9, over all d^4 single-qudit
    label pairs, with (a', b') = label_map (a, b) and U the dense beam
    splitter of weights (s, t)."""
    params = QuditParams(d)
    side = d * d
    inv = np.argmax(np.abs(beam_splitter_unitary(d, 1, s, t)), axis=1)  # U[x, inv[x]] = 1
    gather = (inv[:, None] * side + inv[None, :]).reshape(-1)  # (U M U^dag)[x, y] = M[inv x, inv y]
    ops = {(p, q): weyl_dense(params, WeylIndex((p,), (q,))) for p in range(d) for q in range(d)}
    (m00, m01), (m10, m11) = label_map
    count = 0
    for (pa, qa), wa in ops.items():
        for (pb, qb), wb in ops.items():
            lhs = np.kron(wa, wb).take(gather)
            wa2 = ops[((m00 * pa + m01 * pb) % d, (m00 * qa + m01 * qb) % d)]
            wb2 = ops[((m10 * pa + m11 * pb) % d, (m10 * qa + m11 * qb) % d)]
            differs = np.abs(lhs - np.kron(wa2, wb2).reshape(-1)) > 1e-9
            count += int(np.count_nonzero(differs.reshape(side, side).any(axis=0)))
    return count


def phase_inversion(rho: DensityMatrix) -> DensityMatrix:
    """Conjugation by the parity |k> -> |-k>: a relabel of rows and columns."""
    neg = _negation(rho.params)
    return DensityMatrix(rho.params, rho.matrix[np.ix_(neg, neg)])


def displace(rho: DensityMatrix, x: WeylIndex) -> DensityMatrix:
    """w(x) rho w(x)^dag, with w(x) in its (rows, phases) monomial form."""
    rows, phases = weyl_action(rho.params, x)
    return DensityMatrix(rho.params, monomial_conjugate(rho.matrix, rows, phases))


def choi_dense(sigma: np.ndarray, unitary: np.ndarray, complement: bool = False, post_unitary=None) -> np.ndarray:
    """Choi matrix [(r, o), (r', o')] of rho -> Tr_2[U (rho x sigma) U^dag]
    (the complement traces out the first register instead), from the dense
    unitary; a dense monomial post-unitary V (asserted) then conjugates it by
    kron(1, V), applied as a take of the output rows and columns with V's
    phases."""
    dim = sigma.shape[0]
    if complement:  # swap the output registers: row (a, b) becomes row (b, a)
        unitary = unitary.reshape(dim, dim, -1).transpose(1, 0, 2).reshape(dim * dim, -1)
    out = reference_output_dense(np.eye(dim) / math.sqrt(dim), sigma, unitary)
    if post_unitary is not None:
        take, phases = monomial_take(post_unitary)
        blocks = out.reshape(dim, dim, dim, dim)[:, take][..., take]  # [r, a, r', a'] at V's columns
        out = (phases[:, None, None] * blocks * phases.conj()).reshape(dim * dim, dim * dim)
    return out


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


def choi_stinespring(chan, complement: bool = False) -> ChoiMatrix:
    """Choi matrix of a ``BeamSplitterChannel`` as its dense reference/output
    state of the maximally entangled input, indexed [(r, a), (r', a')]."""
    dim = chan.params.dim
    return ChoiMatrix(dim, dim, chan.reference_output(np.eye(dim, dtype=complex) / np.sqrt(dim), complement))


def choi_table_dense(table) -> np.ndarray:
    """The Choi matrix dim^-2 sum_y c_y conj(w(x_y)) x w(y) of a
    ``ChoiTable``, indexed [(r, a), (r', a')], summed term by term from the
    ``weyl_dense`` matrices.  Each is monomial, so each Kronecker product is
    written as its dim^2 nonzero entries."""
    params = table.params
    d, dim, digits = params.d, params.dim, _digit_table(params.d, params.n)
    local = {(p, q): weyl_dense(QuditParams(d), WeylIndex((p,), (q,))) for p in range(d) for q in range(d)}

    def dense(flat: int) -> np.ndarray:  # weyl_dense: the locals' kron, most significant qudit first
        out = np.eye(1, dtype=complex)
        for p, q in zip(digits[flat // dim], digits[flat % dim]):
            out = np.kron(out, local[p, q])
        return out

    cols = np.arange(dim)
    pairs = (cols[:, None] * dim + cols).reshape(-1)  # (r', a') -> r' dim + a'
    out = np.zeros((dim * dim, dim * dim), dtype=complex)
    for y in range(dim * dim):
        wx, wy = dense(int(table.labels.flat[y])).conj(), dense(y)
        rx, ry = np.argmax(np.abs(wx), axis=0), np.argmax(np.abs(wy), axis=0)  # the nonzero row of each column
        out[(rx[:, None] * dim + ry).reshape(-1), pairs] += table.coeffs.flat[y] * np.outer(wx[rx, cols], wy[ry, cols]).reshape(-1)
    return out / dim**2


def fourier_matrix(d: int) -> np.ndarray:
    """F[k, j] = w^{-kj}/sqrt(d); satisfies F Z F^dag = X exactly."""
    omega = np.exp(2j * np.pi / d)
    k = np.arange(d)
    return omega ** (-np.outer(k, k) % d) / np.sqrt(d)


def quadratic_phase_matrix(d: int) -> np.ndarray:
    """diag(w^{h k^2}) with h = (d+1)/2; maps X to w(1,1) under conjugation."""
    omega = np.exp(2j * np.pi / d)
    h = (d + 1) // 2
    k = np.arange(d)
    return np.diag(omega ** ((h * k * k) % d))


def _embed(params, local: np.ndarray, wire: int) -> np.ndarray:
    mats = [np.eye(params.d, dtype=complex)] * params.n
    mats[wire] = local
    out = mats[0]
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


def _cx_matrix(params, control: int, target: int) -> np.ndarray:
    shifted = _digit_rows(params).copy()
    shifted[:, target] = (shifted[:, target] + shifted[:, control]) % params.d
    rows = np.ravel_multi_index(tuple(shifted.T), (params.d,) * params.n)
    out = np.zeros((params.dim, params.dim), dtype=complex)
    out[rows, np.arange(params.dim)] = 1.0
    return out


def clifford_generators(params) -> dict[str, np.ndarray]:
    """Named generating set: Fourier, quadratic phase, shift/clock displacements, CX."""
    params.require_odd()
    d = params.d
    f, p = fourier_matrix(d), quadratic_phase_matrix(d)
    x, z = shift_matrix(d), clock_matrix(d)
    if params.n == 1:
        return dict(F=f, P=p, X=x, Z=z)
    gens: dict[str, np.ndarray] = {}
    for wire in range(params.n):
        gens[f"F{wire}"] = _embed(params, f, wire)
        gens[f"P{wire}"] = _embed(params, p, wire)
        gens[f"X{wire}"] = _embed(params, x, wire)
        gens[f"Z{wire}"] = _embed(params, z, wire)
    for c in range(params.n):
        for t in range(params.n):
            if c != t:
                gens[f"CX{c}{t}"] = _cx_matrix(params, c, t)
    return gens


def clifford_from_word(params, word: Sequence[str]) -> np.ndarray:
    """Multiply out a word over the generator alphabet; empty word gives identity."""
    gens = clifford_generators(params)
    out = np.eye(params.dim, dtype=complex)
    for token in word:
        if token not in gens:
            raise ValueError(f"unknown generator {token!r}; choose from {sorted(gens)}")
        out = gens[token] @ out
    return out


def random_clifford(params, seed, length: int = 24) -> np.ndarray:
    """Unitary from a random generator word of the given length (>= 20).

    Sampling is word-based, not uniform over the Clifford group; callers only
    rely on the conjugation action (Weyl -> phase times Weyl).
    """
    if params.n > 2:
        raise ValueError("Clifford sampling supports n in {1, 2}")
    if length < 20:
        raise ValueError("word length below 20 gives poor mixing; use >= 20")
    rng = np.random.default_rng(seed)
    names = sorted(clifford_generators(params))
    word = [names[i] for i in rng.integers(0, len(names), size=length)]
    return clifford_from_word(params, word)


def conjugated(rho: DensityMatrix, unitary: np.ndarray) -> DensityMatrix:
    """U rho U^dag by dense products."""
    return DensityMatrix(rho.params, unitary @ rho.matrix @ unitary.conj().T)


def clifford_dressed_environment(
    params, magic: DensityMatrix, copies: int, seed=None, word: Sequence[str] | None = None
) -> DensityMatrix:
    """k copies of a single-qudit state padded with |0>, optionally Clifford-rotated."""
    if magic.params.n != 1 or magic.params.d != params.d:
        raise ValueError("the repeated factor must be a single qudit of matching dimension")
    if not 1 <= copies <= params.n:
        raise ValueError(f"copies={copies} must lie in 1..{params.n}")
    state = magic
    for _ in range(copies - 1):
        state = state.tensor(magic)
    pad = preset_state("ket-zero", QuditParams(params.d, 1))
    for _ in range(params.n - copies):
        state = state.tensor(pad)
    if word is not None:
        return conjugated(state, clifford_from_word(params, word))
    if seed is not None:
        return conjugated(state, random_clifford(params, seed))
    return state


# ---------------------------------------------------------------------------
# Certificate-based bracket for the stabilizer-hull weight program
# ---------------------------------------------------------------------------


def _project_simplex(v: np.ndarray, total: float) -> np.ndarray:
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - total
    ks = np.arange(1, len(v) + 1)
    cond = u - css / ks > 0
    k = ks[cond][-1]
    tau = css[k - 1] / k
    return np.clip(v - tau, 0.0, None)


def stabilizer_weight_bracket(
    rho: np.ndarray,
    projectors: np.ndarray,
    lo: float = 1.0,
    hi: float = 8.0,
    bisections: int = 18,
    iters: int = 2500,
) -> tuple[float, float]:
    """Certified bracket [w_lo, w_hi] around min{sum y : sum y_i P_i >= rho}.

    Bisection on the total weight; each probe runs accelerated projected
    gradient on the squared distance to the PSD cone over the scaled simplex.
    Upper certificates rescale feasible points and re-check the residual
    eigenvalues directly; lower certificates are PSD witnesses Z with
    Tr[Z rho] > W * max_i Tr[Z P_i].  Both certificates are verified by
    plain eigendecompositions, independent of optimizer quality.
    """
    count = projectors.shape[0]
    gram = np.real(np.einsum("ijk,lkj->il", projectors, projectors))
    lipschitz = 2 * float(np.linalg.eigvalsh(gram)[-1])

    def pgd(total):
        y = _project_simplex(np.full(count, total / count), total)
        y_accel, y_prev, t_prev = y.copy(), y.copy(), 1.0
        best_f, best_y, best_witness = math.inf, y.copy(), None
        for _ in range(iters):
            m = np.einsum("i,ijk->jk", y_accel, projectors) - rho
            m = (m + m.conj().T) / 2
            vals, vecs = np.linalg.eigh(m)
            neg = vals < 0
            f = float(np.sum(vals[neg] ** 2))
            negative_part = (vecs[:, neg] * vals[neg]) @ vecs[:, neg].conj().T
            grad = 2 * np.real(np.einsum("jk,ikj->i", negative_part, projectors))
            y_new = _project_simplex(y_accel - grad / lipschitz, total)
            t = (1 + math.sqrt(1 + 4 * t_prev**2)) / 2
            y_accel = y_new + ((t_prev - 1) / t) * (y_new - y_prev)
            y_prev, t_prev = y_new, t
            if f < best_f:
                best_f, best_y, best_witness = f, y_new.copy(), -negative_part
            if f < 1e-26:
                break
        return best_y, best_f, best_witness

    def certify_upper(y):
        a = np.einsum("i,ijk->jk", y, projectors)
        a = (a + a.conj().T) / 2
        vals, vecs = np.linalg.eigh(a)
        on = vals > 1e-12
        off = vecs[:, ~on]
        if off.shape[1]:
            outside = float(np.real(np.einsum("ij,jk,ik->", off.conj().T, rho, off.T)))
            if outside > 1e-11:
                return math.inf
        half = vecs[:, on] * vals[on] ** -0.5
        lam = float(np.linalg.eigvalsh(half.conj().T @ rho @ half)[-1])
        scaled = lam * y
        resid = np.einsum("i,ijk->jk", scaled, projectors) - rho
        if np.linalg.eigvalsh((resid + resid.conj().T) / 2)[0] < -1e-9:
            return math.inf
        return float(scaled.sum())

    def certify_lower(z):
        z = (z + z.conj().T) / 2
        if np.linalg.eigvalsh(z)[0] < -1e-14:
            return 0.0
        num = float(np.real(np.trace(z @ rho)))
        den = float(max(np.real(np.einsum("ijk,kj->i", projectors, z)).max(), 1e-300))
        return num / den

    w_lo, w_hi = 0.0, math.inf
    for _ in range(bisections):
        mid = 0.5 * (lo + hi)
        y, f, witness = pgd(mid)
        if witness is not None:
            w_lo = max(w_lo, certify_lower(witness))
        w_hi = min(w_hi, certify_upper(y))
        if f < 1e-18:
            hi = mid
        else:
            lo = mid
    if not math.isfinite(w_hi):
        y, _, _ = pgd(hi)
        w_hi = certify_upper(y)
    return w_lo, w_hi


def ic_gradient_fd(value, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar function of a real vector,
    one coordinate at a time."""
    grad = np.empty_like(x)
    for k in range(x.size):
        bump = np.zeros_like(x)
        bump[k] = eps
        grad[k] = (value(x + bump) - value(x - bump)) / (2 * eps)
    return grad


# ---------------------------------------------------------------------------
# Bitwise parity references: the constructions the library's cached tables
# and purifiers must reproduce byte for byte
# ---------------------------------------------------------------------------


def purifiers(states: np.ndarray) -> np.ndarray:
    """P[..., :, :] with sigma = P P^dag for a stack of states, by one stacked
    eigensolve: columns sqrt(lambda_k) v_k (ascending) for the eigenvalues
    above 1e-14, dropped columns zeroed by the product, cut to the stack's
    largest rank."""
    vals, vecs = np.linalg.eigh(states)
    keep = vals > 1e-14
    cols = vecs * np.sqrt(np.where(keep, vals, 0.0))[..., None, :]
    return np.ascontiguousarray(cols[..., cols.shape[-1] - int(keep.sum(axis=-1).max()) :])


def multiplier_from_matrices(params: QuditParams, blocks) -> WeylMultiplier:
    """The ``WeylMultiplier`` of blocks (a, E, b, r) given as environment block
    matrices over H x C^r: their tables from one batched DFT product per
    group of equal rank, as a multiplier built its own tables before the
    states kept theirs."""
    d, n, dim = params.d, params.n, params.dim
    groups = _stack_groups(d, n, tuple(a % d for a, _, _, _ in blocks), tuple(r for _, _, _, r in blocks))
    envs = np.concatenate([np.asarray(env, dtype=complex) for _, env, _, _ in blocks], axis=None)
    products = _group_products(groups, dim, _dft_tables(d, n)[1], envs)
    raws = [raw for g, group in products for raw in group.reshape(g.count, dim, dim, -1)]
    return WeylMultiplier.from_tables(params, [(a, raw, b, r) for (a, _, b, r), raw in zip(blocks, raws)])
