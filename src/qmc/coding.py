"""Encodings, decodings, and entanglement fidelity through the beam splitter.

The two constructions with closed-form fidelity:

* computational-ket codes against the all-zeros environment reach exactly
  1/K, and nothing over stabilizer environments beats that;
* for unequal squared weights, the two-ket magic environment (|0>+|t>)/sqrt(2)
  with encoder |0>->|0>, |1>->|s> admits a decoder reaching 3/4 for K=2.

For the magic construction the channel output on the code space is supported
on the four kets {|0>, |1>, |t^2>, |s^2>}; the decoder recovers the
|0>/|1> pair coherently, folds |t^2> to logical 0 and |s^2> to logical 1,
and dumps the untouched subspace to logical 0 (any unitary completion there
is equivalent because the output never reaches it).

Entanglement fidelity is one matrix product.  With W the channel's
Stinespring amplitudes of psi = encoding^T, rows (reference r, kept output
a) and columns (traced output b, environment purifier k), and A the stack of
decoder Kraus operators flattened over (r, a),

    F = (1/K^2) sum_A sum_{b, k} |sum_{r, a} A[r, a] W[(r, a), (b, k)]|^2 = ||A W||_F^2 / K^2,

so no Kraus operator is lifted to the K x K joint space.

Every kernel here works on a stack of T codes: isometries from one stacked
QR, amplitudes from one stacked gather, the pretty-good measurement from
stacked eigendecompositions (its Kraus operators padded with zeros to a fixed
slot layout, with a mask of the kept ones), the relabel decoder from one
scatter, the ``CodeSpec`` checks and the fidelity ``||A W||^2 / K^2`` as
batched products.  The single-code entry points (``pgm_decoder``,
``random_relabel_decoder``, ``entanglement_fidelity``, ``CodeSpec``) are the
T = 1 case; the two searches run their trials as blocks of at most
``BLOCK_ELEMENTS`` complex elements per stacked array, so their memory does
not grow with the number of trials.  Both hand ``_search_trials`` the
environment states themselves, the stabilizer family or ``[sigma]``: trial
i runs on state i mod their number, and each block stacks those states' kept
purifiers, padded in front with zeros to the block's largest rank
(``_padded``).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .channel import BeamSplitterChannel, stinespring_gather
from .magic import mrm_inf
from .states import DensityMatrix, StabilizerFamily, preset_state, stabilizer_family
from .weyl import BSParams, QuditParams, scale_indices

ISOMETRY_TOL = 1e-10
KRAUS_TOL = 1e-10
# complex elements one trial block of a search may hold per stacked array
# (the decoder stack, the amplitudes, the decoded products): 19 trials a
# block at dim 13, K 2 and a pure environment
BLOCK_ELEMENTS = 1 << 15
DECODERS = ("pgm", "random-relabel")  # the two codes of a search trial, in scan order


def _dagger(a: np.ndarray) -> np.ndarray:
    return a.conj().swapaxes(-1, -2)


def _check_codes(enc: np.ndarray, *kraus_stacks: np.ndarray) -> None:
    """``CodeSpec``'s checks on a stack of encodings enc (T, dim, K) and
    decoders (T, m, K, dim) that share them: orthonormal columns, and
    sum_A A^dag A = rows^dag rows = 1 over every Kraus row."""
    t, dim, k = enc.shape
    if float(np.max(np.abs(_dagger(enc) @ enc - np.eye(k)))) > ISOMETRY_TOL:
        raise ValueError("encoding columns are not orthonormal")
    for kraus in kraus_stacks:
        rows = kraus.reshape(t, -1, dim)
        if float(np.max(np.abs(_dagger(rows) @ rows - np.eye(dim)))) > KRAUS_TOL:
            raise ValueError("decoding Kraus operators do not sum to the identity")


@dataclass(frozen=True)
class CodeSpec:
    """Isometric encoding K -> d^n plus a decoding channel d^n -> K."""

    logical_dim: int
    encoding: np.ndarray  # (d^n, K), orthonormal columns
    kraus: tuple[np.ndarray, ...]  # decoding Kraus operators, each (K, d^n): views into kraus_stack
    kraus_stack: np.ndarray = field(init=False, repr=False, compare=False)  # (m, K, d^n), one contiguous array

    def __post_init__(self):
        enc = np.ascontiguousarray(self.encoding, dtype=complex)
        k = self.logical_dim
        if enc.shape[1] != k:
            raise ValueError(f"encoding has {enc.shape[1]} columns, expected {k}")
        dim = enc.shape[0]
        for kr in self.kraus:
            if np.shape(kr) != (k, dim):
                raise ValueError(f"Kraus shape {np.shape(kr)} != ({k}, {dim})")
        stack = np.array(self.kraus, dtype=complex).reshape(-1, k, dim)
        object.__setattr__(self, "encoding", enc)
        object.__setattr__(self, "kraus_stack", stack)
        object.__setattr__(self, "kraus", tuple(stack))
        _check_codes(enc[None], stack[None])


def entanglement_fidelity(code: CodeSpec, chan: BeamSplitterChannel) -> float:
    """Overlap of the maximally entangled state with its encode/transmit/decode image.

    With W the channel's Stinespring amplitudes of psi = encoding^T
    (``BeamSplitterChannel.stinespring_amplitudes``, rows (r, a)) and A the
    (m, K * dim) stack of the decoder's Kraus operators,

        F = (1/K^2) sum_A sum_{b, k} |sum_{r, a} A[r, a] W[(r, a), (b, k)]|^2 = ||A W||_F^2 / K^2.

    Linear in the environment by construction.
    """
    k = code.logical_dim
    dim = chan.params.dim
    if k > dim:
        raise ValueError(f"logical dimension {k} exceeds physical dimension {dim}")
    w = chan.stinespring_amplitudes(code.encoding.T)
    return float(_fidelities(code.kraus_stack[None], w[None], k)[0])


def _fidelities(kraus: np.ndarray, w: np.ndarray, k: int) -> np.ndarray:
    """||A W||_F^2 / K^2 for each code of a stack: Kraus operators
    (T, m, K, dim) and amplitudes (T, K * dim, X)."""
    decoded = kraus.reshape(len(kraus), -1, w.shape[-2]) @ w
    return np.square(decoded.view(float)).sum(axis=(1, 2)) / (k * k)


def _scaled_rows(vals: np.ndarray, vecs: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Rows sqrt(lambda_c) v_c^dag of an eigendecomposition, stacked over the
    leading axes, zero where ``keep`` is false."""
    return np.sqrt(np.where(keep, vals, 0.0))[..., None] * _dagger(vecs)


def _dump_rows(gram: np.ndarray, cut) -> tuple[np.ndarray, np.ndarray]:
    """The logical-0 rows of the Kraus operators that send the subspace a
    partial decoder leaves unaddressed (eigenvalues of 1 - sum A^dag A =
    1 - ``gram`` above ``cut``) to logical 0, stacked, with their kept mask."""
    vals, vecs = np.linalg.eigh(np.eye(gram.shape[-1]) - gram)
    keep = vals > cut
    return _scaled_rows(vals, vecs, keep), keep


def _dump_kraus(used: np.ndarray) -> tuple[np.ndarray, ...]:
    """Complete a partial decoder (m, K, dim) with ``_dump_rows`` at the cut 1e-12."""
    _, k, dim = used.shape
    rows = used.reshape(-1, dim)
    dump_rows, keep = _dump_rows(rows.conj().T @ rows, 1e-12)
    dump = np.zeros((int(keep.sum()), k, dim), dtype=complex)
    dump[:, 0] = dump_rows[keep]
    return tuple(np.concatenate([used, dump]))


def stabilizer_code_construction(params: QuditParams, bsparams: BSParams, logical_dim: int) -> CodeSpec:
    """Computational-ket code: encode |i> as |i>, decode |s i> back to |i>.

    The decoder applies the partial isometry sum_i |i><s i| coherently
    (plus a dump on the unaddressed subspace).  Against the all-zeros
    environment the channel maps |i> to |s i> but erases all code-space
    coherence whenever t != 0, which pins the fidelity at exactly 1/K; with
    identity weights (s, t) = (1, 0) the same code recovers perfectly.  The
    product s i is taken digit by digit, so s = 0 mod d is rejected, as is
    a logical dimension outside 1..dim.
    """
    dim = params.dim
    if logical_dim < 1:
        raise ValueError(f"logical dimension must be >= 1, got {logical_dim}")
    if logical_dim > dim:
        raise ValueError(f"logical dimension {logical_dim} exceeds {dim}")
    if bsparams.s == 0:
        raise ValueError(f"the computational-ket code decodes |s i>, which needs s != 0 mod {params.d}; got s=0")
    recover = np.zeros((logical_dim, dim), dtype=complex)
    recover[np.arange(logical_dim), scale_indices(params.d, params.n, bsparams.s)[:logical_dim]] = 1.0
    return CodeSpec(logical_dim, np.eye(dim, logical_dim, dtype=complex), _dump_kraus(recover[None]))


def magic_code_construction(bsparams: BSParams) -> tuple[DensityMatrix, CodeSpec]:
    """The K=2 code beating every stabilizer environment, with its environment.

    Needs nontrivial weights with unequal squares so the four output kets
    {0, 1, t^2, s^2} are distinct.  Returns (environment, code); the fidelity
    equals 3/4.
    """
    p = bsparams.params
    if p.n != 1:
        raise ValueError("the construction is single-qudit")
    d, s, t = p.d, bsparams.s, bsparams.t
    if not bsparams.nontrivial or (s * s - t * t) % d == 0:
        raise ValueError("needs nontrivial weights with s^2 != t^2 mod d")
    env = preset_state("appe-magic", p, bsparams)
    enc = np.zeros((d, 2), dtype=complex)
    enc[0, 0] = 1.0
    enc[s % d, 1] = 1.0
    coherent = np.zeros((2, d), dtype=complex)
    coherent[0, 0] = 1.0
    coherent[1, 1] = 1.0
    fold_t = np.zeros((2, d), dtype=complex)
    fold_t[0, (t * t) % d] = 1.0
    fold_s = np.zeros((2, d), dtype=complex)
    fold_s[1, (s * s) % d] = 1.0
    return env, CodeSpec(2, enc, _dump_kraus(np.stack([coherent, fold_t, fold_s])))


def _complex_normal(x: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Complex Gaussians from real draws x (..., 2 * size): real parts first."""
    half = x.shape[-1] // 2
    return (x[..., :half] + 1j * x[..., half:]).reshape(shape)


def _isometries(g: np.ndarray) -> np.ndarray:
    """Orthonormal columns of each matrix of a stack: the Q of its QR with the
    signs of R's diagonal moved into it, so that the draw fixes the result."""
    q, r = np.linalg.qr(g)
    return q * np.sign(np.diagonal(r, axis1=-2, axis2=-1).real + 1e-300)[..., None, :]


def random_isometry(dim: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    return _isometries(_complex_normal(rng.normal(size=2 * dim * cols), (dim, cols)))


def _pgm_stack(w: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Pretty-good-measurement decoders of a stack of codes from their
    amplitudes w (T, K * dim, X): Kraus slots (T, (K + 1) * dim, K, dim),
    the measurement operator of logical l and eigenvector c in slot
    l * dim + c and dump c in slot K * dim + c, and the mask of kept slots.
    The other slots are zero; a kept operator never is."""
    t, dim = len(w), w.shape[-2] // k
    w = w.reshape(t, k, dim, -1)
    outputs = w @ _dagger(w)
    vals, vecs = np.linalg.eigh(outputs.sum(axis=1))
    supported = np.where(vals > 1e-12 * vals[:, -1:], vals, np.inf)
    inv_sqrt = (vecs * supported[:, None, :] ** -0.5) @ _dagger(vecs)
    m = inv_sqrt[:, None] @ outputs @ inv_sqrt[:, None]
    mvals, mvecs = np.linalg.eigh((m + _dagger(m)) / 2)
    cut = 1e-14 * vals[:, -1] / supported.min(axis=1)
    measure = mvals > cut[:, None, None]
    rows = _scaled_rows(mvals, mvecs, measure)  # [t, l, c, :]: the one nonzero row of slot (l, c)
    flat = rows.reshape(t, -1, dim)
    dump, dumped = _dump_rows(_dagger(flat) @ flat, cut[:, None])
    kraus = np.zeros((t, k + 1, dim, k, dim), dtype=complex)
    logical = np.arange(k)
    kraus[:, logical, :, logical] = rows.swapaxes(0, 1)
    kraus[:, k, :, 0] = dump
    kept = np.concatenate([measure.reshape(t, -1), dumped], axis=1)
    return kraus.reshape(t, -1, k, dim), kept


def pgm_decoder(encoding: np.ndarray, chan: BeamSplitterChannel) -> tuple[np.ndarray, ...]:
    """Pretty-good-measurement decoder matched to the channel outputs.

    Measurement operators B rho_i B with rho_i the output of encoded ket i
    and B the pseudo-inverse square root of the output sum, eigendecomposed
    as one stack; the unresolved subspace is dumped to logical 0.  The
    eigenvalue cuts are relative to the largest eigenvalue of the output
    sum: its support keeps eigenvalues above 1e-12 of it, and since B
    amplifies round-off by the sum's condition number c (largest over least
    kept eigenvalue), the measurement operators and the dump keep
    eigenvalues above 1e-14 c, far above that round-off, so that the Kraus
    count does not depend on it.  The kept operators of the one-code
    ``_pgm_stack``, logical-major with eigenvalues ascending, then the dump.
    """
    kraus, kept = _pgm_stack(chan.stinespring_amplitudes(encoding.T)[None], encoding.shape[1])
    return tuple(kraus[0][kept[0]])


def _relabel_stack(u: np.ndarray, k: int) -> np.ndarray:
    """Kraus operators (T, dim, K, dim) measuring in the columns of each
    unitary u and folding outcome c onto logical c mod K."""
    t, dim, _ = u.shape
    kraus = np.zeros((t, dim, k, dim), dtype=complex)
    kraus[:, np.arange(dim), np.arange(dim) % k] = _dagger(u)
    return kraus


def random_relabel_decoder(
    logical_dim: int, dim: int, rng: np.random.Generator
) -> tuple[np.ndarray, ...]:
    """Measure in a random unitary basis and fold outcomes onto logical kets."""
    return tuple(_relabel_stack(random_isometry(dim, dim, rng)[None], logical_dim)[0])


def _block_trials(dim: int, k: int, rank: int) -> int:
    """Trials per block: the padded decoder stack takes K (K + 1) dim^2
    elements a trial, the amplitudes and the decoded products (K + 2) dim^2
    per environment rank."""
    return max(1, BLOCK_ELEMENTS // (dim * dim * (k * (k + 1) + (k + 2) * rank)))


def _trial_block(x: np.ndarray, k: int, gather: tuple[np.ndarray, np.ndarray], purifier: np.ndarray) -> np.ndarray:
    """Fidelities (T, 2) of the PGM and random-relabel codes of T trials from
    their draws x (T, 2 dim (K + dim)) and environment purifiers (T, dim, R)."""
    t, dim = len(x), purifier.shape[-2]
    split = 2 * dim * k
    enc = _isometries(_complex_normal(x[:, :split], (t, dim, k)))
    relabel = _relabel_stack(_isometries(_complex_normal(x[:, split:], (t, dim, dim))), k)
    w = stinespring_gather(*gather, enc.swapaxes(1, 2), purifier)
    pgm, _ = _pgm_stack(w, k)
    _check_codes(enc, pgm, relabel)
    return np.stack([_fidelities(pgm, w, k), _fidelities(relabel, w, k)], axis=1)


def _padded(purifiers: list[np.ndarray]) -> np.ndarray:
    """The (dim, R_i) purifiers stacked as (T, dim, R), each padded in front
    with exact zeros to the largest rank R: the layout one eigensolve of the
    stacked states gives, whose dropped columns are zeros too."""
    out = np.zeros((len(purifiers), purifiers[0].shape[0], max(p.shape[1] for p in purifiers)), dtype=complex)
    for block, p in zip(out, purifiers):
        block[:, block.shape[1] - p.shape[1] :] = p
    return out


def _search_trials(
    rng: np.random.Generator,
    trials: int,
    k: int,
    gather: tuple[np.ndarray, np.ndarray],
    envs: Sequence[DensityMatrix],
    best: float,
) -> tuple[float, tuple[int, str] | None]:
    """The best fidelity of ``trials`` random codes if one beats ``best``,
    with its (trial, decoder); the first maximum in (trial, decoder) order,
    as a strict ``>`` scan finds it.

    Each trial draws its encoding (real, then imaginary parts) and then its
    relabel unitary, so a seed gives the same codes at any block size.
    Trial i runs on the environment ``envs[i % len(envs)]``, a list or a
    ``StabilizerFamily``, whose members are built when first indexed; each
    state computes its purifier (``DensityMatrix.purifier``) on first use
    and keeps it.  Blocks are sized for a rank-one environment, their
    purifiers are ``_padded`` to the block's largest rank R, and a block
    whose R is larger is decoded in smaller slices of its draws.
    """
    dim = gather[0].shape[0]
    size = _block_trials(dim, k, 1)
    found = None
    for lo in range(0, trials, size):
        t = min(size, trials - lo)
        x = rng.normal(size=(t, 2 * dim * (k + dim)))
        purifier = _padded([envs[i % len(envs)].purifier for i in range(lo, lo + t)])
        step = _block_trials(dim, k, purifier.shape[-1])
        for sub in range(0, t, step):
            values = _trial_block(x[sub : sub + step], k, gather, purifier[sub : sub + step])
            i = int(np.argmax(values))
            if values.flat[i] > best:
                best, found = float(values.flat[i]), (lo + sub + i // 2, DECODERS[i % 2])
    return best, found


@dataclass
class SearchReport:
    best_value: float
    best_descriptor: str
    baseline_value: float
    bound: float
    tolerance: float
    trials: int
    extras: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.best_value <= self.bound + self.tolerance

    def to_dict(self) -> dict:
        return {
            "best_value": self.best_value,
            "best_descriptor": self.best_descriptor,
            "baseline_value": self.baseline_value,
            "bound": self.bound,
            "tolerance": self.tolerance,
            "trials": self.trials,
            "pass": self.passed,
            **self.extras,
        }


def stabilizer_ceiling_search(
    params: QuditParams,
    bsparams: BSParams,
    logical_dim: int,
    trials: int,
    seed: int,
    family: StabilizerFamily | None = None,
) -> SearchReport:
    """Falsification probe of the 1/K fidelity ceiling over stabilizer environments.

    Random encodings paired with pretty-good-measurement and random-relabel
    decoders, cycled over every enumerated environment; the deterministic
    1/K construction is always included so the search also certifies the
    ceiling is reachable.  The trials run in stacked blocks over the family
    (``_search_trials``), each block's environment purifiers padded to the
    block's largest rank; each member's state is purified once and keeps
    its purifier.  Exhausting the budget without a violation is the
    expected outcome, not an error; a negative ``trials`` raises ValueError.
    """
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    family = family if family is not None else stabilizer_family(params)
    rng = np.random.default_rng(seed)
    baseline_code = stabilizer_code_construction(params, bsparams, logical_dim)
    baseline_chan = BeamSplitterChannel(bsparams, preset_state("ket-zero", params))
    baseline = entanglement_fidelity(baseline_code, baseline_chan)
    gather = baseline_chan.gather_indices()
    best, found = _search_trials(rng, trials, logical_dim, gather, family, baseline)
    if found is None:
        best_desc = "computational-ket construction on the all-zeros environment"
    else:
        trial, name = found
        best_desc = f"trial {trial} ({name} decoder, environment {trial % len(family)})"
    return SearchReport(
        best_value=best,
        best_descriptor=best_desc,
        baseline_value=baseline,
        bound=1.0 / logical_dim,
        tolerance=1e-6,
        trials=trials,
    )


def fidelity_ratio_bound_check(
    sigma: DensityMatrix,
    bsparams: BSParams,
    logical_dim: int,
    trials: int,
    seed: int,
) -> SearchReport:
    """Best-found fidelity against 2^{magic} times the stabilizer ceiling 1/K.

    The proven 1/K ceiling supplies the denominator; the numerator is probed
    with the same stacked search trials as ``stabilizer_ceiling_search``
    (every trial on sigma, purified once) plus, when applicable, the
    explicit K=2 magic code.  A negative ``trials`` raises ValueError.
    """
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    params = sigma.params
    chan = BeamSplitterChannel(bsparams, sigma)
    magic_bits = mrm_inf(sigma)
    bound = (2.0**magic_bits) / logical_dim
    rng = np.random.default_rng(seed)
    best, best_desc = -math.inf, "none"
    probes: list[tuple[str, CodeSpec]] = [
        ("computational-ket construction", stabilizer_code_construction(params, bsparams, logical_dim))
    ]
    if logical_dim == 2 and bsparams.nontrivial and (bsparams.s**2 - bsparams.t**2) % params.d != 0:
        probes.append(("magic two-ket construction", magic_code_construction(bsparams)[1]))
    for name, code in probes:
        value = entanglement_fidelity(code, chan)
        if value > best:
            best, best_desc = value, name

    best, found = _search_trials(rng, trials, logical_dim, chan.gather_indices(), [sigma], best)
    if found is not None:
        best_desc = f"trial {found[0]} ({found[1]} decoder)"
    return SearchReport(
        best_value=best,
        best_descriptor=best_desc,
        baseline_value=1.0 / logical_dim,
        bound=bound,
        tolerance=1e-6,
        trials=trials,
        extras={"magic_bits": magic_bits},
    )
