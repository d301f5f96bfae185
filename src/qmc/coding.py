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

so no Kraus operator is lifted to the K x K joint space.  Decoders are built
and checked as stacks: one Gram for completeness, one stacked
eigendecomposition for the pretty-good measurement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channel import BeamSplitterChannel
from .magic import mrm_inf
from .states import DensityMatrix, StabilizerFamily, preset_state, stabilizer_family
from .weyl import BSParams, QuditParams, scale_indices

ISOMETRY_TOL = 1e-10
KRAUS_TOL = 1e-10


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
        gram = enc.conj().T @ enc
        if float(np.max(np.abs(gram - np.eye(k)))) > ISOMETRY_TOL:
            raise ValueError("encoding columns are not orthonormal")
        rows = stack.reshape(-1, dim)  # every Kraus row: sum_A A^dag A = rows^dag rows
        if float(np.max(np.abs(rows.conj().T @ rows - np.eye(dim)))) > KRAUS_TOL:
            raise ValueError("decoding Kraus operators do not sum to the identity")


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
    decoded = code.kraus_stack.reshape(-1, k * dim) @ chan.stinespring_amplitudes(code.encoding.T)
    return float(np.vdot(decoded, decoded).real) / (k * k)


def _dump_kraus(used: np.ndarray, cut: float = 1e-12) -> tuple[np.ndarray, ...]:
    """Complete a partial decoder, stacked (m, K, dim): append Kraus operators
    that send the subspace it leaves unaddressed (eigenvalues of
    1 - sum A^dag A above ``cut``) to logical 0."""
    _, k, dim = used.shape
    rows = used.reshape(-1, dim)
    vals, vecs = np.linalg.eigh(np.eye(dim) - rows.conj().T @ rows)
    keep = vals > cut
    dump = np.zeros((int(keep.sum()), k, dim), dtype=complex)
    dump[:, 0] = (vecs[:, keep] * np.sqrt(vals[keep])).T.conj()
    return tuple(np.concatenate([used, dump]))


def stabilizer_code_construction(
    params: QuditParams, bsparams: BSParams, logical_dim: int, kets: list[int] | None = None
) -> CodeSpec:
    """Computational-ket code: encode |i> as |x_i>, decode |s x_i> back to |i>.

    The decoder applies the partial isometry sum_i |i><s x_i| coherently
    (plus a dump on the unaddressed subspace).  Against the all-zeros
    environment the channel maps |x_i> to |s x_i> but erases all code-space
    coherence whenever t != 0, which pins the fidelity at exactly 1/K; with
    identity weights (s, t) = (1, 0) the same code recovers perfectly.  The
    product s x_i is taken digit by digit, so s = 0 mod d is rejected.
    """
    dim = params.dim
    if logical_dim > dim:
        raise ValueError(f"logical dimension {logical_dim} exceeds {dim}")
    if bsparams.s == 0:
        raise ValueError(f"the computational-ket code decodes |s x_i>, which needs s != 0 mod {params.d}; got s=0")
    kets = list(range(logical_dim)) if kets is None else list(kets)
    if len(set(kets)) != logical_dim:
        raise ValueError("encoding kets must be distinct")
    enc = np.zeros((dim, logical_dim), dtype=complex)
    scaled = scale_indices(params.d, params.n, bsparams.s)
    recover = np.zeros((logical_dim, dim), dtype=complex)
    for i, x in enumerate(kets):
        enc[x % dim, i] = 1.0
        recover[i, scaled[x % dim]] = 1.0
    return CodeSpec(logical_dim, enc, _dump_kraus(recover[None]))


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


def random_isometry(dim: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(dim, cols)) + 1j * rng.normal(size=(dim, cols))
    q, r = np.linalg.qr(g)
    return q[:, :cols] * np.sign(np.diagonal(r)[None, :cols].real + 1e-300)


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
    count does not depend on it.
    """
    k = encoding.shape[1]
    dim = chan.params.dim
    w = chan.stinespring_amplitudes(encoding.T).reshape(k, dim, -1)
    outputs = w @ w.conj().transpose(0, 2, 1)
    vals, vecs = np.linalg.eigh(outputs.sum(axis=0))
    support = vals > 1e-12 * vals[-1]
    inv_sqrt = (vecs * np.where(support, vals, np.inf) ** -0.5) @ vecs.conj().T
    m = inv_sqrt @ outputs @ inv_sqrt
    mvals, mvecs = np.linalg.eigh((m + m.conj().transpose(0, 2, 1)) / 2)
    cut = 1e-14 * vals[-1] / vals[support][0]
    logical, col = np.nonzero(mvals > cut)  # logical-major, eigenvalues ascending
    kraus = np.zeros((logical.size, k, dim), dtype=complex)
    weights = np.sqrt(mvals[logical, col])[:, None]
    kraus[np.arange(logical.size), logical] = weights * mvecs[logical, :, col].conj()
    return _dump_kraus(kraus, cut)


def random_relabel_decoder(
    logical_dim: int, dim: int, rng: np.random.Generator
) -> tuple[np.ndarray, ...]:
    """Measure in a random unitary basis and fold outcomes onto logical kets."""
    u = random_isometry(dim, dim, rng)
    kraus = np.zeros((dim, logical_dim, dim), dtype=complex)
    kraus[np.arange(dim), np.arange(dim) % logical_dim] = u.T.conj()
    return tuple(kraus)


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
    ceiling is reachable.  Exhausting the budget without a violation is the
    expected outcome, not an error.
    """
    family = family if family is not None else stabilizer_family(params)
    rng = np.random.default_rng(seed)
    baseline_code = stabilizer_code_construction(params, bsparams, logical_dim)
    baseline_env = preset_state("ket-zero", params)
    baseline = entanglement_fidelity(baseline_code, BeamSplitterChannel(bsparams, baseline_env))
    best, best_desc = baseline, "computational-ket construction on the all-zeros environment"
    for trial in range(trials):
        env = family.state_at(trial % len(family))
        chan = BeamSplitterChannel(bsparams, env)
        enc = random_isometry(params.dim, logical_dim, rng)
        decoders = {
            "pgm": pgm_decoder(enc, chan),
            "random-relabel": random_relabel_decoder(logical_dim, params.dim, rng),
        }
        for name, kraus in decoders.items():
            value = entanglement_fidelity(CodeSpec(logical_dim, enc, kraus), chan)
            if value > best:
                best = value
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
    with the same search decoders plus, when applicable, the explicit K=2
    magic code.
    """
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
    for trial in range(trials):
        enc = random_isometry(params.dim, logical_dim, rng)
        decoders = {
            "pgm": pgm_decoder(enc, chan),
            "random-relabel": random_relabel_decoder(logical_dim, params.dim, rng),
        }
        for name, kraus in decoders.items():
            value = entanglement_fidelity(CodeSpec(logical_dim, enc, kraus), chan)
            if value > best:
                best, best_desc = value, f"trial {trial} ({name} decoder)"
    return SearchReport(
        best_value=best,
        best_descriptor=best_desc,
        baseline_value=1.0 / logical_dim,
        bound=bound,
        tolerance=1e-6,
        trials=trials,
        extras={"magic_bits": magic_bits},
    )
