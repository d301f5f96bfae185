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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channel import BeamSplitterChannel
from .magic import mrm_inf
from .states import DensityMatrix, StabilizerFamily, preset_state, stabilizer_family
from .weyl import BSParams, QuditParams

ISOMETRY_TOL = 1e-10
KRAUS_TOL = 1e-10


@dataclass(frozen=True)
class CodeSpec:
    """Isometric encoding K -> d^n plus a decoding channel d^n -> K."""

    logical_dim: int
    encoding: np.ndarray  # (d^n, K), orthonormal columns
    kraus: tuple[np.ndarray, ...]  # decoding Kraus operators, each (K, d^n)

    def __post_init__(self):
        enc = np.ascontiguousarray(np.asarray(self.encoding, dtype=complex))
        object.__setattr__(self, "encoding", enc)
        object.__setattr__(
            self, "kraus", tuple(np.ascontiguousarray(np.asarray(k, dtype=complex)) for k in self.kraus)
        )
        k = self.logical_dim
        if enc.shape[1] != k:
            raise ValueError(f"encoding has {enc.shape[1]} columns, expected {k}")
        gram = enc.conj().T @ enc
        if float(np.max(np.abs(gram - np.eye(k)))) > ISOMETRY_TOL:
            raise ValueError("encoding columns are not orthonormal")
        dim = enc.shape[0]
        total = sum(kr.conj().T @ kr for kr in self.kraus)
        if float(np.max(np.abs(total - np.eye(dim)))) > KRAUS_TOL:
            raise ValueError("decoding Kraus operators do not sum to the identity")
        for kr in self.kraus:
            if kr.shape != (k, dim):
                raise ValueError(f"Kraus shape {kr.shape} != ({k}, {dim})")

    def to_payload(self) -> dict:
        return {
            "K": self.logical_dim,
            "encoding": [[[float(a.real), float(a.imag)] for a in col] for col in self.encoding.T],
            "decoding": [
                [[[float(a.real), float(a.imag)] for a in row] for row in kr] for kr in self.kraus
            ],
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "CodeSpec":
        k = int(payload["K"])
        cols = [np.array([complex(re, im) for re, im in col]) for col in payload["encoding"]]
        enc = np.stack(cols, axis=1)
        kraus = tuple(
            np.array([[complex(re, im) for re, im in row] for row in kr])
            for kr in payload["decoding"]
        )
        return cls(k, enc, kraus)


def entanglement_fidelity(code: CodeSpec, chan: BeamSplitterChannel) -> float:
    """Overlap of the maximally entangled state with its encode/transmit/decode image.

    Linear in the environment by construction.
    """
    k = code.logical_dim
    dim = chan.params.dim
    if k > dim:
        raise ValueError(f"logical dimension {k} exceeds physical dimension {dim}")
    # encoded maximally entangled vector, reference first: row r is enc(|r>)/sqrt(K)
    joint = chan.reference_output(code.encoding.T / math.sqrt(k))
    decoded = np.zeros((k * k, k * k), dtype=complex)
    for kr in code.kraus:
        lifted = np.kron(np.eye(k), kr)
        decoded += lifted @ joint @ lifted.conj().T
    phi = np.eye(k, dtype=complex).reshape(-1) / math.sqrt(k)
    return float(np.real(phi.conj() @ decoded @ phi))


def _dump_kraus(logical_dim: int, dim: int, used: list[np.ndarray]) -> list[np.ndarray]:
    """Complete a partial decoder: send the unaddressed subspace to logical 0."""
    total = sum(kr.conj().T @ kr for kr in used) if used else np.zeros((dim, dim), dtype=complex)
    vals, vecs = np.linalg.eigh(np.eye(dim) - total)
    out = []
    for val, vec in zip(vals, vecs.T):
        if val > 1e-12:
            kr = np.zeros((logical_dim, dim), dtype=complex)
            kr[0] = math.sqrt(val) * vec.conj()
            out.append(kr)
    return out


def stabilizer_code_construction(
    params: QuditParams, bsparams: BSParams, logical_dim: int, kets: list[int] | None = None
) -> CodeSpec:
    """Computational-ket code: encode |i> as |x_i>, decode |s x_i> back to |i>.

    The decoder applies the partial isometry sum_i |i><s x_i| coherently
    (plus a dump on the unaddressed subspace).  Against the all-zeros
    environment the channel maps |x_i> to |s x_i> but erases all code-space
    coherence whenever t != 0, which pins the fidelity at exactly 1/K; with
    identity weights (s, t) = (1, 0) the same code recovers perfectly.
    """
    dim = params.dim
    if logical_dim > dim:
        raise ValueError(f"logical dimension {logical_dim} exceeds {dim}")
    kets = list(range(logical_dim)) if kets is None else list(kets)
    if len(set(kets)) != logical_dim:
        raise ValueError("encoding kets must be distinct")
    enc = np.zeros((dim, logical_dim), dtype=complex)
    for i, x in enumerate(kets):
        enc[x % dim, i] = 1.0
    s = bsparams.s
    recover = np.zeros((logical_dim, dim), dtype=complex)
    for i, x in enumerate(kets):
        recover[i, (s * x) % dim] = 1.0
    kraus = [recover]
    kraus += _dump_kraus(logical_dim, dim, kraus)
    return CodeSpec(logical_dim, enc, tuple(kraus))


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
    kraus = [coherent, fold_t, fold_s]
    kraus += _dump_kraus(2, d, kraus)
    return env, CodeSpec(2, enc, tuple(kraus))


def random_isometry(dim: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(dim, cols)) + 1j * rng.normal(size=(dim, cols))
    q, r = np.linalg.qr(g)
    return q[:, :cols] * np.sign(np.diagonal(r)[None, :cols].real + 1e-300)


def pgm_decoder(encoding: np.ndarray, chan: BeamSplitterChannel) -> tuple[np.ndarray, ...]:
    """Pretty-good-measurement decoder matched to the channel outputs.

    Measurement operators B rho_i B with B the pseudo-inverse square root of
    the output sum; the unresolved subspace is dumped to logical 0.
    """
    k = encoding.shape[1]
    dim = chan.params.dim
    outputs = []
    for i in range(k):
        ket = encoding[:, i]
        outputs.append(chan.apply_matrix(np.outer(ket, ket.conj())))
    total = sum(outputs)
    vals, vecs = np.linalg.eigh(total)
    inv_sqrt = (vecs * [(v**-0.5 if v > 1e-12 else 0.0) for v in vals]) @ vecs.conj().T
    kraus = []
    for i, out in enumerate(outputs):
        m = inv_sqrt @ out @ inv_sqrt
        mvals, mvecs = np.linalg.eigh((m + m.conj().T) / 2)
        for val, vec in zip(mvals, mvecs.T):
            if val > 1e-12:
                kr = np.zeros((k, dim), dtype=complex)
                kr[i] = math.sqrt(val) * vec.conj()
                kraus.append(kr)
    kraus += _dump_kraus(k, dim, kraus)
    return tuple(kraus)


def random_relabel_decoder(
    logical_dim: int, dim: int, rng: np.random.Generator
) -> tuple[np.ndarray, ...]:
    """Measure in a random unitary basis and fold outcomes onto logical kets."""
    u = random_isometry(dim, dim, rng)
    kraus = []
    for i in range(dim):
        kr = np.zeros((logical_dim, dim), dtype=complex)
        kr[i % logical_dim] = u[:, i].conj()
        kraus.append(kr)
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
