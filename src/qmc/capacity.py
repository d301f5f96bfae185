"""Coherent information, the one-shot capacity optimizer, and the witness.

Coherent information and its exact gradient run through one fused kernel
(``_ic_matrix_fn``): the channel and its complement are the two blocks of
one Weyl multiplier, so both outputs come from one input table, their
spectra from one stacked eigensolve when the sides agree, and the gradient
from one adjoint over both logs.  The tables belong to the states: the
multiplier reads the environment's (``DensityMatrix.raw_table`` and
``purified_table``), and ``coherent_information`` feeds the input state's
own ``raw_table``, so an input sent through many channels is transformed
once.  ``_ic_matrix_fn(chan)`` is the one route to the evaluator: a closure
over the channel's cached ``coherent_multiplier``, built for each
``coherent_information`` call and once per optimizer run.  The optimizer
reports certified lower bounds only: the value returned is the best
coherent information actually evaluated, never an optimality claim.  Upper
bounds come from the proven claims exercised by the verification suites
(``verify``), not from optimization.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from itertools import combinations

import numpy as np

from .channel import BeamSplitterChannel
from .linalg import shannon_entropy, von_neumann_entropies, von_neumann_entropy
from .states import DensityMatrix, preset_state, random_density_matrix
from .weyl import BSParams

LOG_FLOOR = 1e-300  # eigenvalues are floored here inside the gradient's log2


def _ic_matrix_fn(chan: BeamSplitterChannel):
    """Coherent-information evaluator on raw matrices over the channel's
    cached kernel; cheap to build, as it holds that kernel only.

    I_c = S(N(rho)) - S(N^c(rho)), with the complement landing on E x E',
    where E' purifies the environment.  Reference, output, E and E' then
    share a pure state, so the entropy difference is the coherent
    information for every environment, and both maps are linear in rho.

    Both maps are the two blocks of the channel's ``coherent_multiplier``:
    one input table, one product and one inverse DFT give both outputs.
    With a pure environment the outputs have equal sides and share one
    stacked eigensolve; otherwise each side has its own.

    ``ic(m)`` takes eigenvalues only.  ``ic(m, grad=True)`` returns
    ``(I_c, A)`` with dI_c = Tr(A dm) for Hermitian dm:

        A = -N^dag(log2 N(m)) + N^c^dag(log2 N^c(m)),

    one multiplier adjoint over both logs.  The 1/ln 2 terms of the two
    entropy derivatives cancel because both maps preserve the trace.
    ``table`` is m's raw table when the caller holds it
    (``DensityMatrix.raw_table``); otherwise it is computed from m.
    """
    kernel = chan.coherent_multiplier

    def ic(m: np.ndarray, grad: bool = False, table: np.ndarray | None = None):
        stacks = kernel.images(m) if table is None else kernel.images_of_table(table)  # [N(m), N^c(m)]
        if not grad:
            h = np.concatenate([von_neumann_entropies(x) for x in stacks])
            return float(h[0] - h[1])
        entropies, logs = zip(*(_entropy_and_log(x) for x in stacks))
        h = np.concatenate(entropies)
        logs[0][0] *= -1.0  # the sign of N^dag(log2 N(m)) in A
        return float(h[0] - h[1]), kernel.adjoint(*logs)

    return ic


def _entropy_and_log(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Entropy in bits and log2 of a density matrix, or of each matrix in a
    stack, eigenvalues floored at ``LOG_FLOOR`` inside the logarithm."""
    vals, vecs = np.linalg.eigh(m)
    logs = np.log2(np.maximum(vals, LOG_FLOOR))
    entropy = -(np.maximum(vals, 0.0) * logs).sum(axis=-1)  # eigenvalues at or below 0 add nothing
    return entropy, (vecs * logs[..., None, :]) @ np.swapaxes(vecs.conj(), -1, -2)


def coherent_information(chan: BeamSplitterChannel, rho: DensityMatrix) -> float:
    """Coherent information of one input through the channel, in bits.

    One route for every environment: S(channel output) - S(complement output
    on the traced register and the environment purifier).  The input brings
    its own raw table, so a state sent through many channels is transformed
    once; a raw matrix goes to ``_ic_matrix_fn(chan)``.
    """
    return _ic_matrix_fn(chan)(rho.matrix, table=rho.raw_table)


def coherent_information_purification(chan: BeamSplitterChannel, rho: DensityMatrix) -> float:
    """S(output) - S(reference/output state), from the other side of the same
    pure state: the input is purified by its ``purifier`` and sent through
    the Stinespring amplitudes.

    Agreement with ``coherent_information`` guards the Stinespring wiring.
    """
    psi = rho.purifier.T  # psi[r, x]
    joint = von_neumann_entropy(chan.reference_output(psi))  # size-checked before the output is built
    return von_neumann_entropy(chan.apply_matrix(rho.matrix)) - joint


# ---------------------------------------------------------------------------
# One-shot capacity optimizer
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OptimizerBudget:
    """Search effort knobs for the one-shot lower-bound optimizer."""

    restarts: int = 32
    iterations: int = 2000
    pool_random: int = 20
    pool_pairs: int = 100
    polish_steps: int = 2


@dataclass
class CapacityReport:
    best_value: float
    best_state: DensityMatrix
    traces: list[float]
    pool_best: float
    restarts_run: int
    seed: int
    budget: OptimizerBudget
    budget_exhausted: bool
    recomputed_value: float
    evaluations: int  # coherent-information evaluations: pool, restarts and polish
    restarts_converged: int

    def to_dict(self) -> dict:
        return {
            "best_value": self.best_value,
            "pool_best": self.pool_best,
            "traces": list(self.traces),
            "restarts_run": self.restarts_run,
            "seed": self.seed,
            "budget": asdict(self.budget),
            "budget_exhausted": self.budget_exhausted,
            "evaluations": self.evaluations,
            "restarts_converged": self.restarts_converged,
            "lower_bound_only": True,
        }


def _objective(chan: BeamSplitterChannel):
    """The coherent information over a free complex matrix G, as a function
    of x = (Re G, Im G) flattened.

    The state is rho = G G^dag / tau with tau = Tr(G G^dag).  With A the
    gradient in rho from ``_ic_matrix_fn`` and B = (A - Tr(A rho) 1) / tau,
    the exact gradient is dI_c/d(Re G) = 2 Re(B G) and dI_c/d(Im G) =
    2 Im(B G).  Returns ``(ic_of_matrix, value_and_grad, to_vector, to_state)``.
    """
    dim = chan.params.dim
    ic_of_matrix = _ic_matrix_fn(chan)

    def to_matrix(x: np.ndarray) -> np.ndarray:
        return x[: dim * dim].reshape(dim, dim) + 1j * x[dim * dim :].reshape(dim, dim)

    def value_and_grad(x: np.ndarray) -> tuple[float, np.ndarray]:
        g = to_matrix(x)
        m = g @ g.conj().T
        tr = float(np.trace(m).real)
        if tr < 1e-14:
            return -float(dim), np.zeros_like(x)  # worthless corner of parameter space
        rho = m / tr
        value, a = ic_of_matrix(rho, grad=True)
        b = a / tr
        b[np.diag_indices(dim)] -= float(np.sum(a * rho.T).real) / tr
        bg = b @ g
        return value, 2.0 * np.concatenate([bg.real.reshape(-1), bg.imag.reshape(-1)])

    def to_vector(m: np.ndarray) -> np.ndarray:
        vals, vecs = np.linalg.eigh(m)
        g = (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T
        return np.concatenate([g.real.reshape(-1), g.imag.reshape(-1)])

    def to_state(x: np.ndarray) -> np.ndarray:
        g = to_matrix(x)
        m = g @ g.conj().T
        return m / float(np.trace(m).real)

    return ic_of_matrix, value_and_grad, to_vector, to_state


def _candidate_pool(
    chan: BeamSplitterChannel,
    budget: OptimizerBudget,
    rng: np.random.Generator,
    initial_states: tuple[DensityMatrix, ...],
) -> list[np.ndarray]:
    """Screening candidates: structured classical mixtures plus random states.

    The channel maps computational kets to computational kets, so uniform
    two-ket mixtures are natural seeds; the maximally mixed state is a fixed
    point and anchors the pool.
    """
    dim = chan.params.dim
    pool: list[np.ndarray] = [np.eye(dim, dtype=complex) / dim]
    for state in initial_states:
        pool.append(np.asarray(state.matrix, dtype=complex))
    pairs = list(combinations(range(dim), 2))
    if len(pairs) > budget.pool_pairs:
        chosen = rng.choice(len(pairs), size=budget.pool_pairs, replace=False)
        pairs = [pairs[i] for i in sorted(chosen)]
    for i, j in pairs:
        m = np.zeros((dim, dim), dtype=complex)
        m[i, i] = m[j, j] = 0.5
        pool.append(m)
    for _ in range(budget.pool_random):
        pool.append(random_density_matrix(chan.params, rng).matrix)
    return pool


def qcap_one_shot(
    chan: BeamSplitterChannel,
    budget: OptimizerBudget | None = None,
    seed: int = 0,
    initial_states: tuple[DensityMatrix, ...] = (),
) -> CapacityReport:
    """Multi-restart exact-gradient maximization of coherent information.

    Candidate states are parametrized as G G^dag / Tr(G G^dag) over a free
    complex matrix G.  A screened candidate pool seeds half of the L-BFGS-B
    restarts (the rest start from random G; ``iterations`` is each
    restart's ``maxiter``), and the incumbent then takes up to
    ``polish_steps`` backtracking steps along the exact gradient.  Every
    value is one that was evaluated, so the result is a lower bound only.
    Deterministic for a fixed seed; per-restart seeds are split off the
    master seed.
    """
    from scipy import optimize  # here, not at module level: it is slower to import than all of qmc

    budget = budget or OptimizerBudget()
    if chan.params.dim > 49:
        raise ValueError("optimization space capped at d^n <= 49")
    ic_of_matrix, value_and_grad, to_vector, to_state = _objective(chan)
    master = np.random.SeedSequence(seed)
    pool_rng = np.random.default_rng(master.spawn(1)[0])
    pool = _candidate_pool(chan, budget, pool_rng, tuple(initial_states))
    pool_values = [ic_of_matrix(m) for m in pool]
    evaluations = len(pool)
    order = np.argsort(pool_values)[::-1]
    best_value = float(pool_values[order[0]])
    best_matrix = pool[order[0]]
    pool_best = best_value

    def negated(x: np.ndarray) -> tuple[float, np.ndarray]:
        value, grad = value_and_grad(x)
        return -value, -grad

    traces: list[float] = []
    dim = chan.params.dim
    exhausted_flags: list[bool] = []
    converged = 0
    restart_seeds = master.spawn(max(budget.restarts, 0) + 1)[1:]
    seeded_starts = min((budget.restarts + 1) // 2, len(pool))
    for r in range(budget.restarts):
        if r < seeded_starts:
            x0 = to_vector(pool[order[r]])
        else:
            rng = np.random.default_rng(restart_seeds[r])
            x0 = rng.normal(size=2 * dim * dim) / math.sqrt(dim)
        if budget.iterations > 0:
            res = optimize.minimize(
                negated, x0, jac=True, method="L-BFGS-B", options={"maxiter": budget.iterations}
            )
            evaluations += int(res.nfev)
            converged += int(res.success)
            exhausted_flags.append(int(res.nit) >= budget.iterations)
            value = -float(res.fun)
            if value > best_value:
                best_value = value
                best_matrix = to_state(res.x)
        traces.append(best_value)

    if budget.polish_steps > 0:
        x = to_vector(best_matrix)
        _, grad = value_and_grad(x)
        evaluations += 1
        for _ in range(budget.polish_steps):
            norm = float(np.linalg.norm(grad))
            if norm < 1e-12:
                break
            for lr in (1e-2, 1e-3, 1e-4, 1e-5):
                candidate = x + (lr / norm) * grad
                value, candidate_grad = value_and_grad(candidate)
                evaluations += 1
                if value > best_value + 1e-15:
                    best_value = value
                    best_matrix = to_state(candidate)
                    x, grad = candidate, candidate_grad
                    break
            else:
                break

    best_state = DensityMatrix(chan.params, (best_matrix + best_matrix.conj().T) / 2)
    recomputed = ic_of_matrix(best_state.matrix)
    return CapacityReport(
        best_value=best_value,
        best_state=best_state,
        traces=traces,
        pool_best=pool_best,
        restarts_run=budget.restarts,
        seed=seed,
        budget=budget,
        budget_exhausted=bool(exhausted_flags) and all(exhausted_flags),
        recomputed_value=recomputed,
        evaluations=evaluations,
        restarts_converged=converged,
    )


# ---------------------------------------------------------------------------
# The explicit capacity-gain witness
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CapacityWitness:
    """Environment/input pair with a closed-form coherent information."""

    case: str
    environment: DensityMatrix
    input_state: DensityMatrix
    expected_bits: float
    output_spectrum: tuple[float, ...]
    complement_spectrum: tuple[float, ...]


def capacity_witness_construction(bsparams: BSParams) -> CapacityWitness:
    """Explicit (environment, input) giving strictly positive coherent info.

    Three regimes, keyed by the weights: unequal squares (s^2 != t^2 mod d)
    uses the uniform two-ket environment and lands exactly on 1/2 bit;
    balanced (s = t) and anti-balanced (s = -t) use an asymmetric two-ket
    environment whose output spectra are known in closed form, with value
    about 0.0178 bits.
    """
    if not bsparams.nontrivial:
        raise ValueError("the construction needs nontrivial beam-splitter weights")
    p = bsparams.params
    if p.n != 1:
        raise ValueError("the construction is single-qudit")
    d, s, t = p.d, bsparams.s, bsparams.t

    if (s * s - t * t) % d != 0:
        env = preset_state("uniform-01", p)
        k = (pow(t, -1, d) * s) % d
        m = np.zeros((d, d), dtype=complex)
        m[0, 0] = m[k, k] = 0.5
        out_spec = (0.25, 0.25, 0.25, 0.25)
        comp_spec = (0.5, 0.25, 0.25)
        expected = shannon_entropy(out_spec) - shannon_entropy(comp_spec)
        return CapacityWitness(
            case="unequal-squares",
            environment=env,
            input_state=DensityMatrix(p, m),
            expected_bits=expected,
            output_spectrum=out_spec,
            complement_spectrum=comp_spec,
        )

    case = "balanced" if s == t else "anti-balanced"
    env = preset_state("appc-a" if case == "balanced" else "appc-b", p)
    # two-qudit reference/input pure vector with fixed amplitudes
    psi = np.zeros((2, d), dtype=complex)
    psi[0, 0] = math.sqrt(6) / 5
    psi[0, 1] = 3 / 5
    psi[1, 0] = math.sqrt(2 / 5)
    flat = psi.reshape(-1)
    rho = np.einsum("rarb->ab", np.outer(flat, flat.conj()).reshape(2, d, 2, d))
    out_spec = (
        66 / 125,
        (59 + math.sqrt(1321)) / 250,
        (59 - math.sqrt(1321)) / 250,
    )
    comp_spec = (
        59 / 125,
        3 * (11 + math.sqrt(61)) / 125,
        3 * (11 - math.sqrt(61)) / 125,
    )
    expected = shannon_entropy(out_spec) - shannon_entropy(comp_spec)
    return CapacityWitness(
        case=case,
        environment=env,
        input_state=DensityMatrix(p, rho),
        expected_bits=expected,
        output_spectrum=out_spec,
        complement_spectrum=comp_spec,
    )
