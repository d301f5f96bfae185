"""Coherent information, the one-shot capacity optimizer, and claim suites.

The optimizer reports certified lower bounds only: the value returned is the
best coherent information actually evaluated, never an optimality claim.
Upper bounds come from the proven claims exercised by the verification
suites, not from optimization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache
from itertools import combinations

import numpy as np
from scipy import optimize

from .channel import BeamSplitterChannel, check_side, complement_identity_check, degradation_witness
from .linalg import shannon_entropy, von_neumann_entropy
from .magic import mrm
from .parallel import parallel_map
from .states import (
    DensityMatrix,
    preset_state,
    random_density_matrix,
    stabilizer_family,
)
from .weyl import BSParams, QuditParams

LOG_FLOOR = 1e-300  # eigenvalues are floored here inside the gradient's log2


def _ic_matrix_fn(chan: BeamSplitterChannel):
    """Coherent-information evaluator on raw matrices, built once per channel.

    I_c = S(N(rho)) - S(N^c(rho)), with the complement landing on E x E',
    where E' purifies the environment as sigma = P P^dag.  With (Ic, Jc) the
    complement's gather indices,

        N^c(rho)[(e, k), (f, l)] = sum_a rho[Ic[e, a], Ic[f, a]] P[Jc[e, a], k] conj(P[Jc[f, a], l]).

    Reference, output, E and E' then share a pure state, so the entropy
    difference is the coherent information for every environment, and the
    map is linear in rho (no eigendecomposition of the input).

    ``ic(m)`` takes eigenvalues only.  ``ic(m, grad=True)`` returns
    ``(I_c, A)`` with dI_c = Tr(A dm) for Hermitian dm:

        A = -N^dag(log2 N(m)) + N^c^dag(log2 N^c(m)).

    The 1/ln 2 terms of the two entropy derivatives cancel because both maps
    preserve the trace.  Each adjoint is a scatter-add (``np.bincount``) onto
    the positions its forward map gathers from, transposed.
    """
    i, j = chan.gather_indices()
    ic_idx, jc = chan.gather_indices(complement=True)
    purifier = chan.environment_purifier()
    dim, rank = purifier.shape
    size = dim * rank
    check_side(dim, rank, dim * size * dim)
    pj = purifier[jc]  # [e, a, k]
    left = np.ascontiguousarray(pj.transpose(0, 2, 1))  # [e, k, a]
    right = pj.conj()  # [f, a, l]
    rows, cols = ic_idx[None, :, :], ic_idx[:, None, :]  # gathers rho as [f, e, a]

    @cache
    def adjoint_tables():
        """Scatter positions and fixed factors: the channel's terms as
        [a, a', b], the complement's as [f, a, e]; built on the first gradient."""
        sigma_terms = chan.environment.matrix[j[:, None, :], j[None, :, :]]
        flat = np.concatenate([
            (i[:, None, :] * dim + i[None, :, :]).ravel(),
            (ic_idx.T[None, :, :] * dim + ic_idx[:, :, None]).ravel(),
        ])
        return sigma_terms, flat, pj.transpose(1, 0, 2)  # the last as [a, e, k]

    def complement(m: np.ndarray) -> np.ndarray:
        terms = (m[rows, cols][:, :, None, :] * left).reshape(dim, size, dim)  # [f, (e, k), a]
        return (terms @ right).transpose(1, 0, 2).reshape(size, size)

    def ic(m: np.ndarray, grad: bool = False):
        out = chan.apply_matrix(m)
        if not grad:
            return von_neumann_entropy(out) - von_neumann_entropy(complement(m))
        sigma_terms, flat, pj_ae = adjoint_tables()
        s_out, log_out = _entropy_and_log(out)
        s_comp, log_comp = _entropy_and_log(complement(m))
        # W[f, a, e] = sum_{k, l} log_comp[(f, l), (e, k)] P[Jc[e, a], k] conj(P[Jc[f, a], l])
        t = (right @ log_comp.reshape(dim, rank, size)).reshape(dim, dim, dim, rank)
        weights = np.concatenate([
            -(log_out.T[:, :, None] * sigma_terms).ravel(),
            np.einsum("faek,aek->fae", t, pj_ae).ravel(),
        ])
        a = np.bincount(flat, weights.real, dim * dim) + 1j * np.bincount(flat, weights.imag, dim * dim)
        return s_out - s_comp, a.reshape(dim, dim).T

    return ic


def _entropy_and_log(m: np.ndarray) -> tuple[float, np.ndarray]:
    """Entropy in bits and log2 of a density matrix, eigenvalues floored at
    ``LOG_FLOOR`` inside the logarithm."""
    vals, vecs = np.linalg.eigh(m)
    logs = np.log2(np.maximum(vals, LOG_FLOOR))
    return shannon_entropy(np.clip(vals, 0.0, None)), (vecs * logs) @ vecs.conj().T


def coherent_information(chan: BeamSplitterChannel, rho: DensityMatrix) -> float:
    """Coherent information of one input through the channel, in bits.

    One route for every environment: S(channel output) - S(complement output
    on the traced register and the environment purifier).
    """
    return _ic_matrix_fn(chan)(rho.matrix)


def coherent_information_purification(chan: BeamSplitterChannel, rho: DensityMatrix) -> float:
    """S(output) - S(reference/output state), from the other side of the same
    pure state: the input is purified by its eigenvectors and sent through
    the Stinespring amplitudes.

    Agreement with ``coherent_information`` guards the Stinespring wiring.
    """
    vals, vecs = np.linalg.eigh(rho.matrix)
    keep = vals > 1e-14
    psi = (vecs[:, keep] * np.sqrt(vals[keep])).T  # psi[r, x]
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
            "budget": {
                "restarts": self.budget.restarts,
                "iterations": self.budget.iterations,
                "pool_random": self.budget.pool_random,
                "pool_pairs": self.budget.pool_pairs,
                "polish_steps": self.budget.polish_steps,
            },
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


# ---------------------------------------------------------------------------
# Claim suites
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VerifyConfig:
    d: int = 7
    s: int = 2
    t: int = 2
    n: int = 1
    seed: int = 0
    samples: int = 100
    env_samples: int = 5
    restarts: int = 32
    iterations: int = 2000
    trials: int = 200
    logical_dim: int = 2

    def params(self) -> QuditParams:
        return QuditParams(self.d, self.n)

    def bsparams(self) -> BSParams:
        return BSParams(self.params(), self.s, self.t)

    def budget(self) -> OptimizerBudget:
        return OptimizerBudget(restarts=self.restarts, iterations=self.iterations)

    def to_dict(self) -> dict:
        return {
            "d": self.d,
            "s": self.s,
            "t": self.t,
            "n": self.n,
            "seed": self.seed,
            "samples": self.samples,
            "env_samples": self.env_samples,
            "restarts": self.restarts,
            "iterations": self.iterations,
            "trials": self.trials,
            "logical_dim": self.logical_dim,
        }


@dataclass(frozen=True)
class CheckLine:
    claim: str
    measured: float
    threshold: float
    comparison: str = "<="

    @property
    def passed(self) -> bool:
        if self.comparison == "<=":
            return self.measured <= self.threshold
        return self.measured >= self.threshold

    @property
    def violation(self) -> float:
        """Signed slack; positive means the claim failed by that much."""
        if self.comparison == "<=":
            return self.measured - self.threshold
        return self.threshold - self.measured

    def to_dict(self) -> dict:
        return {
            "claim": self.claim,
            "measured": self.measured,
            "threshold": self.threshold,
            "comparison": self.comparison,
            "pass": self.passed,
        }


@dataclass
class SuiteReport:
    suite: str
    config: dict
    samples: int
    checks: list[CheckLine] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def worst_violation(self) -> float:
        return max((c.violation for c in self.checks), default=-math.inf)

    def to_dict(self) -> dict:
        return {
            "theorem": self.suite,
            "config": self.config,
            "samples": self.samples,
            "worst_violation": self.worst_violation,
            "pass": self.passed,
            "checks": [c.to_dict() for c in self.checks],
        }

    def lines(self) -> list[str]:
        out = []
        for c in self.checks:
            flag = "PASS" if c.passed else "FAIL"
            out.append(f"[{flag}] {self.suite}: {c.claim} (measured {c.measured:.6g}, "
                       f"{c.comparison} {c.threshold:.6g})")
        return out


THEOREM_SUITES = ("theorem-2", "theorem-3", "theorem-4", "theorem-5")


def verify_theorem(theorem_id: str, cfg: VerifyConfig) -> SuiteReport:
    if theorem_id == "theorem-2":
        return _suite_stabilizer_environments(cfg)
    if theorem_id == "theorem-3":
        return _suite_magic_gain(cfg)
    if theorem_id == "theorem-4":
        return _suite_magic_bound(cfg)
    if theorem_id == "theorem-5":
        return _suite_symmetry(cfg)
    raise ValueError(f"unknown theorem id {theorem_id!r}; choose from {THEOREM_SUITES}")


def _channel(cfg: VerifyConfig, env: DensityMatrix) -> BeamSplitterChannel:
    return BeamSplitterChannel(cfg.bsparams(), env)


def _suite_stabilizer_environments(cfg: VerifyConfig) -> SuiteReport:
    """Every minimal stabilizer-projection environment keeps coherent
    information nonpositive, for random inputs and under optimization."""
    params = cfg.params()
    family = stabilizer_family(params)
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(1)[0])
    inputs = [random_density_matrix(params, rng) for _ in range(cfg.samples)]

    def worst_for_env(idx: int) -> float:
        chan = _channel(cfg, family.state_at(idx))
        return max(coherent_information(chan, rho) for rho in inputs)

    worst = max(parallel_map(worst_for_env, range(len(family))))
    report = SuiteReport(
        suite="theorem-2", config=cfg.to_dict(), samples=len(family) * cfg.samples
    )
    report.checks.append(
        CheckLine("coherent information over all stabilizer environments", worst, 1e-9)
    )

    env_rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(2)[1])
    picked = env_rng.choice(len(family), size=min(cfg.env_samples, len(family)), replace=False)
    best = -math.inf
    for idx in sorted(int(i) for i in picked):
        result = qcap_one_shot(_channel(cfg, family.state_at(idx)), cfg.budget(), seed=cfg.seed + idx)
        best = max(best, result.best_value)
    report.checks.append(
        CheckLine("optimizer lower bound over sampled stabilizer environments", best, 1e-6)
    )
    return report


def _suite_magic_gain(cfg: VerifyConfig) -> SuiteReport:
    witness = capacity_witness_construction(cfg.bsparams())
    chan = _channel(cfg, witness.environment)
    measured = coherent_information(chan, witness.input_state)
    report = SuiteReport(suite="theorem-3", config=cfg.to_dict(), samples=1)
    report.checks.append(
        CheckLine(
            f"construction ({witness.case}) value {measured:.6f} matches its closed form "
            f"{witness.expected_bits:.6f}",
            abs(measured - witness.expected_bits),
            1e-9,
        )
    )
    out_vals = np.linalg.eigvalsh(chan.apply_matrix(witness.input_state.matrix))[::-1]
    comp_vals = np.linalg.eigvalsh(chan.apply_matrix(witness.input_state.matrix, complement=True))[::-1]
    expected_out = np.sort(np.array(witness.output_spectrum + (0.0,) * (cfg.d - len(witness.output_spectrum))))[::-1]
    expected_comp = np.sort(np.array(witness.complement_spectrum + (0.0,) * (cfg.d - len(witness.complement_spectrum))))[::-1]
    report.checks.append(
        CheckLine("output spectrum matches", float(np.max(np.abs(out_vals - expected_out))), 1e-9)
    )
    report.checks.append(
        CheckLine(
            "complement spectrum matches", float(np.max(np.abs(comp_vals - expected_comp))), 1e-9
        )
    )
    if witness.case in ("balanced", "anti-balanced"):
        report.checks.append(
            CheckLine("value close to 0.0178", abs(measured - 0.0178), 5e-4)
        )
    result = qcap_one_shot(
        chan, cfg.budget(), seed=cfg.seed, initial_states=(witness.input_state,)
    )
    report.checks.append(
        CheckLine(
            "optimizer confirms the constructed value as a lower bound",
            result.best_value,
            witness.expected_bits - 1e-6,
            comparison=">=",
        )
    )
    return report


def _suite_magic_bound(cfg: VerifyConfig) -> SuiteReport:
    params = cfg.params()
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(3)[2])
    report = SuiteReport(suite="theorem-4", config=cfg.to_dict(), samples=cfg.env_samples)
    worst_slack = -math.inf
    for k in range(cfg.env_samples):
        env = random_density_matrix(params, rng)
        bound = mrm(env)
        result = qcap_one_shot(_channel(cfg, env), cfg.budget(), seed=cfg.seed + 1000 + k)
        worst_slack = max(worst_slack, result.best_value - bound)
    report.checks.append(
        CheckLine("optimizer lower bound minus magic bound over random environments", worst_slack, 1e-6)
    )
    env = preset_state("uniform-01", params)
    report.checks.append(
        CheckLine(
            "uniform two-ket environment has magic log2(d)",
            abs(mrm(env) - math.log2(cfg.d)),
            1e-9,
        )
    )
    chan1 = _channel(cfg, env)
    params2 = QuditParams(cfg.d, 2)
    bs2 = BSParams(params2, cfg.s, cfg.t)
    chan2 = BeamSplitterChannel(bs2, env.tensor(env))
    worst_add = 0.0
    for k in range(3):
        rho = random_density_matrix(params, rng)
        one = coherent_information(chan1, rho)
        two = coherent_information(chan2, rho.tensor(rho))
        worst_add = max(worst_add, abs(two - 2 * one))
    report.checks.append(
        CheckLine("coherent information doubles on product environments", worst_add, 1e-8)
    )
    return report


def _suite_symmetry(cfg: VerifyConfig) -> SuiteReport:
    params = cfg.params()
    bs = cfg.bsparams()
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(4)[3])
    report = SuiteReport(suite="theorem-5", config=cfg.to_dict(), samples=cfg.env_samples)
    worst = 0.0
    for _ in range(cfg.env_samples):
        env = random_density_matrix(params, rng)
        worst = max(worst, complement_identity_check(bs, env).frobenius_distance)
    report.checks.append(
        CheckLine("complement identity over random environments (Choi distance)", worst, 1e-9)
    )
    if bs.s % cfg.d == bs.t % cfg.d:
        env = preset_state("symmetric-pm1", params)
        witness = degradation_witness(bs, env)
        report.checks.append(
            CheckLine("degradation witness for the symmetric two-ket state", witness.frobenius_distance, 1e-9)
        )
        result = qcap_one_shot(_channel(cfg, env), cfg.budget(), seed=cfg.seed)
        report.checks.append(
            CheckLine("optimizer lower bound on the symmetric environment", result.best_value, 1e-4)
        )
    return report
