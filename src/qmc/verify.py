"""The claim suites and the one table that says which exist and when each runs.

Each suite checks one group of the paper's claims and reports through
``SuiteReport``, one pass/fail ``CheckLine`` per claim: theorem-2
(stabilizer environments give no capacity), theorem-3 (a magic environment
gives a gain), theorem-4 (the gain is bounded by magic and grows linearly in
its copies), theorem-5 (the symmetry identities), the phase-space lemmas and
the coding checks.  ``SUITES`` lists them with their premises; ``run_suite``
checks those premises (``check_suite_n``) and dispatches.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .capacity import OptimizerBudget, capacity_witness_construction, coherent_information, qcap_one_shot
from .channel import (
    BeamSplitterChannel,
    beam_splitter_permutation,
    complement_identity_check,
    convolve,
    degradation_witness,
    iterate_convolution,
)
from .coding import (
    entanglement_fidelity,
    fidelity_ratio_bound_check,
    magic_code_construction,
    stabilizer_ceiling_search,
    stabilizer_code_construction,
)
from .linalg import partial_trace
from .magic import mrm
from .states import (
    DensityMatrix,
    preset_state,
    random_density_matrix,
    random_pure_state,
    stabilizer_family,
)
from .weyl import (
    MAX_DIM,
    BSParams,
    QuditParams,
    characteristic_function,
    wigner_function,
    _digit_table,
    _weyl_exponents,
)


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

    def __post_init__(self):
        # a suite sized by a count below 1 would check nothing and still pass
        for name in ("samples", "env_samples", "trials", "logical_dim"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"{name} must be at least 1, got {value}")

    def params(self) -> QuditParams:
        return QuditParams(self.d, self.n)

    def bsparams(self) -> BSParams:
        return BSParams(self.params(), self.s, self.t)

    def budget(self) -> OptimizerBudget:
        return OptimizerBudget(restarts=self.restarts, iterations=self.iterations)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class CheckLine:
    claim: str
    measured: float
    threshold: float
    comparison: str = "<="

    @property
    def violation(self) -> float:
        """Signed slack; positive means the claim failed by that much."""
        if self.comparison == "<=":
            return self.measured - self.threshold
        return self.threshold - self.measured

    @property
    def passed(self) -> bool:
        return self.violation <= 0

    def to_dict(self) -> dict:
        return {**asdict(self), "pass": self.passed}


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


def _channel(cfg: VerifyConfig, env: DensityMatrix) -> BeamSplitterChannel:
    return BeamSplitterChannel(cfg.bsparams(), env)


def _suite_stabilizer_environments(cfg: VerifyConfig) -> SuiteReport:
    """Every minimal stabilizer-projection environment keeps coherent
    information nonpositive, for random inputs and under optimization."""
    params = cfg.params()
    family = stabilizer_family(params)
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(1)[0])
    inputs = [random_density_matrix(params, rng) for _ in range(cfg.samples)]
    chans = (_channel(cfg, family.state_at(idx)) for idx in range(len(family)))
    worst = max(coherent_information(chan, rho) for chan in chans for rho in inputs)
    report = SuiteReport(
        suite="theorem-2", config=cfg.to_dict(), samples=len(family) * cfg.samples
    )
    report.checks.append(
        CheckLine("coherent information over all stabilizer environments", worst, 1e-9)
    )
    env_rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(2)[1])
    picked = env_rng.choice(len(family), size=min(cfg.env_samples, len(family)), replace=False)
    best = max(
        qcap_one_shot(_channel(cfg, family.state_at(idx)), cfg.budget(), seed=cfg.seed + idx).best_value
        for idx in sorted(int(i) for i in picked)
    )
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
    for side, spectrum in (("output", witness.output_spectrum), ("complement", witness.complement_spectrum)):
        vals = np.linalg.eigvalsh(chan.apply_matrix(witness.input_state.matrix, complement=side == "complement"))
        expected = np.sort(np.array(spectrum + (0.0,) * (cfg.d - len(spectrum))))
        report.checks.append(CheckLine(f"{side} spectrum matches", float(np.max(np.abs(vals - expected))), 1e-9))
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
    chan2 = BeamSplitterChannel(BSParams(QuditParams(cfg.d, 2), cfg.s, cfg.t), env.tensor(env))
    worst_add = 0.0
    for k in range(3):
        rho = random_density_matrix(params, rng)
        one = coherent_information(chan1, rho)
        two = coherent_information(chan2, rho.tensor(rho))
        worst_add = max(worst_add, abs(two - 2 * one))
    report.checks.append(
        CheckLine("coherent information doubles on product environments", worst_add, 1e-8)
    )
    report.checks.extend(_k_copy_checks(cfg))
    return report


def _k_copy_checks(cfg: VerifyConfig) -> list[CheckLine]:
    """Linear growth in the number k of magic states: I_c of k witness copies
    and mrm of k witness environments against k times one copy, k = 1..3
    within ``MAX_DIM``."""
    witness = capacity_witness_construction(cfg.bsparams())
    env = env_k = witness.environment
    rho = rho_k = witness.input_state
    copies = [k for k in (1, 2, 3) if cfg.d**k <= MAX_DIM]
    one_ic, one_mrm = coherent_information(_channel(cfg, env), rho), mrm(env)
    worst_ic = worst_mrm = 0.0
    for k in copies:
        env_k, rho_k = (env_k.tensor(env), rho_k.tensor(rho)) if k > 1 else (env, rho)
        chan = BeamSplitterChannel(BSParams(QuditParams(cfg.d, k), cfg.s, cfg.t), env_k)
        worst_ic = max(worst_ic, abs(coherent_information(chan, rho_k) - k * one_ic))
        worst_mrm = max(worst_mrm, abs(mrm(env_k) - k * one_mrm))
    span = f"k = 1..{copies[-1]}"
    return [
        CheckLine(f"coherent information of k witness copies is k times one copy ({span})", worst_ic, 1e-9),
        CheckLine(f"magic of k witness environments is k times one copy ({span})", worst_mrm, 1e-9),
    ]


def _suite_symmetry(cfg: VerifyConfig) -> SuiteReport:
    params = cfg.params()
    bs = cfg.bsparams()
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(4)[3])
    report = SuiteReport(suite="theorem-5", config=cfg.to_dict(), samples=cfg.env_samples)
    envs = (random_density_matrix(params, rng) for _ in range(cfg.env_samples))
    worst = max(complement_identity_check(bs, env).frobenius_distance for env in envs)
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


def covariance_mismatches(bsparams: BSParams, label_map: tuple[tuple[int, int], tuple[int, int]]) -> int:
    """Count the (label pair, column) entries where U (w(a) x w(b)) U^dag and
    w(a') x w(b') differ, over all d^4 single-qudit label pairs (a, b).

    U is the beam splitter of ``bsparams`` (n = 1) and (a', b') = M (a, b)
    for the 2 x 2 integer ``label_map`` M, applied to both label components;
    the beam splitter's covariance is M = ((s, t), (-t, s)).  Both sides are
    monomial, so they are compared exactly: column by column, the row each
    one maps to and its phase exponent mod d.  U (w(a) x w(b)) U^dag sends
    |U(k, l)> to w^{e_a(k) + e_b(l)} |U(r_a(k), r_b(l))>, for w(a)|k> =
    w^{e_a(k)} |r_a(k)>.  One label a at a time, vectorized over b and the
    column, so memory stays at d^4 entries.
    """
    d = bsparams.params.d
    single = BSParams(QuditParams(d), bsparams.s, bsparams.t)
    perm = beam_splitter_permutation(single)
    labels = _digit_table(d, 2)  # label p * d + q holds (p, q)
    rows, expo = _weyl_exponents(single.params, labels[:, :1], labels[:, 1:])  # [label, ket]
    (m00, m01), (m10, m11) = label_map
    k, l = np.divmod(np.arange(d * d), d)  # column |k, l> before U
    c1, c2 = np.divmod(perm, d)  # the same column after U
    count = 0
    for a in range(d * d):
        a2 = ((m00 * labels[a] + m01 * labels) % d) @ (d, 1)  # [b]
        b2 = ((m10 * labels[a] + m11 * labels) % d) @ (d, 1)
        lhs_rows = perm[rows[a, k] * d + rows[:, l]]  # [b, column]
        rhs_rows = rows[a2][:, c1] * d + rows[b2][:, c2]
        lhs_expo = expo[a, k] + expo[:, l]
        rhs_expo = expo[a2][:, c1] + expo[b2][:, c2]
        count += int(np.count_nonzero((lhs_rows != rhs_rows) | ((lhs_expo - rhs_expo) % d != 0)))
    return count


def lemma_suite(cfg: VerifyConfig) -> SuiteReport:
    """Phase-space structure checks: duality, covariance, stability, the
    central-limit contraction, and Wigner nonnegativity of stabilizer states."""
    params = cfg.params()
    bs = cfg.bsparams()
    rng = np.random.default_rng(cfg.seed)
    report = SuiteReport(suite="lemmas", config=cfg.to_dict(), samples=cfg.samples)

    # multiplication rule of characteristic tables under convolution; the
    # channel itself is this rule, so its output is read off the Stinespring
    # amplitudes of a purification of rho instead
    worst = 0.0
    for _ in range(cfg.samples):
        rho = random_density_matrix(params, rng)
        sig = random_density_matrix(params, rng)
        joint = BeamSplitterChannel(bs, sig).reference_output(rho.purifier.T)  # psi[r, x]
        out = DensityMatrix(params, partial_trace(joint, [params.dim, params.dim], keep=[1]))
        lhs = characteristic_function(out).values
        rhs = characteristic_function(rho).scaled(bs.s) * characteristic_function(sig).scaled(bs.t)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    report.checks.append(CheckLine("convolution-multiplication duality", worst, 1e-10))

    # covariance of the two-register unitary on Weyl labels, exhaustive and
    # exact: the number of differing monomial entries
    mismatches = covariance_mismatches(bs, ((bs.s, bs.t), (-bs.t, bs.s)))
    report.checks.append(CheckLine("beam-splitter covariance on all label pairs", float(mismatches), 1e-12))

    # convolution keeps the enumerated family closed
    family = stabilizer_family(params)
    worst = 0.0
    pair_count = min(cfg.samples, 200)
    idx = rng.integers(0, len(family), size=(pair_count, 2))
    for i, j in idx:
        out = convolve(bs, family.state_at(int(i)), family.state_at(int(j)))
        _, dist = family.nearest_member_distance(out)
        worst = max(worst, dist)
    report.checks.append(CheckLine("convolution closure of the stabilizer family", worst, 1e-9))

    # repeated self-convolution contracts to the mean state
    worst_excess, slowest = 0.0, 0.0
    for _ in range(5):
        rho = random_density_matrix(params, rng)
        table = np.abs(characteristic_function(rho).values)
        sub_unit = table[table < 1.0 - 1e-9]
        m_star = float(sub_unit.max()) if sub_unit.size else 0.0
        trace = iterate_convolution(bs, rho, 60)
        for step, dist in trace:
            bound = m_star**step + 1e-12
            worst_excess = max(worst_excess, dist - bound)
        slowest = max(slowest, trace[-1][1])
    report.checks.append(CheckLine("central-limit contraction bound", worst_excess, 0.0))
    report.checks.append(CheckLine("central-limit distance after 60 steps", slowest, 1e-9))

    # Wigner nonnegativity across the family; negativity of generic pure states
    worst = max(0.0, *(-float(wigner_function(family.state_at(i)).min()) for i in range(len(family))))
    report.checks.append(CheckLine("stabilizer states have nonnegative Wigner tables", worst, 1e-12))
    hudson_trials = 100
    psis = (random_pure_state(params, rng) for _ in range(hudson_trials))
    negatives = sum(float(wigner_function(psi).min()) < -1e-6 for psi in psis)
    report.checks.append(
        CheckLine(
            "random pure states with a negative Wigner entry",
            float(negatives),
            float(hudson_trials - 1),
            comparison=">=",
        )
    )
    return report


def coding_suite(cfg: VerifyConfig) -> SuiteReport:
    params = cfg.params()
    bs = cfg.bsparams()
    report = SuiteReport(suite="coding", config=cfg.to_dict(), samples=cfg.trials)

    env0 = preset_state("ket-zero", params)
    chan0 = BeamSplitterChannel(bs, env0)
    codes = {k: stabilizer_code_construction(params, bs, k) for k in (2, 3, 4)}
    worst = max(abs(entanglement_fidelity(code, chan0) - 1.0 / k) for k, code in codes.items())
    report.checks.append(
        CheckLine("computational-ket codes reach exactly 1/K", worst, 1e-12)
    )

    if (bs.s**2 - bs.t**2) % cfg.d != 0:
        env, code = magic_code_construction(bs)
        value = entanglement_fidelity(code, BeamSplitterChannel(bs, env))
        report.checks.append(
            CheckLine("magic two-ket code reaches 3/4", abs(value - 0.75), 1e-9)
        )
        ratio = fidelity_ratio_bound_check(env, bs, 2, trials=min(cfg.trials, 50), seed=cfg.seed)
        report.checks.append(
            CheckLine(
                "fidelity advantage within the magic ratio bound",
                ratio.best_value,
                ratio.bound + ratio.tolerance,
            )
        )

    ceiling = stabilizer_ceiling_search(params, bs, cfg.logical_dim, cfg.trials, cfg.seed)
    report.checks.append(
        CheckLine(
            "ceiling search never beats 1/K on stabilizer environments",
            ceiling.best_value,
            ceiling.bound + ceiling.tolerance,
        )
    )
    report.checks.append(
        CheckLine(
            "search includes a code achieving the ceiling",
            ceiling.baseline_value,
            ceiling.bound - 1e-3,
            comparison=">=",
        )
    )
    return report


class Suite(NamedTuple):
    """One claim suite and the premises ``check_suite_n`` checks before it runs."""

    run: Callable[[VerifyConfig], SuiteReport]
    single_qudit: str | None  # why it runs at n = 1 only; None: at any n
    nontrivial: bool  # its claims are stated for nontrivial weights
    balanced_only: bool = False  # ``single_qudit`` holds only when s = t mod d
    copies: int = 1  # it builds channels on this many copies of one qudit, so d^copies must fit MAX_DIM
    needs_weights: bool = True  # the CLI asks for --s/--t; False runs at VerifyConfig's (2, 2)


# Every claim suite, in the order 'all' runs them.  With s or t = 0 mod d the
# channel only relabels its input or replaces it by the environment, which
# is why most claims need nontrivial weights.
SUITES = {
    "theorem-2": Suite(_suite_stabilizer_environments, "it enumerates the n = 1 stabilizer family", True),
    "theorem-3": Suite(_suite_magic_gain, "its witness construction is single-qudit", True),
    "theorem-4": Suite(_suite_magic_bound, "its witness construction is single-qudit", True, copies=2),
    "theorem-5": Suite(
        _suite_symmetry,
        "with s = t mod d it builds its degradation witness on the single-qudit symmetric two-ket state",
        False,
        balanced_only=True,
    ),
    "lemmas": Suite(
        lemma_suite,
        "it enumerates the n = 1 stabilizer family and every single-qudit label pair",
        True,
        needs_weights=False,
    ),
    "coding": Suite(coding_suite, "its magic code and ceiling search are single-qudit", True),
}


def suite_members(name: str) -> tuple[str, ...]:
    """The ``SUITES`` entries that suite ``name`` runs: every one, in order, for 'all'."""
    if name == "all":
        return tuple(SUITES)
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {('all', *SUITES)}")
    return (name,)


def check_suite_n(name: str, cfg: VerifyConfig) -> None:
    """Raise ValueError, naming the suite, when an entry it runs needs
    nontrivial weights that ``cfg`` lacks, runs at n = 1 only (with the
    entry's reason) and ``cfg.n`` is larger, or builds ``copies`` qudits
    whose d^copies exceeds ``MAX_DIM``."""
    balanced = cfg.s % cfg.d == cfg.t % cfg.d
    for member in suite_members(name):
        suite = SUITES[member]
        if suite.nontrivial and not cfg.bsparams().nontrivial:
            raise ValueError(
                f"suite {name!r} checks claims that need nontrivial weights (s^2 and t^2 not 0 or 1 "
                f"mod d), got (s, t) = ({cfg.s}, {cfg.t}) at d={cfg.d}"
            )
        if cfg.n != 1 and suite.single_qudit and (balanced or not suite.balanced_only):
            raise ValueError(f"suite {name!r} runs at n=1 only, got n={cfg.n} ({member}: {suite.single_qudit})")
        if cfg.d**suite.copies > MAX_DIM:
            raise ValueError(
                f"suite {name!r} builds {suite.copies}-qudit channels, and d^{suite.copies} = "
                f"{cfg.d**suite.copies} exceeds supported size {MAX_DIM} ({member})"
            )


def run_suite(name: str, cfg: VerifyConfig) -> list[SuiteReport]:
    """One report per entry that suite ``name`` runs, once its premises hold."""
    check_suite_n(name, cfg)
    return [SUITES[member].run(cfg) for member in suite_members(name)]
