"""Aggregate verification suites: phase-space lemmas and the coding checks.

Complements the per-claim capacity suites; everything here reports through
the same SuiteReport structure so the CLI can print one pass/fail line per
claim.
"""

from __future__ import annotations

import numpy as np

from .capacity import CheckLine, SuiteReport, VerifyConfig, verify_theorem
from .channel import BeamSplitterChannel, convolve, iterate_convolution
from .coding import (
    entanglement_fidelity,
    fidelity_ratio_bound_check,
    magic_code_construction,
    stabilizer_ceiling_search,
    stabilizer_code_construction,
)
from .linalg import partial_trace
from .states import (
    DensityMatrix,
    preset_state,
    random_density_matrix,
    random_pure_state,
    stabilizer_family,
)
from .weyl import characteristic_function, wigner_function


def lemma_suite(cfg: VerifyConfig) -> SuiteReport:
    """Phase-space structure checks: duality, covariance, stability, the
    central-limit contraction, and Wigner nonnegativity of stabilizer states."""
    params = cfg.params()
    bs = cfg.bsparams()
    d = cfg.d
    rng = np.random.default_rng(cfg.seed)
    report = SuiteReport(suite="lemmas", config=cfg.to_dict(), samples=cfg.samples)

    # multiplication rule of characteristic tables under convolution; the
    # channel itself is this rule, so its output is read off the Stinespring
    # amplitudes of a purification of rho instead
    worst = 0.0
    for _ in range(cfg.samples):
        rho = random_density_matrix(params, rng)
        sig = random_density_matrix(params, rng)
        vals, vecs = np.linalg.eigh(rho.matrix)
        psi = (vecs * np.sqrt(np.clip(vals, 0.0, None))).T  # psi[r, x]
        joint = BeamSplitterChannel(bs, sig).reference_output(psi)
        out = DensityMatrix(params, partial_trace(joint, [params.dim, params.dim], keep=[1]))
        lhs = characteristic_function(out).values
        rhs = characteristic_function(rho).scaled(bs.s) * characteristic_function(sig).scaled(bs.t)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    report.checks.append(CheckLine("convolution-multiplication duality", worst, 1e-10))

    # covariance of the two-register unitary on Weyl labels, exhaustive
    from .weyl import QuditParams, WeylIndex, weyl_operator
    from .channel import beam_splitter_permutation

    single = QuditParams(d, 1)
    perm = beam_splitter_permutation(type(bs)(single, bs.s, bs.t))
    inv = np.empty_like(perm)
    inv[perm] = np.arange(perm.size)
    ops = {}
    for p in range(d):
        for q in range(d):
            ops[(p, q)] = weyl_operator(single, WeylIndex.make(single, p, q))
    worst = 0.0
    for (pa, qa), wa in ops.items():
        for (pb, qb), wb in ops.items():
            lhs = np.kron(wa, wb)[np.ix_(inv, inv)]
            wa2 = ops[((bs.s * pa + bs.t * pb) % d, (bs.s * qa + bs.t * qb) % d)]
            wb2 = ops[((-bs.t * pa + bs.s * pb) % d, (-bs.t * qa + bs.s * qb) % d)]
            worst = max(worst, float(np.max(np.abs(lhs - np.kron(wa2, wb2)))))
    report.checks.append(CheckLine("beam-splitter covariance on all label pairs", worst, 1e-12))

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
    worst = 0.0
    for i in range(len(family)):
        worst = max(worst, -float(wigner_function(family.state_at(i)).min()))
    report.checks.append(CheckLine("stabilizer states have nonnegative Wigner tables", worst, 1e-12))
    negatives = 0
    hudson_trials = 100
    for _ in range(hudson_trials):
        psi = random_pure_state(params, rng)
        if float(wigner_function(psi).min()) < -1e-6:
            negatives += 1
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
    worst = 0.0
    for k in (2, 3, 4):
        code = stabilizer_code_construction(params, bs, k)
        worst = max(worst, abs(entanglement_fidelity(code, chan0) - 1.0 / k))
    report.checks.append(
        CheckLine("computational-ket codes reach exactly 1/K", worst, 1e-12)
    )

    if bs.nontrivial and (bs.s**2 - bs.t**2) % cfg.d != 0:
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


SUITE_NAMES = ("all", "theorem-2", "theorem-3", "theorem-4", "theorem-5", "lemmas", "coding")
# suites built on the n=1 stabilizer family, the single-qudit witness
# constructions or single-qudit preset environments
SINGLE_QUDIT_SUITES = ("all", "theorem-2", "theorem-3", "theorem-4", "lemmas", "coding")


def check_suite_n(name: str, cfg: VerifyConfig) -> None:
    """Raise ValueError, naming the suite, when it cannot run at ``cfg.n``."""
    if cfg.n == 1:
        return
    if name in SINGLE_QUDIT_SUITES:
        raise ValueError(f"suite {name!r} runs at n=1 only, got n={cfg.n}")
    if name == "theorem-5" and cfg.s % cfg.d == cfg.t % cfg.d:
        raise ValueError(
            "suite 'theorem-5' with s = t mod d builds its degradation witness on the single-qudit "
            f"symmetric two-ket state, so it runs at n=1 only, got n={cfg.n}"
        )


def run_suite(name: str, cfg: VerifyConfig) -> list[SuiteReport]:
    check_suite_n(name, cfg)
    if name == "lemmas":
        return [lemma_suite(cfg)]
    if name == "coding":
        return [coding_suite(cfg)]
    if name.startswith("theorem-"):
        return [verify_theorem(name, cfg)]
    if name == "all":
        out = [verify_theorem(f"theorem-{k}", cfg) for k in (2, 3, 4, 5)]
        out.append(lemma_suite(cfg))
        out.append(coding_suite(cfg))
        return out
    raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
