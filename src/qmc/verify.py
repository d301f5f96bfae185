"""Aggregate verification suites: phase-space lemmas and the coding checks.

Complements the per-claim capacity suites; everything here reports through
the same SuiteReport structure so the CLI can print one pass/fail line per
claim.
"""

from __future__ import annotations

import numpy as np

from .capacity import CheckLine, SuiteReport, VerifyConfig, verify_theorem
from .channel import BeamSplitterChannel, beam_splitter_permutation, convolve, iterate_convolution
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
from .weyl import BSParams, QuditParams, characteristic_function, wigner_function, _digit_table, _weyl_exponents


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
        vals, vecs = np.linalg.eigh(rho.matrix)
        psi = (vecs * np.sqrt(np.clip(vals, 0.0, None))).T  # psi[r, x]
        joint = BeamSplitterChannel(bs, sig).reference_output(psi)
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


SUITE_NAMES = ("all", "theorem-2", "theorem-3", "theorem-4", "theorem-5", "lemmas", "coding")
# suites built on the n=1 stabilizer family, the single-qudit witness
# constructions or single-qudit preset environments.  Their claims are
# stated for nontrivial weights: with s or t = 0 mod d the channel only
# relabels its input or replaces it by the environment.
SINGLE_QUDIT_SUITES = ("all", "theorem-2", "theorem-3", "theorem-4", "lemmas", "coding")


def check_suite_n(name: str, cfg: VerifyConfig) -> None:
    """Raise ValueError, naming the suite, when it cannot run at ``cfg.n`` or
    when its claims need nontrivial weights and ``cfg`` has trivial ones."""
    if name in SINGLE_QUDIT_SUITES and not cfg.bsparams().nontrivial:
        raise ValueError(
            f"suite {name!r} checks claims that need nontrivial weights (s^2 and t^2 not 0 or 1 "
            f"mod d), got (s, t) = ({cfg.s}, {cfg.t}) at d={cfg.d}"
        )
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
