"""The three benchmark workloads: seeded inputs, timed calls, and re-checks.

Every workload is a list of passes.  A pass is a fixed mix of request kinds;
each pass draws fresh inputs from the seed, so a run of ``P`` passes sends
``P`` times the same kinds to the library with different states.  A request
is one call into the library (the timed part) plus a check of its result that
runs afterwards, outside the timed region.

All inputs are drawn here with numpy from ``--seed``; the library receives
only the finished states and configs.  Library calls go through module
attributes (``cap.qcap_one_shot``, not an imported name) so that the traced
run sees them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import qmc.capacity as cap
import qmc.channel as chl
import qmc.coding as cod
import qmc.magic as mag
import qmc.parallel as par
import qmc.states as sts
import qmc.weyl as wl

P7 = wl.QuditParams(7)
P13 = wl.QuditParams(13)
P49 = wl.QuditParams(7, 2)
BS7 = wl.BSParams(P7, 2, 2)
BS13 = wl.BSParams(P13, 2, 6)
BS49 = wl.BSParams(P49, 2, 2)

# capacity: the budget acceptance criterion 4 pins
BUDGET = cap.OptimizerBudget(restarts=4, iterations=300)
CAPACITY_MIXED = 10  # random mixed environments per capacity pass
SWEEP_BATCH = 12  # inputs per theorem-2 slice, each run against all 57 environments
RATIO_TRIALS_D7 = 10
RATIO_TRIALS_D13 = 60
CEILING_TRIALS_D13 = 100
LOGICAL_DIM = 2


@dataclass
class Verdict:
    ok: bool
    detail: str = ""
    bracket_bits: float | None = None  # magic upper bound minus certified lower bound


@dataclass
class Request:
    kind: str
    call: Callable[[], object]
    check: Callable[[object], Verdict]


@dataclass
class Plan:
    warmup: Request
    passes: list[list[Request]]


# ---------------------------------------------------------------------------
# Input generation (numpy only)
# ---------------------------------------------------------------------------


def _state(params, matrix) -> sts.DensityMatrix:
    matrix = (matrix + matrix.conj().T) / 2
    return sts.DensityMatrix(params, matrix / np.trace(matrix).real)


def random_mixed(params, rng) -> sts.DensityMatrix:
    """Full-rank state G G^dag / Tr from a complex Gaussian G."""
    g = rng.normal(size=(params.dim, params.dim)) + 1j * rng.normal(size=(params.dim, params.dim))
    return _state(params, g @ g.conj().T)


def random_pure(params, rng) -> sts.DensityMatrix:
    v = rng.normal(size=params.dim) + 1j * rng.normal(size=params.dim)
    return _state(params, np.outer(v, v.conj()))


def parity_symmetric(params, rng) -> sts.DensityMatrix:
    """(rho + P rho P) / 2 for the parity permutation P: |k> -> |-k>."""
    rho = random_mixed(params, rng).matrix
    neg = (-np.arange(params.dim)) % params.d
    return _state(params, (rho + rho[np.ix_(neg, neg)]) / 2)


def clifford_rotated(rho: sts.DensityMatrix, rng) -> sts.DensityMatrix:
    """Conjugate a single-qudit state by diag(w^{a k^2}) X^c Z^b, a seeded Clifford."""
    d = rho.params.d
    k = np.arange(d)
    a, b, c = (int(v) for v in rng.integers(0, d, size=3))
    omega = np.exp(2j * np.pi / d)
    u = np.diag(omega ** ((a * k * k) % d)) @ np.roll(np.diag(omega ** ((b * k) % d)), c, axis=0)
    return _state(rho.params, u @ rho.matrix @ u.conj().T)


def _seeds(rng, count: int) -> list[int]:
    return [int(v) for v in rng.integers(0, 2**31, size=count)]


def common_setup():
    """Work every workload pays before its first request: the d=7 and d=13
    stabilizer families and the d=7 pure-projector stack."""
    family7 = sts.stabilizer_family(P7)
    family13 = sts.stabilizer_family(P13)
    projectors7 = sts.pure_stabilizer_projectors(P7)
    return family7, family13, projectors7


# ---------------------------------------------------------------------------
# capacity: one qcap_one_shot per request
# ---------------------------------------------------------------------------


def _capacity_request(kind, bsparams, env, seed, limit, initial=(), expected=None) -> Request:
    """``limit`` is an upper bound on the certified value; ``expected`` a lower one."""
    chan = chl.BeamSplitterChannel(bsparams, env)
    bound = mag.mrm(env)
    if limit is None:
        limit = bound + 1e-6

    def call():
        return cap.qcap_one_shot(chan, BUDGET, seed=seed, initial_states=initial)

    def check(report) -> Verdict:
        recomputed = cap.coherent_information(chan, report.best_state)
        problems = []
        if abs(recomputed - report.best_value) > 1e-9:
            problems.append(f"recomputed {recomputed!r} != best {report.best_value!r}")
        if report.best_value > limit:
            problems.append(f"best {report.best_value!r} above {limit!r}")
        if expected is not None and report.best_value < expected - 1e-6:
            problems.append(f"best {report.best_value!r} below witness {expected!r}")
        return Verdict(not problems, "; ".join(problems), bound - report.best_value)

    return Request(kind, call, check)


def build_capacity(seed: int, passes: int) -> Plan:
    family7, _, _ = common_setup()
    rng = np.random.default_rng([seed, 1])
    pure_members = [i for i, m in enumerate(family7.members) if m.rank == 1]
    symmetric = sts.preset_state("symmetric-pm1", P7)
    witness7 = cap.capacity_witness_construction(BS7)
    witness13 = cap.capacity_witness_construction(BS13)

    def witness_request(seed_):
        return _capacity_request(
            "witness-d7", BS7, witness7.environment, seed_, None,
            initial=(witness7.input_state,), expected=witness7.expected_bits,
        )

    warmup = witness_request(_seeds(rng, 1)[0])
    plan = []
    for _ in range(passes):
        s = _seeds(rng, 5 + CAPACITY_MIXED)
        member = int(rng.choice(pure_members))
        fast = [
            _capacity_request("stabilizer", BS7, family7.state_at(member), s[0], 1e-6),
            _capacity_request("symmetric", BS7, symmetric, s[1], 1e-4),
            witness_request(s[2]),
        ]
        slow = [
            _capacity_request(
                "witness-d13", BS13, witness13.environment, s[3 + i], None, expected=witness13.expected_bits
            )
            for i in range(2)
        ]
        mixed = [
            _capacity_request("mixed", BS7, random_mixed(P7, rng), s[5 + i], None) for i in range(CAPACITY_MIXED)
        ]
        # Latencies sort as 3 fast, the mixed block, 2 slow, so the median lies
        # in the middle of the mixed block.  The kinds are spread over the pass
        # so that no kind sits in one stretch of the host's speed swings.
        third = CAPACITY_MIXED // 3
        plan.append(
            fast[:1] + mixed[:third] + slow[:1] + fast[1:2] + mixed[third : 2 * third]
            + fast[2:] + slow[1:] + mixed[2 * third :]
        )
    return Plan(warmup, plan)


# ---------------------------------------------------------------------------
# sweep: optimizer-free claim checks
# ---------------------------------------------------------------------------


def _slice_request(family7, inputs) -> Request:
    """Theorem-2 slice: worst coherent information of a batch over all environments."""

    def worst_for_env(idx: int) -> float:
        chan = chl.BeamSplitterChannel(BS7, family7.state_at(idx))
        return max(cap.coherent_information(chan, rho) for rho in inputs)

    def call():
        return par.parallel_map(worst_for_env, range(len(family7)))

    def check(worst) -> Verdict:
        top = max(worst)
        # stabilizer environments have zero magic, so the upper bound is 0
        bracket = float(np.mean([-w for w in worst]))
        return Verdict(top <= 1e-9, f"worst coherent information {top:.3e}", bracket)

    return Request("theorem2-slice", call, check)


def _distance_request(kind, call) -> Request:
    def check(report) -> Verdict:
        ok = report.frobenius_distance <= 1e-9 and report.passed
        return Verdict(ok, f"Choi distance {report.frobenius_distance:.3e}")

    return Request(kind, call, check)


def _complement_request(bsparams, env) -> Request:
    return _distance_request(
        f"complement-d{bsparams.params.dim}", lambda: chl.complement_identity_check(bsparams, env)
    )


def _degradation_request(rng) -> Request:
    """Balanced channel with a displaced parity-symmetric environment."""
    sigma0 = parity_symmetric(P7, rng)
    p, q = (int(v) for v in rng.integers(0, 7, size=2))
    shift = wl.WeylIndex.make(P7, p, q)
    w = wl.weyl_operator(P7, shift)
    env = _state(P7, w @ sigma0.matrix @ w.conj().T)
    return _distance_request(
        "degradation-d7", lambda: chl.degradation_witness(BS7, env, displacement=shift)
    )


def _additivity_request(rng) -> Request:
    """I_c on the two-copy product channel equals twice the single-copy value."""
    env = random_pure(P7, rng)
    rho = random_mixed(P7, rng)
    chan1 = chl.BeamSplitterChannel(BS7, env)
    chan2 = chl.BeamSplitterChannel(BS49, env.tensor(env))
    rho2 = rho.tensor(rho)

    def call():
        return cap.coherent_information(chan2, rho2), cap.coherent_information(chan1, rho)

    def check(values) -> Verdict:
        two, one = values
        defect = abs(two - 2 * one)
        return Verdict(defect <= 1e-8, f"additivity defect {defect:.3e}")

    return Request("additivity-d49", call, check)


def _duality_request(params, bsparams, rng) -> Request:
    """Characteristic table of a convolution is the product of scaled tables."""
    rho, sigma = random_mixed(params, rng), random_mixed(params, rng)
    s_idx = wl.scale_indices(params.d, params.n, bsparams.s)
    t_idx = wl.scale_indices(params.d, params.n, bsparams.t)

    def call():
        out = chl.convolve(bsparams, rho, sigma)
        lhs = wl.characteristic_function(out).values
        rt = wl.characteristic_function(rho).values
        st = wl.characteristic_function(sigma).values
        return lhs, rt[np.ix_(s_idx, s_idx)] * st[np.ix_(t_idx, t_idx)]

    def check(tables) -> Verdict:
        defect = float(np.max(np.abs(tables[0] - tables[1])))
        return Verdict(defect <= 1e-10, f"duality defect {defect:.3e}")

    return Request(f"duality-d{params.dim}", call, check)


def _roundtrip_request(params, rng) -> Request:
    """Characteristic table, its inverse transform, and the Wigner table.

    The Wigner table is checked against the symplectic Fourier transform of
    the characteristic table, W = conj(E) Xi^T E / d^n with E[a, b] =
    w^{a.b}, computed here with plain matrix products.
    """
    rho = random_mixed(params, rng)
    e1 = np.exp(2j * np.pi / params.d * np.outer(np.arange(params.d), np.arange(params.d)))
    e = e1
    for _ in range(params.n - 1):
        e = np.kron(e, e1)

    def call():
        table = wl.characteristic_function(rho)
        return table.values, wl.inverse_weyl_transform(table), wl.wigner_function(rho)

    def check(out) -> Verdict:
        xi, back, wigner = out
        inverse = float(np.max(np.abs(back - rho.matrix)))
        expected = (e.conj() @ xi.T @ e).real / params.dim
        wdefect = float(np.max(np.abs(wigner - expected)))
        ok = inverse <= 1e-10 and wdefect <= 1e-9
        return Verdict(ok, f"inverse defect {inverse:.3e}, Wigner defect {wdefect:.3e}")

    return Request(f"roundtrip-d{params.dim}", call, check)


def build_sweep(seed: int, passes: int) -> Plan:
    family7, _, _ = common_setup()
    rng = np.random.default_rng([seed, 2])
    warmup = _slice_request(family7, [random_mixed(P7, rng) for _ in range(SWEEP_BATCH)])
    plan = []
    for _ in range(passes):
        batch = [
            _slice_request(family7, [random_mixed(P7, rng) for _ in range(SWEEP_BATCH)]),
            _slice_request(family7, [random_mixed(P7, rng) for _ in range(SWEEP_BATCH)]),
            _complement_request(BS7, random_mixed(P7, rng)),
            _complement_request(BS13, random_mixed(P13, rng)),
            _complement_request(BS13, random_mixed(P13, rng)),
            _degradation_request(rng),
            _additivity_request(rng),
        ]
        for params, bsparams in ((P7, BS7), (P13, BS13), (P49, BS49), (P49, BS49)):
            batch.append(_duality_request(params, bsparams, rng))
        for params in (P7, P13, P49):
            batch.append(_roundtrip_request(params, rng))
        plan.append(batch)
    return Plan(warmup, plan)


# ---------------------------------------------------------------------------
# magic: cone program, fidelity-ratio bound, ceiling search
# ---------------------------------------------------------------------------

CONE_PRESETS = ("uniform-01", "appc-a", "appc-b", "symmetric-pm1")


def _cone_request(kind, rho, projectors) -> Request:
    def check(result) -> Verdict:
        weights = np.asarray(result.weights, dtype=float)
        resid = np.einsum("i,ijk->jk", weights, projectors) - rho.matrix
        low = float(np.linalg.eigvalsh((resid + resid.conj().T) / 2)[0])
        value_gap = abs(result.value_bits - math.log2(float(weights.sum())))
        # weights may carry LP dust down to the simplex pivot tolerance, 1e-9
        ok = low >= -1e-8 and weights.min() >= -1e-9 and value_gap <= 1e-9
        return Verdict(ok, f"residual eigenvalue {low:.3e}, value gap {value_gap:.3e}")

    return Request(kind, lambda: mag.mrm_inf_certificate(rho), check)


def _ratio_request(kind, sigma, bsparams, trials, seed) -> Request:
    def call():
        return cod.fidelity_ratio_bound_check(sigma, bsparams, LOGICAL_DIM, trials=trials, seed=seed)

    def check(report) -> Verdict:
        ok = report.passed and 0.0 < report.best_value <= 1.0 + 1e-9
        bracket = report.extras["magic_bits"] - math.log2(LOGICAL_DIM * report.best_value)
        return Verdict(ok, f"fidelity {report.best_value:.6f} vs bound {report.bound:.6f}", bracket)

    return Request(kind, call, check)


def _ceiling_request(family13, seed) -> Request:
    def call():
        return cod.stabilizer_ceiling_search(P13, BS13, LOGICAL_DIM, CEILING_TRIALS_D13, seed, family=family13)

    def check(report) -> Verdict:
        ceiling = 1.0 / LOGICAL_DIM
        ok = report.best_value <= ceiling + 1e-6 and report.baseline_value >= ceiling - 1e-3
        return Verdict(ok, f"best fidelity {report.best_value:.6f} vs ceiling {ceiling}")

    return Request("ceiling-d13", call, check)


def build_magic(seed: int, passes: int) -> Plan:
    _, family13, projectors7 = common_setup()
    rng = np.random.default_rng([seed, 3])
    magic13, _ = cod.magic_code_construction(BS13)
    warmup = _cone_request("cone-preset", sts.preset_state("appc-a", P7), projectors7)
    plan = []
    for k in range(passes):
        s = _seeds(rng, 5)
        # the median falls among the ceiling searches and the tail among the
        # pure-state cone requests, both in the middle of their kind
        batch = [
            _cone_request("cone-preset", sts.preset_state(CONE_PRESETS[k % len(CONE_PRESETS)], P7), projectors7),
            _ratio_request("ratio-d13", clifford_rotated(magic13, rng), BS13, RATIO_TRIALS_D13, s[0]),
            _ratio_request("ratio-d13", clifford_rotated(magic13, rng), BS13, RATIO_TRIALS_D13, s[1]),
            _ceiling_request(family13, s[2]),
            _ceiling_request(family13, s[3]),
            _cone_request("cone-pure", random_pure(P7, rng), projectors7),
            _ratio_request("ratio-d7", random_pure(P7, rng), BS7, RATIO_TRIALS_D7, s[4]),
            _cone_request("cone-full-rank", random_mixed(P7, rng), projectors7),
        ]
        plan.append(batch)
    return Plan(warmup, plan)


# nominal pass seconds on the reference machine (2 cores, one BLAS thread);
# a run makes round(seconds / nominal) passes, so equal --seconds means equal work
WORKLOADS = {
    "capacity": (build_capacity, 28.0),
    "sweep": (build_sweep, 1.5),
    "magic": (build_magic, 4.9),
}
