"""Magic monotones.

Two relative-entropy-of-magic routes are kept deliberately separate:

* ``mrm``: the mean-state entropy gap S(mean(rho)) - S(rho).
* ``mrm_enumerated``: the exact minimum of D(rho||sigma) over the finite
  minimal stabilizer-projection family.

The max-relative monotone ``mrm_inf`` minimizes over the convex hull of the
pure stabilizer states instead, via a cone program solved by cutting planes
over an in-repo dense-tableau simplex (Bland's rule for anti-cycling).  Cuts
are only appended, so each round warm-starts the simplex from the previous
round's optimal basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import relative_entropy, von_neumann_entropy
from .states import DensityMatrix, StabilizerFamily, mean_state, pure_stabilizer_projectors, stabilizer_family
from .weyl import wigner_function

PSD_RESIDUAL_TOL = 1e-8
LP_GAP_TOL = 1e-9
MAX_CUTS = 500
_PIVOT_TOL = 1e-9


class MrmInfError(RuntimeError):
    """Cutting-plane iteration cap exceeded; carries the best bound so far."""

    def __init__(self, message: str, best_bound_bits: float):
        super().__init__(message)
        self.best_bound_bits = best_bound_bits


def mrm(rho: DensityMatrix) -> float:
    """Mean-state entropy gap in bits; zero on stabilizer states."""
    return von_neumann_entropy(mean_state(rho).matrix) - von_neumann_entropy(rho.matrix)


def mrm_enumerated(rho: DensityMatrix, family: StabilizerFamily | None = None) -> float:
    """Exact minimum of D(rho||member) over the enumerated family (bits).

    Support-mismatched members contribute +inf; the maximally mixed member
    guarantees a finite value.
    """
    family = family if family is not None else stabilizer_family(rho.params)
    best = math.inf
    for i in range(len(family)):
        best = min(best, relative_entropy(rho.matrix, family.state_at(i).matrix))
    return best


def wigner_negativity(rho: DensityMatrix) -> float:
    """Total negative mass of the normalized Wigner quasi-distribution.

    Exactly zero when every normalized entry clears -1e-12, so stabilizer
    states report 0.0 rather than eigensolver dust.
    """
    table = wigner_function(rho) / rho.params.dim
    mass = np.clip(-table, 0.0, None)
    mass[mass <= 1e-12] = 0.0
    return float(np.sum(mass))


# ---------------------------------------------------------------------------
# Dense-tableau simplex
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SimplexResult:
    x: np.ndarray
    objective: float
    dual: np.ndarray  # multipliers of the <= rows, read from slack reduced costs
    pivots: int
    basis: np.ndarray  # basic variable of each row: column j of A, or -1 - i for row i's slack


def _rebased(tab: np.ndarray, cols: list[int]) -> np.ndarray | None:
    """The tableau re-expressed in basis ``cols`` (one solve on the basis
    columns), or None when that basis is singular or primal-infeasible."""
    m = tab.shape[0] - 1
    try:
        body = np.linalg.solve(tab[:m, cols], tab[:m])
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(body)) or body[:, -1].min() < -1e-9:
        return None
    body[:, -1] = np.clip(body[:, -1], 0.0, None)
    return np.vstack([body, tab[m] - tab[m, cols] @ body])


def simplex_max(
    c: np.ndarray, a_ub: np.ndarray, b_ub: np.ndarray, max_pivots: int = 200000, basis=None
) -> SimplexResult:
    """Maximize c.x subject to A x <= b, x >= 0, with b >= 0.

    Dense tableau.  It starts from ``basis`` (as returned in
    ``SimplexResult.basis``) when that basis is nonsingular and
    primal-feasible, and from the slack basis otherwise.  Basis labels do not
    move when columns are appended to A, so an optimal basis warm-starts the
    grown program and only the new columns can price out.  Entering columns
    follow Dantzig's rule until a degenerate stall, then Bland's
    smallest-index rule takes over permanently, which rules out cycling.
    """
    c = np.asarray(c, dtype=float)
    a = np.asarray(a_ub, dtype=float)
    b = np.asarray(b_ub, dtype=float)
    m, n = a.shape
    if b.min(initial=0.0) < -1e-12:
        raise ValueError("simplex_max needs b >= 0 for the slack starting basis")

    tab = np.zeros((m + 1, n + m + 1))
    tab[:m, :n] = a
    tab[:m, n : n + m] = np.eye(m)
    tab[:m, -1] = b
    tab[m, :n] = -c  # row turns nonnegative at optimality
    basic = list(range(n, n + m))  # tableau column basic in each row; slack i is column n + i
    if basis is not None:
        if len(basis) != m or not all(-m <= v < n for v in basis):
            raise ValueError(f"basis needs one label per row, each in [-{m}, {n})")
        cols = [int(v) if v >= 0 else n - 1 - int(v) for v in basis]
        warm = _rebased(tab, cols)
        if warm is not None:
            tab, basic = warm, cols

    pivots = 0
    stalled = 0
    use_bland = False
    while True:
        obj_row = tab[m, : n + m]
        if use_bland:
            candidates = np.flatnonzero(obj_row < -_PIVOT_TOL)
            if candidates.size == 0:
                break
            enter = int(candidates[0])
        else:
            enter = int(np.argmin(obj_row))
            if obj_row[enter] >= -_PIVOT_TOL:
                break
        col = tab[:m, enter]
        rows = np.flatnonzero(col > _PIVOT_TOL)
        if rows.size == 0:
            raise RuntimeError("linear program is unbounded")
        ratios = tab[rows, -1] / col[rows]
        best_ratio = ratios.min()
        ties = rows[ratios <= best_ratio + 1e-12]
        leave_row = int(min(ties, key=lambda i: basic[i]))
        pivot = tab[leave_row, enter]
        tab[leave_row] /= pivot
        factors = tab[:, enter].copy()
        factors[leave_row] = 0.0
        tab -= np.outer(factors, tab[leave_row])
        basic[leave_row] = enter
        pivots += 1
        stalled = stalled + 1 if best_ratio <= 1e-12 else 0
        if stalled > 40:
            use_bland = True
        if pivots > max_pivots:
            raise RuntimeError(f"simplex exceeded {max_pivots} pivots")

    x = np.zeros(n + m)
    x[basic] = tab[:m, -1]
    dual = tab[m, n : n + m].copy()
    labels = np.array([v if v < n else n - 1 - v for v in basic])
    return SimplexResult(x=x[:n], objective=float(tab[m, -1]), dual=dual, pivots=pivots, basis=labels)


# ---------------------------------------------------------------------------
# Cone program for the max-relative monotone
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConeProgramResult:
    value_bits: float
    total_weight: float
    weights: np.ndarray
    cuts: int
    min_residual_eigenvalue: float
    lp_gap: float
    lower_bound_weight: float
    rounds: int  # LP solves, one per cutting-plane round
    pivots: int  # simplex pivots summed over the rounds

    @property
    def certified(self) -> bool:
        return self.min_residual_eigenvalue >= -PSD_RESIDUAL_TOL and self.lp_gap <= LP_GAP_TOL

    @property
    def bracket_bits(self) -> tuple[float, float]:
        return (
            math.log2(max(self.lower_bound_weight, 1e-300)),
            math.log2(max(self.total_weight, 1e-300)),
        )


def _residual_spectrum(weights, projectors, rho_matrix):
    resid = np.einsum("i,ijk->jk", weights, projectors) - rho_matrix
    return np.linalg.eigh((resid + resid.conj().T) / 2)


def _cut_rows(vmat, projectors, rho_matrix):
    """LP rows of the cuts v: g[m, i] = v_m^dag P_i v_m and b[m] = v_m^dag rho v_m."""
    g = np.real(np.einsum("mj,ijk,mk->mi", vmat.conj(), projectors, vmat))
    b = np.clip(np.real(np.einsum("mj,jk,mk->m", vmat.conj(), rho_matrix, vmat)), 0.0, None)
    return g, b


def _scale_to_feasible(weights, projectors, rho_matrix):
    """Smallest multiple of the weight vector whose mixture dominates rho.

    Returns None when the mixture misses part of the state's support.  The
    result is re-verified through the residual spectrum, so callers can trust
    PSD-ness independent of how the candidate was produced.
    """
    a = np.einsum("i,ijk->jk", weights, projectors)
    a = (a + a.conj().T) / 2
    avals, avecs = np.linalg.eigh(a)
    on = avals > 1e-12
    off = avecs[:, ~on]
    if off.shape[1]:
        outside = float(np.real(np.einsum("ij,jk,ik->", off.conj().T, rho_matrix, off.T)))
        if outside > 1e-12:
            return None
    half = avecs[:, on] * avals[on] ** -0.5
    lam = float(np.linalg.eigvalsh(half.conj().T @ rho_matrix @ half)[-1]) * (1 + 1e-12)
    candidate = lam * weights
    if _residual_spectrum(candidate, projectors, rho_matrix)[0][0] < -1e-10:
        return None
    return candidate


def mrm_inf_certificate(
    rho: DensityMatrix,
    family: StabilizerFamily | None = None,
    psd_tol: float = PSD_RESIDUAL_TOL,
    max_cuts: int = MAX_CUTS,
    value_tol_bits: float = 1e-7,
) -> ConeProgramResult:
    """Solve min sum(y) s.t. sum_i y_i P_i >= rho, y >= 0 over pure stabilizer
    projectors P_i, returning log2 of the optimum plus its certificates.

    Cutting planes over an in-repo dense simplex: the scalarized LP keeps
    constraints v^dag(sum y_i P_i)v >= v^dag rho v for accumulated unit
    vectors v and is solved through its dual, where each cut is a column and
    the generator weights come off the slack reduced costs.  Cuts are only
    appended, so each round computes the rows of its new cuts alone and
    warm-starts the simplex from the previous optimal basis, which stays
    primal-feasible.  Each round separates on the negative eigenspace of the
    residual, at a point pulled toward a feasible incumbent (in-out
    stabilization), and the incumbent itself is maintained by exact rescaling
    of LP iterates.  Termination: the LP weights reach a PSD residual within
    ``psd_tol``, or the incumbent is pinched against the LP lower bound within
    ``value_tol_bits``; either way the returned weights satisfy the PSD
    certificate.  Past ``max_cuts`` cuts it raises ``MrmInfError``.
    """
    if family is not None and family.params != rho.params:
        raise ValueError("family layout does not match the state")
    projectors = (
        np.stack([s.matrix for s in family.pure_states()])
        if family is not None
        else pure_stabilizer_projectors(rho.params)
    )
    dim = rho.params.dim
    n_gen = projectors.shape[0]
    rho_m = rho.matrix

    # uniform mixture over the generators is proportional to the identity, so
    # a scaled copy is always feasible and seeds the incumbent
    evals, evecs = np.linalg.eigh(rho_m)
    incumbent = np.full(n_gen, float(evals[-1]) / (rho.params.d + 1) * (1 + 1e-12))
    base_cuts = np.vstack([np.eye(dim, dtype=complex), evecs[:, evals > 1e-12].T])
    g, b = _cut_rows(base_cuts, projectors, rho_m)
    basis = None
    rounds = pivots = 0

    def finish(weights, spectrum_min, lp_gap, lower):
        total = float(np.sum(weights))
        return ConeProgramResult(
            value_bits=math.log2(max(total, 1e-300)),
            total_weight=total,
            weights=weights,
            cuts=len(b),
            min_residual_eigenvalue=spectrum_min,
            lp_gap=lp_gap,
            lower_bound_weight=lower,
            rounds=rounds,
            pivots=pivots,
        )

    lower = 0.0
    while len(b) <= max_cuts:
        lp = simplex_max(b, g.T, np.ones(n_gen), basis=basis)
        basis = lp.basis
        rounds += 1
        pivots += lp.pivots
        y_lp = lp.dual
        lower = max(lower, lp.objective)
        lp_gap = abs(float(np.sum(y_lp)) - lp.objective)

        vals, vecs = _residual_spectrum(y_lp, projectors, rho_m)
        if vals[0] >= -psd_tol:
            return finish(y_lp, float(vals[0]), lp_gap, lower)

        tightened = _scale_to_feasible(y_lp, projectors, rho_m)
        if tightened is not None and tightened.sum() < incumbent.sum():
            incumbent = tightened

        # separate along the segment from the incumbent toward the LP vertex
        cut_point = None
        t = 0.5
        for _ in range(12):
            z = (1 - t) * incumbent + t * y_lp
            zvals, zvecs = _residual_spectrum(z, projectors, rho_m)
            if zvals[0] < -1e-10:
                cut_point = (zvals, zvecs)
                break
            scaled = _scale_to_feasible(z, projectors, rho_m)
            if scaled is not None and scaled.sum() < incumbent.sum():
                incumbent = scaled
            t += (1 - t) * 0.5
        # tested after the segment search: its rescaled points can pinch the bracket
        if math.log2(float(incumbent.sum())) - math.log2(max(lower, 1e-300)) <= value_tol_bits:
            spectrum_min = float(_residual_spectrum(incumbent, projectors, rho_m)[0][0])
            return finish(incumbent, spectrum_min, lp_gap, lower)
        if cut_point is None:
            cut_point = (vals, vecs)
        rvals, rvecs = cut_point
        negs = [rvecs[:, k] for k in range(dim) if rvals[k] < -1e-10]
        new_cuts = list(negs)
        for a_i in range(len(negs)):
            for b_i in range(a_i + 1, len(negs)):
                new_cuts.append((negs[a_i] + negs[b_i]) / np.sqrt(2))
                new_cuts.append((negs[a_i] + 1j * negs[b_i]) / np.sqrt(2))
        g_new, b_new = _cut_rows(np.stack(new_cuts), projectors, rho_m)
        g = np.vstack([g, g_new])
        b = np.concatenate([b, b_new])

    raise MrmInfError(
        f"cutting planes did not certify PSD within {max_cuts} cuts "
        f"(bracket [{lower:.9f}, {float(incumbent.sum()):.9f}])",
        best_bound_bits=math.log2(max(lower, 1e-300)),
    )


def mrm_inf(rho: DensityMatrix, family: StabilizerFamily | None = None) -> float:
    """Max-relative entropy of magic (bits) over the pure-stabilizer hull."""
    return mrm_inf_certificate(rho, family=family).value_bits
