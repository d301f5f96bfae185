"""Magic monotones.

Two relative-entropy-of-magic routes are kept deliberately separate:

* ``mrm``: the mean-state entropy gap S(mean(rho)) - S(rho).
* ``mrm_enumerated``: the exact minimum of D(rho||sigma) over the finite
  minimal stabilizer-projection family.

The max-relative monotone ``mrm_inf`` minimizes over the convex hull of the
pure stabilizer states instead: log2 of the least total weight of a
stabilizer mixture that dominates rho.  That cone program is solved by an
in-repo primal-dual interior-point method (HKM direction, Mehrotra
predictor-corrector; Helmberg, Rendl, Vanderbei and Wolkowicz 1996,
Mehrotra 1992).  Every stabilizer projector has rank one, so each iteration
factors an n_gen x n_gen Schur matrix only, and both ends of the returned
bracket are recomputed from the iterate with plain eigendecompositions.

``simplex_max`` is a dense-tableau simplex (Dantzig's rule, then Bland's
rule against cycling) with warm starts; the cone program no longer uses it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import relative_entropy, von_neumann_entropy
from .states import DensityMatrix, mean_state, pure_stabilizer_projectors, stabilizer_family
from .weyl import wigner_function

PSD_RESIDUAL_TOL = 1e-8
VALUE_TOL_BITS = 1e-7  # widest certified bracket, in bits, that mrm_inf_certificate returns
LP_GAP_TOL = 1e-9
MAX_ITERATIONS = 100
_PIVOT_TOL = 1e-9
_STEP_FRACTION = 0.95  # share of the way to the cone boundary a step takes
_GAP_STOP = 1e-12  # relative certified gap at which the iterations stop
_STALL_WINDOW = 5  # iterations within which the certified gap must halve
_SCHUR_SHIFTS = (0.0, 1e-15, 1e-13)  # relative diagonal shifts tried in turn


class MrmInfError(RuntimeError):
    """The cone program stopped short of its certificates; carries the
    certified lower bound in bits."""

    def __init__(self, message: str, best_bound_bits: float):
        super().__init__(message)
        self.best_bound_bits = best_bound_bits


def mrm(rho: DensityMatrix) -> float:
    """Mean-state entropy gap in bits; zero on stabilizer states."""
    return von_neumann_entropy(mean_state(rho).matrix) - von_neumann_entropy(rho.matrix)


def mrm_enumerated(rho: DensityMatrix) -> float:
    """Exact minimum of D(rho||member) over the enumerated family (bits).

    Support-mismatched members contribute +inf; the maximally mixed member
    guarantees a finite value.
    """
    family = stabilizer_family(rho.params)
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
    cuts: int  # always 0: the interior-point method adds no cutting planes
    min_residual_eigenvalue: float
    lp_gap: float  # certified weight gap: total_weight - lower_bound_weight
    lower_bound_weight: float
    rounds: int  # interior-point iterations
    pivots: int  # Cholesky factorizations of the Schur matrix
    dual: np.ndarray  # the scaled dual W~ with Tr(rho W~) = lower_bound_weight

    @property
    def certified(self) -> bool:
        return self.min_residual_eigenvalue >= -PSD_RESIDUAL_TOL and self.lp_gap <= LP_GAP_TOL


def _generator_vectors(projectors: np.ndarray) -> np.ndarray:
    """Unit vectors v_i with P_i = v_i v_i^dag, as the columns of a (dim, n_gen) matrix.

    Column j of a rank-one projector is v conj(v_j), so the column on the
    largest diagonal entry, divided by its square root, is v up to a phase.
    """
    diag = np.real(np.einsum("ijj->ij", projectors))
    cols = np.argmax(diag, axis=1)
    rows = np.arange(len(projectors))
    return (projectors[rows, :, cols] / np.sqrt(diag[rows, cols])[:, None]).T


def _herm(a: np.ndarray) -> np.ndarray:
    return (a + a.conj().T) / 2


def _inverse_factor(x: np.ndarray) -> np.ndarray:
    """L^-1 for the Cholesky factor L of a positive definite x."""
    from scipy.linalg import solve_triangular  # not at module level: slower to import than all of qmc

    chol = np.linalg.cholesky(x)
    return solve_triangular(chol, np.eye(len(x)), lower=True, check_finite=False)


def _psd_step(inv_chol: np.ndarray, delta: np.ndarray) -> float:
    """Largest t with L L^dag + t delta PSD, from the eigenvalues of L^-1 delta L^-dag."""
    low = float(np.linalg.eigvalsh(inv_chol @ delta @ inv_chol.conj().T)[0])
    return -1.0 / low if low < 0 else math.inf


def _ray_step(x: np.ndarray, dx: np.ndarray) -> float:
    """Largest t with x + t dx >= 0."""
    falling = dx < 0
    return float(np.min(-x[falling] / dx[falling])) if falling.any() else math.inf


def _upper_certificate(y, vecs, rho_m) -> tuple[np.ndarray, float]:
    """Weights whose mixture dominates rho: y clipped to >= 0, then shifted
    uniformly by -lambda_min dim / n_gen, since sum_i P_i = (n_gen / dim) I."""
    dim, n_gen = vecs.shape
    weights = np.clip(y, 0.0, None)
    low = float(np.linalg.eigvalsh((vecs * weights) @ vecs.conj().T - rho_m)[0])
    if low < 0:
        weights = weights - low * dim / n_gen
    return weights, float(np.sum(weights))


def _psd_part(w, vecs) -> tuple[np.ndarray, np.ndarray, float]:
    """Eigenvalues and basis of W_+, the PSD part of W, and the scale
    max_i v_i^dag W_+ v_i that makes W~ = W_+ / scale dual feasible."""
    vals, basis = np.linalg.eigh(w)
    vals = np.clip(vals, 0.0, None)
    return vals, basis, float(np.max((np.abs(basis.conj().T @ vecs) ** 2).T @ vals))


def _lower_certificate(w, vecs, rho_m) -> float:
    """Tr(rho W~) for the scaled dual W~: any weights y with
    sum_i y_i P_i >= rho have sum(y) >= sum_i y_i v_i^dag W~ v_i >= Tr(rho W~)."""
    vals, basis, scale = _psd_part(w, vecs)
    return float(np.real(np.sum(basis.conj() * (rho_m @ basis), axis=0)) @ vals) / scale


def _schur_factor(m: np.ndarray) -> tuple[tuple, int]:
    """Cholesky factor of the Schur matrix and the number of factorizations.

    M vanishes, up to diag(z / y), on the weights that leave
    sum_i y_i P_i unchanged (each stabilizer basis sums to the identity),
    so near a degenerate optimum it loses definiteness to round-off.  The
    factorization is then retried with the diagonal scaled by 1 + t for the
    shifts t in ``_SCHUR_SHIFTS``.
    """
    from scipy.linalg import cho_factor

    diag = m.diagonal().copy()
    for count, shift in enumerate(_SCHUR_SHIFTS, start=1):
        np.fill_diagonal(m, diag * (1.0 + shift))
        try:
            return cho_factor(m, lower=True, check_finite=False), count
        except np.linalg.LinAlgError:
            if count == len(_SCHUR_SHIFTS):
                raise


def _hkm_step(vecs, rho_m, y, s, w, z):
    """One HKM predictor-corrector step; returns the new iterate and the
    number of Schur factorizations.

    With G_W = V^dag W V and G_S = V^dag S^-1 V, the Schur matrix is
    M = Re[G_W o G_S^T] + diag(z / y).  Both directions solve M dy = r with
    the same factor; dS = V diag(dy) V^dag - R_p keeps the primal equation,
    dW = t S^-1 - W - sym(W dS S^-1) [- sym(dW_a dS_a S^-1)] is the HKM
    direction and dz = r_d - diag(V^dag dW V) keeps the dual equation.  The
    corrector targets sigma mu with sigma = (mu_aff / mu)^3 (Mehrotra).
    Primal and dual take one common step.
    """
    from scipy.linalg import cho_solve

    dim, n_gen = vecs.shape
    vecs_h = vecs.conj().T
    vecs_c = vecs_h.T
    inv_s, inv_w = _inverse_factor(s), _inverse_factor(w)
    half = inv_s @ vecs
    s_inv = inv_s.conj().T @ inv_s
    s_inv_v = inv_s.conj().T @ half
    g_s = half.conj().T @ half
    g_w = vecs_h @ (w @ vecs)
    s_diag, r_d = g_s.diagonal().real.copy(), 1.0 - z - g_w.diagonal().real
    np.multiply(g_w.imag, g_s.imag, out=g_w.imag)  # in place, g_w's last use
    m = g_w.real * g_s.real
    m += g_w.imag
    m[np.diag_indices(n_gen)] += z / y
    del g_s, g_w  # the largest arrays of a step; drop them before factoring
    factor, factorizations = _schur_factor(m)
    r_p = _herm(rho_m + s - (vecs * y) @ vecs_h)
    mu = (np.real(np.vdot(s, w)) + y @ z) / (dim + n_gen)

    def diag_re(a, right):
        # Re diag(V^dag a right)
        return np.real(np.sum(vecs_c * (a @ right), axis=0))

    def direction(target, second=None):
        rhs = target * (s_diag + 1.0 / y) - 1.0 + diag_re(w @ r_p, s_inv_v)
        if second is not None:
            rhs -= diag_re(second[0], s_inv_v) + second[1] / y
        dy = cho_solve(factor, rhs, check_finite=False)
        ds = (vecs * dy) @ vecs_h - r_p
        dw = target * s_inv - w - _herm(w @ ds @ s_inv)
        if second is not None:
            dw -= _herm(second[0] @ s_inv)
        dw = _herm(dw)
        dz = r_d - diag_re(dw, vecs)
        limits = (_psd_step(inv_s, ds), _ray_step(y, dy), _psd_step(inv_w, dw), _ray_step(z, dz))
        return dy, ds, dw, dz, min(1.0, _STEP_FRACTION * min(limits))

    dy, ds, dw, dz, alpha = direction(0.0)
    mu_aff = (np.real(np.vdot(s + alpha * ds, w + alpha * dw)) + (y + alpha * dy) @ (z + alpha * dz)) / (dim + n_gen)
    sigma = min(1.0, max(0.0, mu_aff / mu) ** 3)
    dy, ds, dw, dz, alpha = direction(sigma * mu, (dw @ ds, dz * dy))
    return y + alpha * dy, _herm(s + alpha * ds), _herm(w + alpha * dw), z + alpha * dz, factorizations


def mrm_inf_certificate(rho: DensityMatrix) -> ConeProgramResult:
    """Solve min sum(y) s.t. sum_i y_i P_i >= rho, y >= 0 over pure stabilizer
    projectors P_i = v_i v_i^dag, returning log2 of the optimum plus its
    certificates.

    A primal-dual interior-point method (HKM direction, Mehrotra
    predictor-corrector) on the pair

        primal  min 1^T y   s.t. S = V diag(y) V^dag - rho >= 0, y >= 0,
        dual    max Tr(rho W) s.t. v_i^dag W v_i + z_i = 1, W >= 0, z >= 0,

    from the feasible start y = 2, W = I / 2, z = 1 / 2 (sum_i P_i is a
    multiple of the identity).  The generators are rank one, so the Schur
    matrix is only n_gen x n_gen.  Each iterate is certified without trusting
    the solver: the upper bound is the weight of y made feasible by an
    eigenvalue shift, the lower bound the value of the PSD part of W scaled
    into the dual constraints.  The best bounds seen are kept, and the
    iterations stop once they pinch to a relative gap of 1e-12, when the gap
    fails to halve within five iterations, at a numerical breakdown, or
    after ``MAX_ITERATIONS``.  The weights are returned if their residual
    spectrum clears ``-PSD_RESIDUAL_TOL`` and the bracket is within
    ``VALUE_TOL_BITS``; otherwise ``MrmInfError`` carries the certified
    lower bound.
    """
    vecs = _generator_vectors(pure_stabilizer_projectors(rho.params))
    rho_m = rho.matrix
    n_gen = vecs.shape[1]
    y, z = np.full(n_gen, 2.0), np.full(n_gen, 0.5)
    w = np.eye(rho.params.dim) / 2
    s = (vecs * y) @ vecs.conj().T - rho_m
    weights, upper, lower, kept_w = None, math.inf, 0.0, w
    rounds = pivots = 0
    gaps = []
    stop = f"iteration cap {MAX_ITERATIONS}"
    with np.errstate(all="raise", under="ignore"):
        while True:
            candidate, total = _upper_certificate(y, vecs, rho_m)
            if total < upper:
                weights, upper = candidate, total
            bound = _lower_certificate(w, vecs, rho_m)
            if bound > lower:
                lower, kept_w = bound, w
            gaps.append(upper - lower)
            if gaps[-1] <= _GAP_STOP * upper or rounds == MAX_ITERATIONS:
                break
            if len(gaps) > _STALL_WINDOW and gaps[-1] > 0.5 * gaps[-1 - _STALL_WINDOW]:
                stop = f"gap not halved in {_STALL_WINDOW} iterations"
                break
            try:
                y, s, w, z, factorizations = _hkm_step(vecs, rho_m, y, s, w, z)
            except (np.linalg.LinAlgError, FloatingPointError) as exc:
                stop = f"numerical breakdown ({exc})"
                break
            rounds += 1
            pivots += factorizations
        min_resid = float(np.linalg.eigvalsh((vecs * weights) @ vecs.conj().T - rho_m)[0])
    bracket = math.log2(upper) - math.log2(max(lower, 1e-300))
    if min_resid < -PSD_RESIDUAL_TOL or not bracket <= VALUE_TOL_BITS:
        raise MrmInfError(
            f"interior-point method stopped ({stop}) after {rounds} iterations "
            f"with the weight bracket [{lower:.12f}, {upper:.12f}]",
            best_bound_bits=math.log2(max(lower, 1e-300)),
        )
    vals, basis, scale = _psd_part(kept_w, vecs)
    return ConeProgramResult(
        value_bits=math.log2(upper),
        total_weight=upper,
        weights=weights,
        cuts=0,
        min_residual_eigenvalue=min_resid,
        lp_gap=upper - lower,
        lower_bound_weight=lower,
        rounds=rounds,
        pivots=pivots,
        dual=_herm((basis * (vals / scale)) @ basis.conj().T),
    )


def mrm_inf(rho: DensityMatrix) -> float:
    """Max-relative entropy of magic (bits) over the pure-stabilizer hull."""
    return mrm_inf_certificate(rho).value_bits
