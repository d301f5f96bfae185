"""Independent reference implementations used as test oracles.

Everything here is deliberately written from first principles (explicit
loops, brute force, bisection, certificates) and must stay decoupled from
the library code paths it checks.
"""

from __future__ import annotations

import math

import numpy as np


def partial_trace_loop(matrix: np.ndarray, dims: list[int], keep: list[int]) -> np.ndarray:
    """Direct index-summation partial trace."""
    n = len(dims)
    keep = sorted(keep)
    traced = [i for i in range(n) if i not in keep]
    kept_dim = int(np.prod([dims[k] for k in keep])) if keep else 1
    out = np.zeros((kept_dim, kept_dim), dtype=complex)

    def decompose(flat):
        digits = []
        for d in reversed(dims):
            digits.append(flat % d)
            flat //= d
        return list(reversed(digits))

    def compose(digits, which):
        val = 0
        for i in which:
            val = val * dims[i] + digits[i]
        return val

    total = int(np.prod(dims))
    for a in range(total):
        da = decompose(a)
        for b in range(total):
            db = decompose(b)
            if all(da[i] == db[i] for i in traced):
                out[compose(da, keep), compose(db, keep)] += matrix[a, b]
    return out


def beam_splitter_unitary(d: int, n: int, s: int, t: int) -> np.ndarray:
    """Dense U|i, j> = |s i + t j, -t i + s j> (digitwise mod d) on two
    n-qudit registers, built ket by ket."""
    dim = d**n

    def digits(flat):
        return [(flat // d**k) % d for k in range(n)]

    def encode(digs):
        return sum(v * d**k for k, v in enumerate(digs))

    u = np.zeros((dim * dim, dim * dim), dtype=complex)
    for i in range(dim):
        for j in range(dim):
            di, dj = digits(i), digits(j)
            a = encode([(s * x + t * y) % d for x, y in zip(di, dj)])
            b = encode([(-t * x + s * y) % d for x, y in zip(di, dj)])
            u[a * dim + b, i * dim + j] = 1.0
    return u


def channel_oracle(rho: np.ndarray, sigma: np.ndarray, unitary: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(channel output, complement output): the joint state U (rho x sigma)
    U^dag, with the second or the first register traced out."""
    dim = rho.shape[0]
    joint = unitary @ np.kron(rho, sigma) @ unitary.conj().T
    blocks = joint.reshape(dim, dim, dim, dim)  # [a, b, a', b']
    return np.einsum("abcb->ac", blocks), np.einsum("abad->bd", blocks)


def stinespring_isometry(unitary: np.ndarray, env_ket: np.ndarray) -> np.ndarray:
    """V = U (1 x |env>): the (dim^2, dim) isometry of a pure environment."""
    dim = env_ket.shape[0]
    return unitary @ np.kron(np.eye(dim), env_ket.reshape(dim, 1))


def dinf_bisection(rho: np.ndarray, sigma: np.ndarray, iters: int = 60) -> float:
    """log2 of the smallest l with l*sigma - rho PSD, by bisection on l."""

    def feasible(l):
        return np.linalg.eigvalsh(l * sigma - rho)[0] >= -1e-12

    hi = 1.0
    while not feasible(hi):
        hi *= 2.0
        if hi > 1e9:
            return math.inf
    lo = 0.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return math.log2(hi)


def classify_weyl_image(conjugated: np.ndarray, weyl_ops: dict) -> tuple | None:
    """Identify U w U^dag as phase * w(label); None when it is not one.

    ``weyl_ops`` maps labels to dense Weyl matrices.  Uses the orthonormality
    of the Weyl basis: exactly one coefficient of unit modulus.
    """
    dim = conjugated.shape[0]
    hits = []
    for label, op in weyl_ops.items():
        coeff = np.trace(op.conj().T @ conjugated) / dim
        if abs(coeff) > 1e-8:
            hits.append((label, coeff))
    if len(hits) != 1:
        return None
    label, coeff = hits[0]
    if abs(abs(coeff) - 1.0) > 1e-9:
        return None
    return label, coeff


def symplectic_ft_wigner(rho: np.ndarray, d: int, n: int, char_fn) -> np.ndarray:
    """Wigner table as the symplectic Fourier transform of the characteristic
    table, with explicit integer loops.

    ``char_fn(p_vec, q_vec)`` must return Xi at that point.  Output is
    indexed like the library table: [enc(p), enc(q)].
    """
    dim = d**n
    omega = np.exp(2j * np.pi / d)

    def digits(flat):
        out = []
        for _ in range(n):
            out.append(flat % d)
            flat //= d
        return list(reversed(out))

    table = np.zeros((dim, dim), dtype=complex)
    for pe in range(dim):
        pu = digits(pe)
        for qe in range(dim):
            qu = digits(qe)
            acc = 0.0 + 0.0j
            for pv_e in range(dim):
                pv = digits(pv_e)
                for qv_e in range(dim):
                    qv = digits(qv_e)
                    form = sum(pu[i] * qv[i] - pv[i] * qu[i] for i in range(n)) % d
                    acc += omega ** (-form) * char_fn(pv, qv)
            table[pe, qe] = acc / dim
    assert np.max(np.abs(table.imag)) < 1e-9
    return table.real


# ---------------------------------------------------------------------------
# Certificate-based bracket for the stabilizer-hull weight program
# ---------------------------------------------------------------------------


def _project_simplex(v: np.ndarray, total: float) -> np.ndarray:
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - total
    ks = np.arange(1, len(v) + 1)
    cond = u - css / ks > 0
    k = ks[cond][-1]
    tau = css[k - 1] / k
    return np.clip(v - tau, 0.0, None)


def stabilizer_weight_bracket(
    rho: np.ndarray,
    projectors: np.ndarray,
    lo: float = 1.0,
    hi: float = 8.0,
    bisections: int = 18,
    iters: int = 2500,
) -> tuple[float, float]:
    """Certified bracket [w_lo, w_hi] around min{sum y : sum y_i P_i >= rho}.

    Bisection on the total weight; each probe runs accelerated projected
    gradient on the squared distance to the PSD cone over the scaled simplex.
    Upper certificates rescale feasible points and re-check the residual
    eigenvalues directly; lower certificates are PSD witnesses Z with
    Tr[Z rho] > W * max_i Tr[Z P_i].  Both certificates are verified by
    plain eigendecompositions, independent of optimizer quality.
    """
    count = projectors.shape[0]
    gram = np.real(np.einsum("ijk,lkj->il", projectors, projectors))
    lipschitz = 2 * float(np.linalg.eigvalsh(gram)[-1])

    def pgd(total):
        y = _project_simplex(np.full(count, total / count), total)
        y_accel, y_prev, t_prev = y.copy(), y.copy(), 1.0
        best_f, best_y, best_witness = math.inf, y.copy(), None
        for _ in range(iters):
            m = np.einsum("i,ijk->jk", y_accel, projectors) - rho
            m = (m + m.conj().T) / 2
            vals, vecs = np.linalg.eigh(m)
            neg = vals < 0
            f = float(np.sum(vals[neg] ** 2))
            negative_part = (vecs[:, neg] * vals[neg]) @ vecs[:, neg].conj().T
            grad = 2 * np.real(np.einsum("jk,ikj->i", negative_part, projectors))
            y_new = _project_simplex(y_accel - grad / lipschitz, total)
            t = (1 + math.sqrt(1 + 4 * t_prev**2)) / 2
            y_accel = y_new + ((t_prev - 1) / t) * (y_new - y_prev)
            y_prev, t_prev = y_new, t
            if f < best_f:
                best_f, best_y, best_witness = f, y_new.copy(), -negative_part
            if f < 1e-26:
                break
        return best_y, best_f, best_witness

    def certify_upper(y):
        a = np.einsum("i,ijk->jk", y, projectors)
        a = (a + a.conj().T) / 2
        vals, vecs = np.linalg.eigh(a)
        on = vals > 1e-12
        off = vecs[:, ~on]
        if off.shape[1]:
            outside = float(np.real(np.einsum("ij,jk,ik->", off.conj().T, rho, off.T)))
            if outside > 1e-11:
                return math.inf
        half = vecs[:, on] * vals[on] ** -0.5
        lam = float(np.linalg.eigvalsh(half.conj().T @ rho @ half)[-1])
        scaled = lam * y
        resid = np.einsum("i,ijk->jk", scaled, projectors) - rho
        if np.linalg.eigvalsh((resid + resid.conj().T) / 2)[0] < -1e-9:
            return math.inf
        return float(scaled.sum())

    def certify_lower(z):
        z = (z + z.conj().T) / 2
        if np.linalg.eigvalsh(z)[0] < -1e-14:
            return 0.0
        num = float(np.real(np.trace(z @ rho)))
        den = float(max(np.real(np.einsum("ijk,kj->i", projectors, z)).max(), 1e-300))
        return num / den

    w_lo, w_hi = 0.0, math.inf
    for _ in range(bisections):
        mid = 0.5 * (lo + hi)
        y, f, witness = pgd(mid)
        if witness is not None:
            w_lo = max(w_lo, certify_lower(witness))
        w_hi = min(w_hi, certify_upper(y))
        if f < 1e-18:
            hi = mid
        else:
            lo = mid
    if not math.isfinite(w_hi):
        y, _, _ = pgd(hi)
        w_hi = certify_upper(y)
    return w_lo, w_hi


def ic_gradient_fd(value, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar function of a real vector,
    one coordinate at a time."""
    grad = np.empty_like(x)
    for k in range(x.size):
        bump = np.zeros_like(x)
        bump[k] = eps
        grad[k] = (value(x + bump) - value(x - bump)) / (2 * eps)
    return grad
