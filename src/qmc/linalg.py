"""Dense complex linear algebra: Hermitian eigensolves, partial traces, entropies.

All entropies are in bits (logarithms base 2); the worked values elsewhere in
the package (e.g. the 1/2-bit coherent-information witness) only come out in
base 2.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

SUPPORT_CUTOFF = 1e-10
NEGATIVE_EIG_TOL = 1e-9


def as_matrix(obj) -> np.ndarray:
    """Accept a raw ndarray or any object carrying a ``.matrix`` attribute."""
    return np.asarray(getattr(obj, "matrix", obj), dtype=complex)


def tensor(*factors) -> np.ndarray:
    """Kronecker product of one or more matrices, left factor most significant."""
    out = as_matrix(factors[0])
    for f in factors[1:]:
        out = np.kron(out, as_matrix(f))
    return out


def partial_trace(matrix, dims: Sequence[int], keep: Iterable[int]) -> np.ndarray:
    """Trace out every tensor factor not listed in ``keep``.

    Args:
        matrix: square matrix on the tensor product of ``dims``.
        dims: dimension of each tensor factor, most significant first.
        keep: indices (into ``dims``) of the factors to retain.

    Returns:
        Square matrix on the product of the kept dimensions, kept factors in
        their original order.
    """
    m = as_matrix(matrix)
    dims = [int(d) for d in dims]
    total = int(np.prod(dims))
    if m.shape != (total, total):
        raise ValueError(f"matrix shape {m.shape} does not match dims {dims}")
    keep = sorted(set(int(k) for k in keep))
    if any(k < 0 or k >= len(dims) for k in keep):
        raise ValueError(f"keep indices {keep} out of range for {len(dims)} factors")

    n = len(dims)
    reshaped = m.reshape(dims + dims)
    row_labels = []
    col_labels = []
    out_labels = []
    next_label = 0
    for i in range(n):
        if i in keep:
            row_labels.append(next_label)
            col_labels.append(next_label + 1)
            next_label += 2
        else:
            row_labels.append(next_label)
            col_labels.append(next_label)
            next_label += 1
    for i in range(n):
        if i in keep:
            out_labels.append(row_labels[i])
    for i in range(n):
        if i in keep:
            out_labels.append(col_labels[i])
    out = np.einsum(reshaped, row_labels + col_labels, out_labels)
    kept_dim = int(np.prod([dims[k] for k in keep])) if keep else 1
    return out.reshape(kept_dim, kept_dim)


def shannon_entropy(probs) -> float:
    """Entropy in bits of a probability vector; zero entries contribute zero."""
    p = np.asarray(probs, dtype=float)
    p = p[p > 0.0]
    return float(-np.sum(p * np.log2(p)))


def von_neumann_entropies(matrices: np.ndarray) -> np.ndarray:
    """Entropy in bits of a density matrix, or of each matrix in a stack,
    from one eigensolve, with 0*log(0) = 0.

    Raises ValueError when an eigenvalue falls below ``-NEGATIVE_EIG_TOL``.
    """
    vals = np.linalg.eigvalsh(matrices)  # ascending
    low = float(vals[..., 0].min())
    if low < -NEGATIVE_EIG_TOL:
        raise ValueError(f"density matrix has negative eigenvalue {low:.3e}")
    pos = np.where(vals > 0.0, vals, 1.0)  # eigenvalues at or below 0 add nothing
    return -(pos * np.log2(pos)).sum(axis=-1)


def von_neumann_entropy(rho) -> float:
    """Entropy in bits of one density matrix (``von_neumann_entropies``)."""
    return float(von_neumann_entropies(as_matrix(rho)))


def _support_split(sigma_matrix: np.ndarray):
    vals, vecs = np.linalg.eigh(sigma_matrix)
    on = vals > SUPPORT_CUTOFF
    return vals[on], vecs[:, on], vecs[:, ~on]


def relative_entropy(rho, sigma) -> float:
    """Quantum relative entropy D(rho||sigma) in bits; +inf on support mismatch.

    Support of sigma is detected by dropping eigenvalues below
    ``SUPPORT_CUTOFF``.
    """
    r = as_matrix(rho)
    s = as_matrix(sigma)
    if r.shape != s.shape:
        raise ValueError(f"dimension mismatch {r.shape} vs {s.shape}")
    svals, son, soff = _support_split(s)
    if soff.shape[1]:
        outside = float(np.real(np.einsum("ij,jk,ik->", soff.conj().T, r, soff.T)))
        # equivalently Tr(P_perp rho); anything beyond numerical dust means
        # rho leaks outside supp(sigma)
        if outside > 1e-9:
            return math.inf
    rvals = np.clip(np.linalg.eigvalsh(r), 0.0, None)
    tr_r_log_r = float(np.sum(rvals[rvals > 0] * np.log2(rvals[rvals > 0])))
    overlaps = np.real(np.einsum("ij,jk,ki->i", son.conj().T, r, son))
    tr_r_log_s = float(np.sum(overlaps * np.log2(svals)))
    value = tr_r_log_r - tr_r_log_s
    if value < 0.0:
        if value < -NEGATIVE_EIG_TOL:
            raise ValueError(f"relative entropy came out negative ({value:.3e})")
        value = 0.0
    return value


def frobenius_distance(a, b) -> float:
    return float(np.linalg.norm(as_matrix(a) - as_matrix(b)))
