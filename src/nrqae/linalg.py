"""Dense complex matrix helpers.

Thin shims over numpy/LAPACK that add the argument checking and the
deterministic eigenvalue ordering the rest of the package relies on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NrqaeError

MAX_EIG_DIM = 64


def cmat(entries) -> np.ndarray:
    """Coerce to a 2-D complex array."""
    m = np.asarray(entries, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D array, got shape {m.shape}")
    return m


def square(entries) -> np.ndarray:
    m = cmat(entries)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def frob_norm(m) -> float:
    return float(np.linalg.norm(cmat(m)))


def is_hermitian(m, tol: float = 1e-10) -> bool:
    m = square(m)
    return frob_norm(m - m.conj().T) <= tol


@dataclass(frozen=True)
class Spectrum:
    """Eigendecomposition with a deterministic ordering.

    eigenvalues[i] pairs with the unit-norm column eigenvectors[:, i].
    Entries are sorted by descending modulus, ties by phase in [0, 2*pi).
    Within a degenerate cluster the basis is whatever the solver returned;
    callers that need an invariant subspace should project onto the cluster.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def eig_dense(m) -> Spectrum:
    """Full eigendecomposition of a dense matrix (dimension <= 64)."""
    m = square(m)
    if m.shape[0] > MAX_EIG_DIM:
        raise ValueError(f"dimension {m.shape[0]} exceeds eig limit {MAX_EIG_DIM}")
    try:
        w, v = np.linalg.eig(m)
    except np.linalg.LinAlgError as exc:
        raise NrqaeError(f"eigensolver did not converge: {exc}") from exc
    phase = np.mod(np.angle(w), 2.0 * np.pi)
    order = np.lexsort((phase, -np.abs(w)))
    w = w[order]
    v = v[:, order]
    v = v / np.linalg.norm(v, axis=0, keepdims=True)
    return Spectrum(eigenvalues=w, eigenvectors=v)
