"""Dense matrix primitives shared by every other module.

Matrices are numpy arrays in row-major order (complex128 for anything that
may carry an imaginary part, float64 otherwise).  All tolerances are
absolute but scaled by the spectral magnitude of the operand, so the
helpers behave identically on rescaled inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (
    DimensionMismatchError,
    NonHermitianError,
    NotPSDError,
)

HERMITIAN_TOL = 1e-12
DEFAULT_ZERO_TOL = 1e-8
DEFAULT_RANK_TOL = 1e-8


def as_matrix(m) -> np.ndarray:
    """Coerce to a 2-d numpy array without copying when possible."""
    a = np.asarray(m)
    if a.ndim != 2:
        raise DimensionMismatchError(f"expected a 2-d array, got shape {a.shape}")
    return a


def hermitian_defect(m) -> float:
    """max |M[i,j] - conj(M[j,i])| over all entries of a matrix or a stack (..., k, k)."""
    a = np.asarray(m)
    if a.ndim < 2:
        raise DimensionMismatchError(f"expected a matrix or a stack of them, got shape {a.shape}")
    if a.shape[-2] != a.shape[-1]:
        return float("inf")
    return float(np.abs(a - a.conj().swapaxes(-1, -2)).max()) if a.size else 0.0


def require_hermitian(m, tol: float = HERMITIAN_TOL) -> np.ndarray:
    """Return the exactly-symmetrized matrix (or stack), or raise NonHermitianError.

    The defect tolerance is scaled by max(1, max|entry|) so that large
    well-conditioned matrices are not rejected for roundoff.
    """
    a = np.asarray(m)
    scale = max(1.0, float(np.abs(a).max()) if a.size else 0.0)
    defect = hermitian_defect(a)
    if defect > tol * scale:
        raise NonHermitianError(f"Hermitian defect {defect:.3e} exceeds {tol:.1e} * {scale:.3e}")
    return (a + a.conj().swapaxes(-1, -2)) / 2


@dataclass(frozen=True)
class EigenSystem:
    """Full spectrum of a Hermitian matrix.

    eigenvalues are real and ascending; eigenvectors are the matching
    orthonormal columns.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.eigenvalues)


def _canonicalize_phases(vectors: np.ndarray) -> np.ndarray:
    """Fix each column's global phase: first significant entry real positive."""
    out = vectors.copy()
    for k in range(out.shape[1]):
        col = out[:, k]
        nz = np.flatnonzero(np.abs(col) > 1e-9 * max(1.0, np.abs(col).max()))
        if len(nz):
            pivot = col[nz[0]]
            out[:, k] = col * (np.conj(pivot) / abs(pivot))
    return out


def eig_hermitian(m, tol: float = HERMITIAN_TOL) -> EigenSystem:
    """Eigendecomposition of a Hermitian matrix.

    Output ordering is deterministic: eigenvalues ascend, phases are fixed
    so the first significant eigenvector entry is real positive, and exact
    eigenvalue ties are broken by the first differing eigenvector entry.
    """
    a = require_hermitian(m, tol)
    w, v = np.linalg.eigh(a)
    v = _canonicalize_phases(v)
    # lexsort's last key is its primary one: w, then the rounded real parts
    # entry by entry, then the rounded imaginary parts
    order = np.lexsort(np.vstack([np.round(v.imag, 12)[::-1], np.round(v.real, 12)[::-1], w]))
    return EigenSystem(eigenvalues=w[order], eigenvectors=np.ascontiguousarray(v[:, order]))


def unitary_eigensystem(u, tol: float = 1e-9) -> tuple[np.ndarray, np.ndarray]:
    """Eigenphases and orthonormal eigenvectors of a unitary matrix.

    Uses a complex Schur decomposition, which stays orthonormal inside
    degenerate eigenspaces (plain nonsymmetric eig does not).  Returns
    (phases in (-pi, pi], eigenvector columns).
    """
    a = as_matrix(u).astype(complex)
    defect = float(np.abs(a.conj().T @ a - np.eye(a.shape[0])).max())
    if defect > tol * max(1.0, a.shape[0]):
        raise DimensionMismatchError(f"matrix is not unitary (defect {defect:.3e})")
    t, z = scipy.linalg.schur(a, output="complex")
    offdiag = float(np.abs(t - np.diag(np.diag(t))).max())
    if offdiag > 1e-7:
        raise NonHermitianError(f"Schur form of a unitary should be diagonal (offdiag {offdiag:.3e})")
    phases = np.angle(np.diag(t))
    phases = np.where(phases <= -np.pi + 1e-15, np.pi, phases)
    return phases, z


def spectral_norm(m) -> float:
    """Largest singular value."""
    a = as_matrix(m)
    if a.size == 0:
        return 0.0
    return float(np.linalg.svd(a, compute_uv=False)[0])


def hadamard(a, b) -> np.ndarray:
    """Entry-wise product; operands must share a shape."""
    x, y = as_matrix(a), as_matrix(b)
    if x.shape != y.shape:
        raise DimensionMismatchError(f"shapes {x.shape} and {y.shape} differ")
    return x * y


def gram_factor(x, rank_tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Vectors v_i with <v_i|v_j> = X[i,j], as rows, for one Gram matrix X or
    for each block of a stack (..., k, k), from one eigh call.

    Eigenvalues at or below rank_tol * max(1, lambda_max), lambda_max over the
    whole stack, are truncated.  The result has shape (..., k, r_max), r_max
    the largest numerical rank in the stack: each block's columns follow its
    eigenvalues in descending order, so those past its own rank are zero.
    Raises NotPSDError when an eigenvalue is below -rank_tol on the same scale.
    """
    w, v = np.linalg.eigh(require_hermitian(x))
    scale = max(1.0, float(w.max(initial=0.0)))
    if w.min(initial=0.0) < -rank_tol * scale:
        raise NotPSDError(f"minimum eigenvalue {w.min():.3e} below -{rank_tol:.1e} * {scale:.3e}")
    keep = w > rank_tol * scale
    rank = int(keep.sum(axis=-1).max(initial=0))
    vectors = v * np.sqrt(np.where(keep, w, 0.0))[..., None, :]
    return vectors[..., ::-1][..., :rank]


def nullspace_projector(m, zero_tol: float = DEFAULT_ZERO_TOL) -> np.ndarray:
    """Orthogonal projector onto the span of the |eigenvalue| <= tol eigenvectors.

    The tolerance is relative to the spectral norm of m; an empty null
    space yields the zero matrix, the zero matrix yields the identity.
    """
    es = eig_hermitian(m)
    scale = max(1.0, float(np.abs(es.eigenvalues).max()) if es.dim else 0.0)
    keep = np.abs(es.eigenvalues) <= zero_tol * scale
    v = es.eigenvectors[:, keep]
    p = v @ v.conj().T
    return (p + p.conj().T) / 2
