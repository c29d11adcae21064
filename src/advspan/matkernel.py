"""Dense Hermitian checks and Gram factorization for the SDP, the canonical
program and the spectral layer.

Matrices are numpy arrays in row-major order (complex128 for anything that
may carry an imaginary part, float64 otherwise).  All tolerances are
absolute but scaled by the spectral magnitude of the operand, so the
helpers behave identically on rescaled inputs.
"""

from __future__ import annotations

import numpy as np

from .errors import CheckError

HERMITIAN_TOL = 1e-12
DEFAULT_ZERO_TOL = 1e-8
DEFAULT_RANK_TOL = 1e-8


def hermitian_defect(m) -> float:
    """max |M[i,j] - conj(M[j,i])| over all entries of a matrix or a stack (..., k, k)."""
    a = np.asarray(m)
    if a.ndim < 2:
        raise CheckError(f"expected a matrix or a stack of them, got shape {a.shape}")
    if a.shape[-2] != a.shape[-1]:
        return float("inf")
    return float(np.abs(a - a.conj().swapaxes(-1, -2)).max()) if a.size else 0.0


def require_hermitian(m) -> np.ndarray:
    """Return the exactly-symmetrized matrix (or stack), or raise CheckError.

    The defect tolerance is scaled by max(1, max|entry|) so that large
    well-conditioned matrices are not rejected for roundoff.
    """
    a = np.asarray(m)
    scale = max(1.0, float(np.abs(a).max()) if a.size else 0.0)
    defect = hermitian_defect(a)
    if defect > HERMITIAN_TOL * scale:
        raise CheckError(f"Hermitian defect {defect:.3e} exceeds {HERMITIAN_TOL:.1e} * {scale:.3e}")
    return (a + a.conj().swapaxes(-1, -2)) / 2


def gram_factor(x) -> np.ndarray:
    """Vectors v_i with <v_i|v_j> = X[i,j], as rows, for one Gram matrix X or
    for each block of a stack (..., k, k), from one eigh call.

    Eigenvalues at or below DEFAULT_RANK_TOL * max(1, lambda_max),
    lambda_max over the whole stack, are truncated.  The result has shape
    (..., k, r_max), r_max the largest numerical rank in the stack: each
    block's columns follow its eigenvalues in descending order, so those past
    its own rank are zero.  Raises CheckError when an eigenvalue is below
    -DEFAULT_RANK_TOL on the same scale.
    """
    w, v = np.linalg.eigh(require_hermitian(x))
    scale = max(1.0, float(w.max(initial=0.0)))
    if w.min(initial=0.0) < -DEFAULT_RANK_TOL * scale:
        raise CheckError(f"minimum eigenvalue {w.min():.3e} below -{DEFAULT_RANK_TOL:.1e} * {scale:.3e}")
    keep = w > DEFAULT_RANK_TOL * scale
    rank = int(keep.sum(axis=-1).max(initial=0))
    vectors = v * np.sqrt(np.where(keep, w, 0.0))[..., None, :]
    return vectors[..., ::-1][..., :rank]
