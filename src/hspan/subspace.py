"""Numerical subspace algebra.

A subspace of C^n is carried as an orthonormal basis, produced by a
rank-revealing SVD with a spectral-relative threshold: singular values above
rank_rel_tol * sigma_1 count toward the rank, with no dimension factor for
any shape. A wide n x m matrix is first reduced to an n x n factor with the
same singular values and range, so no m-long factor is built. The reduction
is a blocked tall-skinny QR (TSQR) over column slices of at most
max(TSQR_BLOCK, 2n) columns, so A is never copied whole. Each slice is
coerced and checked on its own, so a wide A only needs a 2-D .shape and
column slicing: the combination oracle passes its n x n^k matrix as an
object that builds each slice on demand, and that matrix is never held.
Distances and complements are phrased through orthogonal projectors
P = Q Q*, which makes every downstream check independent of the particular
basis chosen.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .rng import require_seed

BASIS_ORTHO_TOL = 1e-10
TSQR_BLOCK = 1024


def as_matrix(a, name: str = "matrix", ndim: int = 2) -> np.ndarray:
    """Coerce to a finite complex128 array with `ndim` axes (a vector at ndim=1)."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != ndim:
        raise DimensionError(f"{name} must be {ndim}-dimensional, got ndim={m.ndim}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains non-finite entries")
    return m


@dataclass(frozen=True)
class ToleranceConfig:
    """Numerical policy: the relative rank threshold and the RNG seed.

    rank_rel_tol lies in (0, 1): the cutoff is rank_rel_tol * sigma_1, so at 1
    or above every matrix would get rank 0.
    """

    rank_rel_tol: float = 1e-10
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.rank_rel_tol < 1:
            raise ValueError(f"rank_rel_tol must lie in (0, 1), got {self.rank_rel_tol}")
        object.__setattr__(self, "seed", require_seed(self.seed))


class Subspace:
    """A subspace of C^n: ambient dimension, rank, orthonormal basis.

    tol_used records the absolute singular-value cutoff that produced the
    rank decision (0.0 when no thresholding happened).
    """

    __slots__ = ("ambient_dim", "rank", "basis", "tol_used")

    def __init__(self, basis: np.ndarray, tol_used: float = 0.0):
        q = as_matrix(basis, "basis").copy()
        n, r = q.shape
        if n < 1:
            raise DimensionError("ambient dimension must be positive")
        if r > n:
            raise DimensionError(f"rank {r} exceeds ambient dimension {n}")
        gram = q.conj().T @ q
        defect = np.linalg.norm(gram - np.eye(r))
        if defect > BASIS_ORTHO_TOL * max(1, r):
            raise ValueError(f"basis columns not orthonormal, defect {defect:.3e}")
        q.setflags(write=False)
        object.__setattr__(self, "ambient_dim", n)
        object.__setattr__(self, "rank", r)
        object.__setattr__(self, "basis", q)
        object.__setattr__(self, "tol_used", float(tol_used))

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    def __repr__(self):
        return f"Subspace(ambient_dim={self.ambient_dim}, rank={self.rank})"


def _column_windows(rows: int, cols: int) -> list[slice]:
    """The slices j:j + b, b = max(TSQR_BLOCK, 2 rows), that cover `cols` columns."""
    b = max(TSQR_BLOCK, 2 * rows)
    return [slice(j, j + b) for j in range(0, cols, b)]


def _wide_factor(a: np.ndarray) -> np.ndarray:
    """The n x n factor R^T of a wide n x m A, where A^T = Q R.

    TSQR (Demmel, Grigori, Hoemmen & Langou, SIAM J. Sci. Comput. 34 (2012)
    A206): each slice of at most b = max(TSQR_BLOCK, 2n) consecutive columns
    gets the R of its transpose, and the stacked Rs, when there are several,
    get one more QR. Like the unblocked R, the result F has F F* = A A*, so
    it keeps A's singular values and left singular vectors (at full rank it
    is the unblocked R^T up to a unitary diagonal). Only one slice exists
    at a time, and as_matrix coerces and checks it there, so `a` may be any
    object with a 2-D .shape and column slices a[:, j:j + b]; this function
    holds one slice and the ceil(m / b) stacked n x n Rs (twice in the QR).
    """
    windows = _column_windows(*a.shape)
    r = np.vstack([np.linalg.qr(as_matrix(a[:, w], "A").T, mode="r") for w in windows])
    return (r if len(windows) == 1 else np.linalg.qr(r, mode="r")).T


def range_basis(a: np.ndarray, cfg: ToleranceConfig) -> Subspace:
    """Orthonormal basis of range(A), keeping singular values above rank_rel_tol * sigma_1.

    A wide A is rank-revealed through R^T, where A^T = Q R: A = R^T Q^T and
    Q^T has orthonormal rows, so A and the n x n matrix R^T share singular
    values and left singular vectors (Chan's R-SVD), and Q is never formed.
    R comes from the blocked reduction of _wide_factor, so A is not copied,
    and a wide A may be any object with a 2-D .shape and column slices
    a[:, j:j + b] (basis_product_oracle passes one that builds each slice of
    its n x n^k matrix on demand); its non-finite entries are found slice by
    slice. An empty spectrum has sigma_1 = 0: rank 0, and a 0-row A is refused.
    """
    if not (hasattr(a, "shape") and len(a.shape) == 2 and a.shape[1] > a.shape[0]):
        a = as_matrix(a, "A")  # a wide A is coerced one slice at a time
    n, cols = a.shape
    u, s, _ = np.linalg.svd(_wide_factor(a) if cols > n else a, full_matrices=False)
    cutoff = cfg.rank_rel_tol * (s[0] if s.size else 0.0)
    r = int(np.count_nonzero(s > cutoff))
    return Subspace(u[:, :r], cutoff)


def _projector(s: Subspace) -> np.ndarray:
    """Orthogonal projector onto the subspace, P = Q Q*."""
    return s.basis @ s.basis.conj().T


def complement_projector(s: Subspace) -> np.ndarray:
    """Projector onto the orthogonal complement, E = I - Q Q*."""
    return np.eye(s.ambient_dim, dtype=np.complex128) - _projector(s)


def subspace_distance(s1: Subspace, s2: Subspace) -> float:
    """Frobenius distance of the projectors; 0 iff the subspaces coincide."""
    if s1.ambient_dim != s2.ambient_dim:
        raise DimensionError(f"ambient dimensions differ: {s1.ambient_dim} vs {s2.ambient_dim}")
    return float(np.linalg.norm(_projector(s1) - _projector(s2)))

