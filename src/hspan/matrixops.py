"""Dense complex array primitives.

Everything downstream works on numpy complex128 arrays: 1-D arrays are
vectors, 2-D arrays are row-major matrices. The helpers here validate at the
boundary (finite entries, matching shapes) and fix the two conventions the
rest of the package relies on:

* inner products are linear in the first slot and conjugate-linear in the
  second, inner(u, v) = sum_i u[i] * conj(v[i]);
* tensor products of vectors are left-associated and row-major, so the entry
  of u (x) v at index p * dim(v) + q is u[p] * v[q].
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite complex128 2-D array."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise DimensionError(f"{name} must be 2-dimensional, got ndim={m.ndim}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains non-finite entries")
    return m


def as_vector(a, name: str = "vector") -> np.ndarray:
    """Coerce to a finite complex128 1-D array."""
    v = np.asarray(a, dtype=np.complex128)
    if v.ndim != 1:
        raise DimensionError(f"{name} must be 1-dimensional, got ndim={v.ndim}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} contains non-finite entries")
    return v


def hadamard(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Entrywise product of two arrays of identical shape."""
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    if a.shape != b.shape:
        raise DimensionError(f"entrywise product needs equal shapes, got {a.shape} and {b.shape}")
    return a * b


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    if a.shape[-1] != b.shape[0]:
        raise DimensionError(f"cannot multiply shapes {a.shape} and {b.shape}")
    return a @ b


def tensor_vec(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Tensor product of vectors, dimension dim(u) * dim(v)."""
    u = as_vector(u, "u")
    v = as_vector(v, "v")
    return np.kron(u, v)


def inner(u: np.ndarray, v: np.ndarray) -> complex:
    """sum_i u[i] * conj(v[i]); conjugate-linear in the second slot."""
    u = as_vector(u, "u")
    v = as_vector(v, "v")
    if u.shape != v.shape:
        raise DimensionError(f"inner product needs equal dimensions, got {u.shape[0]} and {v.shape[0]}")
    # vdot conjugates its first argument
    return complex(np.vdot(v, u))


def trace(a: np.ndarray) -> complex:
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise DimensionError(f"trace needs a square matrix, got {a.shape}")
    return complex(np.trace(a))


def frobenius_norm(a: np.ndarray) -> float:
    return float(np.linalg.norm(np.asarray(a, dtype=np.complex128)))
