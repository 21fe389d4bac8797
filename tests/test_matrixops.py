import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hspan import (DimensionError, frobenius_norm, hadamard, inner, matmul,
                   tensor_vec, trace)
from hspan.rng import complex_gaussian

seeds = st.integers(0, 2**32 - 1)
dims = st.integers(1, 6)


def test_hadamard_entrywise():
    a = np.array([[1, 2], [3, 4]], dtype=complex)
    b = np.array([[5, 6], [7, 8]], dtype=complex)
    np.testing.assert_array_equal(hadamard(a, b), [[5, 12], [21, 32]])


def test_hadamard_zero_annihilates():
    a = complex_gaussian(np.random.default_rng(0), 3, 3)
    np.testing.assert_array_equal(hadamard(a, np.zeros((3, 3))), np.zeros((3, 3)))


def test_hadamard_ones_identity():
    a = complex_gaussian(np.random.default_rng(1), 3, 3)
    np.testing.assert_array_equal(hadamard(a, np.ones((3, 3))), a)


def test_hadamard_shape_mismatch():
    with pytest.raises(DimensionError):
        hadamard(np.ones((2, 2)), np.ones((2, 3)))


def test_matmul_identity_and_diag():
    a = complex_gaussian(np.random.default_rng(5), 3, 3)
    np.testing.assert_allclose(matmul(np.eye(3), a), a)
    np.testing.assert_allclose(matmul(np.diag([2.0, 3.0]), np.diag([5.0, 7.0])),
                               np.diag([10.0, 21.0]))


def test_matmul_outer_to_scalar():
    row = np.array([[1.0, 0.0]])
    col = np.array([[1.0], [0.0]])
    np.testing.assert_array_equal(matmul(row, col), [[1.0]])


def test_matmul_dimension_error():
    with pytest.raises(DimensionError):
        matmul(np.ones((2, 3)), np.ones((2, 3)))


def test_tensor_basis_bookkeeping():
    # e1 (x) e2 in C^2 (x) C^2 lands at flat index 0*2+1
    e = np.eye(2)
    t = tensor_vec(e[0], e[1])
    np.testing.assert_array_equal(t, [0, 1, 0, 0])


def test_tensor_with_zero():
    u = complex_gaussian(np.random.default_rng(6), 4)
    np.testing.assert_array_equal(tensor_vec(u, np.zeros(3)), np.zeros(12))


def test_tensor_norm_multiplicative():
    rng = np.random.default_rng(7)
    for _ in range(20):
        u = complex_gaussian(rng, 5)
        v = complex_gaussian(rng, 3)
        np.testing.assert_allclose(np.linalg.norm(tensor_vec(u, v)),
                                   np.linalg.norm(u) * np.linalg.norm(v), rtol=1e-12)


def test_inner_basis_vectors():
    e = np.eye(3)
    assert inner(e[0], e[0]) == 1
    assert inner(e[0], e[1]) == 0


def test_inner_first_slot_linear():
    u = complex_gaussian(np.random.default_rng(8), 6)
    np.testing.assert_allclose(inner(1j * u, u), 1j * np.linalg.norm(u) ** 2, rtol=1e-12)


def test_inner_dimension_error():
    with pytest.raises(DimensionError):
        inner(np.ones(2), np.ones(3))


def test_trace_identity():
    assert trace(np.eye(3)) == 3


def test_trace_nonsquare():
    with pytest.raises(DimensionError):
        trace(np.ones((2, 3)))


def test_frobenius_norm_345():
    assert frobenius_norm(np.array([[3.0, 4.0]])) == pytest.approx(5.0)


def test_rejects_non_finite():
    with pytest.raises(ValueError):
        inner(np.array([np.nan, 0.0]), np.ones(2))
    with pytest.raises(ValueError):
        trace(np.array([[np.inf, 0.0], [0.0, 1.0]]))


@settings(max_examples=30, deadline=None)
@given(seeds, dims, dims)
def test_hadamard_commutes_and_associates(seed, n, m):
    rng = np.random.default_rng(seed)
    a, b, c = (complex_gaussian(rng, n, m) for _ in range(3))
    np.testing.assert_allclose(hadamard(a, b), hadamard(b, a), rtol=1e-12)
    np.testing.assert_allclose(hadamard(hadamard(a, b), c),
                               hadamard(a, hadamard(b, c)), rtol=1e-12, atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(seeds, dims, dims)
def test_hadamard_bilinear(seed, n, m):
    rng = np.random.default_rng(seed)
    a, b, c = (complex_gaussian(rng, n, m) for _ in range(3))
    alpha = complex(*rng.standard_normal(2))
    np.testing.assert_allclose(hadamard(a, b + c), hadamard(a, b) + hadamard(a, c),
                               rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(hadamard(alpha * a, b), alpha * hadamard(a, b),
                               rtol=1e-12, atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(seeds, dims, dims, dims)
def test_adjoint_reverses_products(seed, n, m, p):
    rng = np.random.default_rng(seed)
    a = complex_gaussian(rng, n, m)
    b = complex_gaussian(rng, m, p)
    np.testing.assert_allclose(matmul(a, b).conj().T,
                               matmul(b.conj().T, a.conj().T), rtol=1e-12)


@settings(max_examples=30, deadline=None)
@given(seeds, dims)
def test_inner_conjugate_symmetry(seed, n):
    rng = np.random.default_rng(seed)
    u = complex_gaussian(rng, n)
    v = complex_gaussian(rng, n)
    assert inner(u, v) == pytest.approx(np.conj(inner(v, u)), rel=1e-12)


def _int_complex(rng, n):
    # small integer entries keep every product exact, so the two groupings
    # must agree bit for bit
    re = rng.integers(-8, 9, n).astype(np.float64)
    im = rng.integers(-8, 9, n).astype(np.float64)
    return re + 1j * im


@settings(max_examples=30, deadline=None)
@given(seeds, dims, dims, dims)
def test_tensor_associates_exactly(seed, n, m, p):
    rng = np.random.default_rng(seed)
    u, v, w = _int_complex(rng, n), _int_complex(rng, m), _int_complex(rng, p)
    np.testing.assert_array_equal(tensor_vec(tensor_vec(u, v), w),
                                  tensor_vec(u, tensor_vec(v, w)))


@settings(max_examples=30, deadline=None)
@given(seeds, dims, dims)
def test_inner_factorizes_over_tensor(seed, n, m):
    rng = np.random.default_rng(seed)
    u, p = complex_gaussian(rng, n), complex_gaussian(rng, n)
    v, q = complex_gaussian(rng, m), complex_gaussian(rng, m)
    lhs = inner(tensor_vec(u, v), tensor_vec(p, q))
    rhs = inner(u, p) * inner(v, q)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)
