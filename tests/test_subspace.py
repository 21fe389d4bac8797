import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hspan import (DimensionError, MatrixFamily, Subspace, ToleranceConfig,
                   complement_projector, pairing_identity_residual,
                   random_sample_span, range_basis, subspace_distance)
from hspan import subspace
from hspan.rng import complex_gaussian

from families import face_split

CFG = ToleranceConfig()
seeds = st.integers(0, 2**32 - 1)


def test_tolerance_config_defaults():
    assert CFG.rank_rel_tol == 1e-10
    assert CFG.seed == 0


def test_tolerance_config_rejects_nonpositive():
    with pytest.raises(ValueError):
        ToleranceConfig(rank_rel_tol=0.0)
    with pytest.raises(ValueError):
        ToleranceConfig(seed=-1)


@pytest.mark.parametrize("seed", [0, 7, 2**64 - 1, np.int32(7), np.uint64(2**64 - 1)])
def test_tolerance_config_keeps_integer_seeds_as_int(seed):
    cfg = ToleranceConfig(seed=seed)
    assert type(cfg.seed) is int and cfg.seed == seed


@pytest.mark.parametrize("seed", [1.5, 1.0, "7", True, False, None, np.float64(3.0), np.bool_(True)])
def test_tolerance_config_refuses_non_integer_seeds(seed):
    with pytest.raises(ValueError, match=r"^seed must be an integer, got "):
        ToleranceConfig(seed=seed)


@pytest.mark.parametrize("tol", [1.0, 1e308, np.inf, np.nan, -0.0, -1e-10])
def test_tolerance_config_rejects_rank_tol_outside_unit_interval(tol):
    with pytest.raises(ValueError, match=r"must lie in \(0, 1\)"):
        ToleranceConfig(rank_rel_tol=tol)


def test_subspace_rejects_skewed_basis():
    q = np.array([[1.0, 0.9], [0.0, 0.1]])
    with pytest.raises(ValueError):
        Subspace(q)


def test_subspace_is_immutable():
    s = range_basis(np.eye(2), CFG)
    with pytest.raises(AttributeError):
        s.rank = 5
    with pytest.raises(ValueError):
        s.basis[0, 0] = 2.0


def test_range_basis_identity():
    s = range_basis(np.eye(3), CFG)
    assert s.rank == 3
    assert s.ambient_dim == 3


@pytest.mark.parametrize("shape", [(4, 4), (3, 0)], ids=["4x4", "3x0"])
def test_range_basis_zero_matrix(shape):
    # an empty spectrum counts as sigma_1 = 0, like an all-zero one
    s = range_basis(np.zeros(shape), CFG)
    assert s.rank == 0
    assert s.basis.shape == (shape[0], 0)
    assert s.tol_used == 0.0


def test_range_basis_rank_one():
    s = range_basis(np.ones((2, 2)), CFG)
    assert s.rank == 1
    # basis is (1,1)/sqrt(2) up to phase
    assert abs(abs(np.vdot(s.basis[:, 0], np.ones(2) / np.sqrt(2))) - 1.0) < 1e-14


def test_range_basis_columns_stay_inside():
    rng = np.random.default_rng(11)
    for _ in range(10):
        a = complex_gaussian(rng, 6, 4)
        s = range_basis(a, CFG)
        norm = np.linalg.norm(a)
        for j in range(a.shape[1]):
            col = a[:, j]
            resid = np.linalg.norm(col - s.basis @ (s.basis.conj().T @ col))
            assert resid <= 1e-10 * norm


def test_range_basis_cutoff_recorded():
    s = range_basis(np.eye(3), CFG)
    assert s.tol_used == pytest.approx(1e-10 * 3)


def svd_reference(a, cfg):
    """Rank, cutoff and basis from the thin SVD of A itself."""
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    cutoff = cfg.rank_rel_tol * max(a.shape) * s[0]
    r = int(np.count_nonzero(s > cutoff))
    return r, cutoff, Subspace(u[:, :r], cutoff)


def wide_cases():
    rng = np.random.default_rng(14)
    yield complex_gaussian(rng, 5, 40)
    yield complex_gaussian(rng, 12, 13)
    for n, r, m in ((8, 3, 200), (16, 9, 1000), (6, 1, 7)):
        yield complex_gaussian(rng, n, r) @ complex_gaussian(rng, r, m)
    low = complex_gaussian(rng, 16, 5) @ complex_gaussian(rng, 5, 16)
    yield face_split([low, complex_gaussian(rng, 16, 16), complex_gaussian(rng, 16, 16)])
    yield face_split([complex_gaussian(rng, 16, 16), complex_gaussian(rng, 16, 16),
                      complex_gaussian(rng, 16, 16)])
    yield complex_gaussian(rng, 1, 9)
    # widths that are no multiple of the block; the last block of 16 x 2051
    # (and of 12 x 100 at block 4) is narrower than n
    yield complex_gaussian(rng, 12, 100)
    yield complex_gaussian(rng, 16, 2 * subspace.TSQR_BLOCK + 3)
    yield face_split([complex_gaussian(rng, 16, 3) @ complex_gaussian(rng, 3, 16),
                      complex_gaussian(rng, 16, 2) @ complex_gaussian(rng, 2, 16)])
    yield face_split([GRADED] * 3)


GRADED = np.diag(np.logspace(0, -3, 16)).astype(np.complex128)
WIDE_CASES = list(wide_cases())
WIDE_IDS = ["x".join(map(str, a.shape)) for a in WIDE_CASES]


@pytest.mark.parametrize("a", WIDE_CASES, ids=WIDE_IDS)
def test_range_basis_wide_matches_direct_svd(a):
    rank, cutoff, ref = svd_reference(a, CFG)
    s = range_basis(a, CFG)
    assert s.rank == rank
    assert s.tol_used == pytest.approx(cutoff, rel=1e-12)
    assert subspace_distance(s, ref) <= 1e-12


@pytest.mark.parametrize("a", WIDE_CASES, ids=WIDE_IDS)
def test_range_basis_wide_matches_direct_svd_in_small_blocks(a, monkeypatch):
    # blocks of max(4, 2n) columns: every case wider than 2n runs through many
    monkeypatch.setattr(subspace, "TSQR_BLOCK", 4)
    test_range_basis_wide_matches_direct_svd(a)


@pytest.mark.parametrize("rotate", [False, True], ids=["diagonal", "rotated"])
def test_blocked_reduction_keeps_graded_singular_values(rotate, monkeypatch):
    # H has sigma = logspace(0, -9, 16); the rank under today's cutoff is not
    # pinned, only that every block size decides it as one block does
    h = face_split([GRADED] * 3)
    if rotate:
        h = np.linalg.qr(complex_gaussian(np.random.default_rng(16), 16, 16))[0] @ h
    found = {}
    for block in (h.shape[1], subspace.TSQR_BLOCK, 4):
        monkeypatch.setattr(subspace, "TSQR_BLOCK", block)
        found[block] = (np.linalg.svd(subspace._wide_factor(h), compute_uv=False),
                        range_basis(h, CFG).rank)
    unblocked, rank = found.pop(h.shape[1])
    np.testing.assert_allclose(unblocked, np.logspace(0, -9, 16), rtol=0, atol=1e-13)
    for sigma, blocked_rank in found.values():
        np.testing.assert_allclose(sigma, unblocked, rtol=0, atol=1e-13 * unblocked[0])
        assert blocked_rank == rank


def test_wide_reduction_makes_no_full_size_copy():
    a = complex_gaussian(np.random.default_rng(17), 16, 65536)
    tracemalloc.start()
    try:
        range_basis(a, CFG)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < a.nbytes / 4


WIDE_ZERO = {
    "3x50": lambda: range_basis(np.zeros((3, 50)), CFG),
    # no ambient dimension: the DimensionError of a 0 x 0 input, on one
    # TSQR slice and on three
    "0x5": lambda: range_basis(np.zeros((0, 5)), CFG),
    "0x3000": lambda: range_basis(np.zeros((0, 3000)), CFG),
    "sampler-0x0": lambda: random_sample_span(MatrixFamily([np.zeros((0, 0))]), 3, CFG),
}


@pytest.mark.parametrize("case", sorted(WIDE_ZERO))
def test_range_basis_wide_zero_matrix(case):
    if case != "3x50":
        with pytest.raises(DimensionError, match=r"^ambient dimension must be positive$"):
            WIDE_ZERO[case]()
        return
    s = WIDE_ZERO[case]()
    assert s.rank == 0
    assert s.basis.shape == (3, 0)
    assert s.tol_used == 0.0


def test_projector_full_and_split():
    full = range_basis(np.eye(2), CFG)
    np.testing.assert_allclose(subspace._projector(full), np.eye(2), atol=1e-15)
    np.testing.assert_allclose(complement_projector(full), np.zeros((2, 2)), atol=1e-15)
    e1 = range_basis(np.array([[1.0, 0.0], [0.0, 0.0]]), CFG)
    np.testing.assert_allclose(subspace._projector(e1), np.diag([1.0, 0.0]), atol=1e-15)
    np.testing.assert_allclose(complement_projector(e1), np.diag([0.0, 1.0]), atol=1e-15)


def test_projector_residuals():
    rng = np.random.default_rng(12)
    for _ in range(10):
        a = complex_gaussian(rng, 7, 3)
        s = range_basis(a, CFG)
        p = subspace._projector(s)
        e = complement_projector(s)
        assert np.linalg.norm(p @ p - p) <= 1e-10
        assert np.linalg.norm(p.conj().T - p) <= 1e-10
        assert np.linalg.norm(e @ e - e) <= 1e-10
        assert np.linalg.norm(e.conj().T - e) <= 1e-10


def test_subspace_distance_examples():
    s1 = range_basis(np.diag([1.0, 0.0]), CFG)
    s2 = range_basis(np.diag([0.0, 1.0]), CFG)
    assert subspace_distance(s1, s1) == 0.0
    assert subspace_distance(s1, s2) == pytest.approx(np.sqrt(2.0))


def test_subspace_distance_ambient_mismatch():
    with pytest.raises(DimensionError):
        subspace_distance(range_basis(np.eye(2), CFG), range_basis(np.eye(3), CFG))


NON_FINITE_BOUNDARIES = {
    "MatrixFamily": lambda m: MatrixFamily([m]),
    "Subspace": lambda m: Subspace(m[:, :1]),
    "range_basis": lambda m: range_basis(m, CFG),
    # wide: coerced slice by slice, and the bad entry sits in the second slice
    "range_basis-wide": lambda m: range_basis(np.hstack([np.ones((2, 2000)), m]), CFG),
    "pairing_identity_residual": lambda m: pairing_identity_residual(
        MatrixFamily([np.eye(2)]), [m[0]], np.ones(2), CFG),
}


def test_as_matrix_checks_the_number_of_axes():
    assert subspace.as_matrix([1, 2j], "v", ndim=1).dtype == np.complex128
    with pytest.raises(DimensionError, match=r"^matrix must be 2-dimensional, got ndim=1$"):
        subspace.as_matrix(np.ones(2))
    with pytest.raises(DimensionError, match=r"^y must be 1-dimensional, got ndim=2$"):
        subspace.as_matrix(np.ones((2, 2)), "y", ndim=1)


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("boundary", sorted(NON_FINITE_BOUNDARIES))
def test_non_finite_input_rejected(boundary, value):
    m = np.eye(2, dtype=np.complex128)
    m[0, 0] = value
    with pytest.raises(ValueError, match="non-finite"):
        NON_FINITE_BOUNDARIES[boundary](m)


def test_equal():
    rng = np.random.default_rng(13)
    a = complex_gaussian(rng, 5, 3)
    s1 = range_basis(a, CFG)
    s2 = range_basis(a @ complex_gaussian(rng, 3, 3), CFG)
    assert subspace_distance(s1, s2) <= 1e-8
    s3 = range_basis(complex_gaussian(rng, 5, 5), CFG)
    assert not subspace_distance(s1, s3) <= 1e-8


@settings(max_examples=25, deadline=None)
@given(seeds, st.integers(2, 7))
def test_rank_invariant_under_right_multiplication(seed, n):
    rng = np.random.default_rng(seed)
    a = complex_gaussian(rng, n, n)
    a[:, -1] = a[:, 0]  # force some rank structure
    # QR of a Gaussian plus a mild diagonal keeps the transform well conditioned
    q, _ = np.linalg.qr(complex_gaussian(rng, n, n))
    t = q @ np.diag(1.0 + rng.uniform(0, 1, n))
    assert range_basis(a @ t, CFG).rank == range_basis(a, CFG).rank


@settings(max_examples=25, deadline=None)
@given(seeds, st.integers(1, 7))
def test_range_of_gram_matches_range(seed, n):
    rng = np.random.default_rng(seed)
    a = complex_gaussian(rng, n, max(1, n - 2))
    s1 = range_basis(a, CFG)
    s2 = range_basis(a @ a.conj().T, CFG)
    assert subspace_distance(s1, s2) <= 1e-8


@settings(max_examples=25, deadline=None)
@given(seeds, st.integers(2, 6))
def test_distance_is_pseudometric(seed, n):
    rng = np.random.default_rng(seed)
    s = [range_basis(complex_gaussian(rng, n, rng.integers(1, n + 1)), CFG) for _ in range(3)]
    assert subspace_distance(s[0], s[1]) == subspace_distance(s[1], s[0])
    assert (subspace_distance(s[0], s[2])
            <= subspace_distance(s[0], s[1]) + subspace_distance(s[1], s[2]) + 1e-10)
