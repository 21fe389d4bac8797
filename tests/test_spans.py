import tracemalloc
from functools import reduce

import numpy as np
import pytest

import hspan.spans
from hspan import (BudgetExceededError, DimensionError, InstanceFormatError,
                   MatrixFamily, NotHermitianError, NotPsdError, PsdFamily,
                   ToleranceConfig, basis_product_oracle, complement_projector,
                   gram_hadamard, hadamard_span, psd_hadamard_span, psd_sqrt,
                   random_sample_span, range_basis, single_vector_sample_span,
                   subspace_distance)
from hspan.instances import instance_dict, parse_instance
from hspan.rng import (STREAM_SAMPLE, STREAM_SINGLE, complex_gaussian,
                       seed_children)
from hspan.spans import PSD_REL_TOL
from hspan.verify import verify_all

CFG = ToleranceConfig(seed=42)


def gaussian_family(n, k, seed):
    rng = np.random.default_rng(seed)
    return MatrixFamily([complex_gaussian(rng, n, n) for _ in range(k)])


def gaussian_psd(n, k, ranks, seed):
    rng = np.random.default_rng(seed)
    mats = []
    for r in ranks:
        m = complex_gaussian(rng, n, r)
        mats.append(m @ m.conj().T)
    return PsdFamily(mats[:k])


def test_family_validation():
    with pytest.raises(DimensionError):
        MatrixFamily([])
    with pytest.raises(DimensionError):
        MatrixFamily([np.eye(2), np.eye(3)])
    with pytest.raises(DimensionError):
        MatrixFamily([np.ones((2, 3))])


def test_family_accessors():
    fam = gaussian_family(4, 3, 0)
    assert (fam.n, fam.k) == (4, 3)
    assert len(list(fam)) == 3
    assert all(m.shape == (4, 4) for m in fam)


def test_family_members_read_only():
    fam = gaussian_family(3, 2, 1)
    with pytest.raises(ValueError):
        next(iter(fam))[0, 0] = 1.0


def test_psd_family_accepts_gram():
    gaussian_psd(4, 2, [2, 4], 2)  # constructor validates


def test_psd_family_rejects_nonhermitian():
    with pytest.raises(NotHermitianError):
        PsdFamily([np.array([[0.0, 1.0], [0.0, 0.0]])])


def test_psd_family_rejects_indefinite():
    with pytest.raises(NotPsdError):
        PsdFamily([-np.eye(3)])


def test_psd_family_roots_are_psd_sqrt_of_members():
    pf = gaussian_psd(5, 3, [2, 5, 3], 5)
    assert isinstance(pf.roots, MatrixFamily) and (pf.roots.n, pf.roots.k) == (5, 3)
    for a, root in zip(pf, pf.roots):
        assert np.array_equal(root.view(np.uint64), psd_sqrt(a).view(np.uint64))


def test_psd_family_decomposes_each_member_once(monkeypatch):
    mats = list(gaussian_psd(4, 3, [2, 4, 3], 6))
    calls = {"eigh": 0, "eigvalsh": 0}

    def counting(name):
        original = getattr(np.linalg, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(np.linalg, name, counting(name))
    assert verify_all(PsdFamily(mats), CFG).passed
    assert calls == {"eigh": 3, "eigvalsh": 0}


def _band_edge(kind: str, c: float) -> np.ndarray:
    """A 3 x 3 matrix c bands from the PSD rule's zero, the band being
    PSD_REL_TOL * ||A||_F: a rotated diag(1, 1, -c band) for "eigenvalue", and
    I plus an antisymmetric entry pair of defect ||A - A*||_F = c band for
    "defect". c < 1 is accepted, c > 1 refused."""
    if kind == "eigenvalue":
        q, _ = np.linalg.qr(complex_gaussian(np.random.default_rng(7), 3, 3))
        lam = -c * PSD_REL_TOL * np.sqrt(2.0)
        return (q * np.array([1.0, 1.0, lam])) @ q.conj().T
    t = c * PSD_REL_TOL * np.sqrt(3.0) / np.sqrt(2.0)
    a = np.eye(3, dtype=np.complex128)
    a[0, 1], a[1, 0] = t / 2, -t / 2
    return a


@pytest.mark.parametrize("kind, error, message", [
    ("eigenvalue", NotPsdError, "matrix 1 has negative eigenvalue -"),
    ("defect", NotHermitianError, "matrix 1 is not Hermitian: "),
])
def test_psd_band_edge(kind, error, message):
    inside, outside = _band_edge(kind, 0.5), _band_edge(kind, 2.0)
    PsdFamily([inside])
    parse_instance(instance_dict(MatrixFamily([inside]), "psd"))
    with pytest.raises(error, match=f"^{message}"):
        PsdFamily([outside])
    with pytest.raises(InstanceFormatError, match=f"^invalid psd family: {message}"):
        parse_instance(instance_dict(MatrixFamily([outside]), "psd"))


@pytest.mark.parametrize("diag", [[1e160, -1e150, 1.0], [1e200, -1.0, 1.0]])
def test_psd_family_rejects_overflowing_norm(diag):
    # ||A||_F overflows, so no PSD tolerance scaled by it means anything
    with pytest.raises(ValueError, match="too large"):
        PsdFamily([np.diag(diag)])


def test_hadamard_products_reject_overflow(recwarn):
    with pytest.raises(ValueError, match="Gram product .* overflows"):
        gram_hadamard(MatrixFamily([np.diag([1.7e308, 1.0]), np.eye(2)]))
    big = PsdFamily([np.diag([1e100, 1.0])] * 4)
    with pytest.raises(ValueError, match="A_1 o ... o A_k overflows"):
        psd_hadamard_span(big, CFG)
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_gram_hadamard_identity():
    fam = MatrixFamily([np.eye(3)])
    np.testing.assert_allclose(gram_hadamard(fam), np.eye(3))


def test_gram_hadamard_diagonal():
    fam = MatrixFamily([np.diag([1.0, 0.0]), np.diag([2.0, 1.0])])
    np.testing.assert_allclose(gram_hadamard(fam), np.diag([4.0, 0.0]))


def test_gram_hadamard_is_psd():
    rng = np.random.default_rng(3)
    for _ in range(10):
        fam = MatrixFamily([complex_gaussian(rng, 5, 5) for _ in range(3)])
        g = gram_hadamard(fam)
        w = np.linalg.eigvalsh((g + g.conj().T) / 2)
        assert w[0] >= -1e-10 * np.linalg.norm(g)


def test_hadamard_span_identity_family():
    fam = MatrixFamily([np.eye(4), np.eye(4)])
    assert hadamard_span(fam, CFG).rank == 4


def test_hadamard_span_diagonal_example():
    fam = MatrixFamily([np.diag([1.0, 0.0]), np.diag([2.0, 1.0])])
    s = hadamard_span(fam, CFG)
    assert s.rank == 1
    v = np.array([1.0, 0.0])
    assert np.linalg.norm(complement_projector(s) @ v) <= 1e-10 * max(1, np.linalg.norm(v))


def test_hadamard_span_matches_oracle_with_rank_deficient_member():
    rng = np.random.default_rng(4)
    low = complex_gaussian(rng, 4, 2)
    fam = MatrixFamily([low @ complex_gaussian(rng, 2, 4), complex_gaussian(rng, 4, 4)])
    d = subspace_distance(hadamard_span(fam, CFG), basis_product_oracle(fam, CFG))
    assert d <= 1e-8


@pytest.mark.parametrize("fam, rank", [
    (gaussian_family(4, 6, 8), 4),
    (MatrixFamily([b @ np.diag(np.r_[1.0, 1.0, np.zeros(14)])
                   for b in gaussian_family(16, 3, 9)]), 8),
], ids=["4x6", "16x3-deficient"])
def test_oracle_matches_hadamard_span_on_wide_oracle_matrix(fam, rank):
    span, oracle = hadamard_span(fam, CFG), basis_product_oracle(fam, CFG)
    assert oracle.rank == span.rank == rank
    assert subspace_distance(span, oracle) <= 1e-8


def test_oracle_single_matrix_is_its_range():
    rng = np.random.default_rng(5)
    b = complex_gaussian(rng, 5, 5)
    b[:, 3:] = 0.0
    fam = MatrixFamily([b])
    assert subspace_distance(basis_product_oracle(fam, CFG), range_basis(b, CFG)) <= 1e-12


def test_oracle_identity_pair_spans_everything():
    fam = MatrixFamily([np.eye(3), np.eye(3)])
    assert basis_product_oracle(fam, CFG).rank == 3


def test_oracle_budget(monkeypatch):
    fam = gaussian_family(3, 11, 6)  # 3^11 = 177147 columns
    with pytest.raises(BudgetExceededError):
        basis_product_oracle(fam, CFG)
    small = gaussian_family(2, 4, 7)
    monkeypatch.setattr(hspan.spans, "ORACLE_COLUMN_BUDGET", 10)
    with pytest.raises(BudgetExceededError):
        basis_product_oracle(small, CFG)


GRADED = np.diag(np.logspace(0, -3, 16)).astype(np.complex128)


def oracle_cases():
    # 40x3 and 6x6: the 1024-column slices straddle prefix columns (40 and 6
    # do not divide 1024); 16x4: they align; 8x3: one slice; 5x1 and 1x4:
    # the square path
    for n, k in ((40, 3), (6, 6), (16, 4), (8, 3), (5, 1), (1, 4)):
        yield pytest.param(gaussian_family(n, k, 60 + n + k), id=f"{n}x{k}")
    mats = list(gaussian_family(6, 3, 70))
    yield pytest.param(MatrixFamily([mats[0], np.zeros((6, 6)), mats[2]]), id="zero-member")
    yield pytest.param(MatrixFamily([GRADED] * 3), id="graded-16x3")
    yield pytest.param(gaussian_psd(8, 3, [3, 8, 5], 71), id="psd-8x3")


@pytest.mark.parametrize("fam", list(oracle_cases()))
def test_oracle_equals_range_basis_of_whole_face_split(fam):
    streamed = basis_product_oracle(fam, CFG)
    whole = range_basis(hspan.spans._face_split(list(fam)), CFG)
    assert streamed.rank == whole.rank
    assert streamed.tol_used == whole.tol_used
    assert np.array_equal(streamed.basis, whole.basis)


def test_face_split_slices_equal_the_whole():
    rng = np.random.default_rng(75)
    cases = (list(gaussian_family(6, 3, 72)),
             [complex_gaussian(rng, 3, 6) for _ in range(3)],  # t = 3 Khatri-Rao rows, n = 6
             [complex_gaussian(rng, 4, m) for m in (6, 5, 7)])
    for mats in cases:
        h = hspan.spans._face_split(mats)
        lazy = hspan.spans._FaceSplit(mats)
        assert lazy.shape == h.shape
        for j, b in ((0, 5), (1, 6), (4, 31), (10, 23), (200, 16), (213, 100)):
            assert np.array_equal(lazy[:, j:j + b], h[:, j:j + b])
        assert np.array_equal(lazy[:, :], h)
        with pytest.raises(IndexError):
            lazy[0:1, 0:4]


def test_oracle_never_holds_the_face_split():
    fam = gaussian_family(16, 4, 73)
    h_bytes = 16 * 16**4 * 16  # the whole H: 16.8 MB
    tracemalloc.start()
    try:
        basis_product_oracle(fam, CFG)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < h_bytes / 4


def test_oracle_holds_the_stacked_rs_at_most_twice():
    # H is 128 x 16384 and reduces in 16 slices of 1024 columns, so the
    # stacked Rs are 16 x 128 x 128 complex, 4 MiB. The final QR holds the
    # stack and QR's own copy of it, but not the list of Rs as well.
    fam = gaussian_family(128, 2, 74)
    stack_bytes = 16 * 128 * 128 * 16
    tracemalloc.start()
    try:
        basis_product_oracle(fam, CFG)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * stack_bytes


def test_oracle_and_samplers_reject_overflowing_products(recwarn):
    a1 = np.diag([1e150, 1e-150])
    a2 = np.array([[1e-40, 1e55], [1e55, 1e150]])
    fam = PsdFamily([a1, a2, a2, a2])  # the psd product itself is finite
    psd_hadamard_span(fam, CFG)
    with pytest.raises(ValueError, match=r"^matrix entries too large: the face-splitting "
                                         r"product of B_1 \.\. B_k overflows$"):
        basis_product_oracle(fam, CFG)
    with pytest.raises(ValueError, match="face-splitting product of B_1 .. B_k overflows"):
        hspan.spans._FaceSplit([a2 * 1e100] * 3 + [a1])  # the prefix p of B_1 .. B_3 overflows
    for sampler in (lambda f: random_sample_span(f, 4, CFG),
                    lambda f: single_vector_sample_span(f, CFG)):
        with pytest.raises(ValueError, match=r"^matrix entries too large: the sampled product "
                                             r"\(B_1 x_1\) o \.\.\. o \(B_k x_k\) overflows$"):
            sampler(fam)
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_random_sample_span_zero_family():
    fam = MatrixFamily([np.zeros((3, 3))])
    assert random_sample_span(fam, 7, CFG).rank == 0


def test_random_sample_span_identity_family_reaches_full_rank():
    fam = MatrixFamily([np.eye(5), np.eye(5)])
    assert random_sample_span(fam, 10, CFG).rank == 5


def test_random_sample_span_monotone_and_bounded():
    fam = gaussian_family(5, 2, 8)
    cap = hadamard_span(fam, CFG).rank
    ranks = [random_sample_span(fam, s, CFG).rank for s in range(1, 9)]
    assert all(a <= b for a, b in zip(ranks, ranks[1:]))
    assert all(r <= cap for r in ranks)


def test_random_sample_span_deterministic():
    fam = gaussian_family(4, 3, 9)
    s1 = random_sample_span(fam, 6, CFG)
    s2 = random_sample_span(fam, 6, CFG)
    np.testing.assert_array_equal(s1.basis, s2.basis)
    other = random_sample_span(fam, 6, ToleranceConfig(seed=43))
    assert not np.array_equal(s1.basis, other.basis)


def test_random_sample_span_validates_count():
    with pytest.raises(ValueError):
        random_sample_span(gaussian_family(2, 1, 0), 0, CFG)


def test_psd_sqrt_examples():
    np.testing.assert_allclose(psd_sqrt(np.eye(3)), np.eye(3), atol=1e-14)
    np.testing.assert_allclose(psd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-14)
    v = complex_gaussian(np.random.default_rng(10), 4)
    p = np.outer(v, v.conj()) / np.linalg.norm(v) ** 2
    np.testing.assert_allclose(psd_sqrt(p), p, atol=1e-12)


def test_psd_sqrt_squares_back():
    rng = np.random.default_rng(11)
    for n, r in [(3, 1), (5, 3), (8, 8)]:
        m = complex_gaussian(rng, n, r)
        a = m @ m.conj().T
        s = psd_sqrt(a)
        assert np.linalg.norm(s @ s - a) <= 1e-8 * max(1.0, np.linalg.norm(a))
        np.testing.assert_allclose(s, s.conj().T)


def test_psd_sqrt_preserves_numerical_rank():
    # the root must not promote eigenvalue roundoff to sqrt(eps) rank noise
    rng = np.random.default_rng(12)
    for n, r in [(3, 1), (6, 2), (8, 5)]:
        m = complex_gaussian(rng, n, r)
        s = psd_sqrt(m @ m.conj().T)
        assert range_basis(s, CFG).rank == r


def test_psd_sqrt_rejects_bad_input():
    with pytest.raises(NotPsdError):
        psd_sqrt(-np.eye(2))
    with pytest.raises(NotPsdError):
        psd_sqrt(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(DimensionError):
        psd_sqrt(np.ones((2, 3)))


def test_psd_hadamard_span_examples():
    assert psd_hadamard_span(PsdFamily([np.eye(3), np.eye(3)]), CFG).rank == 3
    ones = np.ones((4, 4))
    s = psd_hadamard_span(PsdFamily([ones, ones]), CFG)
    assert s.rank == 1
    v = np.ones(4)
    assert np.linalg.norm(complement_projector(s) @ v) <= 1e-10 * max(1, np.linalg.norm(v))


def test_psd_hadamard_span_requires_psd_family():
    fam = gaussian_family(3, 2, 12)
    with pytest.raises(NotPsdError):
        psd_hadamard_span(fam, CFG)
    with pytest.raises(NotPsdError):
        single_vector_sample_span(fam, CFG)


def test_psd_hadamard_span_matches_sqrt_family_span():
    for seed in range(5):
        pf = gaussian_psd(5, 2, [2, 4], 20 + seed)
        sq = MatrixFamily([psd_sqrt(a) for a in pf])
        d = subspace_distance(psd_hadamard_span(pf, CFG), hadamard_span(sq, CFG))
        assert d <= 1e-8


def test_single_vector_span_all_ones():
    ones = np.ones((4, 4))
    pf = PsdFamily([ones, ones])
    s = single_vector_sample_span(pf, CFG)
    assert s.rank == 1
    v = np.ones(4)
    assert np.linalg.norm(complement_projector(s) @ v) <= 1e-10 * max(1, np.linalg.norm(v))


def test_single_vector_span_diagonal_counts_common_support():
    pf = PsdFamily([np.diag([1.0, 2.0, 0.0, 3.0]), np.diag([2.0, 0.0, 0.0, 1.0])])
    s = single_vector_sample_span(pf, CFG)
    assert s.rank == 2
    assert s.rank == psd_hadamard_span(pf, CFG).rank


def test_single_vector_span_matches_product_range():
    for seed in range(5):
        pf = gaussian_psd(6, 3, [3, 6, 2], 30 + seed)
        d = subspace_distance(single_vector_sample_span(pf, CFG),
                              psd_hadamard_span(pf, CFG))
        assert d <= 1e-8


def sampled_stacks(stream, count, per_child, n):
    """Stack p, column s: the p-th of `per_child` vectors drawn one call at a
    time from child s of (CFG.seed, stream)."""
    draws = []
    for child in seed_children(CFG.seed, stream, count):
        rng = np.random.default_rng(child)
        draws.append([complex_gaussian(rng, n) for _ in range(per_child)])
    return np.stack([np.column_stack(vs) for vs in zip(*draws)])


def test_random_sample_span_pins_its_draws():
    fam = gaussian_family(5, 3, 50)
    stacks = sampled_stacks(STREAM_SAMPLE, 7, 3, 5)
    cols = reduce(np.multiply, [b @ x for b, x in zip(fam, stacks)])
    np.testing.assert_array_equal(random_sample_span(fam, 7, CFG).basis,
                                  range_basis(cols, CFG).basis)


def test_single_vector_span_pins_its_draws():
    pf = gaussian_psd(5, 3, [2, 5, 4], 51)
    (x,) = sampled_stacks(STREAM_SINGLE, 2 * 5 + 8, 1, 5)
    cols = reduce(np.multiply, [a @ x for a in pf])
    np.testing.assert_array_equal(single_vector_sample_span(pf, CFG).basis,
                                  range_basis(cols, CFG).basis)


def sampler_cases():
    for k in (1, 2, 4):
        yield pytest.param(gaussian_family(5, k, 52 + k), False, id=f"random-5x{k}")
    yield pytest.param(gaussian_psd(5, 3, [2, 5, 4], 57), True, id="single-psd-5x3")


@pytest.mark.parametrize("fam, shared", list(sampler_cases()))
def test_sampler_matches_per_sample_reference(fam, shared, monkeypatch):
    # the sample matrix, one GEMM per slot, against one matvec per slot and sample
    seen = []
    monkeypatch.setattr(hspan.spans, "range_basis", lambda a, cfg: seen.append(a) or range_basis(a, cfg))
    n, k = fam.n, fam.k
    if shared:
        span, stream, count = single_vector_sample_span(fam, CFG), STREAM_SINGLE, 2 * n + 8
    else:
        span, stream, count = random_sample_span(fam, 9, CFG), STREAM_SAMPLE, 9
    (batched,) = seen
    assert batched.shape == (n, count)
    cols = []
    for s, child in enumerate(seed_children(CFG.seed, stream, count)):
        rng = np.random.default_rng(child)
        xs = [complex_gaussian(rng, n)] * k if shared else [complex_gaussian(rng, n) for _ in range(k)]
        cols.append(reduce(np.multiply, [b @ x for b, x in zip(fam, xs)]))
        scale = np.prod([np.linalg.norm(b) * np.linalg.norm(x) for b, x in zip(fam, xs)])
        assert np.linalg.norm(batched[:, s] - cols[-1]) <= 1e-12 * scale
    reference = range_basis(np.column_stack(cols), CFG)
    assert span.rank == reference.rank
    assert subspace_distance(span, reference) <= 1e-8


def test_samplers_refuse_oversized_draws_before_seeding(monkeypatch):
    def no_seeds(*args):
        raise AssertionError("seed_children ran")

    monkeypatch.setattr(hspan.spans, "seed_children", no_seeds)
    fam = gaussian_family(4, 3, 58)
    with pytest.raises(BudgetExceededError, match="budget is 10000000"):
        random_sample_span(fam, hspan.spans.DRAW_ENTRY_BUDGET // 12 + 1, CFG)
    monkeypatch.setattr(hspan.spans, "DRAW_ENTRY_BUDGET", 4 * 16 - 1)
    with pytest.raises(BudgetExceededError):  # one 4 x (2n + 8) stack
        single_vector_sample_span(PsdFamily([np.eye(4)] * 3), CFG)
