import itertools
import tracemalloc
from functools import reduce

import numpy as np
import pytest
from hypothesis import example, given, settings

import families
import hspan.spans
from hspan import (BudgetExceededError, DimensionError, InstanceFormatError,
                   MatrixFamily, NotHermitianError, NotPsdError, PsdFamily,
                   ToleranceConfig, basis_product_oracle, complement_projector,
                   gram_hadamard, hadamard_span, psd_hadamard_span, psd_sqrt,
                   random_sample_span, range_basis, single_vector_sample_span,
                   subspace_distance)
from hspan.errors import size_text
from hspan.instances import generate_family, instance_dict, parse_instance
from hspan.rng import (STREAM_ORTHO, STREAM_PAIRING, STREAM_SAMPLE,
                       STREAM_SINGLE, complex_gaussian, seed_children)
from hspan.spans import PSD_REL_TOL, sample_count
from hspan.verify import orthogonality_check, verify_all

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


def test_psd_family_is_read_as_the_general_family_of_its_members():
    # the members are kept as given, and every route reads them as B_j = A_j
    mats = [np.array(a) for a in gaussian_psd(5, 3, [2, 5, 3], 5)]
    pf, general = PsdFamily(mats), MatrixFamily(mats)
    assert all(np.array_equal(a.view(np.uint64), m.view(np.uint64)) for a, m in zip(pf, mats))
    for route in (hadamard_span, basis_product_oracle,
                  lambda f, cfg: random_sample_span(f, sample_count(f.n), cfg)):
        assert np.array_equal(route(pf, CFG).basis.view(np.uint64),
                              route(general, CFG).basis.view(np.uint64))


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
    pf = PsdFamily(mats)
    assert calls == {"eigh": 3, "eigvalsh": 0}  # psd_sqrt's rule, once per member
    assert verify_all(pf, CFG).passed
    assert calls == {"eigh": 4, "eigvalsh": 0}  # and one of G, which certifies the rank


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


def test_zero_rows_of_h_are_left_out_of_the_rank_decision():
    # B_1's zero row is a zero row of H; G on the other two rows certifies rank 2,
    # though the thin factors of all 3 rows would need 2 * 3^10 columns
    mats = [np.array(b) for b in gaussian_family(3, 11, 6)]
    mats[0][0] = 0.0
    fam = MatrixFamily(mats)
    span = hadamard_span(fam, CFG)
    assert span.rank == 2
    assert subspace_distance(span, range_basis(np.eye(3)[:, 1:], CFG)) <= 1e-12
    assert verify_all(fam, CFG).passed
    # every row has a zero member row: H = 0, rank 0 with no cutoff
    assert hadamard_span(MatrixFamily([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]), CFG).rank == 0


def disjoint_rows_cases():
    # sigma_1(H) of 1e-15 lies far below prod_j ||B_j||_2 of 1: each row is
    # small in one member and large in the other, so a member's rounding,
    # relative to its norm, would swamp H
    yield pytest.param([np.diag([1, 1e-15, 1]), np.diag([1e-15, 1, 0])], 2, id="certified")
    small_rows = np.array([[1e-15, 0, 0], [1e-15, 0, 0], [0, 0, 1]])
    large_rows = np.array([[1, 0, 0], [1, 0, 0], [0, 0, 1e-15]])
    yield pytest.param([small_rows, large_rows], 2, id="rank-deficient")
    q = np.linalg.qr(np.random.default_rng(1).standard_normal((3, 3)))[0]
    yield pytest.param([small_rows @ q, large_rows @ q], 2, id="rank-deficient-rotated")


@pytest.mark.parametrize("mats, rank", list(disjoint_rows_cases()))
def test_rank_decision_keeps_small_rows_of_large_members(mats, rank):
    fam = MatrixFamily(mats)
    span, oracle = hadamard_span(fam, CFG), basis_product_oracle(fam, CFG)
    assert span.rank == oracle.rank == rank
    assert subspace_distance(span, oracle) <= 1e-12
    assert verify_all(fam, CFG).passed


def test_rank_decision_refuses_a_face_split_over_budget(monkeypatch):
    # members of rank 2 in C^6: H has rank 4, so G cannot certify it, and the
    # face split of the two thin factors has 2 * 2 columns
    rng = np.random.default_rng(8)
    fam = MatrixFamily([complex_gaussian(rng, 6, 2) @ complex_gaussian(rng, 2, 6)
                        for _ in range(2)])
    assert hadamard_span(fam, CFG).rank == 4
    monkeypatch.setattr(hspan.spans, "ORACLE_COLUMN_BUDGET", 3)
    for route in (hadamard_span, verify_all):
        with pytest.raises(BudgetExceededError, match=r"^a thin face split needs r_F r_j = 4 "
                                                      r"columns, budget is 3$"):
            route(fam, CFG)


def test_huge_sizes_are_refused_in_one_short_message():
    # 2^15000 and 10^5000 have more digits than Python's int-to-string limit allows
    assert size_text(2**64 - 1) == "18446744073709551615" and size_text(2**64) == "1.84e+19"
    with pytest.raises(BudgetExceededError,
                       match=r"^oracle needs n\^k = 2\.82e\+4515 columns, budget is 65536$"):
        basis_product_oracle(MatrixFamily([np.eye(2)] * 15000), CFG)
    with pytest.raises(BudgetExceededError, match=r"^1\.00e\+5000 draws need 2 x 1\.00e\+5000 = "
                                                  r"2\.00e\+5000 stack entries, budget is 10000000$"):
        random_sample_span(MatrixFamily([np.eye(2)]), 10**5000, CFG)


HUGE = 10**5000  # more digits than Python's int-to-string limit allows
EYE = MatrixFamily([np.eye(2)])


@pytest.mark.parametrize("call, message", [
    (lambda: ToleranceConfig(seed=-HUGE), "seed must fit in 64 unsigned bits, got -1.00e+5000"),
    (lambda: generate_family(2, 1, seed=HUGE), "seed must fit in 64 unsigned bits, got 1.00e+5000"),
    (lambda: generate_family(-HUGE, 1), "n must be >= 1, got -1.00e+5000"),
    (lambda: generate_family(2, -HUGE), "k must be >= 1, got -1.00e+5000"),
    (lambda: generate_family(2, 1, rank_deficit=HUGE),
     "rank deficit must satisfy 0 <= d < n, got d=1.00e+5000, n=2"),
    (lambda: random_sample_span(EYE, -HUGE, CFG), "samples must be >= 1, got -1.00e+5000"),
    (lambda: verify_all(EYE, CFG, pairing_trials=-HUGE), "pairing_trials must be >= 0, got -1.00e+5000"),
    (lambda: verify_all(EYE, CFG, orthogonality_trials=-HUGE),
     "orthogonality_trials must be >= 1, got -1.00e+5000"),
    (lambda: orthogonality_check(EYE, -HUGE, CFG), "trials must be >= 1, got -1.00e+5000"),
], ids=["config-seed", "gen-seed", "gen-n", "gen-k", "gen-rank-deficit", "samples",
        "pairing-trials", "orthogonality-trials", "trials"])
def test_integer_refusals_print_huge_integers(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


GRADED_MEMBER = np.diag(np.logspace(0, -3, 16)).astype(np.complex128)


def oracle_cases():
    # 40x3 and 6x6: the 1024-column slices straddle prefix columns (40 and 6
    # do not divide 1024); 16x4: they align; 8x3: one slice; 5x1 and 1x4:
    # the square path
    for n, k in ((40, 3), (6, 6), (16, 4), (8, 3), (5, 1), (1, 4)):
        yield pytest.param(gaussian_family(n, k, 60 + n + k), id=f"{n}x{k}")
    mats = list(gaussian_family(6, 3, 70))
    yield pytest.param(MatrixFamily([mats[0], np.zeros((6, 6)), mats[2]]), id="zero-member")
    yield pytest.param(MatrixFamily([GRADED_MEMBER] * 3), id="graded-16x3")
    yield pytest.param(gaussian_psd(8, 3, [3, 8, 5], 71), id="psd-8x3")


@pytest.mark.parametrize("fam", list(oracle_cases()))
def test_oracle_equals_range_basis_of_whole_face_split(fam):
    streamed = basis_product_oracle(fam, CFG)
    whole = range_basis(hspan.spans._face_split(list(fam)), CFG)
    assert streamed.rank == whole.rank
    assert streamed.tol_used == whole.tol_used
    assert np.array_equal(streamed.basis, whole.basis)


def same_bits(a, b):
    """a and b hold the same shape and bits; uint64 views see the sign of each zero."""
    return a.shape == b.shape and np.array_equal(np.ascontiguousarray(a).view(np.uint64),
                                                 np.ascontiguousarray(b).view(np.uint64))


def test_face_split_slices_equal_the_whole():
    # one to four factors of unequal widths, H narrow (at most n columns) and
    # wide, 0-row factors (the Khatri-Rao rows of zero trials) and 0-column ones
    rng = np.random.default_rng(75)
    cases = (list(gaussian_family(6, 3, 72)),
             [complex_gaussian(rng, 3, 6) for _ in range(3)],  # t = 3 Khatri-Rao rows, n = 6
             [complex_gaussian(rng, 4, m) for m in (6, 5, 7)],
             [complex_gaussian(rng, 5, 5)],  # the oracle's narrow H at k = 1
             [complex_gaussian(rng, 4, 9)],
             [complex_gaussian(rng, 7, m) for m in (2, 3)],  # narrow, k = 2
             [complex_gaussian(rng, 1, 3) for _ in range(4)],  # n = 1
             [complex_gaussian(rng, 5, m) for m in (3, 1, 4, 2)],
             [complex_gaussian(rng, 0, 6)],
             [complex_gaussian(rng, 0, 6) for _ in range(2)],
             [complex_gaussian(rng, 0, m) for m in (5, 6, 4, 3)],
             [complex_gaussian(rng, 3, 4), np.zeros((3, 0))],
             [np.zeros((3, 0)), complex_gaussian(rng, 3, 4)])
    for mats in cases:
        h = hspan.spans._face_split(mats)
        lazy = hspan.spans._FaceSplit(mats)
        assert lazy.shape == h.shape
        for j, b in ((0, 5), (1, 6), (4, 31), (10, 23), (200, 16), (213, 100)):
            assert same_bits(lazy[:, j:j + b], h[:, j:j + b])
        assert same_bits(lazy[:, :], h)
        assert same_bits(np.asarray(lazy), h)
        assert same_bits(np.asarray(lazy, dtype=np.complex128), h)
        with pytest.raises(IndexError):
            lazy[0:1, 0:4]
    # zeros keep their sign, but for a lone matrix's slices (p is then a column of ones)
    signed = complex_gaussian(rng, 4, 4)
    signed.real[::2], signed.imag[:, ::2] = -0.0, -0.0
    for mats in ([signed], [signed, signed.T], [signed, complex_gaussian(rng, 4, 3), signed]):
        h = hspan.spans._face_split(mats)
        assert same_bits(np.asarray(hspan.spans._FaceSplit(mats)), h)
        if len(mats) > 1:
            assert same_bits(hspan.spans._FaceSplit(mats)[:, 3:40], h[:, 3:40])


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


GRAM_PRODUCT = r"the Gram product \(B_1 B_1\*\) o \.\.\. o \(B_k B_k\*\)"
FACE_SPLIT = r"the face-splitting product of B_1 \.\. B_k"
SAMPLED = r"the sampled product \(B_1 x_1\) o \.\.\. o \(B_k x_k\)"
PSD_PRODUCT = r"the product A_1 o \.\.\. o A_k"


def too_small(what):
    return rf"^matrix entries too small: {what} underflows$"


def no_seeds(*args):
    raise AssertionError("seed_children ran")


def test_row_bound_cannot_underflow():
    # the direct norm of the row (0, 1e-300) squares its entries to 1e-600, which is 0.0
    assert np.linalg.norm([0.0, 1e-300]) == 0.0
    # row 2 is the product's only nonzero row: its bound log2|s| + 2t sits just below or
    # above log2 of float64's smallest normal number, while every factor and every
    # earlier partial product, in reduce order, stays above it
    for s in (1e-300, 5e-324, 1e300, 1e-300j):
        for gap in (-1e-6, 1e-6):
            t = (np.finfo(np.float64).minexp + gap - np.log2(abs(s))) / 2
            member, partner = np.diag([1.0, s]), np.diag([0.0, 2.0**t])
            fam = MatrixFamily([member, partner, partner] if abs(s) > 1 else
                               [partner, partner, member])
            if gap < 0:
                with pytest.raises(ValueError, match=too_small("x")):
                    hspan.spans._require_normal(fam, "x")
            else:
                hspan.spans._require_normal(fam, "x")
    # exactly zero products are exempt: a zero member, also next to one that underflows, and 0x0
    for members in ([np.zeros((2, 2))], [1e-300 * np.eye(2), np.zeros((2, 2))], [np.zeros((0, 0))]):
        hspan.spans._require_normal(MatrixFamily(members), "x", power=2)


@pytest.mark.parametrize("fam", [
    MatrixFamily([1e-110 * np.eye(3)] * 3),
    MatrixFamily([1e-160 * np.eye(3)] * 2),
    PsdFamily([1e-300 * np.eye(3)] * 2),
    MatrixFamily([5e-324 * np.eye(3), np.eye(3)]),
], ids=["1e-110x3", "1e-160x2", "psd-1e-300x2", "subnormal-member"])
def test_underflowing_products_are_refused(fam, monkeypatch):
    # true rank 3 each time; the products round to zero or to subnormals
    monkeypatch.setattr(hspan.spans, "seed_children", no_seeds)  # samplers refuse before drawing
    psd = isinstance(fam, PsdFamily)
    routes = [(hadamard_span, GRAM_PRODUCT), (basis_product_oracle, FACE_SPLIT),
              (lambda f, cfg: random_sample_span(f, 8, cfg), SAMPLED),
              (verify_all, GRAM_PRODUCT)]
    if psd:
        routes += [(psd_hadamard_span, PSD_PRODUCT), (single_vector_sample_span, SAMPLED)]
    for route, what in routes:
        with pytest.raises(ValueError, match=too_small(what)):
            route(fam, CFG)


def test_underflowing_gram_factors_and_partial_products_are_refused():
    # G's own bound is 2^-792, but (B_1 B_1*) o (B_2 B_2*) is 1e-360 I, which is 0.0
    fam = MatrixFamily([1e-90 * np.eye(3), 1e-90 * np.eye(3), 1e60 * np.eye(3)])
    for route in (hadamard_span, verify_all):
        with pytest.raises(ValueError, match=too_small(GRAM_PRODUCT)):
            route(fam, CFG)
    # H and the sampled members stay above 1e-180, and both find the true rank
    assert basis_product_oracle(fam, CFG).rank == random_sample_span(fam, 8, CFG).rank == 3
    # a later factor alone: B_2 B_2* = 1e-340 I is 0.0, though every partial product's bound is not
    fam = MatrixFamily([1e60 * np.eye(3), 1e-170 * np.eye(3)])
    with pytest.raises(ValueError, match=too_small(GRAM_PRODUCT)):
        hadamard_span(fam, CFG)
    assert basis_product_oracle(fam, CFG).rank == random_sample_span(fam, 8, CFG).rank == 3
    # large entries on different rows: both members have ||.||_F ~ 1, but every row of G is
    # 1e-340, which is 0.0, while H and the sampled members stay near 1e-170
    fam = MatrixFamily([np.diag([1.0, 1e-170]), np.diag([1e-170, 1.0])])
    for route in (hadamard_span, verify_all):
        with pytest.raises(ValueError, match=too_small(GRAM_PRODUCT)):
            route(fam, CFG)
    assert basis_product_oracle(fam, CFG).rank == random_sample_span(fam, 8, CFG).rank == 2


@pytest.mark.parametrize("members, rank", [
    ([1e-200 * np.eye(3), np.zeros((3, 3))], 0),  # an exactly zero member is exempt
    ([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], 0),  # disjoint support
    ([np.diag([1e150, 1.0]), np.diag([1e-150, 1.0])], 2),  # mixed scales
    ([1e-200 * np.diag([1.0, 0.0]), 1e-200 * np.diag([0.0, 1.0])], 0),  # exactly zero, factors underflow
], ids=["zero-member", "disjoint", "mixed-scale", "exactly-zero"])
def test_products_that_do_not_underflow_keep_their_rank(members, rank):
    fam = MatrixFamily(members)
    assert hadamard_span(fam, CFG).rank == rank
    assert basis_product_oracle(fam, CFG).rank == rank
    assert random_sample_span(fam, 8, CFG).rank == rank
    assert verify_all(fam, CFG).passed


# name: (family, rank). For diagonal D_j (the A_j of a psd family) and their right-rotated
# twins D_j U_j, sigma(H)_i = prod_j |d_j[i]|, and the rank counts those above
# rank_rel_tol * sigma_1(H). A low-rank family's G has rank min(n, prod_j r_j).
GRADED = {
    "16x3": (lambda: MatrixFamily([np.diag(np.logspace(0, -3, 16))] * 3), 16),
    "16x4": (lambda: MatrixFamily([np.diag(np.logspace(0, -1.5, 16))] * 4), 16),
    "diag-3e-6": (lambda: MatrixFamily([np.diag([1.0, 3e-6])]), 2),
    "psd-16x3": (lambda: PsdFamily([np.diag(np.logspace(0, -3, 16))] * 3), 16),
    "rotated-16x3": (lambda: families.rotated([np.logspace(0, -3, 16)] * 3, seed=1), 16),
    "rotated-16x4": (lambda: families.rotated([np.logspace(0, -1.5, 16)] * 4, seed=2), 16),
    "rotated-diag-3e-6": (lambda: families.rotated([[1.0, 3e-6]], seed=3), 2),
    "low-rank-16x2": (lambda: families.low_rank(16, [3, 3], seed=4), 9),
    "low-rank-8x3": (lambda: families.low_rank(8, [2, 2, 2], seed=5), 8),
    "low-rank-12x2": (lambda: families.low_rank(12, [2, 5], seed=6), 10),
}
GRADED_ROUTES = {
    "gram": hadamard_span,
    "psd": psd_hadamard_span,
    "oracle": basis_product_oracle,
    "sampler": lambda f, cfg: random_sample_span(f, sample_count(f.n), cfg),
    "single-vector": single_vector_sample_span,
}


@pytest.mark.parametrize("family, route", [
    ("16x3", "gram"),
    ("16x3", "oracle"),
    ("16x3", "sampler"),
    ("16x4", "gram"),
    ("16x4", "oracle"),
    ("16x4", "sampler"),
    ("diag-3e-6", "gram"),
    ("diag-3e-6", "oracle"),
    ("diag-3e-6", "sampler"),
    ("psd-16x3", "psd"),
    ("psd-16x3", "oracle"),
    ("psd-16x3", "sampler"),
    ("psd-16x3", "single-vector"),
    ("rotated-16x3", "gram"),
    ("rotated-16x3", "oracle"),
    ("rotated-16x3", "sampler"),
    ("rotated-16x4", "gram"),
    ("rotated-16x4", "oracle"),
    ("rotated-16x4", "sampler"),
    ("rotated-diag-3e-6", "gram"),
    ("rotated-diag-3e-6", "oracle"),
    ("rotated-diag-3e-6", "sampler"),
    ("low-rank-16x2", "gram"),
    ("low-rank-16x2", "oracle"),
    ("low-rank-16x2", "sampler"),
    ("low-rank-8x3", "gram"),
    ("low-rank-8x3", "oracle"),
    ("low-rank-8x3", "sampler"),
    ("low-rank-12x2", "gram"),
    ("low-rank-12x2", "oracle"),
    ("low-rank-12x2", "sampler"),
])
def test_graded_diagonal_families_get_the_sigma_h_rank(family, route):
    build, rank = GRADED[family]
    assert GRADED_ROUTES[route](build(), ToleranceConfig()).rank == rank


# Each route is held to the closed form only outside a band around its cutoff. Every
# route ranks sigma(H) at rank_rel_tol * sigma_1(H), so the band is
# [tol / F, F * tol] * sigma_1(H), and the rank is the count of sigma(H) above tol.
# When they keep every nonzero sigma(H), their spans agree up to rounding over the
# smallest kept one (Wedin): max(1e-8, ROUNDING * sigma_1 / sigma_r).
F = 10
ROUNDING = 1e-13


@settings(max_examples=200, deadline=None)
@given(families.closed_form_families())
@example((families.rotated([[1.0, 1e-5]], seed=0), np.array([1.0, 1e-5])))
def test_routes_get_the_closed_form_rank_outside_the_band(case):
    fam, sigma = case
    cfg = ToleranceConfig()
    tol, rel = cfg.rank_rel_tol, sigma / sigma[0]
    if np.any((rel > tol / F) & (rel < F * tol)):
        return
    spans = [GRADED_ROUTES[route](fam, cfg) for route in ("gram", "oracle", "sampler")]
    assert [s.rank for s in spans] == [np.count_nonzero(rel > tol)] * 3
    if spans[0].rank == sigma.size:
        for a, b in itertools.combinations(spans, 2):
            assert subspace_distance(a, b) <= max(1e-8, ROUNDING / rel[-1])


def test_single_vector_statement_needs_psd_members():
    # (x) o (swap x) = x_1 x_2 (1, 1): shared vectors span one direction, but rank(G) = 2
    fam = MatrixFamily([np.eye(2), [[0.0, 1.0], [1.0, 0.0]]])
    assert hadamard_span(fam, CFG).rank == basis_product_oracle(fam, CFG).rank == 2
    assert random_sample_span(fam, sample_count(2), CFG).rank == 2
    shared = hspan.spans._sample_span(fam, CFG, STREAM_SINGLE, sample_count(2), shared=True)
    assert shared.rank == 1
    pf = PsdFamily([np.eye(2), [[2.0, 1.0], [1.0, 2.0]]])
    assert psd_hadamard_span(pf, CFG).rank == single_vector_sample_span(pf, CFG).rank == 2


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
    f = psd_sqrt(p)
    np.testing.assert_allclose(f @ f.conj().T, p, atol=1e-12)
    assert range_basis(f, CFG).rank == 1


def test_psd_sqrt_squares_back():
    rng = np.random.default_rng(11)
    for n, r in [(3, 1), (5, 3), (8, 8)]:
        m = complex_gaussian(rng, n, r)
        a = m @ m.conj().T
        f = psd_sqrt(a)
        assert np.linalg.norm(f @ f.conj().T - a) <= 1e-8 * max(1.0, np.linalg.norm(a))


def test_psd_sqrt_factors_the_psd_corpus():
    # F F* = A, and the eigenvalues the rule zeroes are exactly F's zero columns
    for label, family in families.psd_corpus():
        for a in family:
            f = psd_sqrt(a)
            assert np.linalg.norm(f @ f.conj().T - a) <= 1e-8 * np.linalg.norm(a), label
            w = np.linalg.eigvalsh((a + a.conj().T) / 2.0)
            zeroed = np.count_nonzero(w <= PSD_REL_TOL * np.linalg.norm(a))
            assert np.count_nonzero(~f.any(axis=0)) == zeroed, label


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


def stream_rng(stream):
    """The one generator a draw stack of (CFG.seed, stream) reads: seeded by its first child."""
    (child,) = seed_children(CFG.seed, stream, 1)
    return np.random.default_rng(child)


def sampled_stacks(stream, count, per_sample, n):
    """Stack p, column s: the p-th of the `per_sample` vectors of sample s, drawn
    one call at a time, sample after sample, from stream_rng(stream)."""
    rng = stream_rng(stream)
    draws = [[complex_gaussian(rng, n) for _ in range(per_sample)] for _ in range(count)]
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
    cols, rng = [], stream_rng(stream)
    for s in range(count):
        xs = [complex_gaussian(rng, n)] * k if shared else [complex_gaussian(rng, n) for _ in range(k)]
        cols.append(reduce(np.multiply, [b @ x for b, x in zip(fam, xs)]))
        scale = np.prod([np.linalg.norm(b) * np.linalg.norm(x) for b, x in zip(fam, xs)])
        assert np.linalg.norm(batched[:, s] - cols[-1]) <= 1e-12 * scale
    reference = range_basis(np.column_stack(cols), CFG)
    assert span.rank == reference.rank
    assert subspace_distance(span, reference) <= 1e-8


@pytest.mark.parametrize("stream", [STREAM_SAMPLE, STREAM_SINGLE, STREAM_PAIRING, STREAM_ORTHO])
def test_draw_stack_is_prefix_stable(stream):
    # the first s samples never depend on the count, so sampled rank is monotone in it
    for vectors, n in ((1, 1), (1, 5), (3, 4), (5, 2)):
        whole = hspan.spans._draw_stack(CFG.seed, stream, vectors, n, 12)
        assert whole.shape == (vectors, n, 12)
        for s in (1, 2, 7, 11):
            np.testing.assert_array_equal(
                whole[..., :s], hspan.spans._draw_stack(CFG.seed, stream, vectors, n, s))


def test_samplers_refuse_oversized_draws_before_seeding(monkeypatch):
    monkeypatch.setattr(hspan.spans, "seed_children", no_seeds)
    fam = gaussian_family(4, 3, 58)
    with pytest.raises(BudgetExceededError, match="budget is 10000000"):
        random_sample_span(fam, hspan.spans.DRAW_ENTRY_BUDGET // 12 + 1, CFG)
    monkeypatch.setattr(hspan.spans, "DRAW_ENTRY_BUDGET", 4 * 16 - 1)
    with pytest.raises(BudgetExceededError):  # one 4 x (2n + 8) stack
        single_vector_sample_span(PsdFamily([np.eye(4)] * 3), CFG)
