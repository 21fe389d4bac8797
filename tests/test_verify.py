import json
import tracemalloc
import warnings
from functools import reduce

import numpy as np
import pytest

import families
import hspan.spans
import hspan.subspace
import hspan.verify as hv
from hspan import (BudgetExceededError, DimensionError, MatrixFamily,
                   PsdFamily, ToleranceConfig, column_identity_residual,
                   complement_projector, family_scale, gram_hadamard,
                   norm_trace_identity, orthogonality_check,
                   pairing_identity_residual, psd_sqrt, range_basis,
                   tensor_witness, verify_all)
from hspan.rng import (STREAM_ORTHO, STREAM_PAIRING, complex_gaussian,
                       seed_children)

CFG = ToleranceConfig(seed=7)


def deficient_family(n, k, seed):
    rng = np.random.default_rng(seed)
    mats = []
    for _ in range(k):
        b = complex_gaussian(rng, n, n)
        b[:, n - 2:] = 0.0
        mats.append(b)
    return MatrixFamily(mats)


def test_family_scale():
    fam = MatrixFamily([2.0 * np.eye(2), np.eye(2)])
    assert family_scale(fam) == pytest.approx(2.0 * np.sqrt(2) * np.sqrt(2))


def test_column_identity_exact_on_diagonal():
    fam = MatrixFamily([np.diag([1.0, 2.0, 0.0]), np.diag([0.5, 0.0, 3.0])])
    assert column_identity_residual(fam) == 0.0


def test_column_identity_exact_on_identity():
    assert column_identity_residual(MatrixFamily([np.eye(4), np.eye(4)])) == 0.0


def test_column_identity_small_on_random():
    rng = np.random.default_rng(1)
    for _ in range(10):
        fam = MatrixFamily([complex_gaussian(rng, 6, 6) for _ in range(3)])
        assert column_identity_residual(fam) <= 1e-13


def test_verify_all_builds_gram_once_and_keeps_column_residual(monkeypatch):
    fam = deficient_family(6, 3, 3)
    expected = column_identity_residual(fam)
    builds, gram = [], hv.gram_hadamard
    monkeypatch.setattr(hv, "gram_hadamard", lambda f: builds.append(f) or gram(f))
    assert verify_all(fam, CFG).column_identity_residual == expected
    assert len(builds) == 1


def test_tensor_witness_zero_for_full_range():
    t = tensor_witness(MatrixFamily([np.eye(3)]), CFG)
    assert t.shape == (9,)
    np.testing.assert_array_equal(t, np.zeros(9))


def test_tensor_witness_zero_family():
    t = tensor_witness(MatrixFamily([np.zeros((3, 3)), np.zeros((3, 3))]), CFG)
    np.testing.assert_array_equal(t, np.zeros(27))


def test_tensor_witness_vanishes_on_random_families():
    rng = np.random.default_rng(2)
    for _ in range(5):
        fam = MatrixFamily([complex_gaussian(rng, 5, 5) for _ in range(2)])
        assert np.linalg.norm(tensor_witness(fam, CFG)) <= 1e-7 * family_scale(fam)
    # rank-deficient range makes the complement projector nontrivial
    fam = deficient_family(6, 1, 3)
    assert np.linalg.norm(tensor_witness(fam, CFG)) <= 1e-7 * family_scale(fam)


def test_tensor_witness_budget(monkeypatch):
    fam = MatrixFamily([np.eye(16)] * 4)  # 16^5 > 1e6 entries
    with pytest.raises(BudgetExceededError):
        tensor_witness(fam, CFG)
    with pytest.raises(BudgetExceededError):
        norm_trace_identity(fam, CFG)
    small = MatrixFamily([np.eye(2), np.eye(2)])
    monkeypatch.setattr(hv, "TENSOR_ENTRY_BUDGET", 7)
    with pytest.raises(BudgetExceededError):
        tensor_witness(small, CFG)


def kron_sum_tensor(fam, m):
    """sum_i (B_1* e_i) (x) ... (x) (B_k* e_i) (x) (conj(m) e_i), term by term."""
    t = np.zeros(fam.n ** (fam.k + 1), dtype=np.complex128)
    for i in range(fam.n):
        t += reduce(np.kron, [b.conj().T[:, i] for b in fam] + [np.conj(m)[:, i]])
    return t


def witness_cases():
    # m is a random complex matrix, not a projector, so T is far from 0
    rng = np.random.default_rng(93)
    for k, n in zip(range(1, 5), (7, 6, 5, 4)):
        general = MatrixFamily([complex_gaussian(rng, n, n) for _ in range(k)])
        yield pytest.param(general, complex_gaussian(rng, n, n), id=f"general-{n}x{k}")
        yield pytest.param(deficient_family(n, k, 94 + k), complex_gaussian(rng, n, n),
                           id=f"deficient-{n}x{k}")


@pytest.mark.parametrize("fam, m", list(witness_cases()))
def test_tensor_from_matches_kron_sum_definition(fam, m):
    n, k = fam.n, fam.k
    t = hv._tensor_from(fam, m)
    ref = kron_sum_tensor(fam, m)
    assert t.shape == ref.shape
    assert np.linalg.norm(t - ref) <= 1e-13 * np.linalg.norm(ref)
    eh_adj = (m @ families.face_split(list(fam))).conj().T
    assert np.linalg.norm(t.reshape(n**k, n) - eh_adj) <= 1e-13 * np.linalg.norm(eh_adj)


@pytest.mark.parametrize("fam, m", list(witness_cases()))
def test_pairing_identity_with_hermitian_non_projector(fam, m):
    # the identity needs E Hermitian, not idempotent: both sides are O(1) here
    # three trials side by side: column i of each stack holds trial i's
    # x_1 .. x_k, y, drawn one vector at a time
    e = m + m.conj().T
    rng = np.random.default_rng(95)
    draws = [[complex_gaussian(rng, fam.n) for _ in range(fam.k + 1)] for _ in range(3)]
    *xs, y = [np.column_stack(vs) for vs in zip(*draws)]
    t = hv._tensor_from(fam, e)
    paired = hv._tensor_sides(fam, e, xs, y)[1]
    assert paired.shape == (3,)
    for i in range(3):
        xi, yi = [x[:, i] for x in xs], y[:, i]
        expected = np.vdot(t, reduce(np.kron, xi + [np.conj(yi)]))
        assert abs(expected) >= 1e-3 * family_scale(fam) * np.prod(
            [np.linalg.norm(x) for x in xi]) * np.linalg.norm(yi)
        assert abs(paired[i] - expected) <= 1e-12 * abs(expected)
    assert max(hv._pairing_residual(fam, xs, y, e, paired, family_scale(fam))) <= hv.PAIRING_TOL


@pytest.mark.parametrize("block", [None, 4, 23], ids=["default-block", "block-4", "block-23"])
@pytest.mark.parametrize("trials", [0, 1, 3])
@pytest.mark.parametrize("fam, m", list(witness_cases()))
def test_tensor_sides_match_the_explicit_witness(monkeypatch, fam, m, trials, block):
    # the default block takes T in one window, 4 gives windows of 2n rows, and
    # 23 gives windows that end inside the n rows of one prefix column
    if block is not None:
        monkeypatch.setattr(hspan.subspace, "TSQR_BLOCK", block)
    rng = np.random.default_rng(102)
    *xs, y = [complex_gaussian(rng, fam.n, trials) for _ in range(fam.k + 1)]
    norm_sq, paired = hv._tensor_sides(fam, m, xs, y)
    ref = kron_sum_tensor(fam, m)
    t = hv._tensor_from(fam, m)
    for whole in (ref, t):
        assert abs(norm_sq - np.vdot(whole, whole).real) <= 1e-13 * np.vdot(whole, whole).real
    assert paired.shape == (trials,)
    for i in range(trials):
        expected = np.vdot(ref, reduce(np.kron, [x[:, i] for x in xs] + [np.conj(y[:, i])]))
        assert abs(paired[i] - expected) <= 1e-12 * abs(expected)


def test_norm_trace_identity_agrees():
    for seed in range(5):
        fam = deficient_family(6, 2, 50 + seed)
        tn, tr = norm_trace_identity(fam, CFG)
        s2 = family_scale(fam) ** 2
        assert abs(tn - tr.real) <= 1e-8 * s2
        assert abs(tr.imag) <= 1e-10 * s2
        assert tn <= 1e-8 * s2
        assert abs(tr.real) <= 1e-8 * s2


def test_norm_trace_identity_zero_family():
    tn, tr = norm_trace_identity(MatrixFamily([np.zeros((4, 4))]), CFG)
    assert tn == 0.0
    assert tr == 0


def test_pairing_identity_zero_vectors():
    fam = deficient_family(4, 2, 60)
    zero = np.zeros(4)
    x = complex_gaussian(np.random.default_rng(61), 4)
    assert pairing_identity_residual(fam, [x, x], zero, CFG) == 0.0
    assert pairing_identity_residual(fam, [zero, x], x, CFG) == 0.0


def test_pairing_identity_small_on_random():
    rng = np.random.default_rng(62)
    for seed in range(5):
        fam = deficient_family(5, 2, 70 + seed)
        xs = [complex_gaussian(rng, 5) for _ in range(2)]
        y = complex_gaussian(rng, 5)
        assert pairing_identity_residual(fam, xs, y, CFG) <= 1e-12


def test_pairing_identity_validates_shapes():
    fam = deficient_family(4, 2, 80)
    x = np.ones(4)
    with pytest.raises(DimensionError):
        pairing_identity_residual(fam, [x], np.ones(4), CFG)
    with pytest.raises(DimensionError):
        pairing_identity_residual(fam, [x, np.ones(3)], np.ones(4), CFG)
    with pytest.raises(DimensionError):
        pairing_identity_residual(fam, [x, x], np.ones(5), CFG)


def test_pairing_identity_refuses_overflowing_vectors():
    # the members (B_j x_j) are finite, but ||x_1|| ||x_2|| ||y|| and the
    # Kronecker product x_1 (x) x_2 are not: the vectors are blamed, not the members
    fam = MatrixFamily([np.diag([1e-200, 1.0, 1.0]), np.diag([1e-200, 1.0, 0.0])])
    x = np.array([1e200, 0.0, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^slot vectors or y too large: "
                                             r"prod_i \|\|B_i\|\|_F \* prod_j \|\|x_j\|\| "
                                             r"\* \|\|y\|\| overflows$"):
            pairing_identity_residual(fam, [x, x], np.ones(3), CFG)


def test_orthogonality_full_rank_is_tiny():
    fam = MatrixFamily([np.eye(4), np.eye(4)])
    assert max(orthogonality_check(fam, 10, CFG)) <= 1e-14


def test_orthogonality_exact_for_split_diagonal():
    # members kill the second coordinate, the complement keeps only it,
    # so every pairing is exactly zero
    fam = MatrixFamily([np.diag([1.0, 0.0])])
    assert orthogonality_check(fam, 25, CFG) == [0.0] * 25


def test_orthogonality_zero_family_guard():
    fam = MatrixFamily([np.zeros((3, 3))])
    assert orthogonality_check(fam, 5, CFG) == [0.0] * 5


def test_orthogonality_validates_trials():
    with pytest.raises(ValueError):
        orthogonality_check(MatrixFamily([np.eye(2)]), 0, CFG)


def test_verify_all_identity_family():
    rep = verify_all(MatrixFamily([np.eye(3), np.eye(3)]), CFG)
    assert rep.passed
    assert rep.column_identity_residual == 0.0
    assert rep.tensor_norm_sq == 0.0
    assert rep.norm_trace_gap == 0.0
    assert rep.skipped == ()
    assert rep.psd_span_distance is None


def test_verify_all_zero_family():
    rep = verify_all(MatrixFamily([np.zeros((3, 3))]), CFG)
    assert rep.passed
    assert max(rep.orthogonality_residuals) == 0.0


def test_verify_all_random_families():
    for label, fam in families.general_corpus()[:16]:
        rep = verify_all(fam, CFG, orthogonality_trials=10)
        assert rep.passed, f"{label}: {rep.checks}"


def test_verify_all_deterministic():
    fam = deficient_family(5, 2, 90)
    assert verify_all(fam, CFG).to_dict() == verify_all(fam, CFG).to_dict()


@pytest.mark.parametrize("n, k", [(31, 3), (15, 4)])
def test_verify_all_never_holds_the_witness(n, k):
    # both run the tensor checks; T and conj(H) have n^(k+1) entries each
    rng = np.random.default_rng(103)
    fam = MatrixFamily([complex_gaussian(rng, n, n) for _ in range(k)])
    witness_bytes = 16 * n ** (k + 1)
    tracemalloc.start()
    try:
        rep = verify_all(fam, CFG)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.skipped == () and rep.passed
    assert peak < witness_bytes / 4


def test_verify_all_names_a_bad_trial_count():
    fam = MatrixFamily([np.eye(2)])
    with pytest.raises(ValueError, match=r"^pairing_trials must be >= 0, got -1$"):
        verify_all(fam, CFG, pairing_trials=-1)
    with pytest.raises(ValueError, match=r"^orthogonality_trials must be >= 1, got 0$"):
        verify_all(fam, CFG, orthogonality_trials=0)


def test_verify_all_skips_over_budget_tensor():
    fam = MatrixFamily([np.eye(16)] * 4)
    rep = verify_all(fam, CFG, orthogonality_trials=5)
    assert rep.skipped == ("norm_trace", "pairing")
    assert rep.tensor_norm_sq is None and rep.trace_eg is None
    assert rep.pairing_residuals == ()
    assert "norm_trace" not in rep.checks and "pairing" not in rep.checks
    assert rep.passed  # remaining checks still pass


def test_verify_all_psd_adds_product_distance():
    rng = np.random.default_rng(91)
    m1 = complex_gaussian(rng, 4, 2)
    m2 = complex_gaussian(rng, 4, 4)
    rep = verify_all(PsdFamily([m1 @ m1.conj().T, m2 @ m2.conj().T]), CFG)
    assert rep.passed
    assert rep.psd_span_distance is not None
    assert rep.psd_span_distance <= 1e-8
    assert rep.checks["psd_span"]


def test_report_serializes_to_json():
    rep = verify_all(deficient_family(4, 2, 92), CFG)
    blob = json.dumps(rep.to_dict())
    back = json.loads(blob)
    assert back["passed"] is True
    assert len(back["trace_eg"]) == 2
    assert len(back["orthogonality_residuals"]) == 50


def agreement_cases():
    rng = np.random.default_rng(96)
    yield pytest.param(MatrixFamily([complex_gaussian(rng, 5, 5) for _ in range(3)]),
                       id="general-5x3")
    yield pytest.param(deficient_family(6, 2, 97), id="deficient-6x2")
    m1, m2 = complex_gaussian(rng, 5, 2), complex_gaussian(rng, 5, 4)
    yield pytest.param(PsdFamily([m1 @ m1.conj().T, m2 @ m2.conj().T]), id="psd-5x2")


@pytest.mark.parametrize("fam", list(agreement_cases()))
def test_verify_all_agrees_with_identity_functions(fam):
    rep = verify_all(fam, CFG)
    if isinstance(fam, PsdFamily):  # the checks run on the square-root family
        fam = MatrixFamily([psd_sqrt(a) for a in fam])
    assert list(rep.orthogonality_residuals) == orthogonality_check(fam, 50, CFG)
    assert (rep.tensor_norm_sq, rep.trace_eg) == norm_trace_identity(fam, CFG)
    # trial i draws x_1 .. x_k and then y from the i-th pairing child seed
    draws = []
    for child in seed_children(CFG.seed, STREAM_PAIRING, 10):
        rng = np.random.default_rng(child)
        draws.append([complex_gaussian(rng, fam.n) for _ in range(fam.k + 1)])
    *xs, y = [np.column_stack(vs) for vs in zip(*draws)]
    _, _, e = hv._complement(fam, CFG)
    paired = hv._tensor_sides(fam, e, xs, y)[1]
    expected = hv._pairing_residual(fam, xs, y, e, paired, family_scale(fam))
    assert list(rep.pairing_residuals) == expected.tolist()


def batching_cases():
    rng = np.random.default_rng(98)
    yield pytest.param(deficient_family(6, 1, 99), 10, id="deficient-6x1")
    yield pytest.param(MatrixFamily([complex_gaussian(rng, 5, 5) for _ in range(2)]), 10,
                       id="general-5x2")
    yield pytest.param(deficient_family(4, 4, 100), 10, id="deficient-4x4")
    m1, m2 = complex_gaussian(rng, 5, 2), complex_gaussian(rng, 5, 4)
    yield pytest.param(PsdFamily([m1 @ m1.conj().T, m2 @ m2.conj().T]), 10, id="psd-5x2")
    yield pytest.param(deficient_family(5, 2, 101), 0, id="no-pairing-trials")


@pytest.mark.parametrize("fam, pairing_trials", list(batching_cases()))
def test_batched_trials_match_per_trial_reference(fam, pairing_trials):
    # every trial recomputed alone: k matvecs, one np.vdot, one np.kron
    rep = verify_all(fam, CFG, pairing_trials=pairing_trials, orthogonality_trials=20)
    if isinstance(fam, PsdFamily):
        fam = MatrixFamily([psd_sqrt(a) for a in fam])
    e = complement_projector(range_basis(gram_hadamard(fam), CFG))
    t = kron_sum_tensor(fam, e)
    scale = float(np.prod([np.linalg.norm(b) for b in fam]))

    def trials(stream, count):
        for child in seed_children(CFG.seed, stream, count):
            rng = np.random.default_rng(child)
            xs = [complex_gaussian(rng, fam.n) for _ in range(fam.k)]
            y = complex_gaussian(rng, fam.n)
            h = reduce(np.multiply, [b @ x for b, x in zip(fam, xs)])
            norm = scale * float(np.prod([np.linalg.norm(x) for x in xs])) * np.linalg.norm(y)
            yield xs, y, complex(np.vdot(e @ y, h)), norm

    pairing = [abs(lhs - np.vdot(t, reduce(np.kron, xs + [np.conj(y)]))) / max(1.0, norm)
               for xs, y, lhs, norm in trials(STREAM_PAIRING, pairing_trials)]
    ortho = [abs(lhs) / norm for _, _, lhs, norm in trials(STREAM_ORTHO, 20)]
    assert len(rep.pairing_residuals) == len(pairing) == pairing_trials
    assert len(rep.orthogonality_residuals) == len(ortho) == 20
    # each residual is already divided by its normalizer
    np.testing.assert_allclose(rep.pairing_residuals, pairing, rtol=0, atol=1e-12)
    np.testing.assert_allclose(rep.orthogonality_residuals, ortho, rtol=0, atol=1e-12)
    assert rep.checks["pairing"] == (max(pairing, default=0.0) <= hv.PAIRING_TOL)
    if pairing_trials == 0:
        assert rep.pairing_residuals == () and rep.checks["pairing"] is True
    assert rep.checks["orthogonality"] == (max(ortho) <= hv.ORTHOGONALITY_TOL)
    assert rep.passed


def test_verify_all_rejects_overflowing_scales():
    # G = diag(1e308, 1e308) is finite, but (prod ||B_i||_F)^2 is not, and
    # ||G||_F overflows for diag(1e77, 1) twice
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"\(prod_i \|\|B_i\|\|_F\)\^2 overflows"):
            verify_all(MatrixFamily([np.diag([1e154, 1.0]), np.diag([1.0, 1e154])]), CFG)
        with pytest.raises(ValueError, match=r"\|\|G\|\|_F overflows"):
            verify_all(MatrixFamily([np.diag([1e77, 1.0])] * 2), CFG)


def test_trial_draws_refused_before_seeding(monkeypatch):
    def no_seeds(*args):
        raise AssertionError("seed_children ran")

    monkeypatch.setattr(hspan.spans, "seed_children", no_seeds)  # the trials draw through spans
    fam = MatrixFamily([np.eye(4)] * 2)  # trials draw 12 entries, pairing also 16 of T Y
    budget = hspan.spans.DRAW_ENTRY_BUDGET
    with pytest.raises(BudgetExceededError):
        orthogonality_check(fam, budget // 12 + 1, CFG)
    with pytest.raises(BudgetExceededError):
        verify_all(fam, CFG, orthogonality_trials=budget // 12 + 1)
    with pytest.raises(BudgetExceededError):
        verify_all(fam, CFG, pairing_trials=budget // 28 + 1)
