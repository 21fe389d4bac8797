"""Spans of Hadamard-product vector families.

For square complex matrices B_1 .. B_k, the family of vectors

    (B_1 x_1) o (B_2 x_2) o ... o (B_k x_k),   x_j in C^n,

(o is the entrywise product) spans exactly the column space of the Gram
matrix product G = (B_1 B_1*) o ... o (B_k B_k*) = H H*, H the n x n^k
face-splitting matrix. hadamard_span ranks range(H) on the sigma(H) scale,
certified by G where G can certify it; independent oracles never look at G.
The deterministic oracle uses multilinearity, each slot's vector x_j can be
restricted to basis vectors, so the n^k products of column combinations,
the columns of H, already span the family. It forms all of them, one column
slice at a time, and holds only the n^k-entry face split of B_1 .. B_(k-1),
one slice and the stacked R factors of the reduction, never H. The
randomized oracle samples Gaussian x_j directly.

For positive semidefinite A_1 .. A_k there are two tighter statements: the
span of (A_1 x_1) o ... o (A_k x_k) is range(A_1 o ... o A_k)
(psd_hadamard_span), and even a single shared vector x in every slot
suffices (single_vector_sample_span samples that thinner family). Every
other route reads a PsdFamily as the general family B_j = A_j. A PsdFamily
applies psd_sqrt's Hermitian/PSD acceptance rule to each member.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

from .errors import (DimensionError, NotHermitianError, NotPsdError, int_text, require_budget,
                     size_text)
from .rng import STREAM_SAMPLE, STREAM_SINGLE, complex_gaussian, seed_children
from .subspace import Subspace, ToleranceConfig, _wide_factor, as_matrix, range_basis

PSD_REL_TOL = 1e-10
EPS = float(np.finfo(np.float64).eps)
# Largest n^k the oracle takes. It forms all n^k columns of H but holds
# only the n^k-entry prefix p, one column slice and the stacked R factors.
ORACLE_COLUMN_BUDGET = 65536
DRAW_ENTRY_BUDGET = 10_000_000


class MatrixFamily:
    """An ordered family B_1 .. B_k of n x n complex matrices."""

    def __init__(self, matrices):
        mats = [as_matrix(m, f"matrix {i + 1}") for i, m in enumerate(matrices)]
        if not mats:
            raise DimensionError("family needs at least one matrix")
        n = mats[0].shape[0]
        for i, m in enumerate(mats):
            if m.shape != (n, n):
                raise DimensionError(f"matrix {i + 1} has shape {m.shape}, expected ({n}, {n})")
        stack = np.stack(mats)
        stack.setflags(write=False)
        self._stack = stack

    @property
    def n(self) -> int:
        return self._stack.shape[1]

    @property
    def k(self) -> int:
        return self._stack.shape[0]

    def __iter__(self):
        return iter(self._stack)

    def __repr__(self):
        return f"{type(self).__name__}(n={self.n}, k={self.k})"


class PsdFamily(MatrixFamily):
    """A family whose members must be Hermitian positive semidefinite.

    Each member A_i passes psd_sqrt's rule once, at construction; the family
    is read as the general family B_i = A_i."""

    def __init__(self, matrices):
        super().__init__(matrices)
        for i, a in enumerate(self):
            psd_sqrt(a, name=f"matrix {i + 1}")


def _require_finite(p: np.ndarray, what: str) -> np.ndarray:
    """p, a product of finite factors formed under np.errstate(over="ignore",
    invalid="ignore"). A non-finite entry means the product overflowed float64
    and raises a ValueError naming `what`."""
    if not np.isfinite(p).all():
        raise ValueError(f"matrix entries too large: {what} overflows")
    return p


def _require_normal(family, what: str, power: int = 1) -> None:
    """Refuse a product when a factor or a partial product of it, in reduce
    order, lies wholly below float64's smallest normal number. Row i of each
    is bounded by prod_j ||B_j[i, :]||^power (for G, exactly G_ii), summed in
    log2 over rows scaled by powers of two, so the check cannot underflow
    itself. An exactly zero product, whose row bounds are all -inf, is exempt.
    Raises a ValueError naming `what`."""
    parts = np.abs(family._stack.view(np.float64))  # [j, i]: re, im parts of B_j[i, :]
    exps = np.frexp(parts.max(axis=2, initial=0.0))[1]
    np.ldexp(parts, -exps[..., None], out=parts)  # each row's largest part is now in [1/2, 1)
    with np.errstate(divide="ignore"):  # a zero row's log2 is -inf
        logs = power * (exps + np.log2(np.einsum("jir,jir->ji", parts, parts)) / 2)
    tops = np.concatenate([logs, np.cumsum(logs, axis=0)]).max(axis=1, initial=-np.inf)
    if tops[-1] > -np.inf and tops.min() < np.finfo(np.float64).minexp:
        raise ValueError(f"matrix entries too small: {what} underflows")


def _hadamard_product(mats, what: str) -> np.ndarray:
    """Entrywise product of the matrices `mats` yields. Entries too large for
    float64 raise a ValueError naming `what`, with no numpy warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _require_finite(reduce(np.multiply, mats), what)


def gram_hadamard(family: MatrixFamily) -> np.ndarray:
    """G = (B_1 B_1*) o ... o (B_k B_k*), Hermitian PSD by the Schur product
    theorem. G_ii = prod_j ||B_j[i, :]||^2 bounds the underflow check."""
    what = "the Gram product (B_1 B_1*) o ... o (B_k B_k*)"
    _require_normal(family, what, power=2)
    return _hadamard_product((b @ b.conj().T for b in family), what)


def hadamard_span(family: MatrixFamily, cfg: ToleranceConfig) -> Subspace:
    """Span of the Hadamard-product family: range(H), certified by G = H H*."""
    return _certified_span(family, gram_hadamard(family), cfg)


def _face_split(mats) -> np.ndarray:
    """Face-splitting (row-wise Kronecker) product of matrices with n rows.

    Row i of the result is mats[0][i, :] (x) ... (x) mats[-1][i, :]; for k
    n x n mats it is n x n^k, column i1..ik is (M_1 e_{i1}) o ... o
    (M_k e_{ik}) and, for the family B_1 .. B_k, H H* = G. Entries too large for float64 raise a
    ValueError, with no numpy warning.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        h = reduce(lambda h, b: (h[:, :, None] * b[:, None, :]).reshape(
            len(h), h.shape[1] * b.shape[1]), mats)
        return _require_finite(h, "the face-splitting product of B_1 .. B_k")


class _FaceSplit:
    """The face split H of one or more matrices with the same row count,
    read-only and built one column slice at a time.

    Holds p, the face split of all matrices but the last (a column of ones
    when there is one matrix), and the last one, of m columns. Column c of H
    is p[:, c // m] o last[:, c % m], so h[:, j:j + b] needs only the prefix
    columns j // m .. ceil((j + b) / m). np.asarray(h) is the whole H,
    _face_split(mats), and each slice is bit for bit its slice; only a lone
    matrix's zeros may lose their sign in the complex product with 1.0.
    """

    def __init__(self, mats):
        self._mats, self._last = mats, mats[-1]
        self._prefix = _face_split(mats[:-1] or [np.ones((len(self._last), 1))])
        self.shape = (len(self._last), self._prefix.shape[1] * self._last.shape[1])

    def __getitem__(self, key):
        rows, cols = key
        if rows != slice(None) or cols.step not in (None, 1):
            raise IndexError("a _FaceSplit takes only column slices h[:, j:j + b]")
        m = self._last.shape[1] or 1  # an H of no columns takes p's empty slice
        start, stop, _ = cols.indices(self.shape[1])
        lo, hi = start // m, -(-stop // m)
        h = _face_split([self._prefix[:, lo:hi], self._last])
        return h[:, start - lo * m:stop - lo * m]

    def __array__(self, dtype=None, copy=None):
        return np.asarray(_face_split(self._mats), dtype)


def basis_product_oracle(family: MatrixFamily, cfg: ToleranceConfig) -> Subspace:
    """Brute-force span of all n^k basis-combination products.

    Column i1..ik of the n x n^k face-splitting matrix H is
    (B_1 e_{i1}) o ... o (B_k e_{ik}); multilinearity in each slot makes
    these products span the whole family. range_basis rank-reveals H through
    the n x n factor R^T of H^T = Q R, reduced in column slices of at most
    b = max(TSQR_BLOCK, 2n). H is passed as a _FaceSplit, which builds each
    slice from p, the face split of B_1 .. B_(k-1) (n^k entries), and B_k,
    and is read whole only when narrow (k = 1 or n = 1). So the oracle holds
    p, one n x b slice and the stacked Rs (ceil(n^k / b) * n^2 entries),
    while all n^k columns are still formed; ORACLE_COLUMN_BUDGET bounds n^k.
    Never touches G = H H*, so it is an independent check of hadamard_span.
    """
    require_budget(family.n ** family.k, ORACLE_COLUMN_BUDGET, "oracle needs n^k", "columns")
    _require_normal(family, "the face-splitting product of B_1 .. B_k")
    return range_basis(_FaceSplit(list(family)), cfg)


def _thin_factor(b: np.ndarray) -> np.ndarray:
    """D U S, U S V* the SVD of D^-1 B's nonzero columns less s <= n eps s_1, D scaling rows by
    powers of two: (D U S)(D U S)* = B B* up to row-relative rounding, if B has no zero row."""
    b = b[:, b.any(axis=0)]
    d = np.ldexp(1.0, np.frexp(np.abs(b).max(axis=1))[1])[:, None]
    u, s, _ = np.linalg.svd(b / d, full_matrices=False)
    return d * (u * s)[:, :np.count_nonzero(s > len(b) * EPS * s[0])]


def _certified_span(family: MatrixFamily, g: np.ndarray, cfg: ToleranceConfig) -> Subspace:
    """range(H), g = G = H H*, ranked at tol = rank_rel_tol on the sigma(H) scale. H's zero
    rows are left out. If eigh(G) on the m others has w_min > max(10 m eps, tol^2) w_max, every
    sigma(H)^2 is above rounding and the cutoff tol sqrt(w_max): rank m. G certifies no less, as
    it squares the condition number. Else the thin factors are face split one at a time, each
    split reduced by _wide_factor (row-relative rounding too) and refused past
    ORACLE_COLUMN_BUDGET columns; the last is cut at max(tol sigma_1, 10 m eps sqrt(w_max))."""
    rows = np.flatnonzero(family._stack.any(axis=2).all(axis=0))
    n, m, tol = family.n, len(rows), cfg.rank_rel_tol
    if not m:
        return Subspace(np.zeros((n, 0)), 0.0)
    w, v = np.linalg.eigh(g if m == n else g[np.ix_(rows, rows)])
    if w[0] > max(10 * m * EPS, tol ** 2) * w[-1]:
        span = Subspace(v[:, ::-1], tol * np.sqrt(w[-1]))
    else:
        f, *rest = [_thin_factor(b[rows]) for b in family]
        for t in rest:
            require_budget(f.shape[1] * t.shape[1], ORACLE_COLUMN_BUDGET,
                           "a thin face split needs r_F r_j", "columns")
            f = _wide_factor(_FaceSplit([f, t]))
        span = range_basis(f, cfg, floor=10 * m * EPS * np.sqrt(w[-1]))
    return span if m == n else Subspace(np.eye(n)[:, rows] @ span.basis, span.tol_used)


def sample_count(n: int) -> int:
    """2n + 8, the default sample count of both samplers: twice the top rank, plus 8."""
    return 2 * n + 8


def _members(family, xs) -> np.ndarray:
    """(B_1 X_1) o ... o (B_k X_k); column i is the member at column i of the n x t stacks X_j.
    Entries too large for float64 raise a ValueError, with no numpy warning."""
    return _hadamard_product((b @ x for b, x in zip(family, xs)),
                             "the sampled product (B_1 x_1) o ... o (B_k x_k)")


def _require_draw_budget(rows: int, count: int) -> None:
    """Refuse `count` draws of `rows` entries each above DRAW_ENTRY_BUDGET,
    before the child seed is spawned or any stack allocated."""
    require_budget(rows * count, DRAW_ENTRY_BUDGET, f"{size_text(count)} draws need "
                   f"{size_text(rows)} x {size_text(count)}", "stack entries")


def _draw_stack(seed: int, stream: int, vectors: int, n: int, count: int) -> np.ndarray:
    """vectors x n x count, drawn sample-major by one generator seeded by the first
    child of (seed, stream): no sample depends on `count`. Refused over budget first."""
    _require_draw_budget(vectors * n, count)
    (child,) = seed_children(seed, stream, 1)
    return complex_gaussian(np.random.default_rng(child), count, vectors, n).transpose(1, 2, 0)


def _sample_span(family, cfg, stream, samples, shared) -> Subspace:
    """range_basis of `samples` members. Sample s takes the s-th block of the
    (cfg.seed, stream) draws: one x shared by every slot, or k slot vectors in order.
    A family whose members underflow for unit x_j is refused before any draw."""
    _require_normal(family, "the sampled product (B_1 x_1) o ... o (B_k x_k)")
    xs = _draw_stack(cfg.seed, stream, 1 if shared else family.k, family.n, samples)
    return range_basis(_members(family, [xs[0]] * family.k if shared else xs), cfg)


def random_sample_span(family: MatrixFamily, samples: int, cfg: ToleranceConfig) -> Subspace:
    """Span of `samples` random family members, one Gaussian x_j per slot,
    drawn in slot order; deterministic given cfg.seed."""
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {int_text(samples)}")
    return _sample_span(family, cfg, STREAM_SAMPLE, samples, shared=False)


def psd_sqrt(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    """F = V sqrt(W), with V W V* = (A + A*) / 2 and F F* = A, under the PSD rule.

    A square A with a finite ||A||_F is accepted when its Hermitian defect
    ||A - A*||_F and the negative part of its smallest eigenvalue are at most
    PSD_REL_TOL * ||A||_F; `name` labels A in the messages. F is not Hermitian.
    Eigenvalues inside that band are indistinguishable from zero at this
    type's tolerance and are zeroed, each leaving a zero column in F. Without
    that truncation F would turn eigenvalue roundoff into sqrt(roundoff)
    singular values, inflating its numerical rank above the rank of A.
    """
    a = as_matrix(a, name)
    if a.shape[0] != a.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {a.shape}")
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(a))
    if not np.isfinite(norm):
        raise ValueError(f"{name} is too large: ||A||_F overflows")
    defect = float(np.linalg.norm(a - a.conj().T))
    if defect > PSD_REL_TOL * max(norm, 1e-300):
        raise NotHermitianError(f"{name} is not Hermitian: ||A - A*|| = {defect:.3e}, ||A|| = {norm:.3e}")
    w, v = np.linalg.eigh((a + a.conj().T) / 2.0)
    if w.size and float(w[0]) < -PSD_REL_TOL * norm:
        raise NotPsdError(f"{name} has negative eigenvalue {float(w[0]):.3e}")
    return v * np.sqrt(np.where(w <= PSD_REL_TOL * norm, 0.0, w))


def psd_hadamard_span(family: PsdFamily, cfg: ToleranceConfig) -> Subspace:
    """range(A_1 o ... o A_k), the PSD statement's span; verify holds it to hadamard_span."""
    if not isinstance(family, PsdFamily):
        raise NotPsdError("psd_hadamard_span needs a PsdFamily")
    what = "the product A_1 o ... o A_k"
    _require_normal(family, what)
    return range_basis(_hadamard_product(family, what), cfg)


def single_vector_sample_span(family: PsdFamily, cfg: ToleranceConfig) -> Subspace:
    """Span of (A_1 x) o ... o (A_k x) over sample_count(n) random vectors x.

    One Gaussian x per sample fills every slot. For PSD members this span
    equals psd_hadamard_span with probability 1.
    """
    if not isinstance(family, PsdFamily):
        raise NotPsdError("single_vector_sample_span needs a PsdFamily")
    return _sample_span(family, cfg, STREAM_SINGLE, sample_count(family.n), shared=True)
