"""Numerical certification of the identities behind the span equality.

The span equality rests on a short chain of exact identities. Writing
G = (B_1 B_1*) o ... o (B_k B_k*), Q for an orthonormal basis of range(G),
and E = I - Q Q* for the projector onto its orthogonal complement:

* column identity: the i-th column of G is (B_1 B_1* e_i) o ... o (B_k B_k* e_i),
  which places every column of G inside the span of the product family;
* tensor witness: T = sum_i (B_1* e_i) (x) ... (x) (B_k* e_i) (x) (conj(E) e_i)
  collects the other inclusion into a single vector. Reshaped row-major to
  n^k x n it is (E H)*, with H the n x n^k face-splitting matrix whose row i
  is B_1[i, :] (x) ... (x) B_k[i, :], so the rows of conj(T) are matrix
  products of columns of H with E^T, formed from the B_j and E, independently
  of G;
* norm-trace identity: ||T||^2 = trace(E G), which vanishes because E
  annihilates range(G);
* pairing identity: <(B_1 x_1) o ... o (B_k x_k), E y> =
  <x_1 (x) ... (x) x_k (x) conj(y), T>, which holds for every Hermitian E,
  so T = 0 forces every family member to be orthogonal to the complement of
  range(G).

Each identity is evaluated with its two sides computed through disjoint
operation chains (the face-splitting product against the Gram matrix,
per-column matvecs against a full multiply), so a bug in one kernel cannot
certify itself. Residuals are normalized by scale = prod_i ||B_i||_F and the
vector norms involved, and judged against the module tolerances below: exact
algebraic identities at 1e-13 or 1e-12, identities that pass through a rank
decision at 1e-7 or 1e-8.

The random trials run side by side. The draws of t trials are n x t stacks
X_1 .. X_k and Y; the family side forms all t members at once as
(B_1 X_1) o ... o (B_k X_k). The tensor side of both identities is one pass
over conj(T), viewed as n^k x n, in windows of max(TSQR_BLOCK, 2n) rows of
the oracle's own H: each adds to ||T||^2 and is contracted against the same
columns of the trials' Khatri-Rao rows x_1 (x) ... (x) x_k, then conj(Y).
Neither T nor H is held whole by the checks; tensor_witness returns T.

Two conventions hold throughout. The inner product
<u, v> = sum_i u[i] * conj(v[i]) = np.vdot(v, u) is linear in its first slot
and conjugate-linear in its second. Tensors are row-major and np.kron is
left-associated, so the entry of u (x) v at index p * dim(v) + q is
u[p] * v[q]. The tensor witness and the checks on it are limited to
n^(k+1) <= TENSOR_ENTRY_BUDGET entries. The checks stream T, but keep the
rule, so that the same families skip them.

Every function here reads a PsdFamily through its `roots`, the factors
B_i with B_i B_i* = A_i, for which every identity holds.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from functools import reduce

import numpy as np

from .errors import DimensionError, int_text, require_budget
from .rng import STREAM_ORTHO, STREAM_PAIRING
from .spans import (MatrixFamily, PsdFamily, _draw_stack, _face_split, _FaceSplit, _members,
                    _require_draw_budget, _require_finite, gram_hadamard, psd_hadamard_span)
# Not called here; bench/tracing.py patches them in verify until ROADMAP item 4.
from .spans import complex_gaussian, psd_sqrt, seed_children  # noqa: F401
from .subspace import (ToleranceConfig, _column_windows, as_matrix,
                       complement_projector, range_basis, subspace_distance)

COLUMN_IDENTITY_TOL = 1e-13
PAIRING_TOL = 1e-12
NORM_TRACE_TOL = 1e-8
NORM_TRACE_IMAG_TOL = 1e-10
ORTHOGONALITY_TOL = 1e-7
SPAN_DISTANCE_TOL = 1e-8
TENSOR_ENTRY_BUDGET = 1_000_000


def _factors(family: MatrixFamily) -> MatrixFamily:
    return family.roots if isinstance(family, PsdFamily) else family


def family_scale(family: MatrixFamily) -> float:
    """prod_i ||B_i||_F, over a PsdFamily's roots: the family's magnitude. A
    family whose scale^2, the norm-trace tolerance's unit, overflows is rejected."""
    with np.errstate(over="ignore"):
        scale = float(np.prod([np.linalg.norm(b) for b in _factors(family)]))
    _require_finite(scale * scale, "(prod_i ||B_i||_F)^2")
    return scale


@dataclass(frozen=True)
class VerificationReport:
    """Residuals and pass flags for every identity check on one family.

    Checks that would exceed the tensor entry budget are listed in `skipped`
    and excluded from `checks`; they never count as passed. `passed` is the
    conjunction of the checks that actually ran.
    """

    column_identity_residual: float
    tensor_norm_sq: float | None
    trace_eg: complex | None
    norm_trace_gap: float | None
    pairing_residuals: tuple[float, ...]
    orthogonality_residuals: tuple[float, ...]
    psd_span_distance: float | None
    checks: dict[str, bool]
    skipped: tuple[str, ...] = field(default=())
    passed: bool = False

    def to_dict(self) -> dict:
        """JSON-ready form; the complex trace becomes a [re, im] pair."""
        out = asdict(self)
        if self.trace_eg is not None:
            out["trace_eg"] = [self.trace_eg.real, self.trace_eg.imag]
        return out


def column_identity_residual(family: MatrixFamily) -> float:
    """max_i ||G e_i - (B_1 B_1* e_i) o ... o (B_k B_k* e_i)|| / max(1, ||G||_F).

    The left side reads columns out of the fully assembled G; the right side
    rebuilds each column from per-matrix matvecs on B_j* e_i = conj(B_j[i, :])
    and never forms a Gram matrix.
    """
    family = _factors(family)
    return _column_identity(family, gram_hadamard(family))


def _column_identity(family: MatrixFamily, g: np.ndarray) -> float:
    with np.errstate(over="ignore"):
        denom = max(1.0, _require_finite(float(np.linalg.norm(g)), "||G||_F"))
    worst = 0.0
    for i in range(family.n):
        col = reduce(np.multiply, (b @ b[i].conj() for b in family))
        worst = max(worst, float(np.linalg.norm(g[:, i] - col)))
    return worst / denom


def _complement(family: MatrixFamily, cfg: ToleranceConfig):
    """(B, G, range(G), E): the factors B_i the checks run on (a PsdFamily's
    roots), their Gram matrix, its range under cfg's rank policy, and the
    projector onto the orthogonal complement of that range."""
    g = gram_hadamard(bfam := _factors(family))
    span = range_basis(g, cfg)
    return bfam, g, span, complement_projector(span)


def _tensor_from(family: MatrixFamily, e: np.ndarray) -> np.ndarray:
    """T = sum_i (B_1* e_i) (x) ... (x) (B_k* e_i) (x) (conj(E) e_i).

    B_j* e_i is conj(B_j[i, :]), so T reshaped row-major to n^k x n is
    conj(H)^T conj(E)^T = (E H)*, with H the face-splitting matrix of the
    family (row i is B_1[i, :] (x) ... (x) B_k[i, :]); hence
    ||T||^2 = ||E H||_F^2. H is built from the B_j, never from G.
    """
    h_bar = _face_split([b.conj() for b in family])
    return (h_bar.T @ np.conj(e).T).reshape(-1)


def _require_tensor_budget(family: MatrixFamily):
    require_budget(family.n ** (family.k + 1), TENSOR_ENTRY_BUDGET,
                   "tensor witness needs n^(k+1)", "entries")


def tensor_witness(family: MatrixFamily, cfg: ToleranceConfig) -> np.ndarray:
    """The witness vector T of dimension n^(k+1); the span equality says T = 0.

    T is built and returned whole, n^(k+1) entries beside as many of conj(H).
    The checks on T (norm_trace_identity, pairing_identity_residual and
    verify_all) never hold it: they stream it one window of rows at a time.
    """
    _require_tensor_budget(family)
    bfam, _, _, e = _complement(family, cfg)
    return _tensor_from(bfam, e)


def _tensor_sides(family: MatrixFamily, e: np.ndarray, xs, y) -> tuple[float, np.ndarray]:
    """The tensor side of both identities, T viewed as n^k x n: (||T||^2,
    <x_1 (x) ... (x) x_k (x) conj(y), T> per column of the n x t stacks X_j and Y).

    Row c of conj(T) is H[:, c]^T E^T, so conj(T) is walked in windows of
    b = max(TSQR_BLOCK, 2n) rows, each built from the same columns of H, the
    _FaceSplit that the combination oracle reduces. Each window is contracted
    against the same columns of K = face_split(X_1^T .. X_k^T), whose t rows
    are the Khatri-Rao rows x_1 (x) ... (x) x_k; the pairing is the diagonal
    of K conj(T) conj(Y). Only Y is conjugated, and conjugation is exact.
    Neither T nor H is held, and G and the members B_j X_j are never formed.
    """
    h = _FaceSplit(list(family))
    kr = _FaceSplit([x.T for x in xs])
    norm_sq, z = 0.0, np.zeros((y.shape[1], family.n), dtype=np.complex128)
    for w in _column_windows(*h.shape):
        rows = h[:, w].T @ e.T
        norm_sq += np.vdot(rows, rows).real
        z += kr[:, w] @ rows
    return float(norm_sq), np.einsum("ti,it->t", z, y.conj())


def norm_trace_identity(family: MatrixFamily, cfg: ToleranceConfig) -> tuple[float, complex]:
    """Both sides of ||T||^2 = trace(E G), computed independently.

    The norm side sums |T_p|^2 over T, one window of rows at a time; the
    trace side is a plain matrix product, no tensor involved.
    """
    _require_tensor_budget(family)
    bfam, g, _, e = _complement(family, cfg)
    empty = np.empty((family.n, 0))
    return _tensor_sides(bfam, e, [empty] * family.k, empty)[0], complex(np.trace(e @ g))


def _family_pairing(family, xs, y, e, scale) -> tuple[np.ndarray, np.ndarray]:
    """Per column: (<(B_1 x_1) o ... o (B_k x_k), E y>, scale * prod ||x_j|| * ||y||),
    computed in C^n without the tensor witness."""
    lhs = np.einsum("it,it->t", _members(family, xs), np.conj(e @ y))
    return lhs, scale * np.prod(np.linalg.norm(xs, axis=1), axis=0) * np.linalg.norm(y, axis=0)


def _pairing_residual(family, xs, y, e, paired, scale) -> np.ndarray:
    """Per column: the family side's distance from `paired`, the tensor side."""
    lhs, norm = _family_pairing(family, xs, y, e, scale)
    return np.abs(lhs - paired) / np.maximum(1.0, norm)


def pairing_identity_residual(family: MatrixFamily, xs, y, cfg: ToleranceConfig) -> float:
    """|<(B_1 x_1) o ... o (B_k x_k), E y> - <x_1 (x)...(x) x_k (x) conj(y), T>|,
    normalized by max(1, scale * prod ||x_j|| * ||y||).

    The left side works in C^n (entrywise products, one projector matvec);
    the right side pairs x_1 (x) ... (x) x_k in C^(n^k) with T y, T viewed
    as n^k x n and streamed in windows of rows by _tensor_sides, never held.
    Vectors whose normalizer overflows float64 are refused before any tensor
    work.
    """
    xs = [as_matrix(x, "slot vector", ndim=1) for x in xs]
    y = as_matrix(y, "y", ndim=1)
    if len(xs) != family.k:
        raise DimensionError(f"need {family.k} slot vectors, got {len(xs)}")
    for x in xs:
        if x.shape != (family.n,):
            raise DimensionError(f"slot vector has shape {x.shape}, expected ({family.n},)")
    if y.shape != (family.n,):
        raise DimensionError(f"y has shape {y.shape}, expected ({family.n},)")
    _require_tensor_budget(family)
    family, _, _, e = _complement(family, cfg)
    scale = family_scale(family)
    with np.errstate(over="ignore", invalid="ignore"):
        norm = scale * np.prod([np.linalg.norm(x) for x in xs]) * np.linalg.norm(y)
    if not np.isfinite(norm):
        raise ValueError("slot vectors or y too large: "
                         "prod_i ||B_i||_F * prod_j ||x_j|| * ||y|| overflows")
    xs, y = np.stack(xs)[..., None], y[:, None]
    paired = _tensor_sides(family, e, xs, y)[1]
    return float(_pairing_residual(family, xs, y, e, paired, scale)[0])


def _orthogonality_residuals(family, trials, cfg, e, scale) -> list[float]:
    *xs, y = _draw_stack(cfg.seed, STREAM_ORTHO, family.k + 1, family.n, trials)
    lhs, norm = _family_pairing(family, xs, y, e, scale)
    out = np.abs(lhs) / np.where(norm == 0.0, 1.0, norm)
    out[(norm == 0.0) & (lhs != 0.0)] = np.inf
    return out.tolist()


def orthogonality_check(family: MatrixFamily, trials: int, cfg: ToleranceConfig) -> list[float]:
    """Normalized |<(B_1 x_1) o ... o (B_k x_k), E y>| over random trials.

    These inner products vanish identically by the span equality; the
    residuals measure how well the computed range(G) captures the family.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {int_text(trials)}")
    _require_draw_budget((family.k + 1) * family.n, trials)
    family, _, _, e = _complement(family, cfg)
    return _orthogonality_residuals(family, trials, cfg, e, family_scale(family))


def verify_all(family: MatrixFamily, cfg: ToleranceConfig, *,
               pairing_trials: int = 10, orthogonality_trials: int = 50) -> VerificationReport:
    """Run every identity check on one family and aggregate a report.

    As everywhere in this module, the checks on a PsdFamily run on its roots;
    the report then also records the distance between range(A_1 o ... o A_k)
    and the roots' span, which the PSD specialization asserts is zero.
    """
    if pairing_trials < 0:
        raise ValueError(f"pairing_trials must be >= 0, got {int_text(pairing_trials)}")
    if orthogonality_trials < 1:
        raise ValueError(f"orthogonality_trials must be >= 1, got {int_text(orthogonality_trials)}")
    n, k = family.n, family.k
    with_tensor = n ** (k + 1) <= TENSOR_ENTRY_BUDGET
    _require_draw_budget((k + 1) * n, orthogonality_trials)
    if with_tensor:  # the n^k term keeps refusing the same inputs until ROADMAP item 7
        _require_draw_budget((k + 1) * n + n ** k, pairing_trials)
    product_span = psd_hadamard_span(family, cfg) if isinstance(family, PsdFamily) else None
    bfam, g, span, e = _complement(family, cfg)  # rejects entries whose G overflows
    scale = family_scale(bfam)

    checks: dict[str, bool] = {}
    skipped: list[str] = []

    column_res = _column_identity(bfam, g)
    checks["column_identity"] = column_res <= COLUMN_IDENTITY_TOL

    tensor_norm_sq = trace_eg = norm_trace_gap = None
    pairing_residuals: list[float] = []
    if with_tensor:
        *xs, y = _draw_stack(cfg.seed, STREAM_PAIRING, k + 1, n, pairing_trials)
        tensor_norm_sq, paired = _tensor_sides(bfam, e, xs, y)
        trace_eg = complex(np.trace(e @ g))
        norm_trace_gap = abs(tensor_norm_sq - trace_eg.real)
        s2 = scale * scale
        checks["norm_trace"] = (norm_trace_gap <= NORM_TRACE_TOL * s2
                                and tensor_norm_sq <= NORM_TRACE_TOL * s2
                                and abs(trace_eg.real) <= NORM_TRACE_TOL * s2
                                and abs(trace_eg.imag) <= NORM_TRACE_IMAG_TOL * s2)
        pairing_residuals = _pairing_residual(bfam, xs, y, e, paired, scale).tolist()
        checks["pairing"] = max(pairing_residuals, default=0.0) <= PAIRING_TOL
    else:
        skipped.extend(["norm_trace", "pairing"])

    orthogonality_residuals = _orthogonality_residuals(
        bfam, orthogonality_trials, cfg, e, scale)
    checks["orthogonality"] = max(orthogonality_residuals) <= ORTHOGONALITY_TOL

    psd_distance = None
    if product_span is not None:
        psd_distance = subspace_distance(product_span, span)
        checks["psd_span"] = psd_distance <= SPAN_DISTANCE_TOL

    return VerificationReport(
        column_identity_residual=column_res,
        tensor_norm_sq=tensor_norm_sq,
        trace_eg=trace_eg,
        norm_trace_gap=norm_trace_gap,
        pairing_residuals=tuple(pairing_residuals),
        orthogonality_residuals=tuple(orthogonality_residuals),
        psd_span_distance=psd_distance,
        checks=checks,
        skipped=tuple(skipped),
        passed=all(checks.values()),
    )
