"""Deterministic family corpora shared across the test suite.

general_corpus() enumerates every (n, k) in 1..8 x 1..4 and eight member
textures, dense Gaussian through zero, identity, diagonal with holes,
nilpotent, repeated-column and mixed. That is 256 families, all inside the
n^k oracle budget. psd_corpus() builds 108 positive semidefinite families
with controlled member ranks. Both are pure functions of the pinned entropy
below, so every test run sees byte-identical matrices. face_split() is the
reference face-splitting product that the wide-SVD and tensor-witness tests
build their inputs and expectations from.

rotated() and low_rank() build dense families whose singular values of H
are known in closed form, and closed_form_families() is a hypothesis
strategy over both.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import strategies as st

from hspan import MatrixFamily, PsdFamily
from hspan.rng import complex_gaussian

CORPUS_ENTROPY = 20260819

KINDS = ("dense", "deficient", "zero", "identity", "diagonal",
         "nilpotent", "repeated", "mixed")


def face_split(mats):
    """Row-wise Kronecker product: row i is mats[0][i, :] (x) ... (x) mats[-1][i, :]."""
    n = mats[0].shape[0]
    h = mats[0]
    for b in mats[1:]:
        h = (h[:, :, None] * b[:, None, :]).reshape(n, -1)
    return h


def _rng(*key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=[CORPUS_ENTROPY, *key]))


def _dense(n, rng):
    return complex_gaussian(rng, n, n)


def _deficient(n, rng, deficit):
    b = complex_gaussian(rng, n, n)
    d = min(deficit, n - 1)
    if d:
        b[:, n - d:] = 0.0
    return b


def _diagonal(n, rng):
    d = complex_gaussian(rng, n)
    if n >= 2:
        d[rng.integers(0, n)] = 0.0
    return np.diag(d)


def _nilpotent(n, rng):
    return np.triu(complex_gaussian(rng, n, n), 1)


def _repeated(n, rng):
    b = complex_gaussian(rng, n, n)
    if n >= 2:
        b[:, 1 + int(rng.integers(0, n - 1))] = b[:, 0]
    return b


def _member(kind, n, rng, slot, k):
    if kind == "dense":
        return _dense(n, rng)
    if kind == "deficient":
        return _deficient(n, rng, 1 + (n + slot) % max(1, n - 1))
    if kind == "zero":
        return np.zeros((n, n), dtype=np.complex128)
    if kind == "identity":
        return np.eye(n, dtype=np.complex128)
    if kind == "diagonal":
        return _diagonal(n, rng)
    if kind == "nilpotent":
        return _nilpotent(n, rng)
    if kind == "repeated":
        return _repeated(n, rng)
    if kind == "mixed":
        if slot == 0:
            return _nilpotent(n, rng)
        if slot == 1:
            return _deficient(n, rng, 1 + (n + k) % max(1, n - 1))
        return _dense(n, rng)
    raise ValueError(f"unknown kind {kind!r}")


def make_family(n: int, k: int, kind: str) -> MatrixFamily:
    rng = _rng(n, k, KINDS.index(kind))
    return MatrixFamily([_member(kind, n, rng, slot, k) for slot in range(k)])


def general_corpus() -> list[tuple[str, MatrixFamily]]:
    out = []
    for n in range(1, 9):
        for k in range(1, 5):
            for kind in KINDS:
                out.append((f"{kind}-n{n}-k{k}", make_family(n, k, kind)))
    return out


def psd_corpus() -> list[tuple[str, PsdFamily]]:
    out = []
    for n in (2, 3, 4, 5, 6, 8):
        for k in (1, 2, 3):
            for trial in range(6):
                rng = _rng(1000 + n, k, trial)
                mats = []
                for i in range(k):
                    rank = 1 + (n + k + trial + i) % n
                    m = complex_gaussian(rng, n, rank)
                    mats.append(m @ m.conj().T)
                out.append((f"psd-n{n}-k{k}-t{trial}", PsdFamily(mats)))
    return out


def haar(rng, n):
    """A Haar unitary: the Q of a complex Gaussian's QR, each column rephased by R's diagonal."""
    q, r = np.linalg.qr(complex_gaussian(rng, n, n))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def rotated(diagonals, seed):
    """B_j = D_j U_j with Haar U_j. H = diag(prod_j d_j) face_split(U_1 .. U_k) and
    G = |diag(prod_j d_j)|^2, so sigma(H) is the sorted |prod_j d_j[i]|."""
    rng = np.random.default_rng(seed)
    return MatrixFamily([np.diag(d) @ haar(rng, len(d)) for d in diagonals])


def low_rank(n, ranks, seed):
    """B_j = M_j N_j with Gaussian M_j of shape n x r_j and N_j of shape r_j x n.
    H = face_split(M_1 .. M_k) (N_1 (x) ... (x) N_k) has rank min(n, prod_j r_j)
    with probability 1, the generic rank of a Khatri-Rao product."""
    rng = np.random.default_rng(seed)
    return MatrixFamily([complex_gaussian(rng, n, r) @ complex_gaussian(rng, r, n) for r in ranks])


@st.composite
def closed_form_families(draw):
    """(family, sigma): a rotated or low-rank family with 2 <= n <= 32, 1 <= k <= 8 and
    n^k <= 4096, and the nonzero singular values of its H in descending order.

    A rotated family grades each slot's spectrum over up to 5 / k decades, permutes
    it, and may zero some entries of one slot; sigma is the closed form. Five decades
    in all reach past the gram route's cutoff, sqrt(1e-10 n) sigma_1, at every n. A
    low-rank family draws each r_j in 1..n; sigma is the first min(n, prod_j r_j)
    singular values of face_split(B_1 .. B_k).
    """
    k = draw(st.integers(1, 8))
    n = draw(st.integers(2, max(m for m in range(2, 33) if m ** k <= 4096)))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    if draw(st.booleans()):
        diagonals = []
        for _ in range(k):
            d = np.logspace(0, -draw(st.floats(0, 5 / k)), n)
            diagonals.append(d[draw(st.permutations(range(n)))])
        holes = draw(st.sets(st.integers(0, n - 1), max_size=n // 2))
        diagonals[draw(st.integers(0, k - 1))][list(holes)] = 0.0
        products = np.abs(np.prod(diagonals, axis=0))
        return rotated(diagonals, seed), np.sort(products[products > 0])[::-1]
    ranks = [draw(st.integers(1, n)) for _ in range(k)]
    fam = low_rank(n, ranks, seed)
    sigma = np.linalg.svd(face_split(list(fam)), compute_uv=False)
    return fam, sigma[:min(n, math.prod(ranks))]
