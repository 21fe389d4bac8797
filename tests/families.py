"""Deterministic family corpora shared across the test suite.

general_corpus() enumerates every (n, k) in 1..8 x 1..4 and eight member
textures, dense Gaussian through zero, identity, diagonal with holes,
nilpotent, repeated-column and mixed. That is 256 families, all inside the
n^k oracle budget. psd_corpus() builds 108 positive semidefinite families
with controlled member ranks. Both are pure functions of the pinned entropy
below, so every test run sees byte-identical matrices. face_split() is the
reference face-splitting product that the wide-SVD and tensor-witness tests
build their inputs and expectations from.
"""

from __future__ import annotations

import numpy as np

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
