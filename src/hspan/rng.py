"""Seed derivation and complex Gaussian sampling.

All randomness in the package flows through named streams so that every
consumer draws from its own deterministic substream of the user seed. Each
drawn array takes one child seed: a generated family one per member, a draw
stack one for all its samples, read in order, so the first s samples never
depend on the count and sampled rank is monotone in it.
"""

from __future__ import annotations

import numpy as np

from .errors import int_text

# Stream tags. Each (seed, stream) pair owns an independent substream.
STREAM_SAMPLE = 1  # random_sample_span draws
STREAM_SINGLE = 2  # single_vector_sample_span draws
STREAM_PAIRING = 3  # pairing identity trial vectors
STREAM_ORTHO = 4  # orthogonality trial vectors
STREAM_GEN = 5  # instance generation


def require_seed(seed) -> int:
    """seed as an int: a Python or numpy integer, not a bool, in [0, 2^64), else a ValueError."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must fit in 64 unsigned bits, got {int_text(seed)}")
    return int(seed)


def seed_children(seed: int, stream: int, count: int) -> list[np.random.SeedSequence]:
    """Spawn `count` child seeds of the (seed, stream) pair.

    Children are indexed by spawn position, so seed_children(s, t, m) is a
    prefix of seed_children(s, t, m + 1).
    """
    root = np.random.SeedSequence(entropy=[int(seed), int(stream)])
    return root.spawn(count)


def complex_gaussian(rng: np.random.Generator, *shape: int) -> np.ndarray:
    """Draw i.i.d. standard complex Gaussian entries, E|z|^2 = 1.

    Real and imaginary parts are N(0, 1/2), drawn coordinate-major: for each
    entry in row-major order the real part is drawn first, then the imaginary
    part.
    """
    z = rng.standard_normal(shape + (2,))
    z *= np.sqrt(0.5)
    return z.view(np.complex128)[..., 0]
