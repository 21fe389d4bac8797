"""The benchmark's workloads: which instance files each one writes, and which
`hspan` commands it runs on them.

A workload is a fixed list of file specs and a fixed round of operations over
those files. Shapes, kinds and member ranks are fixed per workload; the seed
only chooses the matrix entries, so every seed gives the same amount of work
and the same known-fault share. An operation is one `hspan` process; it
evaluates one file, or one batch of files on `verify-corpus`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

GRADED_DECADES = 3.0  # graded diagonal members run from 1 down to 10^-3


@dataclass(frozen=True)
class Spec:
    """One instance file: k members of size n.

    kind "general": Gaussian members whose last `deficit` columns are zero;
    "psd": members M M* with M Gaussian of shape n x (n - deficit);
    "graded": every member is diag(logspace(0, -3, n)), seed-independent.
    """

    n: int
    k: int
    kind: str = "general"
    deficit: int = 0

    @property
    def file_kind(self) -> str:
        return "psd" if self.kind == "psd" else "general"

    @property
    def expected_rank(self) -> int:
        """Rank of the span by construction: min(n, r^k) for members of rank
        r = n - deficit in general position, n for graded diagonal members."""
        if self.kind == "graded":
            return self.n
        return min(self.n, (self.n - self.deficit) ** self.k)

    @property
    def known_fault(self) -> bool:
        """hspan's rank policy gets graded spectra wrong on every seed."""
        return self.kind == "graded"

    @property
    def label(self) -> str:
        extra = f"-d{self.deficit}" if self.deficit else ""
        return f"{self.n}x{self.k}-{self.kind}{extra}"


@dataclass(frozen=True)
class Op:
    """One `hspan` process: a subcommand with its flags over some files."""

    command: str
    flags: tuple[str, ...]
    files: tuple[int, ...]


@dataclass(frozen=True)
class Workload:
    name: str
    specs: tuple[Spec, ...]
    ops: tuple[Op, ...]
    setup_repeats: int  # set-ups per run, spread over it; 2 to 4 s of work in all

    @property
    def files_per_round(self) -> int:
        return sum(len(op.files) for op in self.ops)


def _verify_corpus() -> Workload:
    # Four batches of about the same cost. 16x4 and 32x3 sit just over the
    # n^(k+1) <= 10^6 tensor budget, 15x4 and 31x3 just under it.
    batches = (
        (Spec(31, 3), Spec(16, 4, deficit=12)),
        (Spec(15, 4), Spec(14, 4, "psd", 10), Spec(32, 3, "psd", 26)),
        (Spec(28, 3), Spec(20, 3), Spec(48, 2, "psd"), Spec(40, 2, deficit=35)),
        (Spec(64, 2), Spec(56, 2, "psd", 50), Spec(24, 3, "psd", 20), Spec(8, 4, deficit=6)),
    )
    specs, ops = [], []
    for batch in batches:
        first = len(specs)
        specs.extend(batch)
        ops.append(Op("verify", ("--jobs", "1"), tuple(range(first, len(specs)))))
    return Workload("verify-corpus", tuple(specs), tuple(ops), setup_repeats=11)


def _span_large() -> Workload:
    # Three files keep a round short, so a run holds about eight of them.
    specs = (Spec(128, 2, "psd", 118), Spec(160, 2, deficit=150), Spec(192, 2))
    ops = []
    for i in range(len(specs)):
        ops.append(Op("span", (), (i,)))
        ops.append(Op("compare", ("--mode", "random"), (i,)))
    return Workload("span-large", specs, tuple(ops), setup_repeats=3)


def _oracle_compare() -> Workload:
    # n^k from 4096 to 65536 columns; one graded family in eleven.
    specs = (Spec(16, 3, "graded"), Spec(16, 4), Spec(16, 4, deficit=13), Spec(40, 3),
             Spec(40, 3, deficit=36), Spec(32, 3), Spec(32, 3, "psd", 30), Spec(96, 2),
             Spec(128, 2, deficit=119), Spec(6, 6), Spec(64, 2, deficit=58))
    ops = tuple(Op("compare", ("--mode", "basis"), (i,)) for i in range(len(specs)))
    return Workload("oracle-compare", specs, ops, setup_repeats=7)


WORKLOADS = {w.name: w for w in (_verify_corpus(), _span_large(), _oracle_compare())}


def file_seed(seed: int, workload: str, index: int) -> int:
    """The generator seed of one file, derived from the benchmark seed."""
    key = [int(seed), sorted(WORKLOADS).index(workload), int(index)]
    return int(np.random.SeedSequence(key).generate_state(1, np.uint32)[0])


def make_family(hspan_instances, spec: Spec, seed: int):
    """Build one family with hspan's own generator (graded members by hand)."""
    if spec.kind == "graded":
        member = np.diag(np.logspace(0.0, -GRADED_DECADES, spec.n)).astype(np.complex128)
        return hspan_instances.MatrixFamily([member] * spec.k)
    return hspan_instances.generate_family(spec.n, spec.k, kind=spec.kind,
                                           rank_deficit=spec.deficit, seed=seed)


def write_files(hspan_instances, workload: Workload, seed: int, directory,
                indices=None) -> dict[int, str]:
    """Generate, serialize and write the workload's files (all of them, or
    those at `indices`) with hspan's generator and writer; returns the path
    of each file by spec index."""
    os.makedirs(directory, exist_ok=True)
    paths = {}
    for i in (range(len(workload.specs)) if indices is None else indices):
        spec = workload.specs[i]
        family = make_family(hspan_instances, spec, file_seed(seed, workload.name, i))
        text = hspan_instances.dump_instance(family, spec.file_kind)
        path = os.path.join(directory, f"{workload.name}-{i:02d}-{spec.label}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        paths[i] = path
    return paths
