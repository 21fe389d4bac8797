"""Instance files: random family generation and JSON (de)serialization.

An instance file is a single JSON object:

    {
      "schema_version": "1.0",
      "n": 3,
      "k": 2,
      "kind": "general",            # or "psd"
      "matrices": [ [[ [re, im], ... ], ...], ... ]
    }

`matrices` holds k matrices, each a row-major n x n nested list whose entries
are [re, im] pairs. The file layout is fixed: 2-space indent, one number
per line, floats as repr, exactly what json.dumps(..., indent=2) gives for
instance_dict. dump_instance writes that layout directly, row by row, and a
test pins it to the json.dumps reference; a generate, save, load, save round
trip is byte-identical. A file that is not UTF-8, or that holds an integer
literal beyond Python's int-string limit, is refused like any other
malformed file (InstanceFormatError). Loading decodes `matrices`
in one vectorized pass; only a file that pass rejects is walked entry by
entry, to name the first bad entry. Files with kind "psd" are validated
against the PSD invariants on load.
"""

from __future__ import annotations

import json
import math
import sys

import numpy as np

from .errors import BudgetExceededError, InstanceFormatError
from .rng import STREAM_GEN, complex_gaussian, seed_children
from .spans import MatrixFamily, PsdFamily

SCHEMA_VERSION = "1.0"
KINDS = ("general", "psd")
GEN_ENTRY_BUDGET = 10**6


def generate_family(n: int, k: int, kind: str = "general",
                    rank_deficit: int = 0, seed: int = 0) -> MatrixFamily:
    """Draw a random family of k Gaussian matrices of size n x n.

    rank_deficit d zeroes the last d columns of every general member; a psd
    member is M M* for a Gaussian M of shape n x (n - d). One child seed per
    matrix, entries drawn row-major. More than GEN_ENTRY_BUDGET matrix
    entries (k n^2) are refused before any draw.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
    if not 0 <= rank_deficit < n:
        raise ValueError(f"rank deficit must satisfy 0 <= d < n, got d={rank_deficit}, n={n}")
    if k * n * n > GEN_ENTRY_BUDGET:
        raise BudgetExceededError(
            f"k n^2 = {k * n * n} matrix entries, budget is {GEN_ENTRY_BUDGET}")
    mats = []
    for child in seed_children(seed, STREAM_GEN, k):
        rng = np.random.default_rng(child)
        if kind == "psd":
            m = complex_gaussian(rng, n, n - rank_deficit)
            mats.append(m @ m.conj().T)
        else:
            b = complex_gaussian(rng, n, n)
            if rank_deficit:
                b[:, n - rank_deficit:] = 0.0
            mats.append(b)
    return PsdFamily(mats) if kind == "psd" else MatrixFamily(mats)


def matrix_to_pairs(m: np.ndarray) -> list:
    """The nested [re, im] lists of a complex matrix, as Python floats."""
    return np.stack([m.real, m.imag], -1).tolist()


def instance_dict(family: MatrixFamily, kind: str) -> dict:
    """The JSON object describing a family."""
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
    return {
        "schema_version": SCHEMA_VERSION,
        "n": family.n,
        "k": family.k,
        "kind": kind,
        "matrices": [matrix_to_pairs(m) for m in family],
    }


def dump_instance(family: MatrixFamily, kind: str) -> str:
    """The instance file text of a family, byte for byte
    json.dumps(instance_dict(family, kind), indent=2) + "\\n".

    The layout is written directly: 2-space indent, one number per line,
    floats as repr. Each row fills one %r template from the row's float64
    view (re, im, re, im, ...), so no nested lists are built and the pure
    Python JSON encoder, which indent forces, never runs.
    """
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
    entry = "[\n          %r,\n          %r\n        ]"
    row = "      [\n        " + ",\n        ".join([entry] * family.n) + "\n      ]"
    matrices = ",\n".join(
        "    [\n" + ",\n".join([row % tuple(r) for r in m.view(np.float64).tolist()]) + "\n    ]"
        for m in family)
    return (f'{{\n  "schema_version": {json.dumps(SCHEMA_VERSION)},\n'
            f'  "n": {family.n},\n  "k": {family.k},\n  "kind": {json.dumps(kind)},\n'
            f'  "matrices": [\n{matrices}\n  ]\n}}\n')


def write_instance(path, family: MatrixFamily, kind: str) -> None:
    text = dump_instance(family, kind)  # before open: a failing dump creates or truncates nothing
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _walk_matrices(mats_obj, n: int) -> list:
    """Decode `matrices` entry by entry; the first bad row or entry raises an
    InstanceFormatError that names it."""
    mats = []
    for mi, rows in enumerate(mats_obj):
        if not isinstance(rows, list) or len(rows) != n:
            raise InstanceFormatError(f"matrix {mi + 1} must have {n} rows")
        m = np.empty((n, n), dtype=np.complex128)
        for ri, row in enumerate(rows):
            if not isinstance(row, list) or len(row) != n:
                raise InstanceFormatError(f"matrix {mi + 1} row {ri + 1} must have {n} entries")
            for ci, entry in enumerate(row):
                pair = (isinstance(entry, list) and len(entry) == 2
                        and all(isinstance(p, (int, float)) and not isinstance(p, bool)
                                for p in entry))
                try:
                    finite = pair and math.isfinite(entry[0]) and math.isfinite(entry[1])
                except OverflowError:  # an integer too large for a float
                    finite = False
                if not finite:
                    what = "non-finite entry" if pair else "entry must be a [re, im] number pair, got"
                    raise InstanceFormatError(
                        f"matrix {mi + 1} row {ri + 1} col {ci + 1}: {what} {entry!r}")
                m[ri, ci] = complex(entry[0], entry[1])
        mats.append(m)
    return mats


def _decode_matrices(mats_obj, n: int, k: int):
    """Decode `matrices` in one vectorized pass: the k x n x n complex128
    stack, or None when the nesting is not k x n x n x 2 or some entry is not
    a finite int or float, so that _walk_matrices can name the bad one.

    The float64 pairs are viewed as complex128, which keeps every bit,
    -0.0 included. json.load yields lists only; other sequences (tuples,
    arrays) would pass here where the walker rejects them.
    """
    try:
        obj = np.array(mats_obj, dtype=object)
        if obj.shape != (k, n, n, 2) or not set(map(type, obj.ravel())) <= {float, int}:
            return None
        a = obj.astype(np.float64)  # OverflowError for an int beyond float range
    except (ValueError, TypeError, OverflowError):
        return None
    if not np.isfinite(a).all():
        return None
    return a.view(np.complex128)[..., 0]


def parse_instance(obj) -> tuple[MatrixFamily, str]:
    """Validate a decoded instance object and build the family it describes."""
    if not isinstance(obj, dict):
        raise InstanceFormatError("instance must be a JSON object")
    required = {"schema_version", "n", "k", "kind", "matrices"}
    missing = required - obj.keys()
    if missing:
        raise InstanceFormatError(f"missing fields: {sorted(missing)}")
    unknown = obj.keys() - required
    if unknown:
        raise InstanceFormatError(f"unknown fields: {sorted(unknown)}")
    if obj["schema_version"] != SCHEMA_VERSION:
        raise InstanceFormatError(f"unsupported schema_version {obj['schema_version']!r}")
    n, k, kind = obj["n"], obj["k"], obj["kind"]
    for name, size in (("n", n), ("k", k)):
        if isinstance(size, bool) or not isinstance(size, int) or size < 1:
            raise InstanceFormatError(f"{name} must be a positive integer, got {size!r}")
    if kind not in KINDS:
        raise InstanceFormatError(f"kind must be one of {KINDS}, got {kind!r}")
    mats_obj = obj["matrices"]
    if not isinstance(mats_obj, list) or len(mats_obj) != k:
        raise InstanceFormatError(f"matrices must be a list of {k} matrices")
    stack = _decode_matrices(mats_obj, n, k)
    mats = _walk_matrices(mats_obj, n) if stack is None else stack
    try:
        family = PsdFamily(mats) if kind == "psd" else MatrixFamily(mats)
    except ValueError as exc:
        raise InstanceFormatError(f"invalid {kind} family: {exc}") from exc
    return family, kind


def load_instance(path) -> tuple[MatrixFamily, str]:
    """Read and validate an instance file; psd files return a PsdFamily.

    Messages leave the path out: the caller names the file it passed.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise InstanceFormatError(f"cannot read: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise InstanceFormatError(f"not valid UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(f"not valid JSON: {exc}") from exc
    except ValueError as exc:
        if "integer string conversion" in str(exc):
            raise InstanceFormatError(
                f"integer literal longer than {sys.get_int_max_str_digits()} digits") from exc
        raise InstanceFormatError(f"cannot read: {exc}") from exc  # open() on a path with a NUL
    except RecursionError as exc:
        raise InstanceFormatError("nested too deeply") from exc
    return parse_instance(obj)
