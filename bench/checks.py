"""Checks of hspan's reports, computed apart from the program.

Nothing here imports hspan. The instance file is read with numpy, the Gram
product, the family members and the expected rank are formed here, and the
report is judged against them. Each check returns a list of problems; an
empty list means the report passed.

Tolerances: a basis is orthonormal when ||Q*Q - I||_F <= 1e-10 * max(1, r);
a vector v lies in the span when ||v - QQ*v|| <= 1e-8 * ||v||. The `verify`
residual bounds are those of hspan's README, "Numerical policy".
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import reduce

import numpy as np

ORTHO_TOL = 1e-10
SPAN_TOL = 1e-8
MEMBERS = 4

COLUMN_IDENTITY_TOL = 1e-13
PAIRING_TOL = 1e-12
ORTHOGONALITY_TOL = 1e-7
NORM_TRACE_TOL = 1e-8
NORM_TRACE_IMAG_TOL = 1e-10
SPAN_DISTANCE_TOL = 1e-8
COMPARE_TOL = 1e-8
TENSOR_ENTRY_BUDGET = 10**6
ORTHOGONALITY_TRIALS = 50
PAIRING_TRIALS = 10
TENSOR_CHECKS = ("norm_trace", "pairing")


def _complex_gaussian(rng, *shape):
    z = rng.standard_normal(shape + (2,))
    return (z[..., 0] + 1j * z[..., 1]) * np.sqrt(0.5)


@dataclass
class Reference:
    """What the benchmark knows about one instance file."""

    n: int
    k: int
    kind: str
    expected_rank: int
    gram: np.ndarray  # its range is the span
    members: np.ndarray  # n x MEMBERS family members, one per column
    scale: float  # prod ||B_i||_F of the family verify_all certifies


def reference(path, expected_rank: int, rng: np.random.Generator) -> Reference:
    """Read an instance file and form its Gram product and some members.

    For psd files the Gram product is A_1 o ... o A_k (the PSD form of the
    theorem), members are (A_1 x_1) o ... o (A_k x_k), and the scale is that
    of the square-root family, prod sqrt(trace A_i).
    """
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    pairs = np.asarray(obj["matrices"], dtype=np.float64)
    mats = pairs[..., 0] + 1j * pairs[..., 1]
    kind = obj["kind"]
    if kind == "psd":
        gram = reduce(np.multiply, mats)
        scale = float(np.prod([np.sqrt(np.trace(a).real) for a in mats]))
    else:
        gram = reduce(np.multiply, (b @ b.conj().T for b in mats))
        scale = float(np.prod([np.linalg.norm(b) for b in mats]))
    n, k = obj["n"], obj["k"]
    members = np.ones((n, MEMBERS), dtype=np.complex128)
    for b in mats:
        members *= b @ _complex_gaussian(rng, n, MEMBERS)
    return Reference(n, k, kind, expected_rank, gram, members, scale)


def _instance_problems(report: dict, ref: Reference, command: str) -> list[str]:
    problems = []
    if report.get("command") != command:
        problems.append(f"command is {report.get('command')!r}, expected {command!r}")
    inst = report.get("instance", {})
    seen = (inst.get("n"), inst.get("k"), inst.get("kind"))
    if seen != (ref.n, ref.k, ref.kind):
        problems.append(f"instance {seen} does not match file {(ref.n, ref.k, ref.kind)}")
    return problems


def basis_from_pairs(pairs, n: int) -> np.ndarray:
    arr = np.asarray(pairs, dtype=np.float64)
    if arr.size == 0:
        return np.zeros((n, 0), dtype=np.complex128)
    return arr[..., 0] + 1j * arr[..., 1]


def _outside(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Per-column norm of the part of v outside range(q)."""
    return np.linalg.norm(v - q @ (q.conj().T @ v), axis=0)


def check_span(report: dict, ref: Reference) -> list[str]:
    problems = _instance_problems(report, ref, "span")
    q = basis_from_pairs(report.get("basis", []), ref.n)
    r = report.get("rank")
    if q.shape != (ref.n, r):
        return problems + [f"basis shape {q.shape} does not match n={ref.n}, rank={r}"]
    defect = float(np.linalg.norm(q.conj().T @ q - np.eye(r)))
    if defect > ORTHO_TOL * max(1, r):
        problems.append(f"basis not orthonormal: ||Q*Q - I|| = {defect:.3e}")
    col_norms = np.linalg.norm(ref.gram, axis=0)
    worst = float(np.max(_outside(q, ref.gram))) if ref.n else 0.0
    if worst > SPAN_TOL * float(np.max(col_norms)):
        problems.append(f"a column of G lies outside the span by {worst:.3e}")
    out = _outside(q, ref.members) / np.maximum(np.linalg.norm(ref.members, axis=0), 1e-300)
    if float(np.max(out)) > SPAN_TOL:
        problems.append(f"a family member lies outside the span by {float(np.max(out)):.3e} (relative)")
    if r != ref.expected_rank:
        problems.append(f"rank {r}, expected {ref.expected_rank}")
    return problems


def check_compare(report: dict, ref: Reference) -> list[str]:
    problems = _instance_problems(report, ref, "compare")
    distance = report.get("distance")
    if not isinstance(distance, (int, float)) or not distance <= COMPARE_TOL:
        problems.append(f"subspace distance {distance!r} exceeds {COMPARE_TOL}")
    if report.get("match") is not True:
        problems.append("match is not true")
    ranks = (report.get("span_rank"), report.get("oracle_rank"))
    if ranks != (ref.expected_rank, ref.expected_rank):
        problems.append(f"span_rank, oracle_rank = {ranks}, expected {ref.expected_rank} for both")
    return problems


def _worst(values, count: int, name: str, tol: float, problems: list[str]) -> None:
    if not isinstance(values, list) or len(values) != count:
        problems.append(f"{name}: expected {count} residuals, got {values!r:.80}")
    elif values and not max(values) <= tol:
        problems.append(f"{name}: worst residual {max(values):.3e} exceeds {tol}")


def check_verify(report: dict, ref: Reference) -> list[str]:
    """The checks and skips that the kind and the n^(k+1) <= 10^6 rule
    dictate, every check true, and every residual inside its tolerance."""
    problems = _instance_problems(report, ref, "verify")
    tensor_fits = ref.n ** (ref.k + 1) <= TENSOR_ENTRY_BUDGET
    want = {"column_identity", "orthogonality"}
    want |= set(TENSOR_CHECKS) if tensor_fits else set()
    want |= {"psd_span"} if ref.kind == "psd" else set()
    checks = report.get("checks", {})
    if set(checks) != want:
        problems.append(f"checks {sorted(checks)}, expected {sorted(want)}")
    failed = sorted(name for name, ok in checks.items() if ok is not True)
    if failed:
        problems.append(f"checks not passed: {failed}")
    skipped = report.get("skipped")
    want_skipped = [] if tensor_fits else list(TENSOR_CHECKS)
    if skipped != want_skipped:
        problems.append(f"skipped {skipped!r}, expected {want_skipped!r}")
    if report.get("passed") is not True:
        problems.append("passed is not true")

    residual = report.get("column_identity_residual")
    if not isinstance(residual, (int, float)) or not residual <= COLUMN_IDENTITY_TOL:
        problems.append(f"column identity residual {residual!r} exceeds {COLUMN_IDENTITY_TOL}")
    _worst(report.get("orthogonality_residuals"), ORTHOGONALITY_TRIALS,
           "orthogonality", ORTHOGONALITY_TOL, problems)
    _worst(report.get("pairing_residuals"), PAIRING_TRIALS if tensor_fits else 0,
           "pairing", PAIRING_TOL, problems)

    s2 = ref.scale * ref.scale
    norm_sq, trace_eg, gap = (report.get(key) for key in
                              ("tensor_norm_sq", "trace_eg", "norm_trace_gap"))
    if not tensor_fits:
        if (norm_sq, trace_eg, gap) != (None, None, None):
            problems.append("norm-trace values reported for a skipped check")
    elif not (isinstance(trace_eg, list) and len(trace_eg) == 2
              and isinstance(norm_sq, (int, float)) and isinstance(gap, (int, float))):
        problems.append("norm-trace values missing")
    elif not (gap <= NORM_TRACE_TOL * s2 and norm_sq <= NORM_TRACE_TOL * s2
              and abs(trace_eg[0]) <= NORM_TRACE_TOL * s2
              and abs(trace_eg[1]) <= NORM_TRACE_IMAG_TOL * s2):
        problems.append(f"norm-trace outside tolerance: ||T||^2={norm_sq:.3e}, "
                        f"trace(EG)={trace_eg}, scale^2={s2:.3e}")

    distance = report.get("psd_span_distance")
    if ref.kind == "psd":
        if not isinstance(distance, (int, float)) or not distance <= SPAN_DISTANCE_TOL:
            problems.append(f"psd span distance {distance!r} exceeds {SPAN_DISTANCE_TOL}")
    elif distance is not None:
        problems.append("psd span distance reported for a general family")
    return problems


CHECKS = {"span": check_span, "compare": check_compare, "verify": check_verify}


def check_output(command: str, stdout: str, exit_code: int, refs: list[Reference]) -> list[list[str]]:
    """Judge one process's output, one JSON report per line for the files
    it was given, in order. Returns the problems of each file.

    The exit code must be 0; a `verify` batch exits with the worst code of
    its files, so there a non-zero code only fails the batch when every
    report passed.
    """
    try:
        reports = [json.loads(line) for line in stdout.splitlines() if line.strip()]
    except json.JSONDecodeError as exc:
        return [[f"output is not JSON lines: {exc}"] for _ in refs]
    if len(reports) != len(refs):
        return [[f"{len(reports)} reports for {len(refs)} files, exit code {exit_code}"]
                for _ in refs]
    problems = [CHECKS[command](report, ref) for report, ref in zip(reports, refs)]
    if exit_code != 0 and (command != "verify" or not any(problems)):
        problems = [p + [f"exit code {exit_code}"] for p in problems]
    return problems
