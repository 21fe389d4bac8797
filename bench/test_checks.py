"""The benchmark's own checks must reject wrong reports and accept right ones.

Run with `python3 -m pytest bench`. Reports are built here with numpy, in
the format `hspan` writes, so these tests do not run the program.
"""

from __future__ import annotations

import json
from functools import reduce

import numpy as np
import pytest

import checks


def _pairs(m):
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def _members(n, k, kind="general", deficit=0, seed=0):
    rng = np.random.default_rng(seed)
    mats = []
    for _ in range(k):
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        if kind == "psd":
            m = m[:, : n - deficit]
            mats.append(m @ m.conj().T)
        else:
            m[:, n - deficit:] = 0.0
            mats.append(m)
    return mats


def _ref(tmp_path, mats, kind="general"):
    n, k = mats[0].shape[0], len(mats)
    path = tmp_path / "instance.json"
    path.write_text(json.dumps({"schema_version": "1.0", "n": n, "k": k, "kind": kind,
                                "matrices": [_pairs(m) for m in mats]}))
    gram = (reduce(np.multiply, mats) if kind == "psd"
            else reduce(np.multiply, (b @ b.conj().T for b in mats)))
    rank = int(np.linalg.matrix_rank(gram))
    return checks.reference(path, rank, np.random.default_rng(1)), gram


def _basis(gram, rank):
    return np.linalg.svd(gram)[0][:, :rank]


def _span_report(ref, basis):
    return {"schema_version": "1.0", "command": "span",
            "instance": {"n": ref.n, "k": ref.k, "kind": ref.kind, "seed": 0},
            "rank": basis.shape[1], "basis": _pairs(basis), "rank_cutoff": 1e-9,
            "wall_time_ms": 1.0}


@pytest.fixture(params=[("general", 0), ("general", 4), ("psd", 3)], ids=["dense", "deficient", "psd"])
def span_case(request, tmp_path):
    kind, deficit = request.param
    ref, gram = _ref(tmp_path, _members(6, 2, kind, deficit), kind)
    return ref, _basis(gram, ref.expected_rank)


def test_span_accepts_the_right_basis(span_case):
    ref, q = span_case
    assert checks.check_span(_span_report(ref, q), ref) == []


def test_span_rejects_a_basis_missing_a_vector(span_case):
    ref, q = span_case
    problems = checks.check_span(_span_report(ref, q[:, :-1]), ref)
    assert any("outside the span" in p for p in problems)
    assert any("rank" in p for p in problems)


def test_span_rejects_a_rank_off_by_one(span_case):
    ref, q = span_case
    if ref.expected_rank < ref.n:
        extra = np.random.default_rng(2).standard_normal((ref.n, 1))
        wider = np.linalg.qr(np.hstack([q, extra]))[0]
        assert any(p.startswith("rank") for p in checks.check_span(_span_report(ref, wider), ref))
    report = _span_report(ref, q)
    report["rank"] += 1
    assert checks.check_span(report, ref) != []


def test_span_rejects_a_non_orthonormal_basis(span_case):
    ref, q = span_case
    skewed = q.copy()
    skewed[:, 0] *= 1.001
    assert any("orthonormal" in p for p in checks.check_span(_span_report(ref, skewed), ref))


def test_span_rejects_a_basis_of_another_subspace(tmp_path):
    ref, gram = _ref(tmp_path, _members(6, 2, "general", 4))
    other = np.linalg.qr(np.random.default_rng(3).standard_normal((6, ref.expected_rank)))[0]
    assert checks.check_span(_span_report(ref, other), ref) != []


def _compare_report(ref, span_rank, oracle_rank, distance):
    return {"schema_version": "1.0", "command": "compare",
            "instance": {"n": ref.n, "k": ref.k, "kind": ref.kind, "seed": 0},
            "mode": "basis", "samples": None, "span_rank": span_rank, "oracle_rank": oracle_rank,
            "distance": distance, "tol": 1e-8, "match": distance <= 1e-8, "wall_time_ms": 1.0}


def test_compare_checks(tmp_path):
    ref, _ = _ref(tmp_path, _members(6, 2, "general", 4))
    r = ref.expected_rank
    assert checks.check_compare(_compare_report(ref, r, r, 1e-15), ref) == []
    assert checks.check_compare(_compare_report(ref, r, r, 1e-6), ref) != []
    assert checks.check_compare(_compare_report(ref, r - 1, r, 1e-15), ref) != []
    assert checks.check_compare(_compare_report(ref, r, r + 1, 1e-15), ref) != []
    line = json.dumps(_compare_report(ref, r, r, 1e-15))
    assert checks.check_output("compare", line, 0, [ref]) == [[]]
    assert checks.check_output("compare", line, 1, [ref]) != [[]]


def _verify_report(ref, tensor_fits):
    checks_run = {"column_identity": True, "orthogonality": True}
    if tensor_fits:
        checks_run |= {"norm_trace": True, "pairing": True}
    if ref.kind == "psd":
        checks_run["psd_span"] = True
    return {"schema_version": "1.0", "command": "verify",
            "instance": {"n": ref.n, "k": ref.k, "kind": ref.kind, "seed": 0},
            "column_identity_residual": 1e-17,
            "tensor_norm_sq": 1e-20 if tensor_fits else None,
            "trace_eg": [1e-20, 0.0] if tensor_fits else None,
            "norm_trace_gap": 1e-21 if tensor_fits else None,
            "pairing_residuals": [1e-17] * (10 if tensor_fits else 0),
            "orthogonality_residuals": [1e-16] * 50,
            "psd_span_distance": 1e-15 if ref.kind == "psd" else None,
            "checks": checks_run, "skipped": [] if tensor_fits else ["norm_trace", "pairing"],
            "passed": True, "wall_time_ms": 1.0}


@pytest.mark.parametrize("n,k,kind,tensor_fits", [(6, 2, "general", True), (6, 2, "psd", True),
                                                  (32, 3, "general", False)])
def test_verify_accepts_the_right_report(tmp_path, n, k, kind, tensor_fits):
    ref, _ = _ref(tmp_path, _members(n, k, kind), kind)
    assert checks.check_verify(_verify_report(ref, tensor_fits), ref) == []


def test_verify_rejects_a_false_check(tmp_path):
    ref, _ = _ref(tmp_path, _members(6, 2))
    report = _verify_report(ref, True)
    report["checks"]["pairing"] = False
    report["passed"] = False
    assert any("not passed" in p for p in checks.check_verify(report, ref))


def test_verify_rejects_a_missing_skip(tmp_path):
    ref, _ = _ref(tmp_path, _members(32, 3))  # 32^4 > 10^6: tensor checks must be skipped
    report = _verify_report(ref, True)
    problems = checks.check_verify(report, ref)
    assert any(p.startswith("skipped") for p in problems)
    assert any(p.startswith("checks") for p in problems)


def test_verify_rejects_a_residual_out_of_tolerance(tmp_path):
    ref, _ = _ref(tmp_path, _members(6, 2))
    report = _verify_report(ref, True)
    report["orthogonality_residuals"][7] = 1e-5
    assert any("orthogonality" in p for p in checks.check_verify(report, ref))
    report = _verify_report(ref, True)
    report["pairing_residuals"] = report["pairing_residuals"][:-1]
    assert any("pairing" in p for p in checks.check_verify(report, ref))


def test_verify_batch_exit_code(tmp_path):
    ref, _ = _ref(tmp_path, _members(6, 2))
    good = json.dumps(_verify_report(ref, True))
    bad = _verify_report(ref, True)
    bad["checks"]["column_identity"] = False
    bad["passed"] = False
    assert checks.check_output("verify", good + "\n" + good + "\n", 0, [ref, ref]) == [[], []]
    verdict = checks.check_output("verify", good + "\n" + json.dumps(bad) + "\n", 1, [ref, ref])
    assert verdict[0] == [] and verdict[1] != []
    assert all(checks.check_output("verify", good + "\n" + good + "\n", 1, [ref, ref]))
    assert all(checks.check_output("verify", good + "\n", 0, [ref, ref]))
