"""End-to-end acceptance gate.

Every bound the package promises, exercised at its stated tolerance over the
full adversarial corpus. Each test prints one summary line (run with -s to
see them alongside the pytest verdict).
"""

import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import families
from hspan import (MatrixFamily, ToleranceConfig, basis_product_oracle,
                   complement_projector, gram_hadamard, hadamard_span,
                   psd_hadamard_span, psd_sqrt, range_basis,
                   single_vector_sample_span, subspace_distance, verify_all)
from hspan.rng import complex_gaussian

CFG = ToleranceConfig(seed=2026)

SPAN_TOL = 1e-8
COLUMN_TOL = 1e-13
PAIRING_TOL = 1e-12
NORM_TRACE_TOL = 1e-8
ORTHO_TOL = 1e-7


def report_line(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def corpus_spans():
    started = time.perf_counter()
    rows = []
    for label, fam in families.general_corpus():
        span = hadamard_span(fam, CFG)
        oracle = basis_product_oracle(fam, CFG)
        rows.append((label, fam, span, oracle))
    return rows, time.perf_counter() - started


def test_span_equality_over_corpus(corpus_spans):
    rows, elapsed = corpus_spans
    worst = 0.0
    for label, fam, span, oracle in rows:
        d = subspace_distance(span, oracle)
        assert d <= SPAN_TOL, f"{label}: distance {d:.3e}"
        assert span.rank == oracle.rank, f"{label}: ranks {span.rank} vs {oracle.rank}"
        worst = max(worst, d)
    ok = len(rows) >= 200 and worst <= SPAN_TOL and elapsed < 120.0
    report_line("span equality, gram route vs combination oracle", ok,
                f"{len(rows)} families, max distance {worst:.3e}, built in {elapsed:.1f}s")


def test_gram_columns_lie_in_family_span(corpus_spans):
    rows, _ = corpus_spans
    checked = 0
    for label, fam, _, oracle in rows:
        g = gram_hadamard(fam)
        e = complement_projector(oracle)
        for i in range(fam.n):
            escape = np.linalg.norm(e @ g[:, i])
            assert escape <= SPAN_TOL * max(1.0, np.linalg.norm(g[:, i])), \
                f"{label}: column {i + 1} escapes"
            checked += 1
    report_line("gram columns inside the family span", True,
                f"{checked} columns over {len(rows)} families, tolerance {SPAN_TOL}")


def test_psd_product_range_both_routes():
    corpus = families.psd_corpus()
    worst_sqrt = worst_oracle = 0.0
    for label, pf in corpus:
        product_span = psd_hadamard_span(pf, CFG)
        sqrt_fam = MatrixFamily([psd_sqrt(a) for a in pf])
        d1 = subspace_distance(product_span, hadamard_span(sqrt_fam, CFG))
        d2 = subspace_distance(product_span, basis_product_oracle(sqrt_fam, CFG))
        assert d1 <= SPAN_TOL, f"{label}: sqrt-span distance {d1:.3e}"
        assert d2 <= SPAN_TOL, f"{label}: oracle distance {d2:.3e}"
        worst_sqrt = max(worst_sqrt, d1)
        worst_oracle = max(worst_oracle, d2)
    ok = len(corpus) >= 100
    report_line("psd product range vs square-root family", ok,
                f"{len(corpus)} families, max distances {worst_sqrt:.3e} / {worst_oracle:.3e}")


def test_psd_single_vector_sampler():
    corpus = families.psd_corpus()
    worst = 0.0
    for label, pf in corpus:
        d = subspace_distance(single_vector_sample_span(pf, CFG),
                              psd_hadamard_span(pf, CFG))
        assert d <= SPAN_TOL, f"{label}: sampler distance {d:.3e}"
        worst = max(worst, d)
    ok = len(corpus) >= 100
    report_line("single-vector sampler vs product range", ok,
                f"{len(corpus)} families, max distance {worst:.3e}")


def test_identity_residuals_over_corpus(corpus_spans):
    rows, _ = corpus_spans
    worst = {"column": 0.0, "pairing": 0.0, "trace_gap": 0.0, "ortho": 0.0}
    for label, fam, _, _ in rows:
        rep = verify_all(fam, CFG)
        assert rep.skipped == (), f"{label}: unexpectedly skipped {rep.skipped}"
        assert rep.passed, f"{label}: {rep.checks}"
        worst["column"] = max(worst["column"], rep.column_identity_residual)
        worst["pairing"] = max(worst["pairing"], max(rep.pairing_residuals))
        scale2 = max(np.prod([np.linalg.norm(b) for b in fam]) ** 2, 1e-300)
        worst["trace_gap"] = max(worst["trace_gap"], rep.norm_trace_gap / scale2)
        worst["ortho"] = max(worst["ortho"], max(rep.orthogonality_residuals))
    ok = (worst["column"] <= COLUMN_TOL and worst["pairing"] <= PAIRING_TOL
          and worst["trace_gap"] <= NORM_TRACE_TOL and worst["ortho"] <= ORTHO_TOL)
    report_line("identity residuals", ok,
                "max column {column:.2e}, pairing {pairing:.2e}, "
                "norm-trace gap {trace_gap:.2e} (relative), orthogonality {ortho:.2e}".format(**worst))


def test_numerical_kernels():
    rng = np.random.default_rng(606)
    worst_sqrt = worst_basis = 0.0
    for n in (2, 3, 5, 8, 13, 21, 32):
        complex_gaussian(rng, n, n)  # discarded: the pinned draws below start after it
        m = complex_gaussian(rng, n, max(1, n - 2))
        gram = m @ m.conj().T
        f = psd_sqrt(gram)
        worst_sqrt = max(worst_sqrt, np.linalg.norm(f @ f.conj().T - gram)
                         / max(1.0, np.linalg.norm(gram)))
        for cols in (1, max(1, n // 2), n):
            q = range_basis(complex_gaussian(rng, n, cols), CFG)
            worst_basis = max(worst_basis, np.linalg.norm(
                q.basis.conj().T @ q.basis - np.eye(q.rank)))
    ok = worst_sqrt <= 1e-8 and worst_basis <= 1e-10
    report_line("numerical kernels", ok,
                f"sqrt residual {worst_sqrt:.2e}, basis orthonormality {worst_basis:.2e}")


def test_invariances(corpus_spans):
    rows, _ = corpus_spans
    rng = np.random.default_rng(707)
    worst_unitary = worst_scale = worst_rightmul = 0.0
    span_rows = 0
    for idx, (label, fam, span, _) in enumerate(rows):
        n = fam.n
        g = gram_hadamard(fam)
        rotated = MatrixFamily([b @ np.linalg.qr(complex_gaussian(rng, n, n))[0]
                                for b in fam])
        drift = np.linalg.norm(gram_hadamard(rotated) - g)
        assert drift <= 1e-12 * np.linalg.norm(g), f"{label}: unitary drift {drift:.3e}"
        gnorm = np.linalg.norm(g)
        if gnorm > 0:
            worst_unitary = max(worst_unitary, drift / gnorm)
        if idx % 3:
            continue
        span_rows += 1
        scales = [complex(*rng.uniform(0.5, 2.0, 2)) for _ in fam]
        scaled = MatrixFamily([c * b for c, b in zip(scales, fam)])
        d = subspace_distance(hadamard_span(scaled, CFG), span)
        assert d <= SPAN_TOL, f"{label}: scale drift {d:.3e}"
        worst_scale = max(worst_scale, d)
        transforms = [np.linalg.qr(complex_gaussian(rng, n, n))[0]
                      @ np.diag(1.0 + rng.uniform(0.0, 1.0, n)) for _ in fam]
        moved = MatrixFamily([b @ t for b, t in zip(fam, transforms)])
        d = subspace_distance(hadamard_span(moved, CFG), span)
        assert d <= SPAN_TOL, f"{label}: right-multiplication drift {d:.3e}"
        worst_rightmul = max(worst_rightmul, d)
    report_line("invariances", True,
                f"unitary {worst_unitary:.2e} (relative, {len(rows)} families), "
                f"scale {worst_scale:.2e} and right-multiplication {worst_rightmul:.2e} "
                f"({span_rows} families)")


def _cli(*args, cwd):
    proc = subprocess.run([sys.executable, "-m", "hspan", *map(str, args)],
                          capture_output=True, text=True, cwd=cwd,
                          env={**os.environ, "HSPAN_SEED": "0"})
    return proc.returncode, proc.stdout, proc.stderr


def test_cli_contract(tmp_path):
    # determinism: same seed, byte-identical files
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert _cli("gen", 4, 2, "--seed", 3, "--out", a, cwd=tmp_path)[0] == 0
    assert _cli("gen", 4, 2, "--seed", 3, "--out", b, cwd=tmp_path)[0] == 0
    deterministic = a.read_bytes() == b.read_bytes()

    # exit code 0: honest compare; 1: undersampled oracle mismatch;
    # 2: malformed input; 3: oracle over budget
    codes = {}
    codes[0] = _cli("compare", a, cwd=tmp_path)[0]
    codes[1] = _cli("compare", a, "--mode", "random", "--samples", 1, cwd=tmp_path)[0]
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    codes[2] = _cli("span", bad, cwd=tmp_path)[0]
    big = tmp_path / "big.json"
    assert _cli("gen", 3, 11, "--seed", 1, "--out", big, cwd=tmp_path)[0] == 0
    codes[3] = _cli("compare", big, cwd=tmp_path)[0]
    exit_ok = codes == {0: 0, 1: 1, 2: 2, 3: 3}

    # 20 pinned instances, one batched compare, all must match
    paths = []
    for i in range(20):
        n = 2 + i % 7
        kind = "psd" if i % 2 else "general"
        path = tmp_path / f"pin{i}.json"
        code, _, err = _cli("gen", n, 1 + i % 4, "--kind", kind,
                            "--rank-deficit", i % 2 and min(2, n - 1) or 0,
                            "--seed", 100 + i, "--out", path, cwd=tmp_path)
        assert code == 0, err
        paths.append(path)
    code, out, err = _cli("compare", *paths, "--jobs", 4, cwd=tmp_path)
    lines = [json.loads(line) for line in out.splitlines() if line.strip()]
    pinned_ok = code == 0 and len(lines) == 20 and all(r["match"] for r in lines)

    ok = deterministic and exit_ok and pinned_ok
    report_line("cli contract", ok,
                f"gen deterministic {deterministic}, exit codes {codes}, "
                f"20 pinned compares exit {code}")
