import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import families
import hspan.cli as cli
from hspan import (MatrixFamily, Subspace, generate_family, instance_dict, load_instance,
                   write_instance)
from hspan.spans import DRAW_ENTRY_BUDGET


def run_cli(*args, env_extra=None):
    env = os.environ.copy()
    env.pop("HSPAN_SEED", None)
    if env_extra:
        env.update(env_extra)
    proc = subprocess.run([sys.executable, "-m", "hspan", *map(str, args)],
                          capture_output=True, text=True, env=env)
    return proc.returncode, proc.stdout, proc.stderr


def reports(stdout):
    return [json.loads(line) for line in stdout.splitlines() if line.strip()]


def strip_time(report):
    return {k: v for k, v in report.items() if k != "wall_time_ms"}


@pytest.fixture()
def instance(tmp_path):
    path = tmp_path / "inst.json"
    code, _, err = run_cli("gen", 4, 2, "--seed", 7, "--out", path)
    assert code == 0, err
    return path


def test_gen_writes_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli("gen", 3, 2, "--seed", 9, "--out", a)[0] == 0
    assert run_cli("gen", 3, 2, "--seed", 9, "--out", b)[0] == 0
    assert a.read_bytes() == b.read_bytes()
    assert run_cli("gen", 3, 2, "--seed", 10, "--out", b)[0] == 0
    assert a.read_bytes() != b.read_bytes()


def test_gen_to_stdout_is_an_instance():
    code, out, _ = run_cli("gen", 3, 2, "--kind", "psd", "--seed", 1)
    assert code == 0
    obj = json.loads(out)
    assert obj["kind"] == "psd" and obj["n"] == 3 and len(obj["matrices"]) == 2


def test_gen_rejects_bad_sizes():
    code, _, err = run_cli("gen", 3, 1, "--rank-deficit", 3)
    assert code == 2
    assert "rank deficit" in err


def test_gen_rejects_unwritable_path(tmp_path):
    code, _, err = run_cli("gen", 2, 1, "--out", tmp_path / "missing" / "x.json")
    assert code == 2
    assert err


def test_span_reports_rank(tmp_path):
    path = tmp_path / "ident.json"
    write_instance(path, MatrixFamily([np.eye(3), np.eye(3)]), "general")
    code, out, _ = run_cli("span", path)
    assert code == 0
    (rep,) = reports(out)
    assert rep["command"] == "span"
    assert rep["instance"] == {"n": 3, "k": 2, "kind": "general", "seed": 0}
    assert rep["rank"] == 3
    assert len(rep["basis"]) == 3 and len(rep["basis"][0]) == 3


def test_span_psd_uses_product_range(tmp_path):
    path = tmp_path / "psd.json"
    ones = np.ones((4, 4))
    write_instance(path, MatrixFamily([ones, ones]), "psd")
    code, out, _ = run_cli("span", path)
    assert code == 0
    assert reports(out)[0]["rank"] == 1


@pytest.mark.parametrize("kind", ["general", "psd"])
def test_span_rank_cutoff_is_rank_tol_times_sigma_1(tmp_path, kind):
    # sigma_1 of H, the face split of the members (a psd file's A_j): full-rank members,
    # whose G = H H* certifies rank n, and members of rank 2, whose H has rank 4 and is
    # rank-revealed through their thin factors, far above the floor 10 n eps sigma_1(H)
    for deficit, rank in ((0, 6), (4, 4)):
        path = tmp_path / f"{kind}-{deficit}.json"
        argv = ("gen", 6, 2, "--kind", kind, "--rank-deficit", deficit, "--seed", 3)
        assert run_cli(*argv, "--out", path)[0] == 0
        fam, _ = load_instance(path)
        sigma_1 = np.linalg.norm(families.face_split(list(fam)), 2)
        code, out, _ = run_cli("span", path, "--rank-tol", 1e-6)
        assert code == 0
        (rep,) = reports(out)
        assert rep["rank"] == rank
        assert rep["rank_cutoff"] == pytest.approx(1e-6 * sigma_1, rel=1e-12)


def test_compare_basis_mode_passes(instance):
    code, out, _ = run_cli("compare", instance)
    assert code == 0
    (rep,) = reports(out)
    assert rep["mode"] == "basis"
    assert rep["span_rank"] == rep["oracle_rank"] == 4
    assert rep["distance"] <= 1e-8
    assert rep["match"] is True


def test_compare_random_mode_default_samples(instance):
    code, out, _ = run_cli("compare", instance, "--mode", "random", "--seed", 5)
    assert code == 0
    (rep,) = reports(out)
    assert rep["samples"] == 2 * 4 + 8
    assert rep["distance"] <= 1e-8


def test_compare_undersampled_exits_one(instance):
    code, out, _ = run_cli("compare", instance, "--mode", "random",
                           "--samples", 1, "--seed", 5)
    assert code == 1
    (rep,) = reports(out)
    assert rep["oracle_rank"] == 1
    assert rep["match"] is False


def test_compare_matches_on_a_well_posed_graded_file(tmp_path):
    # rotated members graded over 1.4 decades each, in independent orders, two rows of
    # B_1 zeroed: rank 26, sigma_26 / sigma_1 = 2.7e-5, sigma_27 = 0. A span taken from
    # G's singular vectors drifts by about eps (sigma_1 / sigma_26)^2, and lay 1.8e-7 away
    rng = np.random.default_rng(14)
    d = np.logspace(0, -2.8, 28)
    d1, d2 = d[rng.permutation(28)], d[rng.permutation(28)]
    d1[rng.choice(28, 2, replace=False)] = 0.0
    path = tmp_path / "rotated.json"
    write_instance(path, families.rotated([d1, d2], seed=14), "general")
    for mode in ("basis", "random"):
        code, out, err = run_cli("compare", path, "--mode", mode)
        assert (code, err) == (0, "")
        (rep,) = reports(out)
        assert rep["span_rank"] == rep["oracle_rank"] == 26


def test_compare_matches_when_sigma_1_lies_far_below_the_member_norms(tmp_path):
    # each row small in one member, large in the other: sigma(H) = (1e-15, 1e-15, 0)
    # while prod_j ||B_j||_2 = 1, so no cutoff on the members' scale may rank H
    path = tmp_path / "disjoint.json"
    write_instance(path, MatrixFamily([np.diag([1, 1e-15, 1]), np.diag([1e-15, 1, 0])]),
                   "general")
    for mode in ("basis", "random"):
        code, out, err = run_cli("compare", path, "--mode", mode)
        assert (code, err) == (0, "")
        (rep,) = reports(out)
        assert rep["span_rank"] == rep["oracle_rank"] == 2


def test_compare_budget_exit(tmp_path):
    path = tmp_path / "big.json"
    assert run_cli("gen", 3, 11, "--seed", 2, "--out", path)[0] == 0
    code, out, err = run_cli("compare", path)
    assert code == 3
    assert out == ""
    assert "budget" in err


def test_huge_sizes_exit_three_in_one_short_line(tmp_path):
    # n^k = 2^15000 and k n^2 = 10^7998 have more digits than Python's int-to-string limit allows
    path = tmp_path / "identities.json"
    write_instance(path, MatrixFamily([np.eye(2)] * 15000), "general")
    code, out, err = run_cli("compare", "--mode", "basis", path)
    assert (code, out) == (3, "")
    assert err == (f"hspan compare: {path}: oracle needs n^k = 2.82e+4515 columns, "
                   "budget is 65536\n")
    code, out, err = run_cli("gen", 10**3999, 1)
    assert (code, out, err) == (3, "", "hspan gen: k n^2 = 1.00e+7998 matrix entries, "
                                       "budget is 1000000\n")


@pytest.mark.parametrize("unbuffered", [False, True])
def test_closed_stdout_exits_quietly(instance, unbuffered):
    # the reader left before anything was written: no traceback, and neither
    # the mismatch code 1 nor the input-error code 2
    env = {k: v for k, v in os.environ.items() if k not in ("HSPAN_SEED", "PYTHONUNBUFFERED")}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    for argv in (("span", instance, instance), ("gen", 5, 2)):
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run([sys.executable, "-m", "hspan", *map(str, argv)],
                                  stdout=write, stderr=subprocess.PIPE, text=True, env=env)
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (cli.EXIT_PIPE, ""), argv


def test_malformed_file_exits_two(tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text("{oops")
    for cmd in ("span", "compare", "verify"):
        code, out, err = run_cli(cmd, path)
        assert code == 2
        assert out == ""
        assert err


def test_oversized_integer_entry_exits_two(tmp_path):
    obj = instance_dict(MatrixFamily([np.eye(2)]), "general")
    obj["matrices"][0][0][0] = [10**400, 0]
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(obj))
    code, out, err = run_cli("span", path)
    assert code == 2
    assert out == ""
    assert "non-finite entry" in err and "Traceback" not in err


def test_overflowing_gram_exits_two_without_warnings(tmp_path):
    obj = instance_dict(MatrixFamily([np.eye(2), np.eye(2)]), "general")
    obj["matrices"][0][0][0] = [1.7e308, 0]
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(obj))
    for cmd in ("span", "compare", "verify"):
        code, out, err = run_cli(cmd, path)
        assert code == 2
        assert out == ""
        assert err == (f"hspan {cmd}: {path}: matrix entries too large: "
                       "the Gram product (B_1 B_1*) o ... o (B_k B_k*) overflows\n")


def test_overflowing_verification_scale_exits_two(tmp_path):
    # G = diag(1e308, 1e308) is finite, but trace(G) = ||H||_F^2 is not
    path = tmp_path / "scale.json"
    write_instance(path, MatrixFamily([np.diag([1e154, 1.0]), np.diag([1.0, 1e154])]), "general")
    code, out, err = run_cli("verify", path)
    assert code == 2
    assert out == ""
    assert err == (f"hspan verify: {path}: matrix entries too large: "
                   "trace(G) overflows\n")


@pytest.mark.parametrize("mode, product", [
    ("basis", "the face-splitting product of B_1 .. B_k"),
    ("random", "the sampled product (B_1 x_1) o ... o (B_k x_k)"),
])
def test_overflowing_oracle_products_exit_two(tmp_path, monkeypatch, capsys, mode, product):
    # a finite G bounds every entry of H, so on a file the span refuses first
    # (test_overflowing_psd_gram_product_exits_two); with the span stubbed, compare
    # reports the oracle's and the sampler's own overflow: their products reach 1e315
    a2 = np.array([[1e-40, 1e55], [1e55, 1e150]])
    path = tmp_path / "overflow.json"
    write_instance(path, MatrixFamily([np.diag([1e150, 1e-150]), a2, a2, a2]), "psd")
    monkeypatch.setattr(cli, "hadamard_span", lambda family, cfg: Subspace(np.eye(family.n)))
    assert cli.main(["compare", "--mode", mode, str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"hspan compare: {path}: matrix entries too large: {product} overflows\n"


CLI_COMMANDS = (("span",), ("compare", "--mode", "basis"), ("compare", "--mode", "random"),
                ("verify",))


def test_overflowing_psd_gram_product_exits_two(tmp_path):
    # the psd product A_1 o ... o A_4 is finite, but a psd file is read as B_j = A_j,
    # whose Gram product A_1^2 o ... o A_4^2 squares the entries: every command refuses
    a2 = np.array([[1e-40, 1e55], [1e55, 1e150]])
    path = tmp_path / "overflow.json"
    write_instance(path, MatrixFamily([np.diag([1e150, 1e-150]), a2, a2, a2]), "psd")
    for argv in CLI_COMMANDS:
        code, out, err = run_cli(*argv, path)
        assert (code, out) == (2, "")
        assert err == (f"hspan {argv[0]}: {path}: matrix entries too large: "
                       "the Gram product (B_1 B_1*) o ... o (B_k B_k*) overflows\n")


def test_underflowing_products_exit_two(tmp_path):
    # the true rank is 3 (2 for "rows"); a product, or a factor or partial product of it,
    # underflows; a psd file is read as B_j = A_j, so its Gram product is refused too
    gram = "the Gram product (B_1 B_1*) o ... o (B_k B_k*)"
    cases = [("1e-110x3", [1e-110 * np.eye(3)] * 3, "general", gram),
             ("1e-160x2", [1e-160 * np.eye(3)] * 2, "general", gram),
             ("psd-1e-300x2", [1e-300 * np.eye(3)] * 2, "psd", gram),
             ("partial", [1e-90 * np.eye(3), 1e-90 * np.eye(3), 1e60 * np.eye(3)], "general", gram),
             ("factor", [1e60 * np.eye(3), 1e-170 * np.eye(3)], "general", gram),
             ("rows", [np.diag([1.0, 1e-170]), np.diag([1e-170, 1.0])], "general", gram),
             ("subnormal", [5e-324 * np.eye(3), np.eye(3)], "general", gram)]
    paths = []
    for name, members, kind, _ in cases:
        paths.append(tmp_path / f"{name}.json")
        write_instance(paths[-1], MatrixFamily(members), kind)
    for argv in CLI_COMMANDS:
        code, out, err = run_cli(*argv, *paths)
        assert (code, out) == (2, "")
        assert err == "".join(
            f"hspan {argv[0]}: {path}: matrix entries too small: {what} underflows\n"
            for path, (*_, what) in zip(paths, cases))


def test_small_products_that_do_not_underflow_keep_their_output(tmp_path):
    cases = [([1e-200 * np.eye(3), np.zeros((3, 3))], 0),
             ([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], 0),
             ([np.diag([1e150, 1.0]), np.diag([1e-150, 1.0])], 2),
             ([1e-200 * np.diag([1.0, 0.0]), 1e-200 * np.diag([0.0, 1.0])], 0)]
    paths = []
    for i, (members, _) in enumerate(cases):
        paths.append(tmp_path / f"f{i}.json")
        write_instance(paths[-1], MatrixFamily(members), "general")
    for argv in CLI_COMMANDS:
        code, out, err = run_cli(*argv, *paths)
        assert (code, err) == (0, "")
        for rep, (_, rank) in zip(reports(out), cases, strict=True):
            ranks = [rep[key] for key in ("rank", "span_rank", "oracle_rank") if key in rep]
            assert ranks == [rank] * len(ranks) and rep.get("passed", True)


def test_ranks_flags_and_exit_codes_do_not_depend_on_blas_threads(tmp_path):
    # floats may move in the last bits with the BLAS thread count; only 1 and 2 are tried
    paths = []
    for n, k, flags in ((64, 2, ()), (16, 3, ("--rank-deficit", 5)),
                        (32, 2, ("--kind", "psd", "--rank-deficit", 6))):
        paths.append(tmp_path / f"{n}x{k}.json")
        assert run_cli("gen", n, k, "--seed", n, *flags, "--out", paths[-1])[0] == 0
    keys = ("rank", "span_rank", "oracle_rank", "match", "checks", "skipped", "passed")
    for argv in CLI_COMMANDS:
        runs = []
        for threads in ("1", "2"):
            code, out, err = run_cli(*argv, *paths, env_extra={"OPENBLAS_NUM_THREADS": threads})
            picked = [{key: r[key] for key in keys if key in r} for r in reports(out)]
            runs.append((code, err, picked))
        assert runs[0] == runs[1]
        assert len(runs[0][2]) == len(paths)


@pytest.mark.parametrize("argv, rows", [
    (("compare", "--mode", "random", "--samples"), 2 * 4),
    (("verify", "--trials"), 3 * 4),
    (("verify", "--pairing-trials"), 3 * 4 + 4 ** 2),
])
def test_oversized_draw_counts_exit_three(instance, argv, rows):
    count = 10**9
    code, out, err = run_cli(argv[0], instance, *argv[1:], count)
    assert code == 3
    assert out == ""
    assert err == (f"hspan {argv[0]}: {instance}: {count} draws need {rows} x {count} = "
                   f"{rows * count} stack entries, budget is 10000000\n")


def test_psd_file_with_overflowing_norm_exits_two(tmp_path):
    path = tmp_path / "huge-psd.json"
    write_instance(path, MatrixFamily([np.diag([1e200, -1.0, 1.0])]), "psd")
    code, out, err = run_cli("span", path)
    assert code == 2
    assert out == ""
    assert err == (f"hspan span: {path}: invalid psd family: "
                   "matrix 1 is too large: ||A||_F overflows\n")


def test_deeply_nested_json_exits_two(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000)
    code, out, err = run_cli("span", path)
    assert code == 2
    assert out == ""
    assert "nested too deeply" in err and "Traceback" not in err
    assert err.count("deep.json") == 1


def test_non_utf8_file_exits_two(tmp_path):
    path = tmp_path / "latin.json"
    path.write_bytes(b"\xff\xfe{")
    code, out, err = run_cli("span", path)
    assert code == 2
    assert out == ""
    assert err.startswith(f"hspan span: {path}: not valid UTF-8: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_overlong_integer_exits_two(tmp_path):
    path = tmp_path / "big.json"
    path.write_text('{"n": ' + "1" * 5000 + "}")
    code, out, err = run_cli("span", path)
    assert code == 2
    assert out == ""
    assert err == (f"hspan span: {path}: integer literal longer than "
                   f"{sys.get_int_max_str_digits()} digits\n")


def test_missing_file_exits_two_naming_it_once(tmp_path):
    code, out, err = run_cli("span", tmp_path / "missing.json")
    assert code == 2
    assert out == ""
    assert "cannot read" in err and "Traceback" not in err
    assert err.count("missing.json") == 1


@pytest.mark.parametrize("jobs", [1, 2])
def test_memory_error_keeps_other_reports(tmp_path, monkeypatch, capsys, jobs):
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    write_instance(good, MatrixFamily([np.eye(3)]), "general")
    write_instance(bad, MatrixFamily([np.eye(4)]), "general")
    real_run_span = cli._run_span

    def run_span(family, cfg, args):
        if family.n == 4:
            raise MemoryError()
        return real_run_span(family, cfg, args)

    monkeypatch.setattr(cli, "_run_span", run_span)
    code = cli.main(["span", str(good), str(bad), "--jobs", str(jobs)])
    out, err = capsys.readouterr()
    assert code == 3
    assert [r["instance"]["n"] for r in reports(out)] == [3]
    assert err.splitlines() == [f"hspan span: {bad}: out of memory"]


def test_gen_memory_error_exits_three(monkeypatch, capsys):
    def generate_family(*args, **kwargs):
        raise MemoryError("Unable to allocate 1 TiB")

    monkeypatch.setattr(cli, "generate_family", generate_family)
    assert cli.main(["gen", "3", "2"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == ["hspan gen: out of memory: Unable to allocate 1 TiB"]


def test_gen_over_entry_budget_exits_three(capsys):
    # 10^12 entries: the preflight refuses before anything is drawn or allocated
    assert cli.main(["gen", str(10**6), "1"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == ["hspan gen: k n^2 = 1000000000000 matrix entries, "
                                "budget is 1000000"]


@pytest.mark.parametrize("argv, message", [
    (["compare", "--tol=nan"], "--tol must be a finite distance >= 0, got nan"),
    (["compare", "--tol=inf"], "--tol must be a finite distance >= 0, got inf"),
    (["compare", "--tol=-1"], "--tol must be a finite distance >= 0, got -1.0"),
    (["span", "--rank-tol=1e308"], "rank_rel_tol must lie in (0, 1), got 1e+308"),
    (["verify", "--rank-tol=1"], "rank_rel_tol must lie in (0, 1), got 1.0"),
    (["compare", "--rank-tol=nan"], "rank_rel_tol must lie in (0, 1), got nan"),
    (["span", "--rank-tol=0"], "rank_rel_tol must lie in (0, 1), got 0.0"),
], ids=["tol-nan", "tol-inf", "tol-negative", "rank-tol-1e308", "rank-tol-1", "rank-tol-nan",
        "rank-tol-0"])
def test_bad_tolerance_flags_exit_two(instance, capsys, argv, message):
    assert cli.main([argv[0], str(instance), *argv[1:]]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [f"hspan: {message}"]


@pytest.mark.parametrize("argv, message", [
    (["verify", "--trials=0"], "--trials must be >= 1, got 0"),
    (["verify", "--pairing-trials=-1"], "--pairing-trials must be >= 0, got -1"),
    (["compare", "--mode=random", "--samples=0"], "--samples must be >= 1, got 0"),
    (["span", "--jobs=0"], "--jobs must be >= 1, got 0"),
], ids=["trials-0", "pairing-trials-negative", "samples-0", "jobs-0"])
def test_bad_counts_exit_two_once_before_any_file(tmp_path, monkeypatch, capsys, argv, message):
    paths = [str(tmp_path / f"inst{i}.json") for i in range(3)]
    for path in paths:
        write_instance(path, MatrixFamily([np.eye(2)]), "general")
    monkeypatch.setattr(cli, "load_instance", lambda path: pytest.fail(f"{path} was read"))
    assert cli.main([argv[0], *paths, *argv[1:]]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [f"hspan: {message}"]


def test_non_finite_report_exits_two(tmp_path, monkeypatch, capsys):
    path = tmp_path / "inst.json"
    write_instance(path, MatrixFamily([np.eye(2)]), "general")
    monkeypatch.setattr(cli, "_run_span", lambda *args: (0, {"rank_cutoff": float("nan")}))
    assert cli.main(["span", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [
        f"hspan span: {path}: Out of range float values are not JSON compliant"]


def _no_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.fixture(scope="module")
def tiny_instances(tmp_path_factory):
    root = tmp_path_factory.mktemp("tiny")
    paths = [str(root / "general.json"), str(root / "psd.json")]
    write_instance(paths[0], generate_family(2, 2, seed=3), "general")
    write_instance(paths[1], generate_family(2, 2, kind="psd", rank_deficit=1, seed=4), "psd")
    return paths


# Counts inside the draw budget do work in proportion to the count, so the
# valid ones stay small; the large ones are all over the budget and refused
# before anything is drawn.
COUNTS = st.one_of(st.integers(-10**20, 64), st.integers(DRAW_ENTRY_BUDGET, 10**20))
TOLERANCES = st.one_of(
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 0.0,
                     1e308, 5e-324, 1.0, 1e-10]),
    st.floats(0.0, 1.0), st.floats(allow_nan=True, allow_infinity=True))


@settings(max_examples=100, deadline=None)
@given(command=st.sampled_from(["span", "basis", "random", "verify"]),
       samples=COUNTS, trials=COUNTS, pairing_trials=COUNTS,
       rank_tol=TOLERANCES, tol=TOLERANCES)
@example(command="basis", samples=0, trials=0, pairing_trials=0, rank_tol=1e-10, tol=float("nan"))
@example(command="random", samples=8, trials=0, pairing_trials=0, rank_tol=1e-10, tol=float("inf"))
@example(command="basis", samples=0, trials=0, pairing_trials=0, rank_tol=1e-10, tol=-1.0)
@example(command="span", samples=0, trials=0, pairing_trials=0, rank_tol=1e308, tol=0.0)
@example(command="verify", samples=0, trials=5, pairing_trials=2, rank_tol=1e308, tol=0.0)
def test_flags_never_crash_or_print_non_json(tiny_instances, command, samples, trials,
                                             pairing_trials, rank_tol, tol):
    argv = {
        "span": ["span"],
        "basis": ["compare", "--mode=basis", f"--tol={tol}"],
        "random": ["compare", "--mode=random", f"--samples={samples}", f"--tol={tol}"],
        "verify": ["verify", f"--trials={trials}", f"--pairing-trials={pairing_trials}"],
    }[command]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main([*argv, *tiny_instances, f"--rank-tol={rank_tol}"])
    assert code in {0, 1, 2, 3}
    assert "Traceback" not in err.getvalue()
    for line in out.getvalue().splitlines():
        json.loads(line, parse_constant=_no_constant)


def test_cli_imports_no_undeclared_dependencies():
    # scipy and sympy may be installed, but the package declares only numpy;
    # the thread pool is imported only when --jobs asks for one
    code = ("import sys, hspan.cli; print(sorted(m for m in "
            "('scipy', 'sympy', 'concurrent.futures') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_verify_passes_and_reports(instance):
    code, out, _ = run_cli("verify", instance, "--trials", 20, "--seed", 3)
    assert code == 0
    (rep,) = reports(out)
    assert rep["passed"] is True
    assert rep["skipped"] == []
    assert len(rep["orthogonality_residuals"]) == 20
    assert len(rep["pairing_residuals"]) == 10
    assert set(rep["checks"]) == {"column_identity", "norm_trace", "pairing", "orthogonality"}


def test_verify_skips_tensor_checks_over_budget(tmp_path):
    path = tmp_path / "wide.json"
    assert run_cli("gen", 16, 4, "--seed", 4, "--out", path)[0] == 0
    code, out, _ = run_cli("verify", path, "--trials", 5)
    assert code == 0
    (rep,) = reports(out)
    assert rep["skipped"] == ["norm_trace", "pairing"]
    assert rep["passed"] is True


def test_seed_env_fallback(instance):
    code, out, _ = run_cli("compare", instance, "--mode", "random",
                           env_extra={"HSPAN_SEED": "5"})
    assert code == 0
    with_env = strip_time(reports(out)[0])
    code, out, _ = run_cli("compare", instance, "--mode", "random", "--seed", 5)
    assert code == 0
    assert with_env == strip_time(reports(out)[0])
    assert with_env["instance"]["seed"] == 5


def test_seed_flag_beats_env(instance):
    code, out, _ = run_cli("compare", instance, "--mode", "random", "--seed", 8,
                           env_extra={"HSPAN_SEED": "5"})
    assert code == 0
    assert reports(out)[0]["instance"]["seed"] == 8


def test_bad_seed_env_exits_two(instance):
    code, _, err = run_cli("span", instance, env_extra={"HSPAN_SEED": "abc"})
    assert code == 2
    assert "HSPAN_SEED" in err


@pytest.mark.parametrize("seed", [-1, 2**64])
@pytest.mark.parametrize("command", ["gen", "span", "compare", "verify"])
def test_seed_outside_64_bits_exits_two(instance, tmp_path, command, seed):
    out_path = tmp_path / "never.json"
    args = ("gen", 3, 2, "--out", out_path) if command == "gen" else (command, instance)
    code, out, err = run_cli(*args, "--seed", seed)
    assert code == 2
    assert out == ""
    assert err == f"hspan: seed must fit in 64 unsigned bits, got {seed}\n"
    assert not out_path.exists()


def test_gen_seed_env_outside_64_bits_exits_two():
    code, out, err = run_cli("gen", 3, 2, env_extra={"HSPAN_SEED": "-3"})
    assert (code, out, err) == (2, "", "hspan: seed must fit in 64 unsigned bits, got -3\n")


def test_reports_deterministic_up_to_wall_time(instance):
    outs = []
    for _ in range(2):
        code, out, _ = run_cli("verify", instance, "--seed", 11)
        assert code == 0
        outs.append(strip_time(reports(out)[0]))
    assert outs[0] == outs[1]


def test_multi_file_order_and_worst_exit(tmp_path):
    good1 = tmp_path / "g1.json"
    good2 = tmp_path / "g2.json"
    bad = tmp_path / "bad.json"
    assert run_cli("gen", 3, 2, "--seed", 1, "--out", good1)[0] == 0
    assert run_cli("gen", 4, 2, "--seed", 2, "--out", good2)[0] == 0
    bad.write_text("[]")
    code, out, err = run_cli("compare", good1, good2, bad, "--jobs", 3)
    assert code == 2  # worst of {0, 0, 2}
    reps = reports(out)
    assert [r["instance"]["n"] for r in reps] == [3, 4]
    assert "bad.json" in err


def test_jobs_parallel_payload_matches_serial(tmp_path):
    paths = []
    for i in range(3):
        p = tmp_path / f"i{i}.json"
        assert run_cli("gen", 3 + i, 2, "--seed", i, "--out", p)[0] == 0
        paths.append(p)
    _, serial, _ = run_cli("verify", *paths, "--seed", 1)
    _, parallel, _ = run_cli("verify", *paths, "--seed", 1, "--jobs", 3)
    assert [strip_time(r) for r in reports(serial)] == [strip_time(r) for r in reports(parallel)]
