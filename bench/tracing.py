"""The traced run: per-layer metrics from spans around hspan's functions.

`hspan.cli.main` is called in-process on the workload's files. The layer
functions are wrapped by the code below and patched into the module
namespaces that call them (`hspan.cli`, `hspan.spans`, `hspan.verify`,
`hspan.instances`); no source is edited, and every name is restored when a
pass ends. Spans (name, start, end, parent span, operation) are kept in
memory and written out at the end. Passes without the wrappers alternate
with traced passes over the same files, which gives the tracing overhead.

A workload that never reaches a layer takes that layer's figures from a
probe: a few operations of the other workloads, traced once.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import itertools
import json
import os
import statistics
import threading
import time
import traceback
import types
from dataclasses import dataclass

import numpy as np

import checks
import harness
import workloads

# Operations of each workload that make up the probe of the others.
PROBE_OPS = {"verify-corpus": (1,), "span-large": (0, 3), "oracle-compare": (1,)}
JOBS_BATCH = ("verify-corpus", 1)  # the batch timed with --jobs 1 and --jobs 2
STARTUP_REPEATS = 5
JOBS_REPEATS = 3


@dataclass
class Span:
    id: int
    parent: int | None
    op: int
    phase: str
    name: str
    start_ns: int
    end_ns: int
    attrs: dict | None

    @property
    def ms(self) -> float:
        return (self.end_ns - self.start_ns) / 1e6


class Tracer:
    """Records spans; the parent of a span is the innermost open span of
    the same thread."""

    def __init__(self):
        self.spans: list[Span] = []
        self.phase = "setup"
        self.op = 0
        self._ids = itertools.count(1)
        self._local = threading.local()

    def call(self, name, fn, *args, attrs=None, **kwargs):
        stack = self._local.__dict__.setdefault("stack", [])
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        result = None
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self.spans.append(Span(span_id, parent, self.op, self.phase, name, start, end,
                                   attrs(args, result) if attrs else None))

    def wrap(self, name, fn, attrs=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, attrs=attrs, **kwargs)
        return traced

    @contextlib.contextmanager
    def patched(self):
        """Patch every target into its namespace; restore on exit."""
        saved = []
        try:
            for module_name, attr, name, attrs in TARGETS:
                module = importlib.import_module(f"hspan.{module_name}")
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, attrs))
            cli = importlib.import_module("hspan.cli")
            saved.append((cli, "json", cli.json))
            proxy = types.SimpleNamespace(**{k: getattr(json, k) for k in dir(json)
                                             if not k.startswith("__")})
            proxy.dumps = self.wrap("cli.json_dumps", json.dumps)
            cli.json = proxy
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.__dict__) + "\n")


def _shape(args, result):
    return {"shape": list(np.shape(args[0]))}


def _count(args, result):
    return {"count": int(args[2])}


def _bytes(args, result):
    return {"bytes": os.path.getsize(args[0])}


def _family(args, result):
    return {"n": args[0].n, "k": args[0].k}


def _skipped(args, result):
    return {"skipped": len(result.skipped) if result is not None else 0}


# (module in hspan, attribute patched there, span name, attributes).
TARGETS = (
    ("cli", "_run_file", "cli.run_file", None),
    ("cli", "matrix_to_pairs", "cli.matrix_to_pairs", None),
    ("cli", "_report", "cli.report", None),
    ("cli", "load_instance", "instances.load_instance", _bytes),
    ("instances", "parse_instance", "instances.parse_instance", None),
    ("instances", "generate_family", "instances.generate_family", None),
    ("instances", "dump_instance", "instances.dump_instance", None),
    ("cli", "hadamard_span", "spans.hadamard_span", None),
    ("cli", "psd_hadamard_span", "spans.psd_hadamard_span", None),
    ("verify", "psd_hadamard_span", "spans.psd_hadamard_span", None),
    ("cli", "basis_product_oracle", "spans.basis_product_oracle", _family),
    ("cli", "random_sample_span", "spans.random_sample_span", None),
    ("spans", "gram_hadamard", "spans.gram_hadamard", None),
    ("verify", "gram_hadamard", "spans.gram_hadamard", None),
    ("verify", "psd_sqrt", "spans.psd_sqrt", None),
    ("spans", "range_basis", "subspace.range_basis", _shape),
    ("verify", "range_basis", "subspace.range_basis", _shape),
    ("verify", "complement_projector", "subspace.complement_projector", None),
    ("cli", "subspace_distance", "subspace.subspace_distance", None),
    ("verify", "subspace_distance", "subspace.subspace_distance", None),
    ("cli", "verify_all", "verify.verify_all", _skipped),
    ("verify", "column_identity_residual", "verify.column_identity_residual", None),
    ("verify", "_tensor_from", "verify.tensor_from", None),
    ("verify", "_pairing_residual", "verify.pairing_residual", None),
    ("verify", "_orthogonality_residuals", "verify.orthogonality_residuals", None),
    ("spans", "seed_children", "rng.seed_children", _count),
    ("verify", "seed_children", "rng.seed_children", _count),
    ("instances", "seed_children", "rng.seed_children", _count),
    ("spans", "complex_gaussian", "rng.complex_gaussian", None),
    ("verify", "complex_gaussian", "rng.complex_gaussian", None),
    ("instances", "complex_gaussian", "rng.complex_gaussian", None),
)
LAYERS = ("cli", "instances", "spans", "subspace", "verify", "rng")


def _main(cli, argv):
    """One in-process `hspan` command: (exit code, stdout)."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    except Exception:  # a crash is a failed operation, not the end of the run
        traceback.print_exc()
        code = -1
    return code, out.getvalue()


def _pass(cli, ops, judge, tracer=None) -> float:
    """Run each (op, argv) once in-process; returns the wall time."""
    keys = []
    started = time.perf_counter()
    for op, argv in ops:
        if tracer is None:
            code, out = _main(cli, argv)
        else:
            tracer.op += 1
            code, out = tracer.call("cli.main", _main, cli, argv)
        keys.append(judge.record(op, out.encode(), code))
    wall = time.perf_counter() - started
    for key in keys:
        judge.tally(key)
    return wall


def _direct_calls(tracer, hspan, paths: list[str], rng) -> None:
    """One call to each public identity function of `hspan.verify` per file."""
    hv = hspan.verify
    funcs = {name: getattr(hv, name) for name in (
        "column_identity_residual", "tensor_witness", "norm_trace_identity",
        "orthogonality_check", "pairing_identity_residual")}
    cfg = hspan.subspace.ToleranceConfig(seed=0)
    for path in paths:
        family, _ = hspan.instances.load_instance(path)
        n, k = family.n, family.k
        tracer.call("verify.column_identity_residual", funcs["column_identity_residual"], family)
        tracer.call("verify.orthogonality_check", funcs["orthogonality_check"], family,
                    checks.ORTHOGONALITY_TRIALS, cfg)
        if n ** (k + 1) > hv.TENSOR_ENTRY_BUDGET:
            continue
        tracer.call("verify.tensor_witness", funcs["tensor_witness"], family, cfg)
        tracer.call("verify.norm_trace_identity", funcs["norm_trace_identity"], family, cfg)
        xs = [rng.standard_normal(n) + 1j * rng.standard_normal(n) for _ in range(k)]
        y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        tracer.call("verify.pairing_identity_residual", funcs["pairing_identity_residual"],
                    family, xs, y, cfg)


def traced_run(hspan, workload, seed: int, seconds: float, env: dict, workdir: str):
    """Returns (per-layer metrics, judge, probe judges, details, tracer)."""
    tracer = Tracer()
    with tracer.patched():
        paths = workloads.write_files(hspan.instances, workload, seed, workdir)
    judge = harness.Judge(workload, paths, seed)
    ops = [(op, harness.hspan_args(op, paths, jobs="1")) for op in workload.ops]

    probe_ops, probe_judges, batch = [], [], None
    for other in workloads.WORKLOADS.values():
        if other is workload:
            chosen_paths = paths
        else:
            indices = sorted({i for oi in PROBE_OPS[other.name] for i in other.ops[oi].files})
            chosen_paths = workloads.write_files(hspan.instances, other, seed, workdir, indices)
            pj = harness.Judge(other, chosen_paths, seed, counted=False)
            probe_judges.append(pj)
            probe_ops += [(pj, other.ops[oi], harness.hspan_args(other.ops[oi], chosen_paths, jobs="1"))
                          for oi in PROBE_OPS[other.name]]
        if other.name == JOBS_BATCH[0]:
            batch = other.ops[JOBS_BATCH[1]], chosen_paths

    cli = hspan.cli
    _pass(cli, ops, judge)  # warm-up, untraced
    traced, untraced = [], []
    started = time.perf_counter()
    while not traced or time.perf_counter() - started < seconds:
        tracer.phase = "pass"
        with tracer.patched():
            traced.append(_pass(cli, ops, judge, tracer))
        untraced.append(_pass(cli, ops, judge))

    tracer.phase = "probe"
    with tracer.patched():
        for pj, op, argv in probe_ops:
            _pass(cli, [(op, argv)], pj, tracer)

    tracer.phase = "direct"
    verify_judge = next(j for j in [judge, *probe_judges] if j.workload.name == "verify-corpus")
    with tracer.patched():
        _direct_calls(tracer, hspan, list(verify_judge.paths.values()), np.random.default_rng([seed, 17]))

    out_path, err_path = os.path.join(workdir, "stdout"), os.path.join(workdir, "stderr")
    startup = [harness.spawn(["-c", "import hspan.cli"], env, out_path, err_path).wall_s
               for _ in range(STARTUP_REPEATS)]
    op, batch_paths = batch
    jobs_judge = harness.Judge(workloads.WORKLOADS[JOBS_BATCH[0]], batch_paths, seed, counted=False)
    probe_judges.append(jobs_judge)
    jobs = {"1": [], "2": []}
    for _ in range(JOBS_REPEATS):
        for j in jobs:
            s = harness.spawn(["-m", "hspan", *harness.hspan_args(op, batch_paths, jobs=j)],
                              env, out_path, err_path)
            jobs[j].append(s.wall_s)
            with open(out_path, "rb") as fh:
                jobs_judge.judge(op, fh.read(), s.exit_code)

    files_per_pass = workload.files_per_round
    metrics = layer_metrics(tracer.spans, {"pass": files_per_pass * len(traced),
                                           "probe": sum(len(op.files) for _, op, _ in probe_ops)},
                            {"pass": len(traced), "probe": 1})
    metrics["cli.startup_ms"] = (statistics.median(startup) * 1e3, "ms")
    metrics["cli.jobs1_files_per_s"] = (len(op.files) / statistics.median(jobs["1"]), "1/s")
    metrics["cli.jobs2_files_per_s"] = (len(op.files) / statistics.median(jobs["2"]), "1/s")
    metrics["trace.overhead_ratio"] = (statistics.median(traced) / statistics.median(untraced), "x")
    details = {"traced_passes_s": traced, "untraced_passes_s": untraced,
               "startup_s": startup, "jobs_batch": [workloads.WORKLOADS[JOBS_BATCH[0]].specs[i].label
                                                    for i in op.files],
               "jobs_s": jobs, "spans": len(tracer.spans)}
    return metrics, judge, probe_judges, details, tracer


def _mean(values):
    return sum(values) / len(values) if values else float("nan")


def layer_metrics(spans: list[Span], files: dict[str, int], passes: dict[str, int]) -> dict:
    """Per-layer metrics. Each comes from the workload's own traced passes
    when they reach it, else from the probe; `verify.*_ms` of the identity
    functions come from direct calls."""
    by_id = {s.id: s for s in spans}
    child_ms: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            child_ms[s.parent] = child_ms.get(s.parent, 0.0) + s.ms

    def phase_of(predicate):
        for phase in ("pass", "probe"):
            if any(predicate(s) for s in spans if s.phase == phase):
                return phase
        return "pass"

    def select(predicate):
        phase = phase_of(predicate)
        return [s for s in spans if s.phase == phase and predicate(s)], phase

    def named(name):
        return lambda s: s.name == name

    def mean_ms(name, phase=None):
        chosen = ([s for s in spans if s.phase == phase and s.name == name] if phase
                  else select(named(name))[0])
        return (_mean([s.ms for s in chosen]), "ms")

    def under(s, ancestor):
        while s.parent is not None:
            s = by_id[s.parent]
            if s.name == ancestor:
                return True
        return False

    m = {}
    report_parts = [s for s in spans if s.phase == "pass" and s.name in
                    ("cli.matrix_to_pairs", "cli.report", "cli.json_dumps")]
    reports = sum(s.name == "cli.json_dumps" for s in report_parts)
    m["cli.report_json_ms"] = (sum(s.ms for s in report_parts) / max(reports, 1), "ms")

    loads = [s for s in spans if s.phase == "pass" and s.name == "instances.load_instance"]
    m["instances.load_ms"] = (_mean([s.ms for s in loads]), "ms")
    m["instances.load_mb_per_s"] = (sum(s.attrs["bytes"] for s in loads) / 1e6
                                    / (sum(s.ms for s in loads) / 1e3), "MB/s")
    m["instances.generate_ms"] = mean_ms("instances.generate_family", "setup")
    m["instances.dump_ms"] = mean_ms("instances.dump_instance", "setup")

    for name in ("gram_hadamard", "hadamard_span", "psd_hadamard_span",
                 "random_sample_span", "basis_product_oracle"):
        m[f"spans.{name}_ms"] = mean_ms(f"spans.{name}")
    oracles, _ = select(named("spans.basis_product_oracle"))
    columns = max(s.attrs["n"] ** s.attrs["k"] for s in oracles)
    m["spans.oracle_columns"] = (columns, "count")
    m["spans.oracle_matrix_mb"] = (max(s.attrs["n"] ** (s.attrs["k"] + 1) * 16 / 1e6
                                       for s in oracles), "MB-computed")

    square, _ = select(lambda s: s.name == "subspace.range_basis"
                       and s.attrs["shape"][0] == s.attrs["shape"][1])
    m["subspace.range_basis_square_ms"] = (_mean([s.ms for s in square]), "ms")
    wide, _ = select(lambda s: s.name == "subspace.range_basis" and s.parent is not None
                     and by_id[s.parent].name == "spans.basis_product_oracle")
    # Thin SVD of the n x N oracle matrix with U and V: Golub & Van Loan's
    # R-SVD count, 6 N n^2 + 20 n^3 real flops, four times that in complex.
    gflop = [4 * (6 * s.attrs["shape"][1] * s.attrs["shape"][0] ** 2
                  + 20 * s.attrs["shape"][0] ** 3) / 1e9 for s in wide]
    m["subspace.range_basis_wide_ms"] = (_mean([s.ms for s in wide]), "ms")
    m["subspace.range_basis_wide_gflop"] = (_mean(gflop), "GFLOP-computed")
    m["subspace.range_basis_wide_gflop_per_s"] = (sum(gflop) / (sum(s.ms for s in wide) / 1e3),
                                                  "GFLOP/s")
    m["subspace.subspace_distance_ms"] = mean_ms("subspace.subspace_distance")

    m["verify.verify_all_ms"] = mean_ms("verify.verify_all")
    for metric, name in (("column_identity", "column_identity_residual"),
                         ("tensor_witness", "tensor_witness"),
                         ("norm_trace", "norm_trace_identity"),
                         ("orthogonality", "orthogonality_check"),
                         ("pairing", "pairing_identity_residual")):
        m[f"verify.{metric}_ms"] = mean_ms(f"verify.{name}", "direct")
    verifies, phase = select(named("verify.verify_all"))
    grams = [s for s in spans if s.phase == phase and s.name == "spans.gram_hadamard"
             and under(s, "verify.verify_all")]
    m["verify.gram_builds"] = (len(grams) / len(verifies), "count")
    m["verify.skipped_checks"] = (sum(s.attrs["skipped"] for s in verifies) / passes[phase], "count")

    seeds, phase = select(named("rng.seed_children"))
    m["rng.children_spawned"] = (sum(s.attrs["count"] for s in seeds) / files[phase], "count")
    m["rng.seed_children_ms"] = (sum(s.ms for s in seeds) / files[phase], "ms")

    for layer in LAYERS:
        chosen, phase = select(lambda s: s.name.split(".")[0] == layer)
        self_ms = sum(s.ms - child_ms.get(s.id, 0.0) for s in chosen)
        m[f"{layer}.self_ms"] = (self_ms / files[phase], "ms")
    return m
