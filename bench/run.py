"""Benchmark of the hspan command line tool.

    python3 bench/run.py --workload verify-corpus --seed 1 --seconds 36 --trace 0

Run from the root of a checkout; the program is taken from the checkout's
`src/`. With `--trace 0` it writes the workload's instance files with hspan's
own generator and writer, then drives `hspan` processes in a closed loop for
`--seconds`, checks every output apart from the program, and prints the
end-to-end metrics. With `--trace 1` it runs the traced in-process pass
instead and prints the per-layer metrics. The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}. Raw results and
spans go to `.bench_runs/`; the instance files are deleted at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(ROOT, ".bench_runs")
WORKLOADS = ("verify-corpus", "span-large", "oracle-compare")


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--blas-threads", default="1",
                   help="OPENBLAS_NUM_THREADS and OMP_NUM_THREADS of every process; "
                        "'default' leaves them unset (reference figures only)")
    return p.parse_args(argv)


def _openblas_threads():
    """Threads the loaded OpenBLAS will use, or None when it cannot be asked."""
    import ctypes
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            if hasattr(handle, fn):
                return int(getattr(handle, fn)())
    return None


def _environment(args) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # numpy before 1.25 only prints its configuration
        blas = {}
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": " ".join(str(blas.get("openblas configuration", "")).split()),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "blas_threads": _openblas_threads(), "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    args = _args(argv)
    if not os.path.isfile(os.path.join(SRC, "hspan", "cli.py")):
        print(f"bench: no hspan source at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("bench: --seconds must be positive", file=sys.stderr)
        return 2
    # Before numpy loads: this process and every child get the same BLAS threads.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        if args.blas_threads == "default":
            os.environ.pop(var, None)
        else:
            os.environ[var] = args.blas_threads
    sys.path.insert(0, SRC)

    import harness
    import hspan.cli  # noqa: F401  (also loads every layer the trace patches)
    import hspan.instances
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    env = harness.child_env(SRC, args.blas_threads)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    if args.blas_threads != "1":
        tag += f"-blas{args.blas_threads}"
    workdir = os.path.join(RUNS, f"{tag}-{os.getpid()}")
    os.makedirs(workdir)
    environment = _environment(args)
    print("# environment " + json.dumps(environment))
    try:
        if args.trace:
            metrics, judge, probe_judges, details, tracer = tracing.traced_run(
                hspan, workload, args.seed, args.seconds, env, workdir)
            spans_path = os.path.join(RUNS, f"{tag}-spans.jsonl")
            tracer.write(spans_path)
            details["spans_file"] = os.path.relpath(spans_path, ROOT)
        else:
            def set_up():
                return harness.set_up(hspan.instances, workload, args.seed, workdir)

            paths, first_setup = set_up()
            judge = harness.Judge(workload, paths, args.seed)
            rounds, round_walls, setup_times = harness.timed_run(
                workload, paths, args.seconds, env, workdir, judge, set_up)
            metrics, details = harness.end_to_end(workload, rounds, round_walls,
                                                  [first_setup, *setup_times])
            probe_judges = []
            details["samples"] = [{"round": i, "op": f"{op.command} " + "+".join(
                                       workload.specs[f].label for f in op.files),
                                   "wall_ms": s.wall_s * 1e3, "cpu_ms": s.cpu_s * 1e3,
                                   "maxrss_kb": s.maxrss_kb, "exit": s.exit_code}
                                  for i, r in enumerate(rounds) for op, s in r]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    unexpected = judge.unexpected + [u for pj in probe_judges for u in pj.unexpected]
    for line in unexpected[:20]:
        print(f"# FAILED {line}")
    known = judge.failed - len(judge.unexpected)
    print(f"# {judge.attempted} files attempted, {judge.failed} failed "
          f"({known} of them known faults: graded diagonal families)")
    for key, value in details.items():
        if key != "samples":
            print(f"# {key}: {value}")
    for name, (value, unit) in metrics.items():
        print(f"# {name:40s} {value:14.4f} {unit}")
    result = {
        "correct": not unexpected,
        "attempted": judge.attempted,
        "failed": judge.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    with open(os.path.join(RUNS, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump({"environment": environment, "details": details, **result}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
