"""The hspan command line tool.

Subcommands: gen writes random instance files, span computes the family
span, compare cross-checks the span against an independent oracle, verify
runs the identity checks. Reports are JSON, one object per input file, on
stdout; diagnostics go to stderr. Exit codes: 0 success, 1 span mismatch or
failed check, 2 input error, 3 size budget exceeded or out of memory, 141
stdout closed before everything was written.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

from .errors import BudgetExceededError
from .instances import (SCHEMA_VERSION, dump_instance, generate_family,
                        load_instance, matrix_to_pairs, write_instance)
from .spans import (basis_product_oracle, hadamard_span, psd_hadamard_span,
                    random_sample_span, sample_count)
from .subspace import ToleranceConfig, subspace_distance
from .verify import verify_all

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_PIPE = 141  # 128 + SIGPIPE, what a shell reports for a writer its reader left


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hspan",
        description="Spans of Hadamard-product vector families, with oracles and identity checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a random instance file")
    gen.add_argument("n", type=int, help="matrix size")
    gen.add_argument("k", type=int, help="number of matrices")
    gen.add_argument("--kind", choices=["general", "psd"], default="general")
    gen.add_argument("--rank-deficit", type=int, default=0, metavar="D",
                     help="zero the last D columns of each factor (psd: use n-D wide factors)")
    gen.add_argument("--seed", type=int, default=None)
    gen.add_argument("--out", default=None, metavar="FILE",
                     help="write here instead of stdout")

    def common(p):
        p.add_argument("files", nargs="+", metavar="FILE")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--rank-tol", type=float, default=1e-10,
                       help="relative singular value threshold for rank decisions")
        p.add_argument("--jobs", type=int, default=1,
                       help="evaluate multiple files in parallel")

    span = sub.add_parser("span", help="compute the span of an instance")
    common(span)

    compare = sub.add_parser("compare", help="span against an independent oracle")
    common(compare)
    compare.add_argument("--mode", choices=["basis", "random"], default="basis")
    compare.add_argument("--samples", type=int, default=None,
                         help="random-mode sample count (default 2n+8)")
    compare.add_argument("--tol", type=float, default=1e-8,
                         help="largest subspace distance that still exits 0")

    verify = sub.add_parser("verify", help="run the identity checks on an instance")
    common(verify)
    verify.add_argument("--trials", type=int, default=50,
                        help="orthogonality trial count")
    verify.add_argument("--pairing-trials", type=int, default=10)
    return parser


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("HSPAN_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"HSPAN_SEED must be an integer, got {env!r}")
    return 0


def _config(args, seed: int) -> ToleranceConfig:
    """The run's ToleranceConfig, which refuses a --rank-tol outside (0, 1).
    A compare --tol must be a finite distance >= 0; the counts must be
    --jobs >= 1, --samples >= 1 in random mode, --trials >= 1 and
    --pairing-trials >= 0."""
    if args.command == "compare" and not (math.isfinite(args.tol) and args.tol >= 0):
        raise ValueError(f"--tol must be a finite distance >= 0, got {args.tol}")
    counts = [("--jobs", args.jobs, 1)]
    if args.command == "compare" and args.mode == "random" and args.samples is not None:
        counts.append(("--samples", args.samples, 1))
    if args.command == "verify":
        counts += [("--trials", args.trials, 1), ("--pairing-trials", args.pairing_trials, 0)]
    for flag, value, low in counts:
        if value < low:
            raise ValueError(f"{flag} must be >= {low}, got {value}")
    return ToleranceConfig(rank_rel_tol=args.rank_tol, seed=seed)


def _report(command: str, family, kind: str, seed: int, payload: dict, started: float) -> dict:
    out = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "instance": {"n": family.n, "k": family.k, "kind": kind, "seed": seed},
    }
    out.update(payload)
    out["wall_time_ms"] = (time.perf_counter() - started) * 1000.0
    return out


def _span(family, kind, cfg):
    return psd_hadamard_span(family, cfg) if kind == "psd" else hadamard_span(family, cfg)


def _run_span(family, kind, cfg, args):
    span = _span(family, kind, cfg)
    return EXIT_OK, {"rank": span.rank, "basis": matrix_to_pairs(span.basis),
                     "rank_cutoff": span.tol_used}


def _run_compare(family, kind, cfg, args):
    span = _span(family, kind, cfg)
    if args.mode == "basis":
        samples = None
        oracle = basis_product_oracle(family, cfg)
    else:
        samples = args.samples if args.samples is not None else sample_count(family.n)
        oracle = random_sample_span(family, samples, cfg)
    distance = subspace_distance(span, oracle)
    payload = {
        "mode": args.mode,
        "samples": samples,
        "span_rank": span.rank,
        "oracle_rank": oracle.rank,
        "distance": distance,
        "tol": args.tol,
        "match": distance <= args.tol,
    }
    return (EXIT_OK if distance <= args.tol else EXIT_MISMATCH), payload


def _run_verify(family, kind, cfg, args):
    report = verify_all(family, cfg, pairing_trials=args.pairing_trials,
                        orthogonality_trials=args.trials)
    return (EXIT_OK if report.passed else EXIT_MISMATCH), report.to_dict()


_FAILURES = (BudgetExceededError, MemoryError, ValueError)  # reported, never a traceback


def _failure(exc: Exception) -> tuple[int, str]:
    """(exit code, message): a budget or MemoryError exits 3, the rest 2."""
    if isinstance(exc, MemoryError):
        return EXIT_BUDGET, f"out of memory: {exc}" if str(exc) else "out of memory"
    return (EXIT_BUDGET if isinstance(exc, BudgetExceededError) else EXIT_INPUT), str(exc)


def _run_gen(args, seed) -> int:
    try:
        family = generate_family(args.n, args.k, kind=args.kind,
                                 rank_deficit=args.rank_deficit, seed=seed)
        if args.out is not None:
            write_instance(args.out, family, args.kind)
            return EXIT_OK
        text = dump_instance(family, args.kind)
    except (*_FAILURES, OSError) as exc:
        code, message = _failure(exc)
        print(f"hspan gen: {message}", file=sys.stderr)
        return code
    sys.stdout.write(text)  # a closed stdout is main's to handle, not an input error
    return EXIT_OK


def _run_file(runner, path, args, cfg):
    """Load one file, run `runner(family, kind, cfg, args) -> (code, payload)`
    on it and serialize the report as one line of strict JSON; failures map
    to (exit code, diagnostic). The clock starts before the load."""
    try:
        started = time.perf_counter()
        family, kind = load_instance(path)
        code, payload = runner(family, kind, cfg, args)
        report = _report(args.command, family, kind, cfg.seed, payload, started)
        return code, json.dumps(report, allow_nan=False) + "\n", None
    except _FAILURES as exc:  # InstanceFormatError, and a NaN or infinity in the report
        code, message = _failure(exc)
        return code, None, f"{path}: {message}"


def main(argv=None) -> int:
    """Run one command; its exit code. A stdout closed by its reader ends the
    command with EXIT_PIPE and no traceback; signal handling is left as it is."""
    args = _parser().parse_args(argv)
    try:
        code = _run(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # point stdout at devnull, so the interpreter's own flush at exit cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_PIPE


def _run(args) -> int:
    try:
        seed = _resolve_seed(args)
        # gen has no rank policy, but its seed obeys the same 64-bit rule
        cfg = ToleranceConfig(seed=seed) if args.command == "gen" else _config(args, seed)
    except ValueError as exc:
        print(f"hspan: {exc}", file=sys.stderr)
        return EXIT_INPUT

    if args.command == "gen":
        return _run_gen(args, seed)

    runner = {"span": _run_span, "compare": _run_compare, "verify": _run_verify}[args.command]
    if args.jobs == 1 or len(args.files) == 1:
        results = [_run_file(runner, path, args, cfg) for path in args.files]
    else:
        from concurrent.futures import ThreadPoolExecutor  # ~7 ms of start-up, so only here
        with ThreadPoolExecutor(max_workers=args.jobs) as pool:
            futures = [pool.submit(_run_file, runner, path, args, cfg) for path in args.files]
            results = [f.result() for f in futures]

    worst = EXIT_OK
    for code, line, diagnostic in results:
        if line is not None:
            sys.stdout.write(line)
        if diagnostic is not None:
            print(f"hspan {args.command}: {diagnostic}", file=sys.stderr)
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(main())
