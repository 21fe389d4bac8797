"""Processes, set-up, the timed closed loop and the end-to-end metrics.

One client drives `hspan` as its users do: it starts one process, waits for
it to exit, and only then starts the next. Each process's wall time runs from
spawn to exit; its CPU time and max-RSS come from wait4 on that child alone.
"""

from __future__ import annotations

import hashlib
import os
import re
import statistics
import sys
import time
from dataclasses import dataclass, field

import numpy as np

import checks
import workloads

TAIL_BEYOND = 10  # samples beyond the reported tail percentile
_WALL_TIME = re.compile(rb'"wall_time_ms": [-+.0-9eE]+')


@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    maxrss_kb: int
    exit_code: int


def child_env(src: str, blas_threads: str) -> dict:
    """The environment of every process the benchmark starts."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    env.pop("HSPAN_SEED", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        if blas_threads == "default":
            env.pop(var, None)
        else:
            env[var] = blas_threads
    return env


def spawn(args: list[str], env: dict, out_path: str, err_path: str) -> Sample:
    """Run `python <args>` to completion, stdout and stderr to files."""
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, out_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, err_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    started = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *args], env, file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - started
    return Sample(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss,
                  os.waitstatus_to_exitcode(status))


def hspan_args(op: workloads.Op, paths: dict[int, str], jobs: str | None = None) -> list[str]:
    """The `hspan` command line of one operation; `jobs` overrides --jobs."""
    flags = list(op.flags)
    if jobs is not None:
        if "--jobs" in flags:
            flags[flags.index("--jobs") + 1] = jobs
        else:
            flags += ["--jobs", jobs]
    return [op.command, *flags, *(paths[i] for i in op.files)]


@dataclass
class Judge:
    """Checks every output apart from the program and tallies the files.

    Outputs are deterministic except for `wall_time_ms`, so an output seen
    before, with that field stripped, gets the verdict it got then.
    """

    workload: workloads.Workload
    paths: dict[int, str]
    seed: int
    counted: bool = True  # probe operations make `correct` false but are not counted
    attempted: int = 0
    failed: int = 0
    unexpected: list[str] = field(default_factory=list)
    _refs: dict = field(default_factory=dict)
    _verdicts: dict = field(default_factory=dict)

    def ref(self, i: int) -> checks.Reference:
        if i not in self._refs:
            rng = np.random.default_rng([self.seed, workloads.file_seed(self.seed, self.workload.name, i)])
            self._refs[i] = checks.reference(self.paths[i], self.workload.specs[i].expected_rank, rng)
        return self._refs[i]

    def record(self, op: workloads.Op, stdout: bytes, exit_code: int) -> tuple:
        """Keep one process's output until it is judged; returns its key."""
        key = (op, exit_code, hashlib.sha256(_WALL_TIME.sub(b"", stdout)).digest())
        if key not in self._verdicts:
            self._verdicts[key] = stdout
        return key

    def tally(self, key: tuple) -> int:
        """Judge a recorded output and count its files; returns how many failed."""
        op, exit_code, _ = key
        verdict = self._verdicts[key]
        if isinstance(verdict, bytes):
            verdict = self._verdicts[key] = checks.check_output(
                op.command, verdict.decode("utf-8", "replace"), exit_code,
                [self.ref(i) for i in op.files])
        failed = 0
        for i, problems in zip(op.files, verdict):
            self.attempted += self.counted
            if problems:
                failed += 1
                self.failed += self.counted
                spec = self.workload.specs[i]
                if not spec.known_fault:
                    self.unexpected.append(f"{self.workload.name} {op.command} {spec.label}: "
                                           + "; ".join(problems))
        return failed

    def judge(self, op: workloads.Op, stdout: bytes, exit_code: int) -> int:
        return self.tally(self.record(op, stdout, exit_code))


def set_up(hspan_instances, workload, seed: int, directory: str):
    """Write the workload's files once; returns their paths and the time taken."""
    started = time.perf_counter()
    paths = workloads.write_files(hspan_instances, workload, seed, directory)
    return paths, time.perf_counter() - started


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least TAIL_BEYOND samples beyond it:
    (its level in percent, its value). Below TAIL_BEYOND + 1 samples there is
    no such percentile and the maximum is returned with level 100."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return 100.0, ordered[-1]
    return 100.0 * (n - TAIL_BEYOND) / n, ordered[n - TAIL_BEYOND - 1]


def timed_run(workload, paths, seconds: float, env: dict, scratch: str, judge: Judge, set_up):
    """Whole rounds of the workload's operations until `seconds` have passed.

    Between rounds it calls `set_up()` again, which rewrites the same files,
    at up to `setup_repeats - 1` points spread evenly over the run. So the
    set-up times sample the same spells of host speed as the rounds do.
    Returns one list of (op, sample) per round, the wall time of each round
    and the times of those set-ups.
    """
    out_path, err_path = os.path.join(scratch, "stdout"), os.path.join(scratch, "stderr")
    rounds: list[list[tuple[workloads.Op, Sample]]] = []
    round_walls: list[float] = []
    setup_times: list[float] = []
    keys = []
    started = time.perf_counter()
    while not rounds or time.perf_counter() - started < seconds:
        due = (len(setup_times) + 1) * seconds / workload.setup_repeats
        if (rounds and len(setup_times) < workload.setup_repeats - 1
                and time.perf_counter() - started >= due):
            setup_times.append(set_up()[1])
        round_started = time.perf_counter()
        rounds.append([])
        for op in workload.ops:
            sample = spawn(["-m", "hspan", *hspan_args(op, paths)], env, out_path, err_path)
            with open(out_path, "rb") as fh:
                keys.append(judge.record(op, fh.read(), sample.exit_code))
            rounds[-1].append((op, sample))
        round_walls.append(time.perf_counter() - round_started)
    for key in keys:
        judge.tally(key)
    return rounds, round_walls, setup_times


def end_to_end(workload, rounds, round_walls: list[float], setup_times: list[float]):
    """Throughput and CPU per file are medians over rounds, which keeps a
    few seconds of a slower host from moving the whole run."""
    files = workload.files_per_round
    walls_ms = [s.wall_s * 1e3 for r in rounds for _, s in r]
    level, tail_ms = tail(walls_ms)
    return {
        "files_per_s": (statistics.median(files / w for w in round_walls), "1/s"),
        "cmd_p50_ms": (statistics.median(walls_ms), "ms"),
        "cmd_tail_ms": (tail_ms, "ms"),
        "cpu_per_file_ms": (statistics.median(sum(s.cpu_s for _, s in r) * 1e3 / files
                                              for r in rounds), "ms"),
        "peak_rss_mb": (max(s.maxrss_kb for r in rounds for _, s in r) / 1024.0, "MB"),
        "setup_s": (statistics.median(setup_times), "s"),
    }, {"rounds": len(rounds), "files": files * len(rounds),
        "tail_level_pct": level, "tail_samples": len(walls_ms),
        "round_walls_s": round_walls, "setup_times_s": setup_times}
