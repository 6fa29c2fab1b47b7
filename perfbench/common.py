"""Shared helpers: checkout paths, environment hygiene, statistics, stamps.

Nothing here imports ``repro``: ``run.py`` stays a light
process that only spawns, times and aggregates the child processes that
do import the simulator.
"""

from __future__ import annotations

import hashlib
import math
import os
import pathlib
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import typing

#: The benchmark's own directory and the checkout it lives in.
BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Everything a run writes (scratch caches, traces, digests) lives here,
#: inside the checkout, and is listed in the root ``.gitignore``.
STATE_DIR = ROOT / ".perfbench"

#: The workloads, in the order BENCHMARK.json lists them.
WORKLOADS = ("suite-cold", "figures-parallel", "dse-sweep", "serve-mixed")

#: Simulator switches that would change which code path a run takes.
#: Every ``REPRO_*`` variable is dropped, these nine included, so a
#: caller's shell cannot steer the measured path.
REPRO_SWITCHES = (
    "REPRO_JOBS", "REPRO_CACHE_DIR", "REPRO_NO_BATCH", "REPRO_BATCH_CHECK",
    "REPRO_VECTOR_CHECK", "REPRO_NO_COST_MEMO", "REPRO_MAX_RETRIES",
    "REPRO_CELL_TIMEOUT", "REPRO_DSE_MAX_POINTS",
)


def clean_env(scratch: "pathlib.Path | None" = None) -> "dict[str, str]":
    """The environment every child process runs with.

    Drops every ``REPRO_*`` switch, puts the checkout's ``src`` first on
    ``PYTHONPATH`` and points ``TMPDIR`` and ``XDG_CACHE_HOME`` inside the
    checkout so nothing (multiprocessing included) writes outside it.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    env["OMP_NUM_THREADS"] = "1"
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["MKL_NUM_THREADS"] = "1"
    if scratch is not None:
        scratch.mkdir(parents=True, exist_ok=True)
        env["TMPDIR"] = str(scratch)
        # Where the result cache would go if a call fell back to its
        # default directory.
        env["XDG_CACHE_HOME"] = str(scratch / "xdg-cache")
    return env


def scrub_process_env() -> None:
    """Apply :func:`clean_env`'s switch removal to the current process."""
    for name in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[name]


def fresh_dir(path: pathlib.Path) -> pathlib.Path:
    """An empty directory at ``path`` (removing what was there)."""
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# -- machine speed -----------------------------------------------------------

#: What :func:`calibrate` takes on the reference box (2 vCPUs, CPython
#: 3.11) at its median speed.  Host times are reported scaled by
#: ``CALIBRATION_REF_S / calibrate()`` measured around each timed
#: operation: the shared host's CPU speed drifts by up to 50% over
#: tens of seconds, and this cancels most of that drift (run-to-run
#: spread of suite-cold throughput fell from 0.17 to 0.055 of the median
#: in an A/A test).  The raw wall times are kept in the result files.
CALIBRATION_REF_S = 0.025


def calibrate() -> float:
    """Seconds one fixed pure-Python kernel (dict and integer work, no
    simulator code) takes right now: a probe of the current CPU speed."""
    start = time.perf_counter()
    table: "dict[int, tuple[int, int]]" = {}
    acc = 0
    for i in range(120_000):
        table[i & 1023] = (i, acc)
        acc += len(table) ^ i
    return time.perf_counter() - start


#: What a fresh interpreter importing :data:`IMPORT_PROBE` -- third-party
#: modules the simulator's set-up also loads, never the repository's own
#: code -- takes on the reference box at its median speed.  Each set-up
#: sample is scaled by ``IMPORT_PROBE_REF_S`` over the mean of the probes
#: run just before and just after it: the host's speed at starting
#: interpreters and importing changes from one minute to the next, and
#: the pure-Python :func:`calibrate` kernel does not follow it.
IMPORT_PROBE_REF_S = 0.50
IMPORT_PROBE = "import numpy, scipy.cluster.vq"


def import_probe(env: "dict[str, str]", timeout_s: float) -> float:
    """Seconds a fresh interpreter takes to run :data:`IMPORT_PROBE`.

    The wait blocks in ``waitpid`` (a timer kills a stuck probe): waiting
    with a timeout would poll, and round the time up to the next poll.
    """
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", IMPORT_PROBE], env=env,
                            cwd=ROOT, stdout=subprocess.DEVNULL)
    killer = threading.Timer(timeout_s, proc.kill)
    killer.start()
    try:
        code = proc.wait()
    finally:
        killer.cancel()
    elapsed = time.perf_counter() - start
    if code != 0:
        raise subprocess.CalledProcessError(code, IMPORT_PROBE)
    return elapsed


def speed_scale(cal_s: float) -> float:
    """Factor turning wall seconds measured at ``cal_s`` into seconds at
    the reference speed."""
    return CALIBRATION_REF_S / cal_s


def cpu_ticks() -> "list[int] | None":
    """The machine-wide CPU time counters of ``/proc/stat`` (Linux), or
    ``None`` where there are none."""
    try:
        with open("/proc/stat", encoding="ascii") as stat:
            return [int(v) for v in stat.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def steal_share(before: "list[int] | None", after: "list[int] | None") -> "float | None":
    """Share of CPU time the hypervisor gave other tenants between two
    :func:`cpu_ticks` readings (the eighth counter is ``steal``).  Kept
    in result files to explain noisy runs; no metric is scaled by it."""
    if not before or not after or len(before) < 8 or len(after) < 8:
        return None
    total = sum(after) - sum(before)
    return (after[7] - before[7]) / total if total > 0 else None


# -- statistics -------------------------------------------------------------

def median(values: "typing.Sequence[float]") -> float:
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def quartiles(values: "typing.Sequence[float]") -> "tuple[float, float, float]":
    """(Q1, median, Q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        only = float(values[0])
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def percentile(values: "typing.Sequence[float]", pct: float) -> float:
    """Nearest-rank percentile (``pct`` in 0..100) of a non-empty sample."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return float(ordered[min(rank, len(ordered)) - 1])


#: Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail_percentile(
    values: "typing.Sequence[float]", min_beyond: int = 10
) -> "tuple[float, float, int] | None":
    """The highest percentile with at least ``min_beyond`` samples above it.

    Returns ``(pct, value, count)`` -- the percentile chosen, its value
    and the sample count -- or ``None`` when even the median has fewer
    than ``min_beyond`` samples beyond it.
    """
    count = len(values)
    for pct in TAIL_PERCENTILES:
        beyond = count - max(1, math.ceil(pct / 100.0 * count))
        if beyond >= min_beyond:
            return pct, percentile(values, pct), count
    return None


def spread(values: "typing.Sequence[float]") -> float:
    """Inter-quartile distance as a share of the median (0 if median 0)."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


# -- provenance ---------------------------------------------------------------

def source_digest() -> str:
    """sha256 over every ``src/**/*.py`` file (path and bytes), sorted.

    The checkout a run measures need not be a git repository, so this
    digest identifies the measured code where a commit id cannot.
    """
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str:
    """The checkout's commit id, or ``"unknown"`` outside a git work tree."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


def provenance(workload: str, seed: int, params: "dict[str, object]") -> dict:
    """The stamp every result file carries."""
    return {
        "workload": workload,
        "seed": seed,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "executable": pathlib.Path(sys.executable).name,
        "params": params,
    }
