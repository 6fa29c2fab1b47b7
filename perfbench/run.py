"""The repository's benchmark of record: host time of the simulator's commands.

Usage (from the checkout root)::

    python3 perfbench/run.py --workload suite-cold --seed 1 --seconds 20 --trace 0

Workloads (see ``perfbench/BENCHMARK.md`` for why each exists):

* ``suite-cold``       -- ``run_suite`` at its defaults, caches off, serial,
  plus a seed-chosen extra rank count and geometry override;
* ``figures-parallel`` -- the Figure 12 rank sweep, cold, at ``jobs=2``;
* ``dse-sweep``        -- ``run_sweep`` at its defaults over bank, fulcrum
  and bit-serial specs with seed-sampled cost knobs;
* ``serve-mixed``      -- an open-loop request ladder against an in-process
  ``EvaluationService``.

Every run first takes ``SETUP_SAMPLES`` set-up samples: fresh child
processes (``child.py``) timed from interpreter start to ``READY``, each
scaled by import-speed probes run around it.  Every timed repeat then
runs in a process forked from one more fresh child (serve-mixed: in
that child), so it starts from the state a fresh CLI process has after
import.  With ``--trace 0`` the last stdout line carries the end-to-end
metrics; with ``--trace 1`` an untraced pass is followed by one traced
pass and the line carries the per-layer metrics.  Outputs are checked
against ``reference/universe.json.gz``; details, digests and the
provenance stamp go to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import pathlib
import shutil
import signal
import subprocess
import sys
import threading
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import common  # noqa: E402
import inputs  # noqa: E402

#: Set-up samples per run; ``setup_s`` is the median of their scaled
#: values.
SETUP_SAMPLES = 6
#: Batch workloads: timed repeats forked from one fresh process until
#: the budget is spent, at least ``MIN_REPEATS``.
MIN_REPEATS = 2
#: Children still running this long after the run started are killed.
RUN_TIMEOUT_S = 165.0

END_TO_END = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "cells_per_s": "1/s",
    "sim_commands_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}


def per_layer_units() -> "dict[str, str]":
    """Every per-layer metric the traced run reports, with its unit."""
    import layers

    units: "dict[str, str]" = {}
    for name in layers.LAYERS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.total_s"] = "s"
        units[f"{name}.self_s"] = "s"
    for key in layers.BENCH_KEYS:
        units[f"bench.{key}.total_s"] = "s"
    units.update({
        "engine.spawns": "count",
        "engine.retries": "count",
        "engine.attempts": "count",
        "engine.useful_ratio": "ratio",
        "engine.worker_busy_s": "s",
        "engine.worker_capacity_s": "s",
        "engine.worker_utilisation": "ratio",
        "cache.put.bytes": "B",
        "cache.hit_ratio": "ratio",
        "memo.lookups": "count",
        "memo.hit_ratio": "ratio",
        "plans.hit_ratio": "ratio",
        "dse.cells": "count",
        "dse.batched_share": "ratio",
        "dse.shapes_priced": "count",
        "dse.points_per_s": "1/s",
        "serve.requests": "count",
        "serve.executed": "count",
        "serve.shed": "count",
        "serve.coalesce_ratio": "ratio",
        "serve.latency_tail_ms": "ms",
        "serve.latency_tail_pct": "%",
        "serve.goodput_rps": "1/s",
        "serve.capacity_rps": "1/s",
        "serve.slo_rate_rps": "1/s",
        "serve.generator_lag_ms.tail": "ms",
        "serve.backlog_max": "requests",
        "host.calibration_ms": "ms",
        "trace.overhead_ratio": "ratio",
        "trace.unattributed_s": "s",
        "trace.spans": "count",
        "error_rate": "ratio",
    })
    return units


class ChildError(RuntimeError):
    pass


_children = itertools.count()
#: Every child is killed at this point (the run must end within 180 s).
_run_deadline = time.perf_counter() + RUN_TIMEOUT_S


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def _wait_group_gone(pgid: int, timeout_s: float = 10.0) -> None:
    """Wait until no process of the group is left (stragglers were killed)."""
    end = time.perf_counter() + timeout_s
    while time.perf_counter() < end:
        try:
            os.killpg(pgid, 0)
        except (ProcessLookupError, PermissionError):
            return
        time.sleep(0.02)


def spawn(
    job: dict, env: "dict[str, str]", log: pathlib.Path
) -> "tuple[float, list[dict]]":
    """Run one child; returns (seconds from start to ``READY``, results).

    Each child gets its own empty scratch directory (so every repeat
    starts with cold caches), removed once the child has exited.
    """
    log.parent.mkdir(parents=True, exist_ok=True)
    scratch = common.fresh_dir(pathlib.Path(job["scratch"]) / f"child-{next(_children)}")
    job = dict(job, scratch=str(scratch))
    with open(log, "a", encoding="utf-8") as err:
        start = time.perf_counter()
        # Its own process group, so forked repeats and worker processes
        # can be stopped with it.
        proc = subprocess.Popen(
            [sys.executable, str(common.BENCH_DIR / "child.py"), json.dumps(job)],
            stdout=subprocess.PIPE, stderr=err, env=env, cwd=common.ROOT,
            text=True, start_new_session=True,
        )
        killer = threading.Timer(_time_left(), _kill_group, (proc.pid,))
        killer.start()
        ready = None
        results = []
        try:
            assert proc.stdout is not None
            for line in proc.stdout:
                line = line.rstrip("\n")
                if line == "READY" and ready is None:
                    ready = time.perf_counter() - start
                elif line.startswith("RESULT "):
                    results.append(json.loads(line[len("RESULT "):]))
            code = proc.wait()
        finally:
            killer.cancel()
            _kill_group(proc.pid)
            proc.wait()
            _wait_group_gone(proc.pid)
            shutil.rmtree(scratch, ignore_errors=True)
    if code != 0 or ready is None or not results:
        raise ChildError(
            f"{job['workload']} child exited {code} "
            f"({'no READY' if ready is None else 'no RESULT'}); see {log}"
        )
    return ready, results


def _time_left() -> float:
    return max(1.0, _run_deadline - time.perf_counter())


def setup_samples(job: dict, env, log) -> dict:
    """``SETUP_SAMPLES`` set-up-only children, each scaled to the
    reference import speed by the mean of the import probes run just
    before and just after it."""
    probes = [common.import_probe(env, _time_left())]
    raw = []
    for _ in range(SETUP_SAMPLES):
        raw.append(spawn(dict(job, mode="setup"), env, log)[0])
        probes.append(common.import_probe(env, _time_left()))
    scaled = [
        wall * common.IMPORT_PROBE_REF_S / ((before + after) / 2)
        for wall, before, after in zip(raw, probes, probes[1:])
    ]
    return {"scaled": scaled, "raw": raw, "probes": probes}


def batch_run(args, job: dict, env, log) -> dict:
    """Set-up samples, then one fresh process forking timed repeats for
    the rest of the budget; with tracing, half of what is left is spent
    untraced and one traced repeat follows."""
    started = time.perf_counter()
    setups = setup_samples(job, env, log)
    # Less the set-up the measuring process is about to pay, so the run
    # as a whole lasts about ``--seconds``.
    budget = args.seconds - (time.perf_counter() - started) - common.median(setups["raw"])
    if args.trace:
        budget /= 2
    _, results = spawn(dict(
        job, budget_s=budget, min_repeats=MIN_REPEATS, trace=bool(args.trace),
        trace_path=str(trace_path(args)),
    ), env, log)
    traced = results.pop() if args.trace else None
    return {"setups": setups, "repeats": results, "traced": traced}


def serve_run(args, job: dict, env, log) -> dict:
    setups = setup_samples(job, env, log)
    share = inputs.SERVE_TRAFFIC_SHARE * (0.5 if args.trace else 1.0)
    main_job = dict(job, mode="main", traffic_s=share * args.seconds)
    _, (main,) = spawn(main_job, env, log)
    traced = None
    if args.trace:
        _, (traced,) = spawn(
            dict(main_job, trace=True, trace_path=str(trace_path(args))), env, log
        )
    return {"setups": setups, "repeats": [main], "traced": traced}


def trace_path(args) -> pathlib.Path:
    return common.STATE_DIR / "traces" / f"{args.workload}-seed{args.seed}.json"


def workload_inputs(workload: str, seed: int) -> dict:
    if workload == "suite-cold":
        return inputs.suite_inputs(seed)
    if workload == "figures-parallel":
        return inputs.figures_inputs(seed)
    if workload == "dse-sweep":
        return inputs.dse_inputs(seed)
    return {}


def _scaled(op: dict) -> float:
    """An op's wall seconds at the reference CPU speed."""
    return op["wall_s"] * common.speed_scale(op["cal_s"])


def _rate(results: "list[dict]", field: str) -> float:
    """``field`` per reference-speed second over every op of the run."""
    ops = [op for r in results for op in r["ops"]]
    return sum(op[field] for op in ops) / sum(_scaled(op) for op in ops)


def end_to_end(workload: str, run: dict, attempted: int, failed: int) -> "dict[str, float]":
    """The gated metrics; every host time is at the reference CPU speed."""
    results = run["repeats"]
    metrics = {
        "setup_s": common.median(run["setups"]["scaled"]),
        "peak_rss_mb": common.median([r["rss_mb"] for r in results]),
        "ok_ratio": 1.0 - failed / attempted,
    }
    if workload == "serve-mixed":
        main = results[0]
        metrics["latency_p50_ms"] = 1e3 * common.median(main["nominal_latency_s"])
        metrics["cells_per_s"] = main["nominal_goodput_rps"]
        metrics["sim_commands_per_s"] = main["nominal_goodput_commands_per_s"]
    else:
        # The mean call time over the run: a repeat's calls differ in
        # size (rank counts, bases) and a run holds only 2 to 10 repeats,
        # so a median over calls, or over repeats, jumps between them.
        ops = [op for r in results for op in r["ops"]]
        metrics["latency_p50_ms"] = 1e3 * sum(_scaled(op) for op in ops) / len(ops)
        metrics["cells_per_s"] = _rate(results, "cells")
        metrics["sim_commands_per_s"] = _rate(results, "commands")
    return metrics


def per_layer(workload: str, run: dict, e2e: "dict[str, float]") -> "dict[str, float]":
    units = per_layer_units()
    traced = run["traced"]
    metrics = {name: 0.0 for name in units}
    metrics.update(traced["trace"])
    untraced = run["repeats"]
    if workload == "serve-mixed":
        main = untraced[0]
        pct, value, _count = main["latency_tail"]
        metrics["serve.latency_tail_ms"] = 1e3 * value
        metrics["serve.latency_tail_pct"] = pct
        metrics["serve.goodput_rps"] = main["goodput_rps"]
        metrics["serve.capacity_rps"] = main["capacity_rps"]
        metrics["serve.slo_rate_rps"] = main["slo_rate_rps"]
        metrics["serve.generator_lag_ms.tail"] = 1e3 * main["lag_tail"][1]
        metrics["serve.backlog_max"] = main["backlog_max"]
        metrics["trace.overhead_ratio"] = (
            common.median(traced["nominal_latency_s"])
            / common.median(main["nominal_latency_s"]) - 1.0
        )
        metrics["host.calibration_ms"] = 1e3 * common.median(main["cals_s"])
    else:
        base = common.median([sum(_scaled(op) for op in r["ops"]) for r in untraced])
        metrics["trace.overhead_ratio"] = (
            sum(_scaled(op) for op in traced["ops"]) / base - 1.0
        )
        metrics["host.calibration_ms"] = 1e3 * common.median(
            [op["cal_s"] for r in untraced for op in r["ops"]]
        )
        if workload == "dse-sweep":
            metrics["dse.points_per_s"] = _rate(untraced, "points")
    metrics["error_rate"] = 1.0 - e2e["ok_ratio"]
    unknown = sorted(set(metrics) - set(units))
    if unknown:
        raise RuntimeError(f"unexpected per-layer metrics {unknown}")
    return {name: metrics[name] for name in units}


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=common.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (common.SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources under {common.SRC}",
              file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    scratch = common.fresh_dir(common.STATE_DIR / "scratch" / tag)
    log = common.STATE_DIR / "logs" / f"{tag}.log"
    log.unlink(missing_ok=True)
    env = common.clean_env(scratch / "tmp")
    params = workload_inputs(args.workload, args.seed)
    job = {"workload": args.workload, "seed": args.seed, "inputs": params,
           "scratch": str(scratch / "run"), "mode": "repeat"}

    runner = serve_run if args.workload == "serve-mixed" else batch_run
    ticks = common.cpu_ticks()
    try:
        run = runner(args, job, env, log)
    except ChildError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    results = run["repeats"]
    checked = results + ([run["traced"]] if run["traced"] else [])
    attempted = sum(r["attempted"] for r in checked)
    failed = sum(r["failed"] for r in checked)
    digests = sorted({r["digest"] for r in checked})
    if len(digests) > 1:
        # Same inputs must give the same outputs on every repeat, traced
        # or not.
        failed += 1
        attempted += 1
    e2e = end_to_end(args.workload, run, attempted, failed)
    problems = [p for r in checked for p in r["problems"]][:50]
    if args.trace:
        metrics = per_layer(args.workload, run, e2e)
        units = per_layer_units()
    else:
        metrics, units = e2e, END_TO_END
    if args.workload == "serve-mixed":
        params = results[0]["params"]
    record = {
        "provenance": common.provenance(args.workload, args.seed, params),
        "seconds": args.seconds,
        "trace": args.trace,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted if attempted else 0.0,
        "output_digests": digests,
        "problems": problems,
        "end_to_end": e2e,
        "metrics": metrics,
        "repeats": len(results),
        "setup_samples": run["setups"],
        "op_walls": [[op["wall_s"] for op in r.get("ops", [])] for r in results],
        "op_cals": [[op.get("cal_s") for op in r.get("ops", [])] for r in results],
        "serve": [
            {k: r[k] for k in ("cals_s", "latency_tail", "lag_tail", "capacity_rps",
                               "nominal_goodput_rps", "goodput_rps", "slo_rate_rps",
                               "backlog_max", "window_s", "nominal_latency_s")}
            for r in results if "nominal_latency_s" in r
        ],
        "host_steal_share": common.steal_share(ticks, common.cpu_ticks()),
        "trace_file": str(trace_path(args)) if args.trace else None,
    }
    out = common.STATE_DIR / "results" / f"{tag}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1, default=str), encoding="utf-8")
    print(f"perfbench {args.workload} seed={args.seed} repeats={len(results)} "
          f"attempted={attempted} failed={failed} "
          f"error_rate={record['error_rate']:.6g} digest={digests[0][:16]} "
          f"results={out.relative_to(common.ROOT)}")
    for problem in problems[:5]:
        print(f"  mismatch: {problem}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
