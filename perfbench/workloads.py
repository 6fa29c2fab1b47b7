"""The workloads, as run inside one fresh child process.

Each function drives the simulator through the entry points the CLI
commands call (``run_suite``, ``run_sweep``, ``EvaluationService``),
with the arguments the default command passes, plus a pinned job count
and a scratch cache directory.  Timed regions cover only the call into
the program; output checks run after the clock stops.
"""

from __future__ import annotations

import asyncio
import json
import os
import pathlib
import resource
import time
import typing

import common
import reference as refmod
from inputs import (
    SERVE_LADDER,
    SERVE_LATENCY_LIMIT_MS,
    SERVE_NOMINAL_RPS,
    SERVE_QUEUE_LIMIT,
    SERVE_WORKERS,
    request_body,
)
from openloop import backlog_growing, open_loop

#: Modules a fresh CLI process imports before each workload's command.
ENTRY_MODULES = {
    "suite-cold": ("repro.experiments.runner",),
    "figures-parallel": ("repro.experiments.runner", "repro.experiments"),
    "dse-sweep": ("repro.dse", "repro.dse.sweep"),
    "serve-mixed": ("repro.serve.service",),
}

#: How many mismatch descriptions a run keeps for its result file.
MAX_PROBLEMS = 20


def own_peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def peak_rss_mb(workers: int, own_kb: "int | None" = None) -> float:
    """This process's peak RSS (or ``own_kb``, read earlier) plus
    ``workers`` times its largest reaped child's (the workers that ran
    at once), in MiB."""
    own = own_peak_rss_kb() if own_kb is None else own_kb
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers * child) / 1024.0


def _suite_cells(suite) -> "dict[str, dict]":
    return {
        refmod.cell_key(key, device.value): result.to_dict()
        for (key, device), result in suite.results.items()
    }


def run_suites(inputs: dict, scratch: pathlib.Path) -> "tuple[dict, typing.Callable]":
    """suite-cold (serial, caches off) or figures-parallel (``jobs``
    workers, a fresh cache directory): one ``run_suite`` per config.

    Returns the timings and a ``check(ref)`` closure that compares the
    outputs with the reference once the measurement is over.
    """
    from repro.experiments import runner

    jobs = inputs.get("jobs", 1)
    ops, suites = [], []
    for config in inputs["configs"]:
        overrides = dict(tuple(kv) for kv in config["overrides"])
        kwargs = dict(
            num_ranks=config["num_ranks"], paper_scale=True,
            enforce_capacity=config["enforce_capacity"],
            geometry_overrides=overrides or None, jobs=jobs, strict=False,
        )
        if jobs > 1:
            kwargs["cache_dir"] = str(scratch / f"cache-{len(ops)}")
        else:
            kwargs["use_cache"] = False
        cal0 = common.calibrate()
        start = time.perf_counter()
        suite = runner.run_suite(**kwargs)
        wall = time.perf_counter() - start
        cal = (cal0 + common.calibrate()) / 2
        ops.append({"wall_s": wall, "cal_s": cal, "cells": len(suite.results),
                    "commands": sum(sum(r.op_counts.values())
                                    for r in suite.results.values())})
        suites.append((config, suite))

    def check(ref) -> dict:
        outputs, problems = {}, []
        attempted = failed = 0
        for config, suite in suites:
            cells = _suite_cells(suite)
            key = refmod.suite_config_key(config["num_ranks"], config["overrides"])
            bad, found = ref.check_suite(key, cells)
            attempted += max(len(cells) + len(suite.failures), 1)
            failed += bad + len(suite.failures)
            problems += found[:MAX_PROBLEMS]
            outputs[key] = cells
        return {"attempted": attempted, "failed": failed,
                "problems": problems[:MAX_PROBLEMS],
                "digest": refmod.digest(outputs)}

    return {"ops": ops, "workers": jobs if jobs > 1 else 0}, check


def pareto_oracle(metrics: "dict[str, tuple[float, float, float]]") -> "set[str]":
    """Non-dominated keys (all objectives minimised), by pairwise scan."""
    front = set()
    items = list(metrics.items())
    for key, a in items:
        if not any(
            all(x <= y for x, y in zip(b, a)) and any(x < y for x, y in zip(b, a))
            for other, b in items if other != key
        ):
            front.add(key)
    return front


def check_sweep(spec_dict: dict, result, ref) -> "tuple[int, int, list[str], dict]":
    """(cells attempted, cells failed, problems, outputs) of one sweep."""
    base = spec_dict["base"]
    axes = list(spec_dict["axes"].values())
    expected = [
        (refmod.dse_point_key(base, b, s, c), (b, s, c))
        for b in axes[0] for s in axes[1] for c in axes[2]
    ]
    benchmarks = spec_dict["benchmarks"]
    attempted = len(expected) * len(benchmarks)
    if len(result.outcomes) != len(expected):
        return attempted, attempted, [
            f"{base}: {len(result.outcomes)} points, expected {len(expected)}"
        ], {}
    problems: "list[str]" = []
    failed = 0
    outputs: "dict[str, dict]" = {}
    metrics: "dict[str, tuple[float, float, float]]" = {}
    for outcome, (key, values) in zip(result.outcomes, expected):
        knob_values = sorted(float(v) for _, v in outcome.point.knobs)
        if knob_values != sorted(float(v) for v in values):
            failed += len(benchmarks)
            problems.append(f"{key}: point knobs {outcome.point.knobs}")
            continue
        if outcome.metrics is None:
            failed += len(benchmarks)
            problems.append(f"{key}: failed {outcome.errors}")
            continue
        m = outcome.metrics
        metrics[outcome.point.point_id] = (m.latency_ns, m.energy_nj, m.area_proxy)
        actual = {
            "metrics": [m.latency_ns, m.energy_nj, m.area_proxy],
            "bench": {
                b: [row["latency_ns"], row["energy_nj"], int(row["commands"])]
                for b, row in outcome.per_benchmark.items()
            },
        }
        outputs[key] = actual
        expected_point = ref.dse_point(key)
        found = (
            [f"{key}: not in the reference"] if expected_point is None
            else refmod.compare(expected_point, actual, key)
        )
        if found:
            failed += len(benchmarks)
            problems += found
    front = pareto_oracle(metrics)
    if front != set(result.frontier_ids):
        problems.append(
            f"{base}: frontier differs from the pairwise oracle "
            f"({len(result.frontier_ids)} vs {len(front)} points)"
        )
        failed += len(benchmarks)
    outputs[f"{base}/frontier"] = sorted(result.frontier_ids)
    return attempted, failed, problems, outputs


def run_dse(inputs: dict, scratch: pathlib.Path) -> "tuple[dict, typing.Callable]":
    """dse-sweep: ``run_sweep`` at its defaults, one fresh cache directory
    per repeat shared by its sweeps (as successive ``repro dse run``
    commands share the default cache)."""
    from repro.dse import SweepSpec
    from repro.dse import sweep as sweepmod

    ops, sweeps = [], []
    for spec_dict in inputs["specs"]:
        spec = SweepSpec.from_dict(spec_dict)
        # Earlier sweeps' cache writes are flushed first, so their
        # write-back does not land inside this sweep's timing.
        os.sync()
        cal0 = common.calibrate()
        start = time.perf_counter()
        result = sweepmod.run_sweep(spec, jobs=1, cache_dir=str(scratch / "cache"))
        wall = time.perf_counter() - start
        cal = (cal0 + common.calibrate()) / 2
        ops.append({"wall_s": wall, "cal_s": cal,
                    "cells": len(result.outcomes) * len(spec.benchmarks),
                    "points": len(result.outcomes),
                    "commands": result.total_commands()})
        sweeps.append((spec_dict, result))

    def check(ref) -> dict:
        outputs, problems = {}, []
        attempted = failed = 0
        for spec_dict, result in sweeps:
            a, f, found, out = check_sweep(spec_dict, result, ref)
            attempted += a
            failed += f
            problems += found[:MAX_PROBLEMS]
            outputs.update(out)
        return {"attempted": attempted, "failed": failed,
                "problems": problems[:MAX_PROBLEMS],
                "digest": refmod.digest(outputs)}

    return {"ops": ops, "workers": 0}, check


# -- serve-mixed ---------------------------------------------------------------

def make_service(scratch: pathlib.Path):
    """The service ``repro serve --cache-dir --queue-limit`` builds (CLI
    defaults otherwise)."""
    from repro.obs.metrics import MetricsRegistry
    from repro.serve.service import EvaluationService, ServiceConfig

    config = ServiceConfig(workers=SERVE_WORKERS, queue_limit=SERVE_QUEUE_LIMIT,
                           cache_dir=str(scratch / "cache"))
    return EvaluationService(config, registry=MetricsRegistry())


def check_response(status: int, payload: dict, body: bytes, ref) -> "list[str]":
    request = json.loads(body)
    if status != 200 or payload.get("status") != "ok":
        return [f"{body.decode()}: HTTP {status} {payload.get('code')}"]
    problems = []
    for field, want in (("benchmark", request["benchmark"]),
                        ("device", request["device"]),
                        ("num_ranks", request["ranks"]),
                        ("paper_scale", True), ("vector", False)):
        if payload.get(field) != want:
            problems.append(f"{body.decode()}: {field}={payload.get(field)!r}")
    key = refmod.suite_config_key(request["ranks"], ())
    cell = refmod.cell_key(request["benchmark"], request["device"])
    return problems + ref.check_cell(key, cell, payload.get("result"))


def _probe() -> float:
    """Median of three speed probes: one probe is easily hit by a burst
    of contention on a loaded host."""
    return common.median([common.calibrate() for _ in range(3)])


async def serve_traffic(service, inputs: dict, ref) -> dict:
    """Pre-load the warm set, then drive the whole ladder as one
    open-loop schedule, due times counted from the start of traffic.

    The CPU speed is probed just before and just after the traffic,
    never during it, so nothing pauses the schedule.
    """
    warm = [request_body(*cell) for cell in inputs["warm"]]
    await asyncio.gather(*(service.evaluate(body) for body in warm))
    schedule = inputs["schedule"]
    first: "dict[bytes, tuple[int, dict]]" = {}

    async def send(index: int) -> "tuple[int, dict]":
        body = schedule[index].body
        answer = await service.evaluate(body)
        # Keep one copy of each distinct answer, so tens of thousands
        # of identical warm hits do not inflate the process's peak RSS.
        kept = first.setdefault(body, answer)
        return kept if kept == answer else answer

    # The process's peak RSS is read when the nominal rungs end: the
    # backlog the overloaded top rungs build (tasks held in this process)
    # scales with the host's speed.  Workers only execute novel cells,
    # all on the nominal rungs, so their peak is not affected.
    nominal_s = _nominal_end(inputs["rungs"])
    nominal_rss: "list[int]" = []
    cals = [_probe()]
    start = time.perf_counter()
    timer = asyncio.get_running_loop().call_later(
        nominal_s, lambda: nominal_rss.append(own_peak_rss_kb()))
    loop_result = await open_loop([request.due_s for request in schedule], send)
    window_s = time.perf_counter() - start
    timer.cancel()
    cals.append(_probe())
    result = summarize_serve(schedule, inputs["rungs"], loop_result, cals, ref, window_s)
    result["nominal_rss_kb"] = nominal_rss[0] if nominal_rss else own_peak_rss_kb()
    return result


def slo_rate(
    rungs: "typing.Sequence[tuple[list[float], list[int]]]", limit_s: float
) -> float:
    """The highest ladder rate up to which every rung meets the SLO: its
    tail latency within ``limit_s`` and no growing backlog.

    ``rungs`` holds each rung's (latencies, backlog samples), in ladder
    order; 0 when the first rung already fails.
    """
    best = 0.0
    for rate, (latencies, backlog) in zip(SERVE_LADDER, rungs):
        tail = common.tail_percentile(latencies)
        value = tail[1] if tail else (max(latencies) if latencies else float("inf"))
        if value > limit_s or backlog_growing(backlog):
            break
        best = rate
    return best


def _nominal_end(rungs: "list[tuple[float, float]]") -> float:
    """Seconds from traffic start to the end of the last nominal rung."""
    start, length = [r for rate, r in zip(SERVE_LADDER, rungs)
                     if rate <= SERVE_NOMINAL_RPS][-1]
    return start + length


def summarize_serve(schedule, rungs_s: "list[tuple[float, float]]", loop_result, cals, ref,
                    window_s: float) -> dict:
    """Latency, goodput, capacity, SLO ladder and output checks of one
    traffic run.

    Latencies are wall time from each request's due time, unscaled: at
    the nominal rates a warm hit is short and partly spent waiting for
    the event loop to wake, which a CPU-speed probe does not predict.
    Nominal goodput counts the nominal rungs' correct responses within
    the latency limit per second of those rungs; with the offered load
    fixed, it falls only when requests fail or miss the limit.
    Capacity is the top rung's completions per second: the rung
    overloads the service, so its requests finish at the rate the
    service sustains (or at the offered rate, once the service outgrows
    the ladder).
    """
    limit_s = SERVE_LATENCY_LIMIT_MS / 1e3
    top = len(SERVE_LADDER) - 1
    nominal, lags, problems = [], [], []
    answers: "set[tuple[str, int, str]]" = set()
    checked: "dict[tuple[bytes, str], list[str]]" = {}
    ok_within = failed = top_commands = nominal_ok = nominal_commands = 0
    top_done: "list[float]" = []
    rungs: "list[tuple[list[float], list[int]]]" = [([], []) for _ in SERVE_LADDER]
    start = None
    for sent, depth in zip(loop_result.sent, loop_result.backlog):
        request = schedule[sent.index]
        if start is None:
            start = sent.due - request.due_s
        rungs[request.rung][0].append(sent.latency_s)
        rungs[request.rung][1].append(depth)
        if SERVE_LADDER[request.rung] <= SERVE_NOMINAL_RPS:
            nominal.append(sent.latency_s)
            lags.append(sent.lag_s)
        if sent.error is not None:
            failed += 1
            problems.append(f"{request.body.decode()}: {sent.error!r}")
            continue
        status, payload = sent.result
        text = json.dumps(payload, sort_keys=True)
        answers.add((request.body.decode(), status, text))
        # Warm hits repeat the same few answers: each distinct one is
        # compared with the reference once.
        found = checked.get((request.body, text))
        if found is None:
            found = checked[(request.body, text)] = check_response(
                status, payload, request.body, ref)
        if found:
            failed += 1
            problems += found
            continue
        commands = sum(payload["result"]["op_counts"].values())
        if sent.latency_s <= limit_s:
            ok_within += 1
            if SERVE_LADDER[request.rung] <= SERVE_NOMINAL_RPS:
                nominal_ok += 1
                nominal_commands += commands
        if request.rung == top:
            top_done.append(sent.done)
            top_commands += commands
    traffic_s = max(r.due_s for r in schedule)
    nominal_s = _nominal_end(rungs_s)
    # Top rung: from its first due time to its last completion.
    busy_s = max(top_done) - (start + rungs_s[top][0]) if top_done else float("inf")
    tail = common.tail_percentile(nominal) or (50.0, common.median(nominal), len(nominal))
    lag_tail = common.tail_percentile(lags) or (50.0, common.median(lags), len(lags))
    return {
        "attempted": len(schedule), "failed": failed,
        "problems": problems[:MAX_PROBLEMS],
        "nominal_latency_s": nominal,
        "cals_s": cals,
        "latency_tail": tail,
        "lag_tail": lag_tail,
        "nominal_goodput_rps": nominal_ok / nominal_s,
        "nominal_goodput_commands_per_s": nominal_commands / nominal_s,
        "capacity_rps": len(top_done) / busy_s,
        "goodput_rps": ok_within / traffic_s,
        "slo_rate_rps": slo_rate(rungs, limit_s),
        "backlog_max": max(loop_result.backlog, default=0),
        "window_s": window_s,
        "digest": refmod.digest(sorted(answers)),
    }
