"""Fresh simulator processes: import, set up, run repeats, report.

Started by ``run.py`` as ``python3 perfbench/child.py '<job json>'``.
It prints ``READY`` once the workload's modules are imported and the
program is set up, and then one ``RESULT <json>`` line per repeat.  In
``mode`` ``setup`` it stops there (serve-mixed drains its service
first): ``run.py`` times interpreter start to ``READY`` as one
``setup_s`` sample.

Batch workloads fork one copy of this process per timed repeat, so
every repeat starts from exactly the state a fresh CLI process has
after import, without paying the import again.  serve-mixed runs its
service in this process.
"""

from __future__ import annotations

import asyncio
import importlib
import json
import os
import pathlib
import shutil
import sys
import time
import traceback

import common


def _emit(tag: str, payload: "object | None" = None) -> None:
    line = tag if payload is None else f"{tag} {json.dumps(payload)}"
    print(line, flush=True)


def _trace_summary(recorder, registry_values: dict, trace_path: str) -> dict:
    import layers

    metrics = layers.summarize(recorder, registry_values)
    recorder.write_chrome_trace(pathlib.Path(trace_path))
    return metrics


def batch_repeat(job: dict, scratch: pathlib.Path, trace: bool) -> dict:
    """One timed repeat (run in a forked copy of the zygote)."""
    import reference
    import workloads

    recorder = None
    if trace:
        import layers

        recorder = layers.Recorder()
        recorder.install()
    run = workloads.run_dse if job["workload"] == "dse-sweep" else workloads.run_suites
    start = time.perf_counter()
    result, check = run(job["inputs"], scratch)
    end = time.perf_counter()
    # Memory is read before the reference is loaded for the check.
    result["rss_mb"] = workloads.peak_rss_mb(result.pop("workers"))
    if recorder is not None:
        recorder.uninstall()
        recorder.window = (start, end)
        result["trace"] = _trace_summary(recorder, {}, job["trace_path"])
    result.update(check(reference.Reference.load()))
    return result


def _forked(job: dict, scratch: pathlib.Path, trace: bool) -> dict:
    """Run :func:`batch_repeat` in a forked child; its result comes back
    through a pipe."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # the repeat
        os.close(read_fd)
        code = 1
        try:
            data = json.dumps(batch_repeat(job, scratch, trace)).encode()
            with os.fdopen(write_fd, "wb") as out:
                out.write(data)
            code = 0
        except BaseException:  # noqa: BLE001 - reported through the exit code
            traceback.print_exc()
        finally:
            sys.stderr.flush()
            os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as pipe:
        data = pipe.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not data:
        raise RuntimeError(f"repeat process failed (wait status {status})")
    return json.loads(data)


def zygote(job: dict) -> None:
    """Fork repeats until this process's share of the budget is spent."""
    _emit("READY")
    base = pathlib.Path(job["scratch"])
    start = time.perf_counter()
    done = 0
    while True:
        scratch = base / f"repeat-{done}"
        _emit("RESULT", _forked(job, scratch, False))
        # Drop this repeat's cache files and flush the disk before the
        # next repeat, so its writes do not overlap their write-back.
        shutil.rmtree(scratch, ignore_errors=True)
        os.sync()
        done += 1
        elapsed = time.perf_counter() - start
        if done >= job["min_repeats"] and elapsed * (done + 1) / done > job["budget_s"]:
            break
    if job.get("trace"):
        _emit("RESULT", _forked(job, base / "traced", True))


async def serve(job: dict) -> dict:
    import inputs as inputmod
    import reference
    import workloads

    scratch = pathlib.Path(job["scratch"])
    service = workloads.make_service(scratch)
    await service.start()
    _emit("READY")
    if job["mode"] == "setup":
        await service.drain()
        return {"rss_mb": workloads.peak_rss_mb(inputmod.SERVE_WORKERS)}
    ref = reference.Reference.load()
    traffic = inputmod.serve_inputs(
        job["seed"], job["traffic_s"], ref.pairs, ref.serve_excluded
    )
    recorder = None
    if job.get("trace"):
        import layers

        traffic = inputmod.nominal_only(traffic)
        recorder = layers.Recorder()
        recorder.install()
    start = time.perf_counter()
    try:
        result = await workloads.serve_traffic(service, traffic, ref)
    finally:
        end = time.perf_counter()
        if recorder is not None:
            recorder.uninstall()
        await service.drain()
    result["params"] = inputmod.serve_params(traffic)
    if recorder is not None:
        recorder.window = (start, end)
        recorder.capacity_s = inputmod.SERVE_WORKERS * result["window_s"]
        registry = service.registry
        values = {name: registry.value(name) for name in registry.names()
                  if registry[name].kind == "counter"}
        result["trace"] = _trace_summary(recorder, values, job["trace_path"])
    result["rss_mb"] = workloads.peak_rss_mb(
        inputmod.SERVE_WORKERS, result.pop("nominal_rss_kb"))
    return result


def main() -> int:
    job = json.loads(sys.argv[1])
    common.scrub_process_env()
    workload = job["workload"]
    import workloads

    for module in workloads.ENTRY_MODULES[workload]:
        importlib.import_module(module)
    if job["mode"] == "setup" and workload != "serve-mixed":
        _emit("READY")
        _emit("RESULT", {})
    elif workload == "serve-mixed":
        _emit("RESULT", asyncio.run(serve(job)))
    else:
        zygote(job)
    return 0


if __name__ == "__main__":
    sys.exit(main())
