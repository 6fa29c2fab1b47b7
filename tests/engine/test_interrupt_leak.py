"""Ctrl-C must not leak worker processes out of ``run_cells``.

Regression test for the supervisor's KeyboardInterrupt path: the
isolated scheduling loop runs cells on warm worker slots that live for
the whole ``run_cells`` call, and an interrupt that lands mid-run must
not abandon them.  ``_run_isolated`` shuts its ``WarmExecutor`` down in
a ``finally`` -- killing and reaping every slot's worker -- so a driver
process that catches Ctrl-C ends with zero surviving workers.

The scenario needs a real interrupt against real worker processes, so
it runs in a subprocess: hang two cells (WorkerHangFault), SIGINT the
driver mid-run, and audit ``/proc`` for survivors.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap

SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")

DRIVER = textwrap.dedent("""
    import json, os, signal, sys

    from repro.arch import resolve_backend
    from repro.engine import CellSpec, run_cells
    from repro.faults.models import FaultPlan, WorkerHangFault
    from repro.resilience.policy import RetryPolicy

    def live_children():
        # Scan /proc directly (spawning ps would list itself).  Zombies
        # are already dead -- reaped at interpreter exit, not leaked --
        # so only R/S/D children count as survivors.
        me, pids = str(os.getpid()), []
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                with open(f"/proc/{entry}/stat") as fh:
                    fields = fh.read().rsplit(")", 1)[1].split()
            except OSError:
                continue
            state, ppid = fields[0], fields[1]
            if ppid == me and state != "Z":
                pids.append(int(entry))
        return pids

    # Two cells that hang forever in their workers; a watchdog-free
    # policy with isolation forced via cell_timeout keeps them running
    # until the interrupt arrives.
    backend = resolve_backend("bank")
    plan = FaultPlan(seed=1, faults=(WorkerHangFault(seconds=120.0),))
    specs = [
        CellSpec(
            benchmark_key="vecadd", device_type=backend.device_type,
            num_ranks=32 + i, paper_scale=True, functional=False,
            fault_plan=plan,
        )
        for i in range(2)
    ]
    signal.alarm(2)  # SIGALRM -> KeyboardInterrupt while cells hang
    signal.signal(signal.SIGALRM, signal.default_int_handler)
    interrupted = False
    try:
        run_cells(
            specs, jobs=2, use_cache=False,
            policy=RetryPolicy(max_retries=0, cell_timeout_s=60.0),
        )
    except KeyboardInterrupt:
        interrupted = True
    survivors = live_children()
    print(json.dumps({"interrupted": interrupted, "survivors": survivors}))
""")


def test_keyboard_interrupt_kills_all_workers():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, "-c", DRIVER],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    assert record["interrupted"], "the driver was never interrupted"
    # ps can race a dying process; only a worker still alive now counts.
    alive = [
        pid for pid in record["survivors"]
        if os.path.exists(f"/proc/{pid}")
    ]
    assert alive == [], f"workers outlived the interrupted run: {alive}"
