"""Warm worker slots: the engine's only worker processes.

Every cell that runs outside the calling process runs here.
:func:`~repro.engine.engine.run_cells` opens a :class:`WarmExecutor` of
``min(jobs, misses)`` slots per call, and ``repro serve`` keeps one
alive for the service's lifetime.  A slot's worker outlives one cell, so
the interpreter, the arch registry, and the cost tables stay hot, while
isolation holds:

* each slot is a **single-worker** pool, so a crash or a hang breaks
  exactly one slot and is attributable to exactly one cell;
* a hung or crashed slot is **killed and respawned**
  (:meth:`WarmSlot.recover`), costing one spawn instead of poisoning the
  executor;
* a cell that *raises* leaves its worker alive for the next cell, just
  as the serial path retries in the same process.

The class is synchronous and thread-safe-by-construction (each slot is
owned by one caller at a time; acquisition goes through a lock-free
queue).  ``repro.serve`` wraps it with asyncio.
"""

from __future__ import annotations

import concurrent.futures
import queue
import typing

from repro.core.errors import PimTimeoutError, PimWorkerCrashError
from repro.engine.cells import run_cell

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.errors import PimError
    from repro.engine.cells import CellOutcome, CellSpec


def _worker(
    spec: "CellSpec", record_events: bool, attempt: int, isolated: bool
) -> "CellOutcome":
    """Top-level so it pickles under every multiprocessing start method."""
    return run_cell(
        spec, record_events=record_events, attempt=attempt, isolated=isolated
    )


def _kill_pool(pool: concurrent.futures.ProcessPoolExecutor) -> None:
    """Tear down a pool that may hold a hung or dead worker.

    ``shutdown`` alone would wait on the hung process forever, so the
    worker processes are killed first; the shutdown that follows then
    only reaps the manager thread (and keeps interpreter exit quiet).
    """
    for proc in list(getattr(pool, "_processes", {}).values()):
        try:
            proc.kill()
        except Exception:  # noqa: BLE001 - already-dead processes are fine
            pass
    pool.shutdown(wait=True, cancel_futures=True)


class WarmSlot:
    """One persistent single-worker pool, killable and respawnable."""

    def __init__(self, index: int) -> None:
        self.index = index
        self.respawns = 0
        self.cells_run = 0
        self._pool: "concurrent.futures.ProcessPoolExecutor | None" = (
            concurrent.futures.ProcessPoolExecutor(max_workers=1)
        )

    def submit(
        self, spec: "CellSpec", attempt: int = 1, record_events: bool = False
    ) -> "concurrent.futures.Future[CellOutcome]":
        """Run one cell attempt on this slot's warm worker."""
        if self._pool is None:
            raise RuntimeError(f"warm slot {self.index} is shut down")
        self.cells_run += 1
        return self._pool.submit(_worker, spec, record_events, attempt, True)

    def warm_up(self) -> None:
        """Force the worker process to exist (pools spawn lazily)."""
        if self._pool is not None:
            self._pool.submit(int).result()

    def respawn(self) -> None:
        """Kill the (possibly hung) worker and stand up a fresh pool.

        The kill must come first: a plain shutdown would join a hung
        worker forever.  Safe to call on a healthy slot too.
        """
        if self._pool is None:
            raise RuntimeError(f"warm slot {self.index} is shut down")
        self.respawns += 1
        _kill_pool(self._pool)
        self._pool = concurrent.futures.ProcessPoolExecutor(max_workers=1)

    def recover(
        self, spec: "CellSpec", attempt: int, timeout_s: "float | None" = None
    ) -> "PimError":
        """Respawn after a crash (``timeout_s`` unset) or a run past
        ``timeout_s``, and return the coded error naming the cell."""
        self.respawn()
        context = dict(benchmark=spec.benchmark_key,
                       device=spec.device_type.value, attempt=attempt)
        if timeout_s is None:
            return PimWorkerCrashError(
                "worker process died without raising", **context
            )
        return PimTimeoutError(f"cell exceeded its {timeout_s}s timeout",
                               timeout_s=timeout_s, **context)

    def shutdown(self) -> None:
        """Kill the worker and retire the slot permanently."""
        if self._pool is not None:
            _kill_pool(self._pool)
            self._pool = None

    @property
    def alive(self) -> bool:
        return self._pool is not None


class WarmExecutor:
    """A fixed fleet of :class:`WarmSlot` workers with checkout semantics.

    Callers :meth:`acquire` a slot (blocking until one is free), submit
    work on it, and :meth:`release` it back -- after
    :meth:`WarmSlot.recover` if the worker hung or died.  The checkout
    discipline is what makes hang attribution exact: a slot serves one
    cell at a time.
    """

    def __init__(self, workers: int = 1) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.slots = [WarmSlot(i) for i in range(workers)]
        self._free: "queue.SimpleQueue[WarmSlot]" = queue.SimpleQueue()
        for slot in self.slots:
            self._free.put(slot)

    @property
    def workers(self) -> int:
        return len(self.slots)

    @property
    def respawns(self) -> int:
        return sum(slot.respawns for slot in self.slots)

    def warm_up(self) -> None:
        """Spawn every worker process up front (service start, not first
        request, should pay the import cost)."""
        for slot in self.slots:
            slot.warm_up()

    def acquire(self, timeout: "float | None" = None) -> WarmSlot:
        """Check out a free slot (raises ``queue.Empty`` on timeout)."""
        if timeout is None:
            return self._free.get()
        return self._free.get(timeout=timeout)

    def release(self, slot: WarmSlot) -> None:
        """Return a checked-out slot to the free pool."""
        if slot.alive:
            self._free.put(slot)

    def shutdown(self) -> None:
        """Kill every worker process.  Idempotent."""
        for slot in self.slots:
            slot.shutdown()

    def worker_pids(self) -> "list[int]":
        """PIDs of the currently live worker processes (for drain tests)."""
        pids = []
        for slot in self.slots:
            pool = slot._pool
            if pool is not None:
                pids.extend(getattr(pool, "_processes", {}).keys())
        return pids
