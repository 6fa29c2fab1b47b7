"""The evaluation service: admission, execution, and degradation glue.

:class:`EvaluationService` is the transport-independent heart of
``repro serve``; the HTTP layer (``repro.serve.http``) only parses
requests off sockets and writes this class's ``(status, payload)``
answers back.  One request flows through:

1. **admission** (:class:`~repro.serve.admission.AdmissionController`)
   -- drain, tenant quota, and bounded-queue gates, cheapest first;
2. **circuit breaker** (:class:`~repro.serve.breaker.CircuitBreaker`)
   -- keyed by backend, so a sick device model fails fast;
3. **cache key** -- the engine's content-addressed
   :func:`~repro.engine.cache.cell_cache_key` of the *undecorated*
   spec, which is also the coalescing identity;
4. **single flight** (:class:`~repro.serve.singleflight.SingleFlight`)
   -- concurrent identical cells share one execution task;
5. **the flight itself** -- disk-cache probe, then warm-slot execution
   under the PR 3 :class:`~repro.resilience.policy.RetryPolicy`
   (watchdog timeout per attempt, deterministic backoff between), then
   a cache write-back.

Deadlines are enforced on the *wait*, never on the *work*: a request
that blows its budget abandons the shared flight through a shield and
gets ``ERR_DEADLINE``, while the flight runs on -- followers still get
their answer and the cache still gets the entry.

The byte-identity contract (tested end-to-end): success payloads are
rendered by :func:`~repro.serve.protocol.result_payload` from the
undecorated spec, so a cached, coalesced, retried, or chaos-disrupted
evaluation returns exactly the bytes a direct ``run_cells`` would.
"""

from __future__ import annotations

import asyncio
import concurrent.futures.process
import dataclasses
import time
import typing

from repro.engine.cache import DiskCache, cell_cache_key
from repro.engine.warm import WarmExecutor, WarmSlot
from repro.obs.metrics import MetricsRegistry, global_registry
from repro.resilience.failures import failure_from_exception
from repro.resilience.policy import RetryPolicy
from repro.serve.admission import AdmissionController
from repro.serve.breaker import CircuitBreaker
from repro.serve.protocol import (
    ERR_BAD_REQUEST,
    ERR_CELL_FAILED,
    ERR_DEADLINE,
    ERR_DRAINING,
    ERR_INTERNAL,
    ERR_OVERLOAD,
    ERR_QUOTA,
    CellRequest,
    ServeError,
    error_payload,
    result_payload,
)
from repro.serve.singleflight import SingleFlight

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.cells import CellOutcome, CellSpec
    from repro.faults.chaos import ChaosPolicy

#: Which refusal code increments which shed counter.
_SHED_COUNTERS = {
    ERR_DRAINING: "shed.draining",
    ERR_QUOTA: "shed.quota",
    ERR_OVERLOAD: "shed.overload",
}


def _default_policy() -> RetryPolicy:
    """Serving defaults: a watchdog is mandatory (a hung worker must be
    killed, not waited on), and transient faults get two retries."""
    return RetryPolicy(max_retries=2, cell_timeout_s=60.0)


@dataclasses.dataclass(frozen=True)
class ServiceConfig:
    """Everything an :class:`EvaluationService` needs decided up front."""

    workers: int = 2
    queue_limit: int = 64
    quota_rps: "float | None" = None
    quota_burst: "float | None" = None
    default_deadline_s: float = 30.0
    policy: RetryPolicy = dataclasses.field(default_factory=_default_policy)
    use_cache: bool = True
    cache_dir: "str | None" = None
    breaker_threshold: int = 3
    breaker_cooldown_s: float = 10.0
    chaos: "ChaosPolicy | None" = None
    drain_grace_s: float = 20.0


class _CellExecutionError(Exception):
    """A flight's terminal failure, carrying the PR 3 failure record."""

    def __init__(self, failure) -> None:
        super().__init__(failure.brief())
        self.failure = failure


class EvaluationService:
    """The warm, fault-tolerant evaluator behind every transport."""

    def __init__(
        self,
        config: "ServiceConfig | None" = None,
        registry: "MetricsRegistry | None" = None,
    ) -> None:
        self.config = config or ServiceConfig()
        self.registry = registry if registry is not None else global_registry()
        self.admission = AdmissionController(
            queue_limit=self.config.queue_limit,
            quota_rate=self.config.quota_rps,
            quota_burst=self.config.quota_burst,
            workers=self.config.workers,
        )
        self.flights = SingleFlight()
        self.breaker = CircuitBreaker(
            failure_threshold=self.config.breaker_threshold,
            cooldown_s=self.config.breaker_cooldown_s,
        )
        self.executor = WarmExecutor(self.config.workers)
        self.cache: "DiskCache | None" = (
            DiskCache(self.config.cache_dir) if self.config.use_cache else None
        )
        self._slots: "asyncio.Queue[WarmSlot] | None" = None
        self._flight_seq = 0
        self.started = False

    # -- lifecycle --------------------------------------------------------

    async def start(self) -> None:
        """Spawn and warm every worker; build the asyncio slot queue."""
        self._slots = asyncio.Queue()
        for slot in self.executor.slots:
            self._slots.put_nowait(slot)
        await asyncio.to_thread(self.executor.warm_up)
        self.registry.gauge("serve.workers").set(self.executor.workers)
        self.registry.gauge("serve.draining").set(0.0)
        self.started = True

    async def drain(self, grace_s: "float | None" = None) -> int:
        """Graceful shutdown: stop admitting, let in-flight work finish.

        Waits up to the grace budget for the backlog to clear; whatever
        is still running then is cancelled (those clients get a clean
        ``ERR_DRAINING`` refusal, not a dropped connection).  Finally
        kills every worker and flushes the cache usage ledger.  Returns
        the number of flights that had to be force-cancelled.
        """
        grace = self.config.drain_grace_s if grace_s is None else grace_s
        self.admission.draining = True
        self.registry.gauge("serve.draining").set(1.0)
        deadline = time.monotonic() + max(0.0, grace)
        while self.admission.inflight > 0 and time.monotonic() < deadline:
            await asyncio.sleep(0.02)
        forced = 0
        if self.admission.inflight > 0:
            forced = self.flights.cancel_all()
            hard_stop = time.monotonic() + 2.0
            while self.admission.inflight > 0 and time.monotonic() < hard_stop:
                await asyncio.sleep(0.02)
        await asyncio.to_thread(self.executor.shutdown)
        if self.cache is not None:
            await asyncio.to_thread(self.cache.flush_usage)
        return forced

    # -- the request path -------------------------------------------------

    def _count(self, name: str, amount: float = 1.0) -> None:
        self.registry.counter(f"serve.{name}").inc(amount)

    def _refusal(self, exc: ServeError) -> "tuple[int, dict]":
        return exc.http_status, error_payload(
            exc.code, str(exc), retry_after_s=exc.retry_after_s, **exc.context
        )

    async def evaluate(self, body: bytes) -> "tuple[int, dict]":
        """One request, body bytes in, ``(http_status, payload)`` out.

        Never raises for request-shaped problems -- every refusal is a
        coded payload.  (Programming errors still surface, as
        ``ERR_INTERNAL``.)
        """
        started = time.monotonic()
        self._count("requests")
        try:
            request = CellRequest.from_json(body)
        except ServeError as exc:
            self._count("bad_requests")
            return self._refusal(exc)
        try:
            self.admission.admit(request.tenant)
        except ServeError as exc:
            self._count(_SHED_COUNTERS.get(exc.code, "shed.other"))
            return self._refusal(exc)
        self.registry.gauge("serve.queue_depth").set(self.admission.inflight)
        try:
            return await self._evaluate_admitted(request, started)
        finally:
            self.admission.finish()
            elapsed = time.monotonic() - started
            self.admission.observe_service_time(elapsed)
            self.registry.gauge("serve.queue_depth").set(self.admission.inflight)
            self.registry.histogram("serve.latency_s").observe(elapsed)

    async def _evaluate_admitted(
        self, request: CellRequest, started: float
    ) -> "tuple[int, dict]":
        try:
            spec = request.to_spec()
        except ServeError as exc:
            self._count("bad_requests")
            return self._refusal(exc)
        backend_key = str(
            getattr(spec.device_type, "value", spec.device_type)
        )
        try:
            self.breaker.check(backend_key)
        except ServeError as exc:
            self._count("shed.breaker")
            return self._refusal(exc)
        try:
            key = await asyncio.to_thread(cell_cache_key, spec)
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            # An unknown benchmark (or broken params) surfaces here,
            # where the spec is first materialized; it is the client's
            # mistake, not the backend's, so the breaker is untouched.
            self.breaker.record_success(backend_key)
            self._count("bad_requests")
            return self._refusal(
                ServeError(
                    ERR_BAD_REQUEST,
                    f"cannot resolve cell: {type(exc).__name__}: {exc}",
                )
            )
        task, leader = self.flights.flight(
            key,
            lambda: self._execute_flight(
                spec, key, request.no_cache, backend_key
            ),
        )
        if not leader:
            self._count("coalesced")
        deadline = (
            request.deadline_s
            if request.deadline_s is not None
            else self.config.default_deadline_s
        )
        remaining = deadline - (time.monotonic() - started)
        try:
            if remaining <= 0:
                raise asyncio.TimeoutError
            payload = await asyncio.wait_for(
                asyncio.shield(task), timeout=remaining
            )
        except asyncio.TimeoutError:
            self._count("deadline_exceeded")
            return self._refusal(
                ServeError(
                    ERR_DEADLINE,
                    f"request exceeded its {deadline:g}s deadline "
                    "(the evaluation continues for other waiters)",
                )
            )
        except asyncio.CancelledError:
            if self.admission.draining:
                # drain() force-cancelled the flight: refuse cleanly.
                self._count("shed.draining")
                return self._refusal(
                    ServeError(
                        ERR_DRAINING,
                        "server drained before the cell finished",
                        retry_after_s=1.0,
                    )
                )
            raise
        except _CellExecutionError as exc:
            return self._refusal(
                ServeError(
                    ERR_CELL_FAILED,
                    exc.failure.brief(),
                    failure=exc.failure.to_dict(),
                )
            )
        except ServeError as exc:
            return self._refusal(exc)
        except Exception as exc:  # noqa: BLE001 - last-resort containment
            self._count("internal_errors")
            return self._refusal(
                ServeError(ERR_INTERNAL, f"{type(exc).__name__}: {exc}")
            )
        self._count("ok")
        return 200, payload

    # -- flight execution -------------------------------------------------

    async def _execute_flight(
        self,
        spec: "CellSpec",
        key: str,
        no_cache: bool,
        backend_key: str,
    ) -> dict:
        """Run one coalesced flight to a canonical success payload."""
        cache = self.cache if not no_cache else None
        if cache is not None:
            outcome = await asyncio.to_thread(cache.get, key)
            if outcome is not None and outcome.error is None:
                self._count("cache_hits")
                self.breaker.record_success(backend_key)
                return result_payload(spec, outcome)
        self._flight_seq += 1
        exec_spec = spec
        chaos = self.config.chaos
        if chaos is not None and chaos.active:
            # Decorate AFTER the cache key: chaos changes how the
            # worker dies, never what the cell computes or caches.
            exec_spec = chaos.decorate(spec, self._flight_seq)
            if exec_spec is not spec:
                self._count("chaos_injected")
        policy = self.config.policy
        attempt = 0
        while True:
            attempt += 1
            try:
                outcome = await self._run_attempt(exec_spec, attempt)
                break
            except asyncio.CancelledError:
                raise
            except Exception as exc:  # noqa: BLE001 - taxonomy decides below
                if attempt < policy.max_attempts:
                    self._count("retries")
                    delay = policy.backoff_s(key, attempt)
                    if delay > 0:
                        await asyncio.sleep(delay)
                    continue
                self.breaker.record_failure(backend_key)
                self._count("cell_failures")
                raise _CellExecutionError(
                    failure_from_exception(exc, attempt)
                ) from exc
        self._count("executed")
        self.breaker.record_success(backend_key)
        if cache is not None and outcome.error is None:
            await asyncio.to_thread(cache.put, key, outcome)
        return result_payload(spec, outcome)

    async def _run_attempt(
        self, spec: "CellSpec", attempt: int
    ) -> "CellOutcome":
        """One attempt on one warm slot, under the watchdog.

        A watchdog timeout or a worker crash respawns the slot (one
        spawn, not a poisoned pool) and raises the taxonomy's coded
        error (:meth:`WarmSlot.recover`) for the retry loop to classify.
        """
        assert self._slots is not None, "EvaluationService.start() not called"
        slot = await self._slots.get()
        try:
            future = slot.submit(spec, attempt=attempt)
            wrapped = asyncio.wrap_future(future)
            timeout = self.config.policy.cell_timeout_s
            try:
                return await asyncio.wait_for(
                    asyncio.shield(wrapped), timeout=timeout
                )
            except asyncio.TimeoutError:
                _consume(wrapped)
                self._count("worker_respawns")
                raise await asyncio.to_thread(
                    slot.recover, spec, attempt, timeout
                ) from None
            except concurrent.futures.process.BrokenProcessPool as exc:
                self._count("worker_respawns")
                raise await asyncio.to_thread(
                    slot.recover, spec, attempt
                ) from exc
        finally:
            if slot.alive:
                self._slots.put_nowait(slot)

    # -- introspection ----------------------------------------------------

    def status(self) -> dict:
        """The ``/statusz`` record (also what the load generator reads)."""
        return {
            "draining": self.admission.draining,
            "inflight": self.admission.inflight,
            "max_inflight": self.admission.max_inflight,
            "queue_limit": self.admission.queue_limit,
            "workers": self.executor.workers,
            "worker_respawns": self.executor.respawns,
            "flights": self.flights.flights,
            "coalesced": self.flights.coalesced,
            "service_time_ewma_s": round(
                self.admission.service_time_ewma_s, 6
            ),
            "counters": {
                name: self.registry.value(name)
                for name in self.registry.names()
                if (name.startswith("serve.") or name.startswith("cache."))
                and self.registry[name].kind != "histogram"
            },
        }


def _consume(future: "asyncio.Future") -> None:
    """Mark an abandoned future's eventual exception as retrieved."""

    def _eat(f: "asyncio.Future") -> None:
        if not f.cancelled():
            f.exception()

    future.add_done_callback(_eat)
