"""EvaluationService behavior: identity, degradation, drain.

Everything here runs the real service in-process (real worker
processes, real cache) except where a test patches the execution path
to manufacture slowness -- wall-clock hangs would make the suite crawl.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.arch import resolve_backend
from repro.engine import CellSpec, run_cells
from repro.faults.chaos import ChaosPolicy
from repro.obs.metrics import MetricsRegistry
from repro.resilience.policy import RetryPolicy
from repro.serve.protocol import canonical_json, result_payload
from repro.serve.service import EvaluationService, ServiceConfig


def _body(**fields) -> bytes:
    return json.dumps(fields).encode()


def _config(tmp_path, **overrides) -> ServiceConfig:
    fields = dict(
        workers=1,
        cache_dir=str(tmp_path / "cache"),
        policy=RetryPolicy(max_retries=2, cell_timeout_s=30.0),
        drain_grace_s=1.0,
    )
    fields.update(overrides)
    return ServiceConfig(**fields)


async def _started(config) -> EvaluationService:
    service = EvaluationService(config, registry=MetricsRegistry())
    await service.start()
    return service


def _direct_bytes(benchmark: str, device: str, ranks: int,
                  vector: bool = False) -> bytes:
    backend = resolve_backend(device)
    spec = CellSpec(
        benchmark_key=benchmark, device_type=backend.device_type,
        num_ranks=ranks, paper_scale=True, functional=False, vector=vector,
    )
    execution = run_cells([spec], use_cache=False)
    outcome = execution.outcome(spec)
    assert outcome.error is None, outcome.error
    return canonical_json(result_payload(spec, outcome))


class TestByteIdentity:
    def test_served_scalar_equals_direct_run(self, tmp_path):
        async def main():
            service = await _started(_config(tmp_path))
            try:
                status, payload = await service.evaluate(_body(
                    benchmark="vecadd", device="bank", ranks=32
                ))
                assert status == 200
                return canonical_json(payload)
            finally:
                await service.drain(grace_s=0.5)

        assert asyncio.run(main()) == _direct_bytes("vecadd", "bank", 32)

    def test_served_vector_equals_direct_run(self, tmp_path):
        async def main():
            service = await _started(_config(tmp_path))
            try:
                status, payload = await service.evaluate(_body(
                    benchmark="vecadd", device="bank", ranks=32, vector=True
                ))
                assert status == 200
                assert payload["vector"] is True
                return canonical_json(payload)
            finally:
                await service.drain(grace_s=0.5)

        assert asyncio.run(main()) == _direct_bytes(
            "vecadd", "bank", 32, vector=True
        )

    def test_cache_hit_serves_identical_bytes(self, tmp_path):
        async def main():
            service = await _started(_config(tmp_path))
            try:
                body = _body(benchmark="vecadd", device="bank", ranks=32)
                _, first = await service.evaluate(body)
                _, second = await service.evaluate(body)
                assert service.registry.value("serve.cache_hits") >= 1
                return canonical_json(first), canonical_json(second)
            finally:
                await service.drain(grace_s=0.5)

        first, second = asyncio.run(main())
        assert first == second == _direct_bytes("vecadd", "bank", 32)

    def test_chaos_crash_recovers_to_identical_bytes(self, tmp_path):
        async def main():
            service = await _started(_config(
                tmp_path,
                chaos=ChaosPolicy(seed=1, crash_rate=1.0),
            ))
            try:
                status, payload = await service.evaluate(_body(
                    benchmark="vecadd", device="bank", ranks=32,
                    no_cache=True,
                ))
                assert status == 200
                assert service.registry.value("serve.chaos_injected") == 1
                assert service.registry.value("serve.retries") >= 1
                assert service.registry.value("serve.worker_respawns") >= 1
                return canonical_json(payload)
            finally:
                await service.drain(grace_s=0.5)

        assert asyncio.run(main()) == _direct_bytes("vecadd", "bank", 32)

    def test_chaos_hang_is_killed_and_recovers(self, tmp_path):
        async def main():
            service = await _started(_config(
                tmp_path,
                policy=RetryPolicy(
                    max_retries=2, cell_timeout_s=1.0,
                    backoff_base_s=0.01,
                ),
                chaos=ChaosPolicy(seed=1, hang_rate=1.0, hang_s=30.0),
            ))
            try:
                status, payload = await service.evaluate(_body(
                    benchmark="vecadd", device="bank", ranks=32,
                    no_cache=True, deadline_s=25.0,
                ))
                assert status == 200
                assert service.registry.value("serve.worker_respawns") >= 1
                return canonical_json(payload)
            finally:
                await service.drain(grace_s=0.5)

        assert asyncio.run(main()) == _direct_bytes("vecadd", "bank", 32)


class TestCoalescing:
    def test_concurrent_duplicates_share_one_flight(self, tmp_path):
        async def main():
            service = await _started(_config(tmp_path, workers=2))
            try:
                body = _body(benchmark="vecadd", device="fulcrum", ranks=32)
                answers = await asyncio.gather(
                    *(service.evaluate(body) for _ in range(6))
                )
                bodies = {canonical_json(p) for _, p in answers}
                assert all(status == 200 for status, _ in answers)
                assert len(bodies) == 1
                assert service.flights.coalesced >= 1
                assert service.registry.value("serve.coalesced") >= 1
            finally:
                await service.drain(grace_s=0.5)

        asyncio.run(main())


class TestDegradation:
    def test_deadline_refuses_but_flight_survives(self, tmp_path):
        async def main():
            service = await _started(_config(tmp_path))
            release = asyncio.Event()
            real_attempt = service._run_attempt

            async def slow_attempt(spec, attempt):
                await release.wait()
                return await real_attempt(spec, attempt)

            service._run_attempt = slow_attempt
            try:
                body = _body(
                    benchmark="vecadd", device="bank", ranks=32,
                    deadline_s=0.05,
                )
                status, payload = await service.evaluate(body)
                assert status == 504
                assert payload["code"] == "ERR_DEADLINE"
                assert service.registry.value("serve.deadline_exceeded") == 1
                # The abandoned flight keeps running and lands in cache.
                release.set()
                for _ in range(200):
                    if service.flights.inflight_count == 0:
                        break
                    await asyncio.sleep(0.01)
                service._run_attempt = real_attempt
                status, payload = await service.evaluate(_body(
                    benchmark="vecadd", device="bank", ranks=32,
                ))
                assert status == 200
                assert service.registry.value("serve.cache_hits") >= 1
            finally:
                release.set()
                await service.drain(grace_s=0.5)

        asyncio.run(main())

    def test_overload_sheds_with_bounded_queue(self, tmp_path):
        async def main():
            service = await _started(_config(tmp_path, queue_limit=1))
            release = asyncio.Event()

            async def stuck_attempt(spec, attempt):
                await release.wait()
                raise RuntimeError("never reached")

            service._run_attempt = stuck_attempt
            try:
                body = _body(benchmark="vecadd", device="bank", ranks=32,
                             no_cache=True)
                first = asyncio.create_task(service.evaluate(body))
                await asyncio.sleep(0.05)
                status, payload = await service.evaluate(body)
                assert status == 429
                assert payload["code"] == "ERR_OVERLOAD"
                assert payload["retry_after_s"] > 0
                assert payload["queue_depth"] == 1
                assert service.admission.max_inflight == 1  # bounded
                first.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await first
            finally:
                release.set()
                service.flights.cancel_all()
                await service.drain(grace_s=0.2)

        asyncio.run(main())

    def test_tenant_quota_sheds(self, tmp_path):
        async def main():
            service = await _started(_config(
                tmp_path, quota_rps=0.001, quota_burst=1.0,
            ))
            try:
                body = _body(benchmark="vecadd", device="bank", ranks=32,
                             tenant="alice")
                status, _ = await service.evaluate(body)
                assert status == 200
                status, payload = await service.evaluate(body)
                assert status == 429
                assert payload["code"] == "ERR_QUOTA"
                assert payload["retry_after_s"] > 0
                # Another tenant is unaffected.
                status, _ = await service.evaluate(_body(
                    benchmark="vecadd", device="bank", ranks=32,
                    tenant="bob",
                ))
                assert status == 200
            finally:
                await service.drain(grace_s=0.5)

        asyncio.run(main())

    def test_bad_requests_are_coded(self, tmp_path):
        async def main():
            service = await _started(_config(tmp_path))
            try:
                for body in (b"{nope", _body(device="bank"),
                             _body(benchmark="vecadd", device="zzz"),
                             _body(benchmark="zzz", device="bank")):
                    status, payload = await service.evaluate(body)
                    assert status == 400
                    assert payload["code"] == "ERR_BAD_REQUEST"
                assert service.registry.value("serve.bad_requests") == 4
            finally:
                await service.drain(grace_s=0.5)

        asyncio.run(main())

    def test_persistent_failure_opens_the_breaker(self, tmp_path):
        async def main():
            # ranks=4 paper-scale vecadd deterministically dies with an
            # allocation error; threshold 1 opens the circuit on the
            # first ultimate failure.
            service = await _started(_config(
                tmp_path,
                policy=RetryPolicy(max_retries=0, cell_timeout_s=30.0),
                breaker_threshold=1,
            ))
            try:
                body = _body(benchmark="vecadd", device="bank", ranks=4,
                             no_cache=True)
                status, payload = await service.evaluate(body)
                assert status == 500
                assert payload["code"] == "ERR_CELL_FAILED"
                assert payload["failure"]["error_type"] == (
                    "PimAllocationError"
                )
                status, payload = await service.evaluate(body)
                assert status == 503
                assert payload["code"] == "ERR_CIRCUIT_OPEN"
                # A healthy backend still serves.
                status, _ = await service.evaluate(_body(
                    benchmark="vecadd", device="fulcrum", ranks=32,
                ))
                assert status == 200
            finally:
                await service.drain(grace_s=0.5)

        asyncio.run(main())


    @pytest.mark.parametrize("chaos,timeout_s,error_type", [
        (ChaosPolicy(seed=1, crash_rate=1.0), 30.0, "PimWorkerCrashError"),
        (ChaosPolicy(seed=1, hang_rate=1.0, hang_s=30.0), 0.5,
         "PimTimeoutError"),
    ])
    def test_dead_worker_failure_names_the_cell(
        self, tmp_path, chaos, timeout_s, error_type
    ):
        # A crashed or overdue flight reports which cell it was, exactly
        # as a run_cells failure does.
        async def main():
            service = await _started(_config(
                tmp_path,
                policy=RetryPolicy(max_retries=0, cell_timeout_s=timeout_s),
                chaos=chaos,
            ))
            try:
                status, payload = await service.evaluate(_body(
                    benchmark="vecadd", device="bank", ranks=32,
                    no_cache=True,
                ))
                assert status == 500
                assert payload["code"] == "ERR_CELL_FAILED"
                failure = payload["failure"]
                assert failure["error_type"] == error_type
                assert failure["context"]["benchmark"] == "vecadd"
                assert failure["context"]["device"] == (
                    resolve_backend("bank").device_type.value
                )
                assert service.registry.value("serve.worker_respawns") == 1
            finally:
                await service.drain(grace_s=0.5)

        asyncio.run(main())


class TestDrain:
    def test_drain_refuses_new_work_and_rejects_stuck_flights(self, tmp_path):
        async def main():
            service = await _started(_config(tmp_path))
            release = asyncio.Event()

            async def stuck_attempt(spec, attempt):
                await release.wait()
                raise RuntimeError("never reached")

            service._run_attempt = stuck_attempt
            body = _body(benchmark="vecadd", device="bank", ranks=32,
                         no_cache=True)
            stuck = asyncio.create_task(service.evaluate(body))
            await asyncio.sleep(0.05)
            forced = await service.drain(grace_s=0.1)
            assert forced == 1
            status, payload = await stuck
            assert status == 503
            assert payload["code"] == "ERR_DRAINING"
            status, payload = await service.evaluate(body)
            assert status == 503
            assert payload["code"] == "ERR_DRAINING"
            assert service.registry.gauge("serve.draining").value == 1.0
            assert service.executor.worker_pids() == []

        asyncio.run(main())

    def test_drain_lets_inflight_finish_within_grace(self, tmp_path):
        async def main():
            service = await _started(_config(tmp_path))
            body = _body(benchmark="vecadd", device="bank", ranks=32)
            task = asyncio.create_task(service.evaluate(body))
            await asyncio.sleep(0)
            forced = await service.drain(grace_s=10.0)
            assert forced == 0
            status, payload = await task
            assert status == 200
            return canonical_json(payload)

        assert asyncio.run(main()) == _direct_bytes("vecadd", "bank", 32)
