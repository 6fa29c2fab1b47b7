"""Open-loop generator: stalls are charged to the requests behind them."""

import asyncio
import json
import time

from openloop import backlog_growing, open_loop


def _run(due, send):
    return asyncio.run(open_loop(due, send))


def test_latency_is_timed_from_the_due_time():
    async def send(_i):
        await asyncio.sleep(0.01)
        return "ok"

    result = _run([0.0, 0.02, 0.04], send)
    assert [s.result for s in result.sent] == ["ok"] * 3
    for sent in result.sent:
        assert sent.latency_s >= 0.01
        assert sent.lag_s < 0.01


def test_a_stall_is_charged_to_requests_queued_behind_it():
    stall = 0.3

    async def send(index):
        if index == 0:
            time.sleep(stall)  # blocks the event loop, generator included
        return index

    due = [0.0, 0.05, 0.1, 0.15, 0.5]
    result = _run(due, send)
    by_index = {s.index: s for s in result.sent}
    for index in (1, 2, 3):
        sent = by_index[index]
        # Sent late by the stall, and the wait counts in its latency.
        assert sent.lag_s >= stall - due[index] - 0.02
        assert sent.latency_s >= stall - due[index] - 0.02
    assert by_index[4].lag_s < 0.05


def test_errors_are_recorded_not_raised():
    async def send(index):
        if index == 1:
            raise RuntimeError("boom")
        return index

    result = _run([0.0, 0.0, 0.0], send)
    errors = [s for s in result.sent if s.error is not None]
    assert len(errors) == 1 and isinstance(errors[0].error, RuntimeError)
    assert len(result.backlog) == 3


def test_backlog_growth_detection():
    assert not backlog_growing([1, 2, 1, 1, 2, 1, 1, 2])
    assert backlog_growing([1, 1, 2, 3, 5, 8, 12, 20])


def test_serve_traffic_charges_a_stall_to_the_next_rung():
    """The whole ladder is one schedule: a stall at the end of one rung
    delays the requests due at the start of the next."""
    import inputs
    import workloads
    from inputs import ServeRequest, request_body

    stall = 0.3
    normal = request_body("gemv", "bank-level", 32)
    blocking = request_body("gemv", "bank-level", 64)
    due = [i * 0.01 for i in range(20)]
    schedule = [
        ServeRequest(d, "warm", 0 if i < 10 else 1, blocking if i == 9 else normal)
        for i, d in enumerate(due)
    ]

    class Service:
        async def evaluate(self, body):
            if body == blocking:
                time.sleep(stall)  # blocks the event loop, generator included
            request = json.loads(body)
            return 200, {
                "status": "ok", "benchmark": request["benchmark"],
                "device": request["device"], "num_ranks": request["ranks"],
                "paper_scale": True, "vector": False,
                "result": {"op_counts": {"add": 1}},
            }

    class Reference:
        def check_cell(self, *_args):
            return []

    traffic = {"warm": [], "schedule": schedule,
               "rungs": [(0.1 * i, 0.1) for i in range(len(inputs.SERVE_LADDER))]}
    result = asyncio.run(workloads.serve_traffic(Service(), traffic, Reference()))
    assert result["failed"] == 0
    latencies = result["nominal_latency_s"]
    stalled_until = due[9] + stall
    for index in range(10, 20):
        if due[index] < stalled_until - 0.05:
            assert latencies[index] >= stalled_until - due[index] - 0.02
