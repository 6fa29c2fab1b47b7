"""Open-loop request generator.

Requests are sent on a fixed schedule whether or not earlier ones have
finished, as independent users would send them.  Each request's latency
is timed from the moment it was *due*, so a stall anywhere -- in the
service or in the generator's own event loop -- is charged to every
request queued behind it, and the generator reports how late it ran.
"""

from __future__ import annotations

import asyncio
import time
import typing


class Sent(typing.NamedTuple):
    """One request's timing (seconds on the generator's clock)."""

    index: int
    due: float
    sent: float
    done: float
    result: object
    error: "BaseException | None"

    @property
    def latency_s(self) -> float:
        return self.done - self.due

    @property
    def lag_s(self) -> float:
        return self.sent - self.due


class LoopResult(typing.NamedTuple):
    sent: "list[Sent]"
    #: Outstanding requests right after each send, in schedule order.
    backlog: "list[int]"


async def open_loop(
    due_s: "typing.Sequence[float]",
    send: "typing.Callable[[int], typing.Awaitable[object]]",
    clock: "typing.Callable[[], float]" = time.perf_counter,
) -> LoopResult:
    """Send request ``i`` at ``start + due_s[i]`` by awaiting ``send(i)``.

    ``due_s`` must be non-decreasing.  An exception from ``send`` is
    recorded on the request, never raised.
    """
    start = clock()
    records: "list[Sent | None]" = [None] * len(due_s)
    backlog: "list[int]" = []
    outstanding = 0

    async def one(index: int, due: float, sent: float) -> None:
        nonlocal outstanding
        result: object = None
        error: "BaseException | None" = None
        try:
            result = await send(index)
        except Exception as exc:  # noqa: BLE001 - recorded as a failed request
            error = exc
        finally:
            outstanding -= 1
        records[index] = Sent(index, due, sent, clock(), result, error)

    tasks = []
    for index, offset in enumerate(due_s):
        due = start + offset
        delay = due - clock()
        if delay > 0:
            await asyncio.sleep(delay)
        outstanding += 1
        backlog.append(outstanding)
        tasks.append(asyncio.create_task(one(index, due, clock())))
    await asyncio.gather(*tasks)
    return LoopResult([r for r in records if r is not None], backlog)


def backlog_growing(backlog: "typing.Sequence[int]") -> bool:
    """Whether outstanding work grew across a rung: the mean of its last
    quarter exceeds twice the mean of its first quarter plus two."""
    if len(backlog) < 8:
        return False
    quarter = len(backlog) // 4
    head = sum(backlog[:quarter]) / quarter
    tail = sum(backlog[-quarter:]) / quarter
    return tail > 2 * head + 2
