"""Workload inputs generated from the seed.

The simulator only ever receives what these functions return: suite
configurations, sweep-spec dicts and request bodies.  Every choice is
drawn from a fixed menu, and ``make_reference.py`` stores the expected
outputs of the whole menu, so the output check covers any seed.

The menus are chosen so that the amount of work per run hardly depends
on the seed (every (benchmark, architecture) pair appears in every run;
rank counts and geometry overrides barely change host cost), which keeps
run-to-run spread across seeds close to the spread of a fixed input.
"""

from __future__ import annotations

import random
import typing

#: Default rank count of ``repro suite`` (the paper evaluation).
PAPER_RANKS = 32
#: Extra rank counts suite-cold draws from (Figure 12 style: capacity
#: not enforced, the full Table I inputs at every count).
EXTRA_RANKS = (4, 8, 16, 64, 128)
#: Geometry overrides suite-cold draws from (Figure 6/13 style, at the
#: paper rank count).
EXTRA_OVERRIDES = (
    (("banks_per_rank", 32),),
    (("banks_per_rank", 64),),
    (("cols_per_subarray", 4096),),
    (("rows_per_subarray", 32768),),
)
#: The Figure 12 rank sweep (baseline first, as ``rank_scaling_table``
#: runs it).
FIG12_BASELINE = 4
FIG12_RANKS = (8, 16, 32)
FIG12_JOBS = 2

#: DSE menus: per base, the geometry-group axis, the plan-shaping knob
#: and a dense cost-knob menu the seed samples from.
DSE_BENCHMARKS = ("gemv", "vecadd", "axpy", "histogram", "linreg")
DSE_RANKS = 4
DSE_BANKS = (16, 32, 64)
DSE_FREQ_MENU = tuple(float(f) for f in range(100, 340, 5))  # 48 clocks
DSE_PJ_MENU = tuple(round(0.25 + 0.05 * i, 2) for i in range(48))
DSE_BASES = {
    "bank": ("pe_width_bits", (32, 64, 128), "pe_freq_mhz", DSE_FREQ_MENU),
    "fulcrum": ("pe_width_bits", (32, 64), "pe_freq_mhz", DSE_FREQ_MENU),
    "bit-serial": (
        "bitserial_num_registers", (4, 8), "alu_op_pj", DSE_PJ_MENU,
    ),
}
#: Cost-knob variants per geometry group in one run.
DSE_VARIANTS = 16

#: serve-mixed: rank counts requests draw from (capacity enforced, as
#: ``repro serve`` builds its cells); cells the model rejects at a rank
#: count are excluded via the reference file's ``serve_excluded`` list.
SERVE_RANKS = (4, 8, 16, 32, 64)
#: Open-loop rate ladder (requests/s), sent as one schedule.  It starts at ``repro
#: bench-serve``'s default 40 qps and doubles past that command's 320 qps
#: overload leg until the service saturates: on the 2-vCPU reference host
#: the service sustains about 2,400-4,500 warm hits/s, so the top rungs
#: overload it and the SLO ladder has rungs that fail.
SERVE_LADDER = (40.0, 80.0, 160.0, 320.0, 640.0, 1280.0, 2560.0, 5120.0, 10240.0)
#: Rungs up to this rate (bench-serve's overload leg) carry the mixed
#: traffic, and their requests give the reported latency median; the
#: faster rungs send warm hits only and locate the service's knee.
SERVE_NOMINAL_RPS = 320.0
#: How long a rung above the nominal rate lasts, relative to a nominal
#: rung: the nominal rungs get most of the traffic window (their latency
#: median is gated), and the overloaded top rung's backlog stays short
#: enough to drain within the run.
SERVE_KNEE_RUNG_SHARE = 0.5
#: Share of the nominal rungs' arrivals that name a never-seen cell
#: (rounded to whole rounds over the suite's pairs); half of those
#: leaders are joined by an identical request due at the same instant,
#: which the service coalesces onto the leader's in-flight evaluation.
#: An assumption, as is the rest of the mix: no user traffic has been
#: recorded, and ``repro bench-serve``'s duplicate-heavy leg (80% of
#: requests on one hot cell) is likewise almost all cache hits.
SERVE_NOVEL_SHARE = 0.15
#: Latency limit (ms) for goodput and the SLO ladder (an assumption).
SERVE_LATENCY_LIMIT_MS = 500.0
#: Traffic window as a share of ``--seconds`` (the rest is set-up and
#: draining the overloaded top rung).
SERVE_TRAFFIC_SHARE = 0.55
SERVE_WORKERS = 2
#: Admission queue bound.  ``repro serve`` defaults to 64 and sheds past
#: it; the benchmark raises it above any backlog the ladder can build,
#: so overload shows as latency charged to the queued requests instead
#: of as refused (failed) requests.
SERVE_QUEUE_LIMIT = 1 << 20


def suite_inputs(seed: int) -> dict:
    """suite-cold: the paper suite plus one rank count and one override."""
    rng = random.Random(f"suite-cold:{seed}")
    return {
        "configs": [
            {"num_ranks": PAPER_RANKS, "enforce_capacity": True,
             "overrides": []},
            {"num_ranks": rng.choice(EXTRA_RANKS), "enforce_capacity": False,
             "overrides": []},
            {"num_ranks": PAPER_RANKS, "enforce_capacity": False,
             "overrides": [list(kv) for kv in rng.choice(EXTRA_OVERRIDES)]},
        ],
    }


def figures_inputs(seed: int) -> dict:
    """figures-parallel: the Figure 12 sweep, non-baseline order shuffled."""
    rng = random.Random(f"figures-parallel:{seed}")
    ranks = list(FIG12_RANKS)
    rng.shuffle(ranks)
    return {
        "jobs": FIG12_JOBS,
        "configs": [
            {"num_ranks": r, "enforce_capacity": False, "overrides": []}
            for r in [FIG12_BASELINE, *ranks]
        ],
    }


def dse_inputs(seed: int) -> dict:
    """dse-sweep: one sweep-spec dict per base, cost knobs seed-sampled."""
    rng = random.Random(f"dse-sweep:{seed}")
    specs = []
    bases = list(DSE_BASES)
    rng.shuffle(bases)
    for base in bases:
        shape_knob, shape_values, cost_knob, cost_menu = DSE_BASES[base]
        costs = rng.sample(list(cost_menu), DSE_VARIANTS)
        specs.append({
            "name": f"perfbench-{base}",
            "base": base,
            "benchmarks": list(DSE_BENCHMARKS),
            "num_ranks": DSE_RANKS,
            "axes": {
                "banks_per_rank": list(DSE_BANKS),
                shape_knob: list(shape_values),
                cost_knob: costs,
            },
        })
    return {"specs": specs}


class ServeRequest(typing.NamedTuple):
    """One scheduled request: due time (s from traffic start) and body."""

    due_s: float
    kind: str  # "warm" | "novel" | "duplicate"
    rung: int
    body: bytes


def request_body(benchmark: str, device: str, ranks: int) -> bytes:
    """The ``POST /v1/cell`` body naming one paper-scale cell."""
    return (
        f'{{"benchmark":"{benchmark}","device":"{device}","ranks":{ranks}}}'
    ).encode()


def serve_rungs(traffic_s: float) -> "list[tuple[float, float]]":
    """(start, length) in seconds of each ladder rung."""
    weights = [1.0 if rate <= SERVE_NOMINAL_RPS else SERVE_KNEE_RUNG_SHARE
               for rate in SERVE_LADDER]
    unit = traffic_s / sum(weights)
    rungs, start = [], 0.0
    for weight in weights:
        rungs.append((start, weight * unit))
        start += weight * unit
    return rungs


def serve_inputs(
    seed: int,
    traffic_s: float,
    pairs: "typing.Sequence[tuple[str, str]]",
    excluded: "typing.Collection[tuple[str, str, int]]",
) -> dict:
    """serve-mixed: warm set, arrival schedule and request bodies.

    ``pairs`` are the suite's (benchmark, device) pairs.  Each pair gets
    one warm rank count (pre-loaded into the cache before traffic); novel
    requests, all on the nominal rungs, walk a seed-shuffled order of all
    pairs, each time at a rank count that pair has not been asked for
    yet, so every novel request is a cell the service has never
    evaluated.
    """
    rng = random.Random(f"serve-mixed:{seed}")
    ranks_for = {
        pair: [r for r in SERVE_RANKS if (*pair, r) not in excluded]
        for pair in pairs
    }
    warm = []
    unused: "dict[tuple[str, str], list[int]]" = {}
    for pair in pairs:
        options = list(ranks_for[pair])
        rng.shuffle(options)
        if not options:
            continue
        warm.append((pair[0], pair[1], options[0]))
        unused[pair] = options[1:]
    full_rounds = min((len(v) for v in unused.values()), default=0)
    novel_order: "list[tuple[str, str, int]]" = []
    for _ in range(len(SERVE_RANKS)):
        round_pairs = [p for p in pairs if unused.get(p)]
        rng.shuffle(round_pairs)
        novel_order.extend((*p, unused[p].pop()) for p in round_pairs)

    rungs = serve_rungs(traffic_s)
    slots: "list[tuple[float, int]]" = []
    for rung, (rate, (start, length)) in enumerate(zip(SERVE_LADDER, rungs)):
        for i in range(int(rate * length)):
            slots.append((start + (i + rng.random()) / rate, rung))
    nominal = [i for i, (_, rung) in enumerate(slots)
               if SERVE_LADDER[rung] <= SERVE_NOMINAL_RPS]
    # Whole rounds over the pairs, so every run executes the same
    # (benchmark, architecture) mix and only the rank counts differ.
    rounds = min(full_rounds,
                 max(1, round(SERVE_NOVEL_SHARE * len(nominal) / len(pairs))))
    novel_count = min(rounds * len(pairs), len(nominal))
    novel_slots = sorted(rng.sample(nominal, novel_count))
    duplicated = set(rng.sample(range(novel_count), novel_count // 2))
    schedule: "list[ServeRequest]" = []
    novel_at = dict(zip(novel_slots, range(novel_count)))
    warm_order: "list[tuple[str, str, int]]" = []
    for index, (due, rung) in enumerate(slots):
        nth = novel_at.get(index)
        if nth is None:
            # Warm hits walk seed-shuffled rounds over the warm set, so
            # each warm cell is asked equally often.
            if not warm_order:
                warm_order = list(warm)
                rng.shuffle(warm_order)
            cell = warm_order.pop()
            schedule.append(ServeRequest(due, "warm", rung, request_body(*cell)))
            continue
        body = request_body(*novel_order[nth])
        schedule.append(ServeRequest(due, "novel", rung, body))
        if nth in duplicated:
            schedule.append(ServeRequest(due, "duplicate", rung, body))
    return {
        "warm": warm,
        "schedule": schedule,
        "rungs": rungs,
    }


def nominal_only(inputs: dict) -> dict:
    """The same traffic cut to its nominal rungs.

    The traced run sends these only: above them, how many identical warm
    hits overlap in flight, and so coalesce, depends on the host's speed,
    and the per-layer counts must repeat exactly for a seed.
    """
    schedule = [r for r in inputs["schedule"]
                if SERVE_LADDER[r.rung] <= SERVE_NOMINAL_RPS]
    return dict(inputs, schedule=schedule)


def serve_params(inputs: dict) -> dict:
    """The JSON-friendly summary of serve inputs stamped on results."""
    kinds: "dict[str, int]" = {}
    for request in inputs["schedule"]:
        kinds[request.kind] = kinds.get(request.kind, 0) + 1
    return {
        "ladder_rps": list(SERVE_LADDER),
        "rungs_s": inputs["rungs"],
        "requests": len(inputs["schedule"]),
        "kinds": kinds,
        "warm_cells": len(inputs["warm"]),
        "nominal_rps": SERVE_NOMINAL_RPS,
        "latency_limit_ms": SERVE_LATENCY_LIMIT_MS,
        "workers": SERVE_WORKERS,
        "queue_limit": SERVE_QUEUE_LIMIT,
    }
