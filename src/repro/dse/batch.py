"""Sweep-level matrix pricing: every design point in one numpy pass.

The per-cell vector path (docs/VECTORIZATION.md) made *pricing* cheap
but still paid the benchmark's Python issue loop once per cell.  For a
design-space sweep that loop is almost always redundant: points sharing
a geometry signature (:mod:`repro.perf.plans`) issue byte-identical
command traces and differ only in their cost tables.  This module
prices a whole geometry group at once:

1. group the sweep's cells by :func:`~repro.perf.plans.plan_cache_key`;
2. compile (or load from the plan cache) **one**
   :class:`~repro.perf.plans.PricingPlan` per group;
3. evaluate each point's backend ``cost_table`` over the plan's shapes
   and stack the columns into ``(points x shapes)`` matrices;
4. rebuild every accumulator for *all* points in one vectorized pass,
   then synthesize per-cell :class:`~repro.engine.cells.CellOutcome`\\ s
   that pickle and report exactly like per-cell outcomes.

Only the plan is persisted.  A synthesized cell is derived data --
``plan x cost_table`` -- so it never enters the per-cell disk cache:
re-pricing a warm group costs less than hashing a key, writing a
pickle and reading it back for every (point, benchmark).

The float-summation contract is inherited unchanged from PR 7: each
point's totals are reconstructed with ``np.add.accumulate`` over the
plan's exact addend sequence (``np.sum``/pairwise reductions are
forbidden), row-wise across points -- ``np.add.accumulate(axis=1)`` is
defined as the same sequential left-to-right reduction per row -- so
every synthesized total is bit-identical to the per-cell vector result,
which is itself bit-identical to the scalar path.

``REPRO_NO_BATCH`` disables the batched path (the sweep falls back to
per-cell execution); ``REPRO_BATCH_CHECK=1`` (CLI: ``--batch-check``)
re-runs a deterministic sample of synthesized cells through the
per-cell engine path and compares every accumulator and the serialized
result at full bit precision (``struct.pack`` hex), raising
:class:`~repro.perf.vector.VectorEquivalenceError` on divergence.
"""

from __future__ import annotations

import dataclasses
import os
import time
import typing
import warnings
from collections import OrderedDict

import numpy as np

from repro.bench.common import BenchmarkResult
from repro.core.stats import (
    CmdStats,
    CopyStats,
    EventCounts,
    StatsSnapshot,
)
from repro.engine.cells import CellOutcome
from repro.obs.telemetry import CellTelemetry
from repro.perf.plans import (
    COST_ONLY_ARCH_FIELDS,
    PricingPlan,
    compile_plan,
    plan_cache_key,
)
from repro.perf.vector import (
    _DIRECTIONS,
    EVENT_FIELDS,
    VectorStatsTracker,
    _first_occurrence_order,
    _ordered_sum,
    verify_equivalence,
)

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.arch.base import ArchBackend
    from repro.config.device import DeviceConfig
    from repro.engine.cache import DiskCache
    from repro.engine.cells import CellSpec

# The pricing loop builds EventCounts positionally from EVENT_FIELDS
# rows; guard the field alignment the construction relies on.
assert EVENT_FIELDS == tuple(
    field.name for field in dataclasses.fields(EventCounts)
), "EVENT_FIELDS must mirror EventCounts field order"

#: Environment switch disabling the batched sweep path entirely (any
#: non-empty value): ``run_sweep`` falls back to per-cell execution.
NO_BATCH_ENV = "REPRO_NO_BATCH"

#: Environment switch arming the batched-vs-per-cell sample check (any
#: non-empty value; CLI: ``repro dse run --batch-check``).
BATCH_CHECK_ENV = "REPRO_BATCH_CHECK"

#: Cost-table value fields, in the order finalize consumes them.
_FIELD_ORDER = ("latency_ns", "execution_nj", "background_nj") + EVENT_FIELDS

#: Soft cap on the expanded-addend matrix (points x repeated entries)
#: one pricing slab may hold, in float64 elements (~128 MiB).  Purely a
#: memory bound: rows are independent, so slabbing cannot change a bit.
_SLAB_ELEMENTS = 16_000_000


def batching_disabled() -> bool:
    """Whether ``REPRO_NO_BATCH`` forces the per-cell sweep path."""
    return bool(os.environ.get(NO_BATCH_ENV))


def batch_check_enabled() -> bool:
    """Whether the batched-vs-per-cell sample gate is armed."""
    return bool(os.environ.get(BATCH_CHECK_ENV))


def batch_eligible(spec: "CellSpec") -> bool:
    """Whether one cell can be priced from a shared plan.

    Mirrors the per-cell vector activation rule
    (:func:`repro.engine.cells.run_cell`): analytic, unobserved,
    fault-free.  Functional cells move real data, observed cells need
    per-issue events, and fault cells hook the functional engine -- all
    take the per-cell path with ``telemetry.batched=False``.
    """
    return bool(spec.vector) and not spec.functional and spec.fault_plan is None


@dataclasses.dataclass
class BatchReport:
    """What one :func:`price_cells_batched` call did."""

    synthesized: int = 0
    plan_hits: int = 0
    plan_misses: int = 0
    checked: int = 0
    #: Cells the batched path declined (a group whose compile failed);
    #: the sweep routes them through the per-cell engine instead.
    deferred: int = 0


def _trace_group_key(
    spec: "CellSpec", backend: "ArchBackend"
) -> "typing.Hashable | None":
    """Cheap pre-grouping key: same key => same plan cache key.

    :func:`~repro.perf.plans.plan_cache_key` canonicalizes the whole
    derived config, which costs real time per point; but for a
    :class:`~repro.arch.parametric.ParametricBackend` the plan key is
    fully determined by the base backend, the cell's trace-affecting
    fields, and the knobs that are not cost-only (the normalized knob
    names *are* config field names).  Grouping on that tuple lets the
    sweep hash the full key once per group instead of once per point.
    Finer-than-necessary grouping would merely compile twice; coarser
    is impossible because every plan-key ingredient appears here.
    Returns ``None`` for non-parametric backends (full key per cell).
    """
    knobs = getattr(backend, "knobs", None)
    base = getattr(backend, "base", None)
    if knobs is None or base is None:
        return None
    from repro.arch.parametric import ENERGY_KNOBS

    trace_knobs = tuple(
        (name, value)
        for name, value in knobs
        if name not in COST_ONLY_ARCH_FIELDS and name not in ENERGY_KNOBS
    )
    return (
        base.id,
        spec.benchmark_key,
        spec.num_ranks,
        spec.paper_scale,
        spec.enforce_capacity,
        spec.geometry_overrides,
        trace_knobs,
    )


_DEFAULT_POWER = None


def _default_power():
    """One shared default :class:`PowerConfig` (frozen, process-wide).

    Every per-cell device constructs ``PowerConfig()`` afresh; the
    values are identical by definition, so the batched pricer builds it
    once and shares the instance across points.
    """
    global _DEFAULT_POWER
    if _DEFAULT_POWER is None:
        from repro.config.power import PowerConfig

        _DEFAULT_POWER = PowerConfig()
    return _DEFAULT_POWER


def _point_pipeline(
    backend: "ArchBackend",
    config: "DeviceConfig",
    memo: "bool | None" = None,
) -> "typing.Any":
    """The exact pricing stack a :class:`PimDevice` would build.

    Same constructors, same order (``repro.core.device.PimDevice``):
    the perf model from the dispatcher, the energy model with the
    default power config, the memoizing pipeline bound to the point's
    backend -- so ``cost_table`` prices every shape bit-identically to
    the per-cell run.  The batched pricer passes ``memo=False``: a
    pipeline that prices each distinct shape exactly once and is then
    dropped can never hit its memo, and the memo changes only *when*
    costs are derived, never their values.

    Dispatch shortcuts only, never value shortcuts: the backend in hand
    is exactly what ``arch_for(config)`` resolves while the sweep's
    registration window is open, so calling its factory directly and
    pre-resolving the ALU energy constant produce the same objects the
    per-cell engine builds -- minus two registry lookups per point.
    """
    from repro.energy.model import EnergyModel
    from repro.perf.memo import CostPipeline

    perf = backend.make_perf_model(config)
    energy = EnergyModel(config, power=_default_power(), backend=backend)
    return CostPipeline(perf, energy, backend, enabled=memo)


def _ordered_row_sums(
    addends: np.ndarray, reps: "np.ndarray | None"
) -> np.ndarray:
    """Row-wise :func:`repro.perf.vector._ordered_sum`: ``(P, E) -> (P,)``.

    ``np.add.accumulate`` along axis 1 is the sequential left-to-right
    reduction applied independently per row, so row ``p`` of the result
    is bit-identical to ``_ordered_sum(addends[p], reps)``.
    """
    points = addends.shape[0]
    if addends.shape[1] == 0:
        return np.zeros(points, dtype=np.float64)
    if reps is not None and not bool(np.all(reps == 1)):
        addends = np.repeat(addends, reps, axis=1)
    seq = np.empty((points, addends.shape[1] + 1), dtype=np.float64)
    seq[:, 0] = 0.0
    seq[:, 1:] = addends
    return np.add.accumulate(seq, axis=1)[:, -1]


def _literal_values(plan: PricingPlan) -> np.ndarray:
    """Per-literal value rows, aligned with ``_FIELD_ORDER``."""
    count = len(plan.literals)
    values = np.zeros((len(_FIELD_ORDER), count), dtype=np.float64)
    for index, (lat, en, bg, events) in enumerate(plan.literals):
        values[0, index] = lat
        values[1, index] = en
        values[2, index] = bg
        for offset in range(len(EVENT_FIELDS)):
            values[3 + offset, index] = events[offset]
    return values


def price_group(
    plan: PricingPlan,
    group: "list[tuple[CellSpec, ArchBackend, DeviceConfig]]",
) -> "list[CellOutcome]":
    """Price every point of one geometry group from its shared plan.

    Returns one synthesized :class:`~repro.engine.cells.CellOutcome`
    per group entry, in order.  Each outcome's totals are bit-identical
    to what the per-cell vector path would produce for the same spec.
    """
    group_wall0 = time.perf_counter()
    group_cpu0 = time.process_time()
    points = len(group)
    entries = plan.num_entries

    # Per-point cost tables: the only per-point model evaluation left.
    # The pipelines run with memoization off: each one prices the
    # plan's few distinct shapes exactly once and is then dropped, so
    # at this granularity the memo can never hit -- its key hashing
    # would be pure per-point overhead.  Values are unchanged either
    # way (the memo changes *when* costs are derived, never *what*
    # they are); the synthesized telemetry reports zero memo traffic,
    # which is exactly what happened.
    tables = []
    memo_stats = (0, 0, 0)
    for _spec, backend, config in group:
        pipeline = _point_pipeline(backend, config, memo=False)
        if plan.shape_args:
            table = backend.cost_table(pipeline, plan.shape_args)
            if len(table) != plan.num_shapes:
                raise ValueError(
                    f"cost_table returned {len(table)} rows for "
                    f"{plan.num_shapes} shapes"
                )
        else:
            table = None
        tables.append(table)

    shape_col = plan.cmd_shape
    is_shape = shape_col >= 0
    literal_mask = ~is_shape
    any_shape = bool(np.any(is_shape))
    any_literal = bool(np.any(literal_mask))
    shape_rows = shape_col[is_shape]
    literal_rows = (-1 - shape_col[literal_mask]).astype(np.int64)
    mult = plan.cmd_mult
    batch = plan.cmd_batch.astype(bool)
    multf = mult.astype(np.float64)
    premult = is_shape & ~batch
    scale = np.where(premult, multf, 1.0)
    reps = np.where(batch, mult, 1)
    lit_values = _literal_values(plan) if any_literal else None

    # (points x shapes) cost matrix per value field.
    field_matrices: "list[np.ndarray | None]" = []
    for field in _FIELD_ORDER:
        if any_shape:
            field_matrices.append(np.stack(
                [np.asarray(getattr(table, field), dtype=np.float64)
                 for table in tables]
            ))
        else:
            field_matrices.append(None)

    # Integer censuses: point-independent, exact int64 scatter-adds.
    bucket_counts = np.zeros(len(plan.bucket_names), dtype=np.int64)
    kind_counts = np.zeros(len(plan.kind_objs), dtype=np.int64)
    bucket_order: "list[int]" = []
    kind_order: "list[int]" = []
    bucket_masks: "list[np.ndarray]" = []
    if entries:
        np.add.at(bucket_counts, plan.cmd_bucket, mult)
        np.add.at(kind_counts, plan.cmd_kind, mult)
        bucket_order = [
            int(b) for b in _first_occurrence_order(plan.cmd_bucket)
        ]
        kind_order = [int(k) for k in _first_occurrence_order(plan.cmd_kind)]
        bucket_masks = [plan.cmd_bucket == b for b in bucket_order]

    # Per-point float totals, filled slab by slab (rows independent).
    lat_by_bucket = np.zeros((len(bucket_order), points), dtype=np.float64)
    en_by_bucket = np.zeros((len(bucket_order), points), dtype=np.float64)
    background = np.zeros(points, dtype=np.float64)
    event_totals = np.zeros((len(EVENT_FIELDS), points), dtype=np.float64)
    if entries:
        expanded = int(reps.sum())
        slab = max(1, _SLAB_ELEMENTS // max(1, expanded))
        for start in range(0, points, slab):
            stop = min(points, start + slab)
            rows = stop - start
            for row, field in enumerate(_FIELD_ORDER):
                values = np.empty((rows, entries), dtype=np.float64)
                if any_shape:
                    matrix = field_matrices[row]
                    assert matrix is not None
                    values[:, is_shape] = matrix[start:stop][:, shape_rows]
                if any_literal:
                    assert lit_values is not None
                    values[:, literal_mask] = lit_values[row][literal_rows]
                addends = values * scale
                if row == 0:
                    for index, mask in enumerate(bucket_masks):
                        lat_by_bucket[index, start:stop] = _ordered_row_sums(
                            addends[:, mask], reps[mask]
                        )
                elif row == 1:
                    for index, mask in enumerate(bucket_masks):
                        en_by_bucket[index, start:stop] = _ordered_row_sums(
                            addends[:, mask], reps[mask]
                        )
                elif row == 2:
                    background[start:stop] = _ordered_row_sums(addends, reps)
                else:
                    event_totals[row - 3, start:stop] = _ordered_row_sums(
                        addends, reps
                    )

    # Copies and host totals: pre-priced in the plan, point-independent.
    copies: "dict[str, CopyStats]" = {}
    for index, name in enumerate(_DIRECTIONS):
        mask = plan.copy_dir == index
        if not bool(np.any(mask)):
            continue
        copies[name] = CopyStats(
            num_bytes=int(plan.copy_bytes[mask].sum()),
            latency_ns=_ordered_sum(plan.copy_latency[mask], None),
            energy_nj=_ordered_sum(plan.copy_energy[mask], None),
        )
    host_time = _ordered_sum(plan.host_time, None)
    host_energy = _ordered_sum(plan.host_energy, None)

    group_wall = time.perf_counter() - group_wall0
    group_cpu = time.process_time() - group_cpu0

    from repro.obs.telemetry import peak_rss_kb

    # One RSS sample serves the whole group: the per-cell path samples
    # after each cell, but within one pricing pass the value cannot
    # meaningfully change between points.
    rss_kb = peak_rss_kb()

    # Bulk-convert the totals to Python floats once (``tolist`` is the
    # same lossless binary64 conversion ``float()`` performs per cell),
    # transposed so the outcome loop reads one row per *point*.
    lat_cols = lat_by_bucket.T.tolist()
    en_cols = en_by_bucket.T.tolist()
    bg_list = background.tolist()
    event_cols = event_totals.T.tolist()
    bucket_labels = [plan.bucket_names[b] for b in bucket_order]
    bucket_totals = [int(bucket_counts[b]) for b in bucket_order]
    op_counts_shared = {
        plan.kind_objs[kind]: int(kind_counts[kind])
        for kind in kind_order
    }
    # The category census and command total are point-independent --
    # every point of the group issues the same integer command counts.
    cat_counts: "dict" = {}
    for kind, count in op_counts_shared.items():
        if count:
            cat_counts[kind.category] = (
                cat_counts.get(kind.category, 0) + count
            )
    commands_total = int(sum(cat_counts.values()))
    # Copy and host totals are point-independent.  Pre-sum them once in
    # the exact attribute order the ``StatsTracker.copy_*`` properties
    # use (h2d + d2h + d2d, left to right), so the snapshots built below
    # are bit-identical to what ``tracker.snapshot()`` would compute.
    zero_copy = CopyStats()
    h2d = copies.get("h2d", zero_copy)
    d2h = copies.get("d2h", zero_copy)
    d2d = copies.get("d2d", zero_copy)
    copy_time = h2d.latency_ns + d2h.latency_ns + d2d.latency_ns
    copy_energy = h2d.energy_nj + d2h.energy_nj + d2d.energy_nj
    copy_bytes = h2d.num_bytes + d2h.num_bytes + d2d.num_bytes
    label_totals = list(zip(bucket_labels, bucket_totals))
    outcomes: "list[CellOutcome]" = []
    for position, (spec, _backend, config) in enumerate(group):
        commands: "OrderedDict[str, CmdStats]" = OrderedDict()
        lat_row = lat_cols[position]
        en_row = en_cols[position]
        # ``sum()`` in the kernel_time_ns/kernel_energy_nj properties
        # starts from int 0 and folds left to right over the bucket
        # insertion order -- replicated exactly here.
        kernel_time: float = 0
        kernel_energy: float = 0
        for index, (label, total) in enumerate(label_totals):
            lat = lat_row[index]
            en = en_row[index]
            commands[label] = CmdStats(
                count=total, latency_ns=lat, energy_nj=en,
            )
            kernel_time = kernel_time + lat
            kernel_energy = kernel_energy + en
        op_counts = dict(op_counts_shared)
        events = (
            EventCounts(*event_cols[position]) if entries else EventCounts()
        )
        tracker = VectorStatsTracker.synthesize_sealed(
            commands=commands,
            op_counts=op_counts,
            copies=copies,
            background_energy_nj=bg_list[position],
            events=events,
            host_time_ns=host_time,
            host_energy_nj=host_energy,
        )
        delta = StatsSnapshot(
            kernel_time_ns=kernel_time,
            kernel_energy_nj=kernel_energy,
            copy_time_ns=copy_time,
            copy_energy_nj=copy_energy,
            copy_bytes=copy_bytes,
            background_energy_nj=bg_list[position],
            host_time_ns=host_time,
            host_energy_nj=host_energy,
            events=events,
        )
        outcomes.append(_synthesize_outcome(
            spec, plan, config, tracker,
            memo_stats,
            wall_s=group_wall / points,
            cpu_s=group_cpu / points,
            rss_kb=rss_kb,
            op_counts_cat=cat_counts,
            commands=commands_total,
            delta=delta,
        ))
    return outcomes


def _synthesize_outcome(
    spec: "CellSpec",
    plan: PricingPlan,
    config: "DeviceConfig",
    tracker: VectorStatsTracker,
    memo: "tuple[int, int, int]",
    wall_s: float,
    cpu_s: float,
    rss_kb: "int | None" = None,
    op_counts_cat: "dict | None" = None,
    commands: "int | None" = None,
    delta: "StatsSnapshot | None" = None,
) -> "CellOutcome":
    """Wrap one point's synthesized totals as a normal cell outcome.

    Mirrors :meth:`repro.bench.common.PimBenchmark.run` (the delta
    against a fresh tracker's zero snapshot, the op census aggregated by
    category in first-occurrence order) and
    :func:`repro.engine.cells.run_cell` (sealed tracker, modeled
    duration, telemetry), so downstream consumers -- reports, the
    frontier, the batch-check gate -- cannot tell a synthesized outcome
    from a simulated one.  Synthesized outcomes are never written to the
    per-cell disk cache; the plan they were priced from is.
    """
    if rss_kb is None:
        from repro.obs.telemetry import peak_rss_kb

        rss_kb = peak_rss_kb()
    # The per-cell path deltas against a pre-run snapshot; a synthesized
    # tracker's baseline is the empty snapshot, and subtracting it is
    # byte-identical (type, structure, and every float bit) to the
    # snapshot itself, so the subtraction is skipped.  ``price_group``
    # passes the snapshot pre-built from the same totals (same addends,
    # same fold order) so the tracker's property chain is not re-walked
    # per point; both shortcuts are held by the batch-check gate, which
    # compares the serialized results byte for byte.
    if delta is None:
        delta = tracker.snapshot()
    if op_counts_cat is not None:
        op_counts = dict(op_counts_cat)
    else:
        op_counts = {}
        for kind, count in tracker.op_counts.items():
            if count:
                op_counts[kind.category] = (
                    op_counts.get(kind.category, 0) + count
                )
    result = BenchmarkResult(
        benchmark=plan.benchmark_name,
        device_type=config.device_type,
        stats=delta,
        op_counts=op_counts,
        cpu_time_ns=plan.cpu_time_ns,
        cpu_energy_nj=plan.cpu_energy_nj,
        gpu_time_ns=plan.gpu_time_ns,
        gpu_energy_nj=plan.gpu_energy_nj,
        verified=None,
    )
    memo_hits, memo_misses, memo_shapes = memo
    telemetry = CellTelemetry(
        benchmark=spec.benchmark_key,
        device=str(getattr(spec.device_type, "value", spec.device_type)),
        num_ranks=spec.num_ranks,
        attempt=1,
        wall_s=wall_s,
        cpu_s=cpu_s,
        peak_rss_kb=rss_kb,
        commands_simulated=(
            commands if commands is not None
            else int(sum(result.op_counts.values()))
        ),
        memo_hits=memo_hits,
        memo_misses=memo_misses,
        memo_shapes=memo_shapes,
        faults_injected=(),
        vector=True,
        batched=True,
    )
    return CellOutcome(
        result=result,
        tracker=tracker,
        sim_dur_ns=result.stats.total_time_ns,
        telemetry=telemetry,
    )


def _check_sample(
    entries: "list[tuple[CellSpec, ArchBackend]]",
    outcomes: "dict[CellSpec, CellOutcome]",
) -> int:
    """Re-run a deterministic sample per-cell and bit-compare.

    Sample: the first, middle, and last synthesized cells of the batch
    (stable for a given sweep enumeration).  Raises
    :class:`~repro.perf.vector.VectorEquivalenceError` on the first
    diverging accumulator or serialized-result byte.
    """
    from repro.engine.cells import run_cell

    synthesized = [spec for spec, _backend in entries if spec in outcomes]
    if not synthesized:
        return 0
    picks = sorted({0, len(synthesized) // 2, len(synthesized) - 1})
    checked = 0
    for position in picks:
        spec = synthesized[position]
        reference = run_cell(spec)
        batchedo = outcomes[spec]
        assert reference.result is not None and batchedo.result is not None
        verify_equivalence(
            batchedo.tracker,
            reference.tracker,
            batchedo.result,
            reference.result,
            label=(
                f"batched {spec.benchmark_key} on "
                f"{getattr(spec.device_type, 'value', spec.device_type)}"
            ),
        )
        checked += 1
    return checked


def price_cells_batched(
    entries: "list[tuple[CellSpec, ArchBackend]]",
    use_cache: bool = True,
    cache_dir: "str | os.PathLike | None" = None,
) -> "tuple[dict[CellSpec, CellOutcome], BatchReport]":
    """Price every eligible cell from the plan cache + matrix pricer.

    ``entries`` pairs each cell spec with its (derived) backend; the
    backends must be registry-resolvable while this runs (the sweep
    calls inside its registration window).  Cells are grouped by plan
    key, each group's plan is loaded from (or compiled into) the plan
    cache, every point is priced, and the telemetry is merged into the
    global registry in entry order -- the same accounting contract as
    ``run_cells``.

    The plan cache is the only persistence: a cell's numbers are fully
    determined by ``plan x cost_table``, so re-pricing a warm group is
    cheaper than keying, writing and reading back one per-cell entry
    per (point, benchmark).  ``use_cache=False`` bypasses the plan
    cache too (every group compiles).

    A group whose compile or pricing fails is *deferred*, not failed:
    its cells are left out of the returned mapping and the sweep routes
    them through the per-cell engine, which owns failure semantics.
    """
    from repro.engine.cache import DiskCache
    from repro.obs.metrics import global_registry
    from repro.obs.telemetry import merge_cell_telemetry

    cache: "DiskCache | None" = DiskCache(cache_dir) if use_cache else None
    report = BatchReport()
    outcomes: "dict[CellSpec, CellOutcome]" = {}

    groups: "OrderedDict[str, list[tuple[CellSpec, ArchBackend, DeviceConfig]]]" = OrderedDict()
    known_keys: "dict[typing.Hashable, str]" = {}
    unkeyed = 0
    for spec, backend in entries:
        # A cell whose config or plan key cannot even be computed (an
        # unknown benchmark, an invalid geometry) is deferred like a
        # failed compile: the per-cell engine owns failure semantics
        # and will produce the coded error outcome.
        try:
            config = backend.make_config(
                spec.num_ranks, **dict(spec.geometry_overrides)
            )
            cheap = _trace_group_key(spec, backend)
            plan_key = known_keys.get(cheap) if cheap is not None else None
            if plan_key is None:
                plan_key = plan_cache_key(backend, spec, config)
                if cheap is not None:
                    known_keys[cheap] = plan_key
        except Exception:  # noqa: BLE001 - defer to the engine path
            report.deferred += 1
            unkeyed += 1
            continue
        groups.setdefault(plan_key, []).append((spec, backend, config))
    if unkeyed:
        warnings.warn(
            f"batched pricing deferred {unkeyed} cell(s) whose "
            "pricing plan could not be keyed to the per-cell engine",
            RuntimeWarning,
            stacklevel=2,
        )

    registry = global_registry()
    for plan_key, group in groups.items():
        try:
            plan = cache.get_plan(plan_key) if cache is not None else None
            if plan is None:
                spec0, backend0, config0 = group[0]
                plan = compile_plan(spec0, backend0, config0)
                report.plan_misses += 1
                registry.counter("plan_cache.misses").inc()
                if cache is not None:
                    cache.put_plan(plan_key, plan)
            else:
                report.plan_hits += 1
                registry.counter("plan_cache.hits").inc()
            priced = price_group(plan, group)
        except Exception as exc:  # noqa: BLE001 - defer to the engine path
            report.deferred += len(group)
            warnings.warn(
                f"batched pricing deferred {len(group)} cell(s) to the "
                f"per-cell engine: {type(exc).__name__}: {exc}",
                RuntimeWarning,
                stacklevel=2,
            )
            continue
        for (spec, _backend, _config), outcome in zip(group, priced):
            outcomes[spec] = outcome
        report.synthesized += len(priced)

    if batch_check_enabled():
        report.checked = _check_sample(entries, outcomes)

    merge_cell_telemetry(
        registry,
        (telemetry for spec, _backend in entries
         if spec in outcomes
         and (telemetry := getattr(outcomes[spec], "telemetry", None))
         is not None),
    )
    return outcomes, report
