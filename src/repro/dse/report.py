"""Sweep reporting: byte-stable JSON payloads plus human-readable tables.

Two consumers, two formats:

* :func:`sweep_payload` / :func:`render_json` -- the machine-readable
  report ``repro dse run --report`` writes.  Serialized with
  ``sort_keys=True`` over deterministic content (spec enumeration order,
  geometric means of analytic simulation), so two runs of the same spec
  produce **byte-identical** files at any ``--jobs`` -- CI diffs them
  directly.
* :func:`format_sweep` -- the terminal rendering: the frontier table,
  the per-benchmark winner table, and (when the sweep covers two or
  more benchmarks) the "which architecture class wins which benchmark
  class" table built on :mod:`repro.analysis`'s Figure 1 feature
  extraction and Ward clustering.
"""

from __future__ import annotations

import json

from repro.dse.sweep import PointOutcome, SweepResult

#: Version of the report payload layout.
REPORT_SCHEMA = 1


def _point_entry(outcome: PointOutcome, on_frontier: bool) -> dict:
    entry: "dict[str, object]" = {
        "id": outcome.point.point_id,
        "base": outcome.point.base,
        "knobs": outcome.point.knobs_dict(),
        "failed": outcome.failed,
        "per_benchmark": outcome.per_benchmark,
        "on_frontier": on_frontier,
    }
    if outcome.metrics is not None:
        entry["metrics"] = {
            "latency_ns": outcome.metrics.latency_ns,
            "energy_nj": outcome.metrics.energy_nj,
            "area_proxy": outcome.metrics.area_proxy,
        }
    if outcome.errors:
        entry["errors"] = dict(outcome.errors)
    return entry


def benchmark_winners(result: SweepResult) -> "dict[str, dict[str, object]]":
    """Per benchmark: the fastest and the most energy-efficient point."""
    winners: "dict[str, dict[str, object]]" = {}
    for benchmark in result.spec.benchmarks:
        rows = [
            (outcome, outcome.per_benchmark[benchmark])
            for outcome in result.outcomes
            if benchmark in outcome.per_benchmark and not outcome.failed
        ]
        if not rows:
            continue
        fastest = min(rows, key=lambda r: r[1]["latency_ns"])
        leanest = min(rows, key=lambda r: r[1]["energy_nj"])
        winners[benchmark] = {
            "fastest": {
                "id": fastest[0].point.point_id,
                "base": fastest[0].point.base,
                "latency_ns": fastest[1]["latency_ns"],
            },
            "most_efficient": {
                "id": leanest[0].point.point_id,
                "base": leanest[0].point.base,
                "energy_nj": leanest[1]["energy_nj"],
            },
        }
    return winners


def benchmark_classes(result: SweepResult) -> "dict[str, int]":
    """Benchmark -> class id via the Figure 1 feature clustering.

    Features come from each benchmark's first evaluated result (the
    feature vector characterizes the *benchmark* -- op mix, access
    pattern, arithmetic intensity -- not the design point).  Fewer than
    two benchmarks cluster trivially into class 1.
    """
    benchmarks = [
        b for b in result.spec.benchmarks if b in result.sample_results
    ]
    if len(benchmarks) < 2:
        return {b: 1 for b in benchmarks}
    from repro.analysis.clustering import build_dendrogram
    from repro.analysis.features import extract_features
    from repro.engine.cells import resolve_benchmark_class

    features = []
    names = {}
    for key in benchmarks:
        cls = resolve_benchmark_class(key)
        bench = cls(**cls.paper_params())
        feature = extract_features(bench, result.sample_results[key])
        features.append(feature)
        names[feature.name] = key
    dendrogram = build_dendrogram(features)
    num_clusters = min(3, len(features))
    by_label = dendrogram.cluster_of(num_clusters)
    return {names[label]: cluster for label, cluster in by_label.items()}


def class_winners(result: SweepResult) -> "dict[str, dict[str, object]]":
    """Per benchmark class: the architecture *base* that wins it.

    The winning base is the one whose best point has the lowest
    geometric-mean latency over the class's benchmarks -- the sweep
    answer to "which architecture class wins which benchmark class".
    """
    from repro.experiments.runner import geometric_mean

    classes = benchmark_classes(result)
    winners: "dict[str, dict[str, object]]" = {}
    for cluster in sorted(set(classes.values())):
        members = sorted(b for b, c in classes.items() if c == cluster)
        best: "tuple[float, str, str] | None" = None
        for outcome in result.outcomes:
            if outcome.failed:
                continue
            rows = [
                outcome.per_benchmark[b]
                for b in members
                if b in outcome.per_benchmark
            ]
            if len(rows) != len(members):
                continue
            latency = geometric_mean(r["latency_ns"] for r in rows)
            candidate = (latency, outcome.point.base, outcome.point.point_id)
            if best is None or candidate < best:
                best = candidate
        if best is None:
            continue
        winners[f"class-{cluster}"] = {
            "benchmarks": members,
            "winning_base": best[1],
            "winning_point": best[2],
            "gmean_latency_ns": best[0],
        }
    return winners


def sweep_payload(result: SweepResult) -> "dict[str, object]":
    """The full machine-readable report of one sweep."""
    on_frontier = set(result.frontier_ids)
    return {
        "schema": REPORT_SCHEMA,
        "spec": result.spec.to_dict(),
        "num_points": len(result.outcomes),
        "num_failed": sum(1 for o in result.outcomes if o.failed),
        "points": [
            _point_entry(o, o.point.point_id in on_frontier)
            for o in result.outcomes
        ],
        "frontier": list(result.frontier_ids),
        "winners": {
            "per_benchmark": benchmark_winners(result),
            "per_class": class_winners(result),
        },
    }


def render_json(payload: "dict[str, object]") -> str:
    """Byte-stable serialization: sorted keys, fixed indentation."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _knob_text(outcome: PointOutcome) -> str:
    return ", ".join(
        f"{name}={value}" for name, value in outcome.point.knobs
    ) or "(base)"


def format_sweep(result: SweepResult, verbose: bool = False) -> str:
    """Terminal rendering of a sweep: frontier first, then the tables."""
    lines = [
        f"Sweep {result.spec.name!r}: {len(result.outcomes)} design points "
        f"x {len(result.spec.benchmarks)} benchmark(s), "
        f"{len(result.frontier_ids)} on the Pareto frontier "
        f"({result.cache_hits} cached, {result.cache_misses} simulated, "
        f"{result.batched_cells} batch-priced, jobs={result.jobs})",
        "",
        "Pareto frontier (minimize latency, energy, area):",
        f"  {'point':<28} {'base':<10} {'latency_ns':>14} "
        f"{'energy_nj':>14} {'area':>10}",
    ]
    for outcome in result.frontier:
        metrics = outcome.metrics
        assert metrics is not None
        lines.append(
            f"  {outcome.point.point_id:<28} {outcome.point.base:<10} "
            f"{metrics.latency_ns:>14.1f} {metrics.energy_nj:>14.1f} "
            f"{metrics.area_proxy:>10.0f}"
        )
        if verbose:
            lines.append(f"      knobs: {_knob_text(outcome)}")
    failed = [o for o in result.outcomes if o.failed]
    if failed:
        lines.append("")
        lines.append(f"Failed points ({len(failed)}):")
        for outcome in failed:
            reasons = "; ".join(
                f"{b}: {msg}" for b, msg in sorted(outcome.errors.items())
            )
            lines.append(f"  {outcome.point.point_id}: {reasons}")
    winners = benchmark_winners(result)
    if winners:
        lines.append("")
        lines.append("Per-benchmark winners:")
        for benchmark, row in winners.items():
            fastest = row["fastest"]
            leanest = row["most_efficient"]
            lines.append(
                f"  {benchmark:<12} fastest {fastest['id']} "
                f"({fastest['base']}); most efficient {leanest['id']} "
                f"({leanest['base']})"
            )
    classes = class_winners(result)
    if classes:
        lines.append("")
        lines.append("Architecture class vs benchmark class:")
        for name, row in classes.items():
            members = ", ".join(row["benchmarks"])
            lines.append(
                f"  {name} [{members}]: {row['winning_base']} wins "
                f"(point {row['winning_point']}, gmean latency "
                f"{row['gmean_latency_ns']:.1f} ns)"
            )
    return "\n".join(lines)
