"""Regenerate ``reference/universe.json.gz``: expected outputs of every input.

Run from the checkout root::

    python3 perfbench/make_reference.py

Only regenerate on purpose, when a model change is intended: the file
is what every benchmark run is checked against.  It holds

* ``suites`` -- per suite configuration (rank count plus geometry
  overrides), each cell's ``BenchmarkResult.to_dict()`` record;
* ``dse`` -- per design point of the full DSE menus, the point metrics
  and each benchmark's latency, energy and command count;
* ``serve_excluded`` -- the serve cells the model rejects by design at
  enforced capacity (for example paper-scale ``vecadd`` on bit-serial
  at few ranks, which fails with ``PimAllocationError``);
* ``pairs`` -- the suite's (benchmark, architecture) pairs.

The script also asserts that enforcing capacity never changes a cell
that fits, which is what lets the serve and suite workloads share the
per-configuration records.
"""

from __future__ import annotations

import gzip
import json
import sys

import common
import inputs
import reference as refmod


def main() -> int:
    common.scrub_process_env()
    sys.path.insert(0, str(common.SRC))
    from repro.dse import SweepSpec, run_sweep
    from repro.experiments.runner import BENCHMARK_ORDER, DEVICE_ORDER, run_suite

    def cells(suite) -> "dict[str, dict]":
        return {
            refmod.cell_key(key, device.value): result.to_dict()
            for (key, device), result in suite.results.items()
        }

    configs = {(inputs.PAPER_RANKS, ())}
    configs |= {(r, ()) for r in inputs.EXTRA_RANKS}
    configs |= {(inputs.FIG12_BASELINE, ())} | {(r, ()) for r in inputs.FIG12_RANKS}
    configs |= {(r, ()) for r in inputs.SERVE_RANKS}
    configs |= {(inputs.PAPER_RANKS, ov) for ov in inputs.EXTRA_OVERRIDES}
    suites: "dict[str, dict]" = {}
    for ranks, overrides in sorted(configs):
        suite = run_suite(
            num_ranks=ranks, paper_scale=True, enforce_capacity=False,
            geometry_overrides=dict(overrides) or None, use_cache=False,
            strict=True,
        )
        suites[refmod.suite_config_key(ranks, overrides)] = cells(suite)
        print(f"suite {refmod.suite_config_key(ranks, overrides)}: "
              f"{len(suite.results)} cells", flush=True)

    excluded = []
    for ranks in sorted(set(inputs.SERVE_RANKS) | {inputs.PAPER_RANKS}):
        suite = run_suite(num_ranks=ranks, paper_scale=True, use_cache=False,
                          strict=False)
        key = refmod.suite_config_key(ranks, ())
        for cell, record in cells(suite).items():
            problems = refmod.compare(suites[key][cell], record, cell)
            if problems:
                raise SystemExit(f"capacity enforcement changed {problems[:3]}")
        for spec in suite.failures:
            excluded.append([spec.benchmark_key, spec.device_type.value, ranks])
    print(f"serve cells excluded: {excluded}", flush=True)

    dse: "dict[str, dict]" = {}
    for base, (shape_knob, shapes, cost_knob, costs) in inputs.DSE_BASES.items():
        spec = SweepSpec.from_dict({
            "name": f"reference-{base}", "base": base,
            "benchmarks": list(inputs.DSE_BENCHMARKS),
            "num_ranks": inputs.DSE_RANKS,
            "axes": {"banks_per_rank": list(inputs.DSE_BANKS),
                     shape_knob: list(shapes), cost_knob: list(costs)},
        })
        result = run_sweep(spec, use_cache=False)
        grid = [(b, s, c) for b in inputs.DSE_BANKS for s in shapes for c in costs]
        assert len(grid) == len(result.outcomes)
        for (b, s, c), outcome in zip(grid, result.outcomes):
            m = outcome.metrics
            if m is None:
                raise SystemExit(f"{base} point {b, s, c} failed: {outcome.errors}")
            dse[refmod.dse_point_key(base, b, s, c)] = {
                "metrics": [m.latency_ns, m.energy_nj, m.area_proxy],
                "bench": {
                    name: [row["latency_ns"], row["energy_nj"], int(row["commands"])]
                    for name, row in outcome.per_benchmark.items()
                },
            }
        print(f"dse {base}: {len(result.outcomes)} points", flush=True)

    payload = refmod.round_floats({
        "format": refmod.FORMAT,
        "suites": suites,
        "dse": dse,
        "serve_excluded": excluded,
        "pairs": [[key, device.value] for key in BENCHMARK_ORDER
                  for device in DEVICE_ORDER],
    })
    refmod.REFERENCE_PATH.parent.mkdir(parents=True, exist_ok=True)
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    with open(refmod.REFERENCE_PATH, "wb") as raw:
        with gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
            fh.write(blob)
    print(f"wrote {refmod.REFERENCE_PATH} ({len(blob)} bytes uncompressed)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
