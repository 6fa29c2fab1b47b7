"""Span recorder: self time, installation, and per-workload coverage."""

import asyncio
import json

import pytest

import inputs
import layers
import reference as refmod
import workloads


def _span(ident, parent, name, start, end):
    return layers.Span(ident, parent, name, start, end, None, 0)


def test_union_length_merges_overlaps():
    assert layers.union_length([(0, 1), (0.5, 2), (3, 4)]) == 3
    assert layers.union_length([]) == 0
    assert layers.union_length([(1, 1)]) == 0


def test_self_time_subtracts_the_union_of_children():
    recorder = layers.Recorder()
    recorder.spans = [
        _span(1, None, "serve.evaluate", 0.0, 10.0),
        # Two concurrent children overlapping on [2, 3]: covered 1..4.
        _span(2, 1, "cache.get", 1.0, 3.0),
        _span(3, 1, "cache.put", 2.0, 4.0),
        # A child outliving its parent is clipped to the parent.
        _span(4, 1, "cache.key", 9.0, 12.0),
    ]
    metrics = recorder.layer_metrics()
    assert metrics["serve.evaluate.calls"] == 1
    assert metrics["serve.evaluate.total_s"] == 10.0
    assert metrics["serve.evaluate.self_s"] == pytest.approx(10.0 - 3.0 - 1.0)
    assert metrics["cache.key.self_s"] == 3.0


def test_unattributed_residual():
    recorder = layers.Recorder()
    recorder.spans = [_span(1, None, "runner.run_suite", 1.0, 3.0),
                      _span(2, None, "runner.run_suite", 2.5, 4.0)]
    recorder.window = (0.0, 5.0)
    assert recorder.unattributed_s() == pytest.approx(2.0)


def test_install_reaches_call_sites_and_uninstall_restores():
    import repro.engine.cells
    import repro.engine.engine
    import repro.experiments.runner

    original = repro.engine.cells.run_cell
    recorder = layers.Recorder()
    patched = recorder.install()
    try:
        # engine.py imported run_cell by name; its namespace is patched too.
        assert repro.engine.engine.run_cell is not original
        assert repro.engine.engine.run_cell is repro.engine.cells.run_cell
        assert "repro.experiments.runner:run_cells" in patched
    finally:
        recorder.uninstall()
    assert repro.engine.cells.run_cell is original
    assert repro.engine.engine.run_cell is original


def test_bench_keys_track_the_suite():
    from repro.experiments.runner import BENCHMARK_ORDER

    assert layers.BENCH_KEYS == BENCHMARK_ORDER


def _run_designated(workload, tmp_path):
    """A small version of one workload, through the same entry points."""
    if workload == "suite-cold":
        config = inputs.suite_inputs(0)["configs"][:1]
        workloads.run_suites({"configs": config}, tmp_path)
    elif workload == "figures-parallel":
        config = inputs.figures_inputs(0)["configs"][:1]
        workloads.run_suites({"jobs": 2, "configs": config}, tmp_path)
    elif workload == "dse-sweep":
        spec = inputs.dse_inputs(0)["specs"][0]
        spec = dict(spec, axes={k: v[:2] for k, v in spec["axes"].items()})
        workloads.run_dse({"specs": [spec]}, tmp_path)
    else:
        ref = refmod.Reference.load()
        traffic = inputs.serve_inputs(0, 0.6, ref.pairs, ref.serve_excluded)

        async def main():
            service = workloads.make_service(tmp_path)
            await service.start()
            try:
                return await workloads.serve_traffic(service, traffic, ref)
            finally:
                await service.drain()

        result = asyncio.run(main())
        assert result["failed"] == 0, result["problems"]


@pytest.mark.parametrize("workload", sorted(set(layers.DESIGNATED.values()) - {None}))
def test_every_entry_point_records_a_span_on_its_workload(workload, tmp_path):
    recorder = layers.Recorder()
    recorder.install()
    try:
        _run_designated(workload, tmp_path)
    finally:
        recorder.uninstall()
    metrics = recorder.layer_metrics()
    expected = [name for name, w in layers.DESIGNATED.items() if w == workload]
    missing = [name for name in expected if metrics[f"{name}.calls"] < 1]
    assert not missing, f"no spans on {workload}: {missing}"
    trace = recorder.chrome_trace()
    from repro.obs import validate_chrome_trace

    validate_chrome_trace(json.loads(json.dumps(trace)))


def test_every_layer_has_a_designation():
    assert set(layers.DESIGNATED) == set(layers.LAYERS)
