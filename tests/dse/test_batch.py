"""The sweep-level matrix pricer: grouping, identity, fallback, cache.

Every sweep here is tiny (a handful of bank-level points, paper gemv or
vecadd) so the file runs in seconds; the 540-point scale path is the
selfbench ``dse-sweep-cold-batched`` leg's job.  The load-bearing
assertions are the *byte*-identity ones: the batched path is only
allowed to exist because nothing downstream can tell it ran.
"""

import json
import pickle

import pytest

from repro.dse import SweepSpec, render_json, run_sweep, sweep_payload
from repro.dse.batch import (
    BATCH_CHECK_ENV,
    NO_BATCH_ENV,
    batch_eligible,
    batching_disabled,
)
from repro.engine.cells import CellSpec
from repro.obs.metrics import global_registry

_RAW = {
    "name": "batch-unit",
    "base": "bank",
    "benchmarks": ["vecadd"],
    "num_ranks": 2,
    "axes": {"pe_freq_mhz": [200, 300, 400]},
}


def _spec(**overrides) -> SweepSpec:
    raw = dict(_RAW)
    raw.update(overrides)
    return SweepSpec.from_dict(raw)


def _run(spec=None, **kwargs):
    kwargs.setdefault("jobs", 1)
    kwargs.setdefault("use_cache", False)
    return run_sweep(spec or _spec(), **kwargs)


class TestGrouping:
    def test_cost_only_knobs_share_one_plan(self):
        """Three clocks over one geometry compile exactly one plan."""
        result = _run()
        assert result.batched_cells == 3
        assert result.plan_misses == 1
        assert result.plan_hits == 0

    def test_geometry_knobs_split_plans(self):
        """Each banks_per_rank value is its own geometry group."""
        spec = _spec(axes={
            "banks_per_rank": [32, 64],
            "pe_freq_mhz": [200, 300],
        })
        result = _run(spec)
        assert result.batched_cells == 4
        assert result.plan_misses == 2

    def test_registry_counters_match_report(self):
        registry = global_registry()
        before = {
            name: registry.value(f"plan_cache.{name}")
            for name in ("hits", "misses")
        }
        result = _run()
        assert (
            registry.value("plan_cache.misses") - before["misses"]
            == result.plan_misses
        )
        assert (
            registry.value("plan_cache.hits") - before["hits"]
            == result.plan_hits
        )

    def test_points_per_s_positive_when_timed(self):
        result = _run()
        assert result.wall_s > 0
        assert result.points_per_s == pytest.approx(
            len(result.outcomes) / result.wall_s
        )


class TestEligibility:
    def test_analytic_vector_cell_is_eligible(self):
        spec = CellSpec("vecadd", object(), vector=True)
        assert batch_eligible(spec)

    def test_scalar_functional_and_fault_cells_are_not(self):
        assert not batch_eligible(CellSpec("vecadd", object(), vector=False))
        assert not batch_eligible(
            CellSpec("vecadd", object(), functional=True, vector=True)
        )
        assert not batch_eligible(
            CellSpec("vecadd", object(), fault_plan="fp", vector=True)
        )


class TestIdentity:
    def test_report_byte_identical_to_per_cell(self, monkeypatch):
        spec = _spec(benchmarks=["vecadd", "gemv"])
        batched = _run(spec)
        assert batched.batched_cells == 6
        monkeypatch.setenv(NO_BATCH_ENV, "1")
        per_cell = _run(spec)
        assert per_cell.batched_cells == 0
        assert render_json(sweep_payload(batched)) == render_json(
            sweep_payload(per_cell)
        )

    def test_batch_check_gate_passes(self, monkeypatch):
        monkeypatch.setenv(BATCH_CHECK_ENV, "1")
        result = _run()
        assert result.batched_cells == 3

    def test_synthesized_telemetry_flags(self):
        from repro.obs.telemetry import telemetry_log

        log_before = len(telemetry_log())
        result = _run()
        fresh = telemetry_log()[log_before:]
        assert len(fresh) == result.batched_cells
        for telemetry in fresh:
            assert telemetry.batched
            assert telemetry.vector
            assert not telemetry.from_cache
            assert telemetry.commands_simulated > 0
            # A batched pipeline prices each distinct shape exactly
            # once -- zero memo traffic is the truthful report.
            assert telemetry.memo_lookups == 0


class TestFallback:
    def test_no_batch_env_forces_per_cell(self, monkeypatch):
        monkeypatch.setenv(NO_BATCH_ENV, "1")
        assert batching_disabled()
        result = _run()
        assert result.batched_cells == 0
        assert result.plan_misses == 0
        assert all(not o.failed for o in result.outcomes)

    def test_scalar_sweep_never_batches(self):
        result = _run(vector=False)
        assert result.batched_cells == 0

    def test_batched_kwarg_opts_out(self):
        result = _run(batched=False)
        assert result.batched_cells == 0
        assert all(not o.failed for o in result.outcomes)


class TestCaching:
    """The plan cache is a batched cell's only persistence."""

    _TWO_GROUPS = {
        "banks_per_rank": [32, 64],
        "pe_freq_mhz": [200, 300],
    }

    def test_warm_run_loads_every_plan_and_reprices(self, tmp_path):
        spec = _spec(axes=self._TWO_GROUPS)
        cold = _run(spec, use_cache=True, cache_dir=tmp_path)
        warm = _run(spec, use_cache=True, cache_dir=tmp_path)
        assert cold.plan_misses == 2 and cold.plan_hits == 0
        assert warm.plan_misses == 0 and warm.plan_hits == 2
        assert cold.batched_cells == warm.batched_cells == 4
        # Batched cells are neither per-cell cache hits nor misses.
        assert warm.cache_hits == 0 and warm.cache_misses == 0
        assert render_json(sweep_payload(cold)) == render_json(
            sweep_payload(warm)
        )

    def test_batched_sweep_writes_no_cell_entries(self, tmp_path):
        from repro.engine.cache import DiskCache

        spec = _spec(axes=self._TWO_GROUPS)
        _run(spec, use_cache=True, cache_dir=tmp_path)
        cache = DiskCache(tmp_path)
        assert cache.entries() == []
        assert cache.plan_stats()[0] == 2

    def test_no_cache_bypasses_the_plan_cache(self, tmp_path):
        from repro.engine.cache import DiskCache

        spec = _spec()
        first = _run(spec, use_cache=False, cache_dir=tmp_path)
        second = _run(spec, use_cache=False, cache_dir=tmp_path)
        assert first.plan_misses == second.plan_misses == 1
        assert DiskCache(tmp_path).plan_stats() == (0, 0)

    def test_per_cell_run_after_batched_cold_run_is_byte_identical(
        self, tmp_path, monkeypatch
    ):
        """The per-cell engine simulates every cell (none was written)
        and still reproduces the batched report byte for byte."""
        spec = _spec()
        cold = _run(spec, use_cache=True, cache_dir=tmp_path)
        monkeypatch.setenv(NO_BATCH_ENV, "1")
        per_cell = _run(spec, use_cache=True, cache_dir=tmp_path)
        assert cold.batched_cells == 3
        assert per_cell.batched_cells == 0
        assert per_cell.cache_hits == 0 and per_cell.cache_misses == 3
        assert render_json(sweep_payload(cold)) == render_json(
            sweep_payload(per_cell)
        )


class TestCellSpecHash:
    def test_hash_is_cached_and_stable(self):
        spec = CellSpec("vecadd", object(), vector=True)
        first = hash(spec)
        assert spec.__dict__["_hash"] == first
        assert hash(spec) == first

    def test_pickle_drops_cached_hash(self):
        """String hashes are salted per process; a cached hash pickled
        into a worker would corrupt its dict lookups."""
        from repro.config.device import PimDeviceType

        spec = CellSpec("vecadd", PimDeviceType.BANK_LEVEL, vector=True)
        hash(spec)
        clone = pickle.loads(pickle.dumps(spec))
        assert "_hash" not in clone.__dict__
        assert clone == spec
        assert hash(clone) == hash(spec)
        assert clone in {spec: True}
