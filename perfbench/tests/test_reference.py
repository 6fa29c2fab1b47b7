"""The output check: stored references, tolerance and perturbation."""

import copy
import math

import pytest

import reference as refmod


@pytest.fixture(scope="module")
def ref():
    return refmod.Reference.load()


def _one_cell(ref):
    key = refmod.suite_config_key(32, ())
    cell = refmod.cell_key("gemv", "fulcrum")
    return key, cell, copy.deepcopy(ref.suites[key][cell])


def test_reference_matches_itself(ref):
    key, cell, record = _one_cell(ref)
    assert ref.check_cell(key, cell, record) == []


def test_last_ulp_drift_is_tolerated(ref):
    key, cell, record = _one_cell(ref)
    record["kernel_time_ms"] = math.nextafter(record["kernel_time_ms"], math.inf)
    record["pim_energy_mj"] *= 1 + 1e-12
    assert ref.check_cell(key, cell, record) == []


def test_perturbed_float_is_flagged(ref):
    key, cell, record = _one_cell(ref)
    record["pim_energy_mj"] *= 1 + 1e-6
    problems = ref.check_cell(key, cell, record)
    assert len(problems) == 1 and "pim_energy_mj" in problems[0]


def test_perturbed_integer_is_flagged(ref):
    key, cell, record = _one_cell(ref)
    category = next(iter(record["op_counts"]))
    record["op_counts"][category] += 1
    assert ref.check_cell(key, cell, record)
    record["op_counts"][category] -= 1
    record["copy_bytes"] = float(record["copy_bytes"])
    assert ref.check_cell(key, cell, record), "an int must stay an int"


def test_missing_and_extra_cells_count_as_failures(ref):
    key = refmod.suite_config_key(32, ())
    cells = copy.deepcopy(ref.suites[key])
    dropped = sorted(cells)[0]
    del cells[dropped]
    cells["nosuch|device"] = {}
    bad, problems = ref.check_suite(key, cells)
    assert bad == 2
    assert any(dropped in p for p in problems)


def test_perturbed_sweep_point_is_flagged(ref):
    point_key = sorted(ref.dse)[0]
    point = copy.deepcopy(ref.dse[point_key])
    assert refmod.compare(ref.dse[point_key], point) == []
    benchmark = sorted(point["bench"])[0]
    point["bench"][benchmark][2] += 1  # command count
    assert refmod.compare(ref.dse[point_key], point)


def test_digest_sees_any_change():
    outputs = {"a": [1.0, 2]}
    assert refmod.digest(outputs) == refmod.digest({"a": [1.0, 2]})
    assert refmod.digest(outputs) != refmod.digest({"a": [math.nextafter(1.0, 2.0), 2]})


def test_every_menu_input_has_a_reference(ref):
    import inputs

    for ranks in (*inputs.EXTRA_RANKS, inputs.PAPER_RANKS, inputs.FIG12_BASELINE,
                  *inputs.FIG12_RANKS, *inputs.SERVE_RANKS):
        assert refmod.suite_config_key(ranks, ()) in ref.suites
    for overrides in inputs.EXTRA_OVERRIDES:
        assert refmod.suite_config_key(inputs.PAPER_RANKS, overrides) in ref.suites
    for seed in range(5):
        for spec in inputs.dse_inputs(seed)["specs"]:
            banks, shapes, costs = spec["axes"].values()
            for b in banks:
                for s in shapes:
                    for c in costs:
                        key = refmod.dse_point_key(spec["base"], b, s, c)
                        assert ref.dse_point(key) is not None, key
