"""Seeded input generation."""

import json

import inputs
import reference as refmod


def test_same_seed_same_inputs():
    assert inputs.suite_inputs(7) == inputs.suite_inputs(7)
    assert inputs.figures_inputs(7) == inputs.figures_inputs(7)
    assert inputs.dse_inputs(7) == inputs.dse_inputs(7)
    ref = refmod.Reference.load()
    a = inputs.serve_inputs(7, 10.0, ref.pairs, ref.serve_excluded)
    b = inputs.serve_inputs(7, 10.0, ref.pairs, ref.serve_excluded)
    assert a == b


def test_seeds_differ():
    assert any(inputs.dse_inputs(0) != inputs.dse_inputs(s) for s in range(1, 4))


def test_serve_schedule_shape():
    ref = refmod.Reference.load()
    traffic = inputs.serve_inputs(3, 12.0, ref.pairs, ref.serve_excluded)
    schedule = traffic["schedule"]
    dues = [r.due_s for r in schedule]
    assert dues == sorted(dues)
    warm = {tuple(cell) for cell in traffic["warm"]}
    novel = [r for r in schedule if r.kind == "novel"]
    cells = [json.loads(r.body) for r in novel]
    keys = [(c["benchmark"], c["device"], c["ranks"]) for c in cells]
    # Every novel cell is new: not pre-loaded, never asked twice.
    assert len(set(keys)) == len(keys)
    assert not set(keys) & warm
    # Whole rounds over the (benchmark, architecture) pairs.
    assert len(keys) % len(ref.pairs) == 0
    assert {(k[0], k[1]) for k in keys} == set(ref.pairs)
    # Cells the model rejects by design are never requested.
    for request in schedule:
        body = json.loads(request.body)
        assert (body["benchmark"], body["device"], body["ranks"]) not in ref.serve_excluded
    # Novel cells, and so their duplicates, only arrive on nominal rungs.
    for r in schedule:
        if r.kind != "warm":
            assert inputs.SERVE_LADDER[r.rung] <= inputs.SERVE_NOMINAL_RPS
    # The ladder ends in rungs above the nominal rate.
    assert {r.rung for r in schedule} == set(range(len(inputs.SERVE_LADDER)))
    # Duplicates share their leader's due time and body.
    leaders = {(r.due_s, r.body) for r in novel}
    for r in schedule:
        if r.kind == "duplicate":
            assert (r.due_s, r.body) in leaders


def test_serve_excludes_cells_the_model_rejects():
    ref = refmod.Reference.load()
    assert ("vecadd", "bit-serial", 4) in ref.serve_excluded
