"""BENCHMARK.json agrees with what run.py prints, and run.py fails cleanly."""

import json
import re
import shutil
import subprocess
import sys

import common
import run

SPEC = json.loads((common.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_metric_lists_match_the_runner():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in SPEC["workloads"]] == list(common.WORKLOADS)


def test_contract_limits():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert 1 <= len(SPEC["per_layer"]) <= 128
    for metric in SPEC["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])


def test_fails_without_the_simulator(tmp_path):
    shutil.copy(common.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(common.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "suite-cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_child_environment_drops_every_switch(monkeypatch, tmp_path):
    for name in common.REPRO_SWITCHES:
        monkeypatch.setenv(name, "1")
    env = common.clean_env(tmp_path / "tmp")
    assert not [k for k in env if k.startswith("REPRO_")]
    assert env["PYTHONPATH"] == str(common.SRC)
    assert env["TMPDIR"] == str(tmp_path / "tmp")
