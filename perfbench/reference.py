"""Stored reference outputs and the comparison rule.

``reference/universe.json.gz`` (written by ``make_reference.py``) holds
the simulated outputs of every input any seed can draw: each suite
configuration's per-cell result records, every DSE design point, and
the serve cells the model rejects by design.  A run's outputs are
compared field by field: floats at a relative tolerance of 1e-9 (this
tolerates last-ulp drift from a reordered summation but catches any
real model change), integers, strings, booleans and ``None`` exactly.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import math
import pathlib
import typing

from common import BENCH_DIR

REFERENCE_PATH = BENCH_DIR / "reference" / "universe.json.gz"
FORMAT = 1
REL_TOL = 1e-9
#: Significant digits stored for floats (well inside ``REL_TOL``).
STORED_DIGITS = 12


def suite_config_key(num_ranks: int, overrides: "typing.Iterable") -> str:
    """``r32`` / ``r32+banks_per_rank=64``: one suite configuration."""
    parts = [f"r{num_ranks}"]
    parts += [f"{k}={v}" for k, v in sorted(tuple(kv) for kv in overrides)]
    return "+".join(parts)


def cell_key(benchmark_key: str, device: str) -> str:
    return f"{benchmark_key}|{device}"


def dse_point_key(base: str, banks: int, shape: object, cost: object) -> str:
    return f"{base}|{banks}|{shape}|{cost}"


def round_floats(value: typing.Any, digits: int = STORED_DIGITS) -> typing.Any:
    """Copy of a JSON-like value with floats cut to ``digits`` digits."""
    if isinstance(value, float):
        if not math.isfinite(value) or value == 0.0:
            return value
        return float(f"{value:.{digits}g}")
    if isinstance(value, dict):
        return {k: round_floats(v, digits) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [round_floats(v, digits) for v in value]
    return value


def compare(
    expected: typing.Any, actual: typing.Any, path: str = "$"
) -> "list[str]":
    """Every difference between two JSON-like values (empty if equal)."""
    if isinstance(expected, bool) or expected is None or isinstance(expected, str):
        if type(actual) is not type(expected) or actual != expected:
            return [f"{path}: expected {expected!r}, got {actual!r}"]
        return []
    if isinstance(expected, int):
        if isinstance(actual, bool) or not isinstance(actual, int) or actual != expected:
            return [f"{path}: expected int {expected!r}, got {actual!r}"]
        return []
    if isinstance(expected, float):
        if isinstance(actual, bool) or not isinstance(actual, (int, float)):
            return [f"{path}: expected float {expected!r}, got {actual!r}"]
        actual = float(actual)
        if math.isnan(expected) and math.isnan(actual):
            return []
        if expected == actual:
            return []
        scale = max(abs(expected), abs(actual))
        if math.isfinite(scale) and abs(expected - actual) <= REL_TOL * scale:
            return []
        return [f"{path}: expected {expected!r}, got {actual!r}"]
    if isinstance(expected, dict):
        if not isinstance(actual, dict):
            return [f"{path}: expected an object, got {type(actual).__name__}"]
        problems = []
        if set(expected) != set(actual):
            missing = sorted(set(expected) - set(actual))
            extra = sorted(set(actual) - set(expected))
            problems.append(f"{path}: keys differ (missing {missing}, extra {extra})")
        for key in sorted(set(expected) & set(actual)):
            problems += compare(expected[key], actual[key], f"{path}.{key}")
        return problems
    if isinstance(expected, (list, tuple)):
        if not isinstance(actual, (list, tuple)) or len(actual) != len(expected):
            return [f"{path}: expected a list of {len(expected)}, got {actual!r:.80}"]
        problems = []
        for i, (e, a) in enumerate(zip(expected, actual)):
            problems += compare(e, a, f"{path}[{i}]")
        return problems
    raise TypeError(f"{path}: unsupported reference value {expected!r}")


def digest(outputs: typing.Any) -> str:
    """sha256 of the canonical JSON of a run's outputs (exact floats).

    Written next to every result, so two commits' outputs on any seed
    can be compared bit for bit, beyond the tolerance of :func:`compare`.
    """
    blob = json.dumps(outputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


class Reference:
    """The loaded universe of expected outputs."""

    def __init__(self, payload: dict) -> None:
        if payload.get("format") != FORMAT:
            raise ValueError(
                f"reference format {payload.get('format')!r}, expected {FORMAT}"
            )
        self.suites: "dict[str, dict[str, dict]]" = payload["suites"]
        self.dse: "dict[str, dict]" = payload["dse"]
        self.serve_excluded = {
            tuple(cell) for cell in payload["serve_excluded"]
        }
        self.pairs: "list[tuple[str, str]]" = [
            tuple(pair) for pair in payload["pairs"]
        ]

    @classmethod
    def load(cls, path: pathlib.Path = REFERENCE_PATH) -> "Reference":
        with gzip.open(path, "rt", encoding="utf-8") as fh:
            return cls(json.load(fh))

    def check_suite(
        self, config_key: str, cells: "dict[str, dict]"
    ) -> "tuple[int, list[str]]":
        """(mismatched cells, problems) for one suite's cell records."""
        expected = self.suites.get(config_key)
        if expected is None:
            return len(cells) or 1, [f"no reference for suite {config_key}"]
        bad = 0
        problems: "list[str]" = []
        for key in sorted(set(expected) | set(cells)):
            if key not in cells:
                bad += 1
                problems.append(f"{config_key}/{key}: missing from the run")
                continue
            if key not in expected:
                bad += 1
                problems.append(f"{config_key}/{key}: not in the reference")
                continue
            found = compare(expected[key], cells[key], f"{config_key}/{key}")
            if found:
                bad += 1
                problems += found
        return bad, problems

    def check_cell(
        self, config_key: str, key: str, record: dict
    ) -> "list[str]":
        expected = self.suites.get(config_key, {}).get(key)
        if expected is None:
            return [f"{config_key}/{key}: not in the reference"]
        return compare(expected, record, f"{config_key}/{key}")

    def dse_point(self, point_key: str) -> "dict | None":
        return self.dse.get(point_key)
