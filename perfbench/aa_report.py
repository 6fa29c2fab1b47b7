"""A/A steadiness report: the same code measured over many seeds.

Run from the checkout root::

    python3 perfbench/aa_report.py --runs 10 --markdown perfbench/AA_REPORT.md

For each workload it runs ``run.py`` once per seed with tracing off and
reports, per end-to-end metric, the median, the quartiles and the
inter-quartile spread as a share of the median next to the bound in
``BENCHMARK.json`` (the steadiness target is a third of the bound).  It
then makes two traced runs with one seed and checks that every count
metric repeats exactly.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import common  # noqa: E402


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(common.BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=common.ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.perf_counter() - start
    return result


def steadiness(workload: str, seeds, seconds: int, bounds: dict) -> "list[dict]":
    values: "dict[str, list[float]]" = {}
    walls: "list[float]" = []
    for seed in seeds:
        result = run_once(workload, seed, seconds, 0)
        if not result["correct"]:
            raise RuntimeError(f"{workload} seed {seed}: outputs differ from the reference")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        walls.append(result["wall_s"])
        print(f"  {workload} seed {seed} ({result['wall_s']:.1f} s): " + ", ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
    rows = []
    for name, samples in values.items():
        q1, q2, q3 = common.quartiles(samples)
        rows.append({
            "workload": workload, "metric": name, "runs": len(samples),
            "q1": q1, "median": q2, "q3": q3,
            "spread": common.spread(samples), "bound": bounds[name],
            "samples": samples, "run_wall_s": max(walls),
        })
    return rows


def count_repeatability(workload: str, seed: int, seconds: int) -> "tuple[int, list[str]]":
    """(count metrics compared, names that differed) over two traced runs."""
    first = run_once(workload, seed, seconds, 1)["metrics"]
    second = run_once(workload, seed, seconds, 1)["metrics"]
    counts = [n for n, m in first.items() if m["unit"] in ("count", "B")]
    differing = [n for n in counts if first[n]["value"] != second[n]["value"]]
    return len(counts), differing


def markdown(rows: "list[dict]", repeat: "dict[str, tuple[int, list[str]]]",
             seconds: int, seeds) -> str:
    lines = [
        "# A/A steadiness report",
        "",
        f"Same code, {len(seeds)} runs per workload (seeds {seeds[0]}..{seeds[-1]}), "
        f"`--seconds {seconds}`, tracing off.  Spread is (Q3 - Q1) / median; "
        "the target is a third of the bound.",
        "",
        "| workload | metric | median | Q1 | Q3 | spread | bound | within bound/3 |",
        "|---|---|---|---|---|---|---|---|",
    ]
    for r in rows:
        ok = "yes" if r["spread"] <= r["bound"] / 3 else "NO"
        lines.append(
            f"| {r['workload']} | {r['metric']} | {r['median']:.5g} | {r['q1']:.5g} | "
            f"{r['q3']:.5g} | {r['spread']:.3f} | {r['bound']} | {ok} |"
        )
    lines += ["", "Longest run, end to end:", ""]
    for workload in dict.fromkeys(r["workload"] for r in rows):
        wall = max(r["run_wall_s"] for r in rows if r["workload"] == workload)
        lines.append(f"- {workload}: {wall:.1f} s")
    lines += ["", "Count metrics of two traced runs with the same seed:", ""]
    for workload, (compared, differing) in repeat.items():
        verdict = "all repeat exactly" if not differing else f"differ: {', '.join(differing)}"
        lines.append(f"- {workload}: {compared} count metrics, {verdict}")
    return "\n".join(lines) + "\n"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="*", default=list(common.WORKLOADS))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=1000)
    parser.add_argument("--markdown", type=pathlib.Path, default=None)
    args = parser.parse_args()

    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    seeds = list(range(args.seed_base, args.seed_base + args.runs))
    rows, repeat = [], {}
    started = time.time()
    for workload in args.workloads:
        rows += steadiness(workload, seeds, seconds, bounds)
        repeat[workload] = count_repeatability(workload, seeds[0], seconds)
    text = markdown(rows, repeat, seconds, seeds)
    print(text)
    print(f"({time.time() - started:.0f} s)")
    out = common.STATE_DIR / "aa" / f"aa-{int(started)}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"rows": rows, "counts": repeat}, indent=1))
    if args.markdown is not None:
        args.markdown.write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
