"""Alternating parent/change pairs of the benchmark, summarized per end-to-end metric.

Runs ``perfbench/run.py`` from two checkouts in turn, ``--pairs`` times, and
swaps which checkout goes first on every other pair, so that a drift in host
speed falls on both sides.  For each end-to-end metric that ``BENCHMARK.json``
declares, it prints each side's median and interquartile range, in how
many pairs the change did better, and a verdict (see ``verdict``).  It only
runs the benchmark; it writes nothing into either checkout but the
benchmark's own temporary ``.bench_work/``::

    python3 scripts/bench_pairs.py PARENT CHANGE --workload catalog-scan --pairs 10

Give both checkouts the same bytecode state (both with or both without
``__pycache__``) and paths of equal length: ``setup_s`` and ``peak_rss_mb``
move with either, and a warning line says when they differ.  Exits 1 when a
run fails or its outputs are not correct.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_benchmark(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result line of one untraced benchmark run from ``checkout``."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True,
                          timeout=3 * seconds + 300)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout}: exit {done.returncode}\n{done.stdout}{done.stderr}")
    return json.loads(lines[-1])


def summarize(metrics: list[dict], parent: list[dict], change: list[dict]) -> list[tuple]:
    """One row per metric: name, unit, parent median and IQR, change median
    and IQR, and the pairs the change won.

    ``metrics`` are ``BENCHMARK.json``'s end-to-end entries; ``parent`` and
    ``change`` the metric values of each run, pair by pair.  A pair is won
    when the change is strictly better in the metric's direction.
    """
    rows = []
    for metric in metrics:
        name = metric["name"]
        old = [run[name] for run in parent]
        new = [run[name] for run in change]
        sign = 1.0 if metric["better"] == "higher" else -1.0
        wins = sum(sign * (b - a) > 0.0 for a, b in zip(old, new))
        rows.append((name, metric["unit"], *_median_iqr(old), *_median_iqr(new), wins))
    return rows


def verdict(metric: dict, parent: list[float], change: list[float]) -> str:
    """``unresolved``, ``worse``, ``gain`` or ``same`` for one metric's pairs.

    ``metric`` is a ``BENCHMARK.json`` end-to-end entry, whose ``bound`` is
    read as a fraction of the parent median.  ``unresolved``: the parent's
    IQR is wider than the bound, unless every change run beats every parent
    run.  ``worse``: the change median is worse than the parent median by
    more than the bound.  ``gain``: the change wins at least 9/10 of the
    pairs, and its median beats the parent's by more than the parent's IQR.
    ``same``: anything else.
    """
    sign = 1.0 if metric["better"] == "higher" else -1.0
    old, old_iqr = _median_iqr(parent)
    new, _ = _median_iqr(change)
    bound = metric["bound"] * abs(old)
    if old_iqr > bound and not min(sign * b for b in change) > max(sign * a for a in parent):
        return "unresolved"
    if sign * (old - new) > bound:
        return "worse"
    wins = sum(sign * (b - a) > 0.0 for a, b in zip(parent, change))
    if 10 * wins >= 9 * len(parent) and sign * (new - old) > old_iqr:
        return "gain"
    return "same"


def checkout_warnings(parent: Path, change: Path) -> list[str]:
    """A line for each difference between the checkouts that moves ``setup_s`` or ``peak_rss_mb``."""
    warnings = []
    lengths = [len(str(checkout.resolve())) for checkout in (parent, change)]
    if lengths[0] != lengths[1]:
        warnings.append(f"warning: the checkout paths are {lengths[0]} and {lengths[1]} characters long")
    cached = [(checkout / "src" / "resurge" / "__pycache__").is_dir() for checkout in (parent, change)]
    if cached[0] != cached[1]:
        side = "parent" if cached[0] else "change"
        warnings.append(f"warning: only the {side} checkout holds src/resurge/__pycache__")
    return warnings


def _median_iqr(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], 0.0
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return median, q3 - q1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True, help="one workload that BENCHMARK.json names")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0, help="how long one run measures")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    benchmark = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in benchmark["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    metrics = benchmark["end_to_end"]

    for line in checkout_warnings(args.parent, args.change):
        print(line, flush=True)
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    bad = 0
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_benchmark(getattr(args, side), args.workload, args.seed, args.seconds)
            if not result["correct"] or result["failed"]:
                bad += 1
                print(f"pair {pair + 1} {side}: correct={result['correct']} failed={result['failed']}")
            runs[side].append({name: entry["value"] for name, entry in result["metrics"].items()})
        print(f"pair {pair + 1}: " + "  ".join(
            f"{m['name']} {runs['parent'][-1][m['name']]:.6g} -> {runs['change'][-1][m['name']]:.6g}"
            for m in metrics), flush=True)

    print(f"\n{args.workload}, seed {args.seed}, {args.pairs} pairs of {args.seconds:g} s runs")
    print(f"{'metric':<14}{'unit':<6}{'parent median':>15}{'parent IQR':>12}"
          f"{'change median':>15}{'change IQR':>12}{'change':>9}{'wins':>7}  verdict")
    rows = summarize(metrics, runs["parent"], runs["change"])
    for metric, (name, unit, old, old_iqr, new, new_iqr, wins) in zip(metrics, rows):
        judged = verdict(metric, [run[name] for run in runs["parent"]], [run[name] for run in runs["change"]])
        print(f"{name:<14}{unit:<6}{old:>15.6g}{old_iqr:>12.3g}{new:>15.6g}{new_iqr:>12.3g}"
              f"{(new - old) / old:>+9.1%}{wins:>4}/{args.pairs}  {judged}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
