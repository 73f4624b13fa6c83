#!/usr/bin/env python3
"""Interleaved A/B runs of the repo benchmark between two checkouts.

    python3 tools/ab_bench.py PARENT_DIR CHANGE_DIR --workload W --pairs N [--seed S]

Each pair runs `python3 perfbench/run.py --workload W --seed S --seconds 10
--trace 0` once in each checkout, alternating which side goes first, so a
slow spell of the host hits both sides alike. Each checkout builds its own
benchmark binary on first use. For every end-to-end metric that
BENCHMARK.json declares, the script prints the parent's and the change's
median with [Q1-Q3], the change/parent ratio of the medians, and in how
many pairs the change won (direction from the metric's `better`). It also
prints failed/attempted operations summed over each side's runs.
Standard library only.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_side(root, workload, seed):
    """One benchmark run in checkout `root`; returns its result dict or None."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", "10", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return None
    return result if isinstance(result, dict) and "metrics" in result else None


def metric_value(result, name):
    """The metric's value in a run result ({"value": x, "unit": u}), or None."""
    entry = result["metrics"].get(name) if result is not None else None
    return entry["value"] if isinstance(entry, dict) else entry


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def fmt(x):
    return f"{x:.4g}"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, default=1)
    opts = parser.parse_args()

    spec = json.loads((opts.change / "BENCHMARK.json").read_text())
    sides = {"parent": opts.parent, "change": opts.change}
    results = {"parent": [], "change": []}
    for i in range(opts.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {}
        for side in order:
            pair[side] = run_side(sides[side], opts.workload, opts.seed)
            if pair[side] is None:
                print(f"pair {i + 1}: {side} run produced no result",
                      file=sys.stderr)
        for side in sides:
            results[side].append(pair[side])
        print(f"pair {i + 1}/{opts.pairs} done ({order[0]} first)",
              file=sys.stderr, flush=True)

    print(f"# {opts.workload} seed {opts.seed}, {opts.pairs} interleaved pairs")
    print(f"{'metric':22} {'parent median [Q1-Q3]':34} "
          f"{'change median [Q1-Q3]':34} {'ratio':>7} {'wins':>7}")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        pairs = [(metric_value(p, name), metric_value(c, name))
                 for p, c in zip(results["parent"], results["change"])]
        pairs = [(p, c) for p, c in pairs if p is not None and c is not None]
        if not pairs:
            continue
        parent = [p for p, _ in pairs]
        change = [c for _, c in pairs]
        lower = metric["better"] == "lower"
        wins = sum(1 for p, c in pairs if (c < p if lower else c > p))
        cells = []
        for values in (parent, change):
            q1, q3 = quartiles(values)
            cells.append(f"{fmt(statistics.median(values))} "
                         f"[{fmt(q1)}-{fmt(q3)}]")
        p_med = statistics.median(parent)
        ratio = statistics.median(change) / p_med if p_med else float("nan")
        print(f"{name:22} {cells[0]:34} {cells[1]:34} {ratio:6.2f}x "
              f"{wins:>3}/{len(pairs)}")
    for side in sides:
        runs = [r for r in results[side] if r is not None]
        failed = sum(r.get("failed", 0) for r in runs)
        attempted = sum(r.get("attempted", 0) for r in runs)
        print(f"{side}: failed/attempted {failed}/{attempted} "
              f"({len(runs)}/{opts.pairs} runs produced a result)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
