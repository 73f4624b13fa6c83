#!/usr/bin/env python3
"""Interleaved A/B runs of the repo benchmark between two checkouts.

    python3 tools/ab_bench.py PARENT_DIR CHANGE_DIR --workload W --pairs N
        [--seed S] [--traced-pairs T]
    python3 tools/ab_bench.py --selftest

Each pair runs `python3 perfbench/run.py --workload W --seed S --seconds 10
--trace 0` once in each checkout, alternating which side goes first, so a
slow spell of the host hits both sides alike. Each checkout builds its own
benchmark binary on first use. For every end-to-end metric that
BENCHMARK.json declares, the script prints the parent's and the change's
median with [Q1-Q3], the change/parent ratio of the medians, in how many
pairs the change won (direction from the metric's `better`; ties count
for neither side), and a verdict:

  gain        the change won at least 90% of the pairs, and its median
              beats the parent's by more than the parent's IQR (Q3 - Q1);
  regressed   the change's median is worse than the parent's by more than
              the metric's `bound` (a fraction of the parent's median);
  unresolved  neither, and the parent's IQR exceeds `bound` times its
              median (too noisy to call it unchanged), unless every change
              run beats every parent run;
  same        anything else.

It also prints failed/attempted operations summed over each side's runs.

--traced-pairs T then runs T more interleaved pairs with --trace 1 and
prints, for every per-layer metric that BENCHMARK.json declares, both
medians and the change/parent ratio, which shows in which layer a change
in an end-to-end metric sits. Per-layer metrics are not gated, so that
table has no verdict.

--selftest checks the verdict rule and both tables on canned results.
Standard library only.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_side(root, workload, seed, trace=0):
    """One benchmark run in checkout `root`; returns its result dict or None."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", "10", "--trace", str(trace)]
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


def verdict(pairs, better, bound):
    """gain / regressed / unresolved / same for (parent, change) pairs of
    one metric; `better` is "lower" or "higher", `bound` the metric's
    allowed worsening as a fraction of the parent's median."""
    parent = [p for p, _ in pairs]
    change = [c for _, c in pairs]
    beats = (lambda a, b: a < b) if better == "lower" else (lambda a, b: a > b)
    p_med = statistics.median(parent)
    c_med = statistics.median(change)
    q1, q3 = quartiles(parent)
    wins = sum(1 for p, c in pairs if beats(c, p))
    if (10 * wins >= 9 * len(pairs) and beats(c_med, p_med)
            and abs(c_med - p_med) > q3 - q1):
        return "gain"
    if beats(p_med, c_med) and abs(c_med - p_med) > bound * abs(p_med):
        return "regressed"
    if (q3 - q1 > bound * abs(p_med)
            and not all(beats(c, p) for c in change for p in parent)):
        return "unresolved"
    return "same"


def report(spec, results, title):
    """The comparison table as lines, one row per end-to-end metric."""
    lines = [title,
             f"{'metric':22} {'parent median [Q1-Q3]':34} "
             f"{'change median [Q1-Q3]':34} {'ratio':>7} {'wins':>7}  verdict"]
    for metric in spec["end_to_end"]:
        name = metric["name"]
        pairs = pair_values(results, name)
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
        lines.append(f"{name:22} {cells[0]:34} {cells[1]:34} {ratio:6.2f}x "
                     f"{wins:>3}/{len(pairs)}  "
                     f"{verdict(pairs, metric['better'], metric['bound'])}")
    for side in ("parent", "change"):
        runs = [r for r in results[side] if r is not None]
        failed = sum(r.get("failed", 0) for r in runs)
        attempted = sum(r.get("attempted", 0) for r in runs)
        lines.append(f"{side}: failed/attempted {failed}/{attempted} "
                     f"({len(runs)}/{len(results[side])} runs produced a "
                     f"result)")
    return lines


def pair_values(results, name):
    """(parent, change) values of metric `name`, one per pair that has both."""
    pairs = [(metric_value(p, name), metric_value(c, name))
             for p, c in zip(results["parent"], results["change"])]
    return [(p, c) for p, c in pairs if p is not None and c is not None]


def traced_report(spec, results, title):
    """The per-layer table as lines: both medians and their ratio, no
    verdict (per-layer metrics are not gated)."""
    lines = [title,
             f"{'metric':30} {'parent median':>14} {'change median':>14} "
             f"{'ratio':>7}"]
    for metric in spec.get("per_layer", []):
        name = metric["name"]
        pairs = pair_values(results, name)
        if not pairs:
            continue
        p_med = statistics.median(p for p, _ in pairs)
        c_med = statistics.median(c for _, c in pairs)
        ratio = f"{c_med / p_med:6.2f}x" if p_med else "    n/a"
        lines.append(f"{name:30} {p_med:>14.6g} {c_med:>14.6g} {ratio}")
    return lines


def run_pairs(sides, workload, seed, count, trace):
    """`count` interleaved pairs; returns {"parent": [...], "change": [...]}
    with one result (or None) per pair on each side."""
    results = {"parent": [], "change": []}
    for i in range(count):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {}
        for side in order:
            pair[side] = run_side(sides[side], workload, seed, trace)
            if pair[side] is None:
                print(f"pair {i + 1}: {side} run produced no result",
                      file=sys.stderr)
        for side in sides:
            results[side].append(pair[side])
        kind = "traced pair" if trace else "pair"
        print(f"{kind} {i + 1}/{count} done ({order[0]} first)",
              file=sys.stderr, flush=True)
    return results


def selftest():
    """Checks the verdict rule and both tables on canned runs."""
    flat = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.0, 10.1, 9.9]
    noisy = [1, 20, 2, 18, 3, 16, 4, 14, 5, 12]  # median 8.5, IQR 12.25
    cases = [
        # 10/10 wins, a gap far past the parent's IQR.
        ("gain", [(p, p * 0.6) for p in flat], "lower", 0.25),
        ("gain", [(p, p * 1.5) for p in flat], "higher", 0.25),
        # Wins 8 of 10: short of nine tenths, and within the bound.
        ("same", [(p, p * (0.9 if i < 8 else 1.2)) for i, p in
                  enumerate(flat)], "lower", 0.25),
        # A clear gain in the other direction is a regression.
        ("regressed", [(p, p * 1.4) for p in flat], "lower", 0.25),
        ("regressed", [(p, p * 0.5) for p in flat], "higher", 0.25),
        # Worse, but within the bound.
        ("same", [(p, p * 1.1) for p in flat], "lower", 0.25),
        # The parent's own spread exceeds the bound: too noisy to call.
        ("unresolved", [(p, p) for p in noisy], "lower", 0.25),
        # ... unless every change run beats every parent run.
        ("same", [(p, 0.9) for p in noisy], "lower", 0.25),
        # Ties count for neither side.
        ("same", [(p, p) for p in flat], "higher", 0.25),
    ]
    failures = 0
    for want, pairs, better, bound in cases:
        got = verdict(pairs, better, bound)
        if got != want:
            failures += 1
            print(f"FAIL: {better} bound {bound}: want {want}, got {got}: "
                  f"{pairs}")
    spec = {"end_to_end": [
        {"name": "publish_p50_ms", "better": "lower", "bound": 0.25},
        {"name": "read_qps", "better": "higher", "bound": 0.25}]}

    def run(publish, qps):
        return {"failed": 0, "attempted": 10,
                "metrics": {"publish_p50_ms": {"value": publish, "unit": "ms"},
                            "read_qps": {"value": qps, "unit": "queries/s"}}}
    results = {"parent": [run(p, 100.0 * p) for p in flat],
               "change": [run(p * 0.6, 100.0 * p) for p in flat]}
    table = report(spec, results, "# canned")
    want_rows = {"publish_p50_ms": "gain", "read_qps": "same"}
    for row in table[2:4]:
        name, got = row.split()[0], row.split()[-1]
        if want_rows.get(name) != got:
            failures += 1
            print(f"FAIL: table row {row!r}: want {want_rows.get(name)}")
    if table[-1] != "change: failed/attempted 0/100 (10/10 runs produced a " \
                    "result)":
        failures += 1
        print(f"FAIL: totals line {table[-1]!r}")

    # Traced table: medians and ratio per declared per-layer metric, in
    # BENCHMARK.json order, with no verdict; undeclared metrics are left
    # out, and so is a declared one no run reported.
    spec["per_layer"] = [{"name": "eval.campaign_s", "better": "lower"},
                         {"name": "eval.probes", "better": "higher"},
                         {"name": "core.ratio_map_s", "better": "lower"}]

    def traced(campaign_s):
        return {"failed": 0, "attempted": 10,
                "metrics": {"eval.campaign_s": {"value": campaign_s,
                                                "unit": "s"},
                            "eval.probes": {"value": 7440, "unit": "count"},
                            "trace.spans": {"value": 9, "unit": "count"}}}
    results = {"parent": [traced(0.08), traced(0.09), traced(0.1)],
               "change": [traced(0.06), traced(0.072), traced(0.07)]}
    want = ["eval.campaign_s                          0.09           0.07"
            "   0.78x",
            "eval.probes                              7440           7440"
            "   1.00x"]
    got = traced_report(spec, results, "# canned traced")[2:]
    if got != want:
        failures += 1
        print(f"FAIL: traced table {got!r}, want {want!r}")
    checks = len(cases) + 4
    print(f"selftest: {checks - failures}/{checks} checks passed")
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path, nargs="?")
    parser.add_argument("change", type=Path, nargs="?")
    parser.add_argument("--workload")
    parser.add_argument("--pairs", type=int)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--traced-pairs", type=int, default=0)
    parser.add_argument("--selftest", action="store_true")
    opts = parser.parse_args()
    if opts.selftest:
        return selftest()
    if None in (opts.parent, opts.change, opts.workload, opts.pairs):
        parser.error("PARENT_DIR, CHANGE_DIR, --workload and --pairs are "
                     "required")

    spec = json.loads((opts.change / "BENCHMARK.json").read_text())
    sides = {"parent": opts.parent, "change": opts.change}
    results = run_pairs(sides, opts.workload, opts.seed, opts.pairs, 0)
    traced = run_pairs(sides, opts.workload, opts.seed, opts.traced_pairs, 1)

    if opts.pairs:
        title = (f"# {opts.workload} seed {opts.seed}, {opts.pairs} "
                 f"interleaved pairs")
        print("\n".join(report(spec, results, title)))
    if opts.traced_pairs:
        title = (f"# {opts.workload} seed {opts.seed}, {opts.traced_pairs} "
                 f"interleaved traced pairs (per-layer, not gated)")
        print("\n".join(traced_report(spec, traced, title)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
