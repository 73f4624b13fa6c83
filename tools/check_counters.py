#!/usr/bin/env python3
"""Compares the deterministic work counters with their checked-in values.

    python3 tools/check_counters.py

Runs, in the checkout that contains this script:

* `.bench_build/perfbench/crp_perfbench --workload W --seed 1 --seconds 1
  --trace 0 --tiny` for every workload, and reads its `# counters` line
  (oracle digests included; `oracle.final_digest` covers the write
  phases);
* `crp_perfbench --workload W --seed 1 --counters-only` for every
  workload, full size;
* `CRP_BENCH_SCALE=tiny build/bench/micro_campaign`, and reads each
  corpus's ratio-map digest and each variant's CDN estimates per probe
  (its timings and pair-cache hit rates are not gated);

then compares every value exactly with `tools/expected_counters.json`.
On a mismatch it prints the expected and actual values and exits 1. Work
counts are exact on any host, so they gate what timings cannot: a change
to the read or write path must leave them bit-identical.

Build the binaries first: any `python3 perfbench/run.py` call builds
crp_perfbench, and `cmake --build build --target micro_campaign` the
campaign bench. A change that moves a count on purpose updates
`tools/expected_counters.json` and says why in CHANGES.md.
"""
import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / ".bench_build" / "perfbench" / "crp_perfbench"
MICRO_CAMPAIGN = ROOT / "build" / "bench" / "micro_campaign"
EXPECTED = ROOT / "tools" / "expected_counters.json"
WORKLOADS = ("campaign_refresh", "serve_read", "serve_churn")
TIMEOUT_S = 300

VARIANT = re.compile(r"\s([\d.]+) estimates/probe\s")
DIGEST = re.compile(r"digest: identical across variants \((0x[0-9a-f]+)\)")


def run(cmd, env=None):
    """Runs a binary; returns its stdout lines, or raises on failure."""
    proc = subprocess.run([str(c) for c in cmd], stdout=subprocess.PIPE,
                          text=True, env=env, timeout=TIMEOUT_S)
    if proc.returncode != 0:
        print(proc.stdout, end="")
        raise RuntimeError(f"exit code {proc.returncode}: "
                           + " ".join(str(c) for c in cmd))
    return proc.stdout.splitlines()


def perfbench_counters(workload, args):
    lines = run([PERFBENCH, "--workload", workload, "--seed", "1"] + args)
    for line in lines:
        if line.startswith("# counters "):
            return json.loads(line[len("# counters "):])
    raise RuntimeError(f"{workload}: no '# counters' line")


def micro_campaign():
    env = dict(os.environ, CRP_BENCH_SCALE="tiny")
    corpora = []
    for line in run([MICRO_CAMPAIGN], env):
        if line.startswith("corpus: "):
            corpora.append({"corpus": line[len("corpus: "):], "digest": None,
                            "estimates_per_probe": []})
        elif corpora and (m := VARIANT.search(line)):
            corpora[-1]["estimates_per_probe"].append(m.group(1))
        elif corpora and (m := DIGEST.search(line)):
            corpora[-1]["digest"] = m.group(1)
    return corpora


def measure():
    return {
        "perfbench_tiny": {
            w: perfbench_counters(w, ["--seconds", "1", "--trace", "0",
                                      "--tiny"])
            for w in WORKLOADS},
        "perfbench_full": {
            w: perfbench_counters(w, ["--counters-only"]) for w in WORKLOADS},
        "micro_campaign": micro_campaign(),
    }


def flatten(value, prefix=""):
    """Maps each leaf to its path, e.g. 'perfbench_tiny.serve_read.x'."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = ((str(i), v) for i, v in enumerate(value))
    else:
        return {prefix: value}
    out = {}
    for key, child in items:
        out.update(flatten(child, f"{prefix}.{key}" if prefix else key))
    return out


def main():
    for binary in (PERFBENCH, MICRO_CAMPAIGN):
        if not binary.is_file():
            print(f"check_counters: {binary} is missing; build it first "
                  "(see this script's docstring)", file=sys.stderr)
            return 2
    expected = flatten(json.loads(EXPECTED.read_text()))
    try:
        actual = flatten(measure())
    except (RuntimeError, subprocess.TimeoutExpired) as err:
        print(f"check_counters: FAIL, {err}", file=sys.stderr)
        return 1
    mismatches = [(key, expected.get(key, "(absent)"),
                   actual.get(key, "(absent)"))
                  for key in sorted(set(expected) | set(actual))
                  if expected.get(key) != actual.get(key)]
    for key, want, got in mismatches:
        print(f"MISMATCH {key}: expected {want}, actual {got}")
    if mismatches:
        print(f"check_counters: FAIL, {len(mismatches)} of {len(expected)} "
              f"values differ from {EXPECTED.relative_to(ROOT)}")
        return 1
    print(f"check_counters: ok, {len(expected)} values match "
          f"{EXPECTED.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
