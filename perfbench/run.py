#!/usr/bin/env python3
"""Builds and runs the CRP end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest
    python3 perfbench/run.py --traffic [--seed N]

Run it from anywhere; it works on the checkout that contains it. The first
call configures and compiles the libraries under src/ plus the benchmark
binary (Release) into .bench_build/perfbench; later calls only rebuild
what changed. Build output goes to stderr, so the last line of stdout is
the benchmark's JSON result. A traced run writes its spans to
.bench_build/traces/. The exit code is the benchmark's: 0 when every
operation succeeded and every oracle answer matched.

--selftest runs every workload at a tiny size: two runs with one seed must
print identical deterministic counters, another seed must change them, a
deliberately corrupted oracle answer must fail the run, and the split
delivery path must leave a frontend equal to World::report_positions.
--traffic prints the map statistics of the three corpora side by side.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "crp_perfbench"
WORKLOADS = ("campaign_refresh", "serve_read", "serve_churn")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"no CRP sources under {ROOT / 'src'}; nothing to benchmark")
        return False
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "crp_perfbench",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            return False
    return True


def git_commit():
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def invoke(args):
    """Runs the benchmark binary; returns (exit code, stdout lines)."""
    try:
        proc = subprocess.run([str(BINARY)] + args, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"timed out after {RUN_TIMEOUT_S} s: {' '.join(args)}")
        return 124, []
    return proc.returncode, proc.stdout.splitlines()


def run(opts):
    args = ["--workload", opts.workload, "--seed", str(opts.seed),
            "--seconds", str(opts.seconds), "--trace", str(opts.trace)]
    if opts.trace:
        traces = ROOT / ".bench_build" / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        args += ["--trace-out",
                 str(traces / f"{opts.workload}-seed{opts.seed}.jsonl")]
    code, lines = invoke(args)
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        print("\n".join(lines))
        log("no result line")
        return code or 3
    print("\n".join(lines[:-1]))
    print(f"# git_commit={git_commit()}")
    print(lines[-1], flush=True)
    return code


def counters_of(lines):
    for line in lines:
        if line.startswith("# counters "):
            return line[len("# counters "):]
    return None


def selftest():
    ok = True

    def check(cond, what):
        nonlocal ok
        log(("ok    " if cond else "FAIL  ") + what)
        ok = ok and cond

    code, lines = invoke(["--same-path-check", "--seed", "7"])
    check(code == 0, "same-path: split delivery == World::report_positions")
    for workload in WORKLOADS:
        tiny = ["--workload", workload, "--seconds", "1", "--trace", "0",
                "--tiny"]
        runs = [invoke(tiny + ["--seed", seed]) for seed in ("1", "1", "2")]
        for code, _ in runs:
            check(code == 0, f"{workload}: tiny run passes")
        first, again, other = (counters_of(lines) for _, lines in runs)
        log(f"      {workload} counters: {first}")
        check(first is not None and first == again,
              f"{workload}: same seed, identical counters")
        check(first != other, f"{workload}: other seed, other counters")
        code, lines = invoke(tiny + ["--seed", "1", "--corrupt-oracle"])
        check(code != 0 and lines and '"correct": false' in lines[-1],
              f"{workload}: corrupted oracle answer fails the run")
    return 0 if ok else 1


def traffic(seed):
    print(f"{'workload':18} {'map_entries_mean':>17} {'maps_per_query':>15}")
    for workload in WORKLOADS:
        code, lines = invoke(["--workload", workload, "--seed", str(seed),
                              "--seconds", "1", "--trace", "0",
                              "--counters-only"])
        stats = [l for l in lines if l.startswith("# traffic ")]
        if code or not stats:
            log(f"{workload}: counting pass failed")
            return code or 1
        # "# traffic NAME: core.map_entries_mean X, service.maps_per_query Y"
        fields = stats[0].replace(",", "").split()
        print(f"{workload:18} {fields[4]:>17} {fields[6]:>15}")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--traffic", action="store_true")
    opts = parser.parse_args()
    if not (opts.selftest or opts.traffic or opts.workload):
        parser.error("--workload, --selftest or --traffic is required")
    if not build():
        return 2
    if opts.selftest:
        return selftest()
    if opts.traffic:
        return traffic(opts.seed)
    return run(opts)


if __name__ == "__main__":
    sys.exit(main())
