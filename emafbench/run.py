#!/usr/bin/env python3
"""Builds and runs the emaf benchmark from the root of a checkout.

    python3 emafbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
        One run. The last line of standard output is the result JSON.
    python3 emafbench/run.py --short
        Every workload, serve_warm included, for a few seconds, untraced and traced, with every
        output check on; exits non-zero unless all pass with no failed op.
    python3 emafbench/run.py --layer-table [--seed N] [--seconds S]
        Re-measures the README's per-layer reference table: per workload,
        two alternating untraced/traced pairs of runs on the same seed,
        printed as markdown. The table shows the last traced run; the
        tracing overhead is traced minus untraced end-to-end time, per pair.
    python3 emafbench/run.py --spread [--seeds 1,2,...] [--seconds S]
        Runs each gated workload once per seed and prints, per end-to-end metric,
        the median, the quartiles and the interquartile spread as a share of
        the median.

The build goes to $CARGO_TARGET_DIR (default .bench_build), in a directory
named after a hash of this checkout's path, so checkouts that share one
$CARGO_TARGET_DIR never build each other's sources. Build output goes to
standard error. Scratch files of a run live
under .bench_work/ and are removed when it ends.
"""

import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# The workloads BENCHMARK.json gates on. serve_warm stays runnable as a
# diagnostic (checks, layer table) but is not gated: its run-to-run spread
# exceeded the bound (README, "Run-to-run spread and bounds").
WORKLOADS = ["serve_churn", "train_cell"]
ALL_WORKLOADS = ["serve_warm"] + WORKLOADS
RUN_SECONDS = 40
LAYER_TABLE_PAIRS = 2


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    tree = hashlib.sha1(HERE.encode()).hexdigest()[:12]
    build_dir = os.path.join(os.path.abspath(root), "emafbench-" + tree)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            sys.exit("emafbench: configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    step = ["cmake", "--build", build_dir, "--target", "emafbench", "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        sys.exit("emafbench: build failed")
    return os.path.join(build_dir, "emafbench")


def run(binary, workload, seed, seconds, trace):
    """One run; returns (result dict, stdout lines)."""
    args = [binary, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    proc = subprocess.run(args, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        sys.exit(f"emafbench: {' '.join(args[1:])} exited {proc.returncode}")
    return json.loads(lines[-1]), lines


def option(argv, name, default):
    return argv[argv.index(name) + 1] if name in argv else default


def short(binary):
    ok = True
    for workload in ALL_WORKLOADS:
        for trace in (False, True):
            result, _ = run(binary, workload, 7, 3, trace)
            good = result["correct"] and result["failed"] == 0
            ok = ok and good
            print(f"{workload} trace={int(trace)}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"metrics={len(result['metrics'])} -> {'ok' if good else 'FAIL'}")
    return 0 if ok else 1


def traced_op_ms(lines):
    for line in lines:
        if line.startswith("traced e2e:"):
            return {k: float(v) for k, v in
                    (kv.split("=") for kv in line.split()[2:])}
    return {}


def layer_table(binary, argv):
    seed = int(option(argv, "--seed", "1"))
    seconds = float(option(argv, "--seconds", str(RUN_SECONDS)))
    traced, overhead = {}, {}
    for workload in ALL_WORKLOADS:
        overhead[workload] = {}
        for _ in range(LAYER_TABLE_PAIRS):
            plain, _ = run(binary, workload, seed, seconds, False)
            result, lines = run(binary, workload, seed, seconds, True)
            traced[workload] = result["metrics"]
            for name, value in traced_op_ms(lines).items():
                base = plain["metrics"][name]["value"]
                overhead[workload].setdefault(name, []).append(
                    100 * (value - base) / base)
    print(f"Per-layer metrics, seed {seed}, {seconds:g} s per run\n")
    print("| metric | unit | " + " | ".join(ALL_WORKLOADS) + " |")
    print("|---|---|" + "---|" * len(ALL_WORKLOADS))
    for name, entry in traced[ALL_WORKLOADS[0]].items():
        cells = [f"{traced[w][name]['value']:.4g}" for w in ALL_WORKLOADS]
        print(f"| `{name}` | {entry['unit']} | " + " | ".join(cells) + " |")
    print(f"\nTracing overhead, traced minus untraced as % of untraced, "
          f"{LAYER_TABLE_PAIRS} pairs per workload\n")
    names = sorted({n for w in ALL_WORKLOADS for n in overhead[w]})
    print("| metric | " + " | ".join(ALL_WORKLOADS) + " |")
    print("|---|" + "---|" * len(ALL_WORKLOADS))
    for name in names:
        cells = [", ".join(f"{d:+.1f}%" for d in overhead[w].get(name, []))
                 for w in ALL_WORKLOADS]
        print(f"| `{name}` | " + " | ".join(cells) + " |")
    return 0


def spread(binary, argv):
    seeds = [int(s) for s in option(argv, "--seeds", "1,2,3,4,5").split(",")]
    seconds = float(option(argv, "--seconds", str(RUN_SECONDS)))
    for workload in WORKLOADS:
        values, failed = {}, []
        for seed in seeds:
            result, _ = run(binary, workload, seed, seconds, False)
            failed.append(f"{result['failed']}/{result['attempted']}")
            for name, entry in result["metrics"].items():
                values.setdefault(name, []).append(entry["value"])
        print(f"\n{workload}: seeds {seeds}, {seconds:g} s, failed {failed}\n")
        print("| metric | median | q1 | q3 | spread |")
        print("|---|---|---|---|---|")
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            print(f"| `{name}` | {med:.4g} | {q1:.4g} | {q3:.4g} | "
                  f"{100 * (q3 - q1) / med:.1f}% |")
        print("\nraw " + json.dumps(values))
        sys.stdout.flush()
    return 0


def main(argv):
    binary = build()
    if "--short" in argv:
        return short(binary)
    if "--layer-table" in argv:
        return layer_table(binary, argv)
    if "--spread" in argv:
        return spread(binary, argv)
    sys.stdout.flush()
    return subprocess.run([binary] + argv).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
