#!/usr/bin/env python3
"""End-to-end benchmark of the DVDC simulator.

Builds the simulator and the harness from source (perfbench/CMakeLists.txt,
Release, into .bench_build/), runs one workload in a fresh process and
prints its metrics. The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics.

    python3 perfbench/run.py --workload batch_fig5 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all          # every workload, timed
    python3 perfbench/run.py --selftest              # the harness self-tests

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 its
per-layer metrics (a separate traced run; see perfbench/README.md). The
command exits non-zero when a correctness check fails, when the build fails,
or when the environment is unfit for measuring (a VDC_* knob is set).
"""

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
BUILD_DIR = ROOT / ".bench_build"
BINARY = BUILD_DIR / "vdc_perfbench"
SELFTEST = BUILD_DIR / "perfbench_selftest"
WORKLOADS = ["batch_fig5", "serve_failover", "rebuild_rs"]
DEFAULT_SEED = 1
# Reserved for confirming a claimed gain; never used while tuning a change.
HELD_OUT_SEED = 7919
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configure once, then build; compiler output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("perfbench: build failed:", " ".join(cmd))
            return False
    return True


def host_info(binary_env):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    info = {"nproc": os.cpu_count(), "cpu": cpu, "git_commit": git_commit(),
            "python": platform.python_version()}
    info.update(binary_env)
    return info


def git_commit():
    """The checkout's commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def contract():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def run_workload(workload, seed, seconds, trace, spec):
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        spans = BUILD_DIR / "spans" / f"{workload}-seed{seed}.jsonl"
        spans.parent.mkdir(exist_ok=True)
        cmd += ["--spans", str(spans)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {workload} did not finish in {RUN_TIMEOUT_S} s")
        return None, 1
    lines = proc.stdout.splitlines()
    results = [l for l in lines if l.startswith("RESULT ")]
    for line in lines:
        if not line.startswith("RESULT "):
            print(line)
    if not results:
        log(f"perfbench: {workload} printed no result (exit {proc.returncode})")
        return None, proc.returncode or 1
    raw = json.loads(results[-1][len("RESULT "):])
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        got = raw["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"] or got["value"] is None:
            log(f"perfbench: metric {m['name']} missing or mis-unit: {got}")
            return None, 1
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    print(f"sim_digest: {raw['sim_digest']}")
    print("env:", json.dumps(host_info(raw["env"]), sort_keys=True))
    result = {"correct": raw["correct"], "attempted": int(raw["attempted"]),
              "failed": int(raw["failed"]), "metrics": metrics}
    ok = proc.returncode == 0 and raw["correct"]
    return result, 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    if not (ROOT / "src").is_dir():
        log("perfbench: no simulator sources next to perfbench/")
        return 1
    spec = contract()
    seconds = args.seconds or spec["run_seconds"]
    if not build():
        return 1
    if args.selftest:
        return subprocess.run([str(SELFTEST)], timeout=600).returncode

    if args.workload != "all":
        result, code = run_workload(args.workload, args.seed, seconds,
                                    args.trace, spec)
        if result is None:
            return code or 1
        print(json.dumps(result), flush=True)
        return code

    worst = 0
    summary = {}
    for workload in WORKLOADS:
        print(f"== {workload}", flush=True)
        result, code = run_workload(workload, args.seed, seconds, args.trace,
                                    spec)
        worst = worst or code or (1 if result is None else 0)
        if result is not None:
            summary[workload] = result
    print(json.dumps(summary), flush=True)
    return worst


if __name__ == "__main__":
    sys.exit(main())
