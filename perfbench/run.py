#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/ (CMake, into $CARGO_TARGET_DIR or .bench_build under the
repository root), then runs one workload and passes its report through;
the last line of stdout is the JSON result. `--workload all` runs every
workload in turn and ends with one combined JSON line whose metric names
are prefixed with the workload. Extra arguments (--scale F,
--corrupt-reference) go to the measuring program unchanged.
"""
import argparse
import ctypes
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["bid-fusion", "rad-fusion", "eager-arrays"]
RUN_TIMEOUT_S = 170


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build():
    """Configures (once) and builds the measuring program; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "benchmarks", "policies.hpp")):
        sys.exit("perfbench: library sources (src/) not found next to perfbench/")
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", out, "-j", "3"], check=True, stdout=sys.stderr)
    return os.path.join(out, "perfbench")


def source_stamp():
    """The git commit when there is one, and a digest of the library and
    benchmark sources, which also identifies a checkout without git."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    commit = "none"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                           capture_output=True, text=True)
        commit = r.stdout.strip() or "none"
    return f"git:{commit},src:{h.hexdigest()[:16]}"


def without_aslr():
    """Runs in the child before exec: turns off address-space randomisation,
    so stack and heap addresses (and with them which atomics share a cache
    line, as in inv-index) are the same in every run. Best effort."""
    personality = ctypes.CDLL(None, use_errno=True).personality
    personality.argtypes = [ctypes.c_ulong]
    addr_no_randomize = 0x0040000
    current = personality(0xFFFFFFFF)  # query
    if current != -1:
        personality(current | addr_no_randomize)


def run_one(binary, args, workload, extra):
    trace_file = os.path.join(build_dir(), f"trace-{workload}-seed{args.seed}.json")
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", source_stamp(), "--trace-file", trace_file] + extra
    # The child is waited for in every case; on timeout it is killed first.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                            preexec_fn=without_aslr)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        sys.exit(f"perfbench: {workload} exceeded {RUN_TIMEOUT_S} s")
    return proc.returncode, out


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args, extra = p.parse_known_args()

    binary = build()
    if args.workload != "all":
        code, out = run_one(binary, args, args.workload, extra)
        sys.stdout.write(out)
        return code

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for w in WORKLOADS:
        code, out = run_one(binary, args, w, extra)
        lines = out.rstrip("\n").split("\n")
        sys.stdout.write("\n".join(lines[:-1]) + "\n\n")
        worst = max(worst, code)
        result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        if result is None:
            combined["correct"] = False
            continue
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"][f"{w}/{name}"] = m
    print(json.dumps(combined))
    return worst


if __name__ == "__main__":
    sys.exit(main())
