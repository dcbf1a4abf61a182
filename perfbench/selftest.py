#!/usr/bin/env python3
"""Self-test of the benchmark, at tiny input sizes (about half a minute
after the build):

    python3 perfbench/selftest.py

For every workload it checks that an untraced run prints exactly the
end-to-end metrics BENCHMARK.json names, with their units, and a traced run
exactly the per-layer ones; that no run fails (ok_frac is 1); and that the
traced run writes a Chrome trace that loads. Then it corrupts one expected
output per workload and checks that the run fails: nonzero exit, `correct`
false and failed runs counted. Exits 0 when every check holds.
"""
import json
import os
import subprocess
import sys

import run

TINY = ["--scale", "0.001", "--seconds", "0.5", "--seed", "1"]


def measure(binary, workload, trace, extra=()):
    trace_file = os.path.join(run.build_dir(), f"selftest-trace-{workload}.json")
    if os.path.exists(trace_file):
        os.remove(trace_file)
    cmd = [binary, "--workload", workload, "--trace", str(trace),
           "--trace-file", trace_file] + TINY + list(extra)
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    lines = proc.stdout.strip().split("\n")
    result = json.loads(lines[-1]) if lines[-1].startswith("{") else None
    return proc.returncode, result, trace_file


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    binary = run.build()
    errors = []

    def expect(cond, what):
        if not cond:
            errors.append(what)

    for w in run.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, result, trace_file = measure(binary, w, trace)
            label = f"{w} --trace {trace}"
            expect(code == 0, f"{label}: exit code {code}")
            if result is None:
                errors.append(f"{label}: no JSON result line")
                continue
            expect(result["correct"] is True, f"{label}: not correct")
            expect(result["failed"] == 0, f"{label}: {result['failed']} failed")
            expect(result["attempted"] >= 1, f"{label}: nothing attempted")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {n: m["unit"] for n, m in result["metrics"].items()}
            expect(got == want, f"{label}: metric names/units differ from "
                                f"BENCHMARK.json: {sorted(set(got) ^ set(want))}")
            if trace == 0:
                expect(result["metrics"]["ok_frac"]["value"] == 1.0,
                       f"{label}: ok_frac below 1")
            else:
                try:
                    with open(trace_file) as f:
                        events = json.load(f)["traceEvents"]
                    names = {e["name"].split(".")[0] for e in events}
                    expect(all(e["ph"] == "X" for e in events) and
                           {"round", "kernel"} <= names and
                           bool(names & {"core", "array"}),
                           f"{label}: trace lacks round/kernel/op spans")
                except (OSError, ValueError, KeyError) as e:
                    errors.append(f"{label}: trace does not load: {e}")

        code, result, _ = measure(binary, w, 0, ["--corrupt-reference"])
        label = f"{w} --corrupt-reference"
        expect(code != 0, f"{label}: exit code 0")
        expect(result is not None and result["correct"] is False and
               result["failed"] > 0, f"{label}: corruption not detected")

    for e in errors:
        print("selftest FAILED:", e)
    print("selftest:", "ok" if not errors else f"{len(errors)} failure(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
