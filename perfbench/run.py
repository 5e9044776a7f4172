#!/usr/bin/env python3
"""Build and run the ACR end-to-end benchmark.

    python3 perfbench/run.py --workload ctl_scale --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The first run builds the repository's src/
tree and the benchmark from source (Release) into .bench_build/perfbench;
later runs reuse that build. The last line of standard output is the JSON
result: {"correct", "attempted", "failed", "metrics"}, each metric with the
unit BENCHMARK.json gives it. With --trace 0 the metrics are the end-to-end
ones of BENCHMARK.json, with --trace 1 the per-layer ones, and the traced
run's spans are written as Chrome trace-event JSON under
.bench_build/perfbench/.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "acr_perfbench")
TEST_BINARY = os.path.join(BUILD_DIR, "perfbench_tests")

# Settings that would make the run measure something other than the serial,
# optimized build (the binary refuses them too).
REFUSED_ENV = ("ACR_ENGINE_LANES", "ACR_ENGINE_THREADS", "ACR_KERNEL_THREADS",
               "ACR_KERNEL_IMPL")

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def load_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_checked(cmd, timeout):
    """Run `cmd` with its output sent to stderr; raise on failure."""
    proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr)
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise
    if code != 0:
        raise subprocess.CalledProcessError(code, cmd)


def build():
    """Configure and build the benchmark; both are cheap when up to date."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_checked(["cmake", "-S", HERE, "-B", BUILD_DIR,
                 "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    run_checked(["cmake", "--build", BUILD_DIR, "-j", jobs], BUILD_TIMEOUT_S)


def result_line(line, trace, spec):
    """The contract's result line built from the binary's last line.

    The binary prints {"correct", "attempted", "failed", "values"}, values
    mapping metric names to numbers. BENCHMARK.json lists the metrics of the
    run's kind with their units; the two sets must be equal. Returns
    (result, problems), result None when there are problems.
    """
    try:
        raw = json.loads(line)
    except ValueError:
        return None, ["the last output line is not JSON"]
    if not isinstance(raw, dict) or set(raw) != {"correct", "attempted",
                                                 "failed", "values"}:
        return None, ["the last output line is not a result: %.200s" % line]
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if trace else "end_to_end"]}
    values = raw["values"]
    problems = []
    if set(values) != set(units):
        problems.append("metrics differ from BENCHMARK.json: missing %s, extra %s"
                        % (sorted(set(units) - set(values)),
                           sorted(set(values) - set(units))))
    if raw["attempted"] < 1:
        problems.append("no job attempted")
    if problems:
        return None, problems
    metrics = {name: {"value": values[name], "unit": units[name]}
               for name in units}
    return {"correct": raw["correct"], "attempted": raw["attempted"],
            "failed": raw["failed"], "metrics": metrics}, []


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    refused = [v for v in REFUSED_ENV if v in os.environ]
    if refused:
        print("run.py: refusing to run with %s set" % ", ".join(refused),
              file=sys.stderr)
        return 2
    spec = load_benchmark_json()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        print("run.py: unknown workload %r" % args.workload, file=sys.stderr)
        return 2
    try:
        build()
    except (OSError, subprocess.SubprocessError) as e:
        print("run.py: build failed: %s" % e, file=sys.stderr)
        return 1

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            BUILD_DIR, "spans_%s.json" % args.workload)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print("run.py: the benchmark ran past %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 1
    lines = out.rstrip("\n").split("\n")
    if proc.returncode != 0:
        # Keep the output for diagnosis, but not as a result line.
        sys.stderr.write(out)
        print("run.py: the benchmark exited with code %d" % proc.returncode,
              file=sys.stderr)
        return proc.returncode
    result, problems = result_line(lines[-1], args.trace, spec)
    if problems:
        sys.stderr.write(out)
        for p in problems:
            print("run.py: %s" % p, file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
