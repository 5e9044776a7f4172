#!/usr/bin/env python3
"""Control-plane scaling runs of acr_driver: wall time and peak RSS.

    python3 bench/ctl_scale.py --driver build-rel/examples/acr_driver
    python3 bench/ctl_scale.py --driver NEW/acr_driver --baseline OLD/acr_driver

Runs `acr_driver --app jacobi --nodes N --iterations 10` (no faults, clean
network: the event queue, dispatch and the app message path dominate) at
1024 and 4096 nodes per replica, --runs times each, and writes
BENCH_ctl.json in the working directory: the median, min and max wall time
and the peak RSS of each point, plus host_cores. With --baseline the two
drivers alternate run by run (the host's speed drifts over minutes) and
every run's standard output must be identical between them, since the
simulation is deterministic. Use Release builds of both.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

POINTS = [(1024, 10), (4096, 10)]


def run_once(driver, nodes, iterations):
    """One driver run: (wall seconds, peak RSS MB, stdout)."""
    cmd = [driver, "--app", "jacobi", "--nodes", str(nodes),
           "--iterations", str(iterations)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL)
    out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    if os.waitstatus_to_exitcode(status) != 0:
        sys.exit("%s exited with status %d" % (" ".join(cmd), status))
    return wall, usage.ru_maxrss / 1024.0, out


def summarize(samples):
    walls = sorted(s[0] for s in samples)
    return {"wall_seconds_median": round(statistics.median(walls), 4),
            "wall_seconds_min": round(walls[0], 4),
            "wall_seconds_max": round(walls[-1], 4),
            "peak_rss_mb": round(max(s[1] for s in samples), 1)}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--driver", required=True, help="acr_driver to measure")
    ap.add_argument("--baseline", help="acr_driver to compare against")
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--out", default="BENCH_ctl.json")
    args = ap.parse_args()

    drivers = {"change": args.driver}
    if args.baseline:
        drivers = {"parent": args.baseline, "change": args.driver}
    points = []
    identical = True
    for nodes, iterations in POINTS:
        samples = {name: [] for name in drivers}
        for run in range(args.runs):
            outputs = set()
            for name, driver in drivers.items():
                wall, rss, out = run_once(driver, nodes, iterations)
                samples[name].append((wall, rss))
                outputs.add(out)
                print("nodes=%d run=%d %s: %.3f s, %.1f MB"
                      % (nodes, run, name, wall, rss), flush=True)
            identical = identical and len(outputs) == 1
        point = {"nodes": nodes, "iterations": iterations}
        for name in drivers:
            point[name] = summarize(samples[name])
        if args.baseline:
            point["speedup_median"] = round(
                point["parent"]["wall_seconds_median"]
                / point["change"]["wall_seconds_median"], 3)
        points.append(point)

    result = {
        "config": "acr_driver --app jacobi --nodes N --iterations I "
                  "(strong scheme, partner buddies, no faults, clean network)",
        "host_cores": os.cpu_count(),
        "runs": args.runs,
        "points": points,
    }
    if args.baseline:
        result["outputs_identical"] = identical
    with open(args.out, "w") as f:
        json.dump(result, f, indent=1)
        f.write("\n")
    print("wrote %s" % args.out)
    return 0 if identical else 1


if __name__ == "__main__":
    sys.exit(main())
