#!/usr/bin/env python3
"""csfc_sim's peak memory does not grow with the request count.

A generated workload streams from its generator into the simulator, and at
the paper's 25 ms interarrival the queue stays shallow, so nothing in the
run should scale with --count. This runs `csfc_sim --json --interarrival=25`
at two counts 100x apart, reaps each child with os.wait4 so its own
ru_maxrss gives its peak RSS, and fails if the larger run peaks more than
SLACK_MB above the smaller one. A workload drained into a vector costs
about 110 bytes per request, so one copy at the larger count is ~44 MB.

Usage: sim_memory_test.py --sim=PATH/TO/csfc_sim
Stdlib only; registered as the `csfc_sim_memory` ctest entry.
"""

import argparse
import json
import os
import subprocess
import sys

SMALL, LARGE = 4000, 400000
SLACK_MB = 8.0


def peak_rss_mb(sim, count):
    """Runs csfc_sim over `count` requests; returns its peak RSS in MB."""
    cmd = [sim, "--json", "--interarrival=25", f"--count={count}"]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    out = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        sys.exit(f"FAIL: {' '.join(cmd)} exited {proc.returncode}")
    m = json.loads(out)
    if not m["arrivals"] == m["completions"] == count:
        sys.exit(f"FAIL: {' '.join(cmd)} completed {m['completions']} of "
                 f"{count} requests")
    return usage.ru_maxrss / 1024.0  # Linux reports kilobytes


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--sim", required=True, help="path to csfc_sim")
    args = ap.parse_args()
    small = peak_rss_mb(args.sim, SMALL)
    large = peak_rss_mb(args.sim, LARGE)
    print(f"peak RSS: {small:.1f} MB at --count={SMALL}, "
          f"{large:.1f} MB at --count={LARGE}")
    if large - small > SLACK_MB:
        print(f"FAIL: peak RSS grew by {large - small:.1f} MB "
              f"(allowed {SLACK_MB:g} MB)")
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
