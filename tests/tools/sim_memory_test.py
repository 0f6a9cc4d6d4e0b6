#!/usr/bin/env python3
"""csfc_sim's and csfc_serve --virtual's memory does not grow with the
request count, and a csfc run faults in little more memory than the
simplest scheduler's.

Check 1, peak RSS flat in --count. A generated workload streams from its
generator into the simulator, and at the paper's 25 ms interarrival the
queue stays shallow, so nothing in the run should scale with --count. This
runs `csfc_sim --json --interarrival=25` at two counts 100x apart and fails
if the larger run peaks more than SLACK_MB above the smaller one. A
workload drained into a vector costs about 110 bytes per request, so one
copy at the larger count is ~44 MB. `csfc_serve --virtual --json
--interarrival=25` runs the same event loop behind admission and the
ingest ring, and is held to the same bound.

Check 2, construction cost. `csfc_sim --json --count=1` builds the csfc
scheduler and serves one request; the same run with `--sched=fcfs` pays
the process start-up and nothing else. The csfc run's extra minor page
faults are what building the scheduler touches: the encapsulator's lookup
tables and the dispatcher's calendar and slot pool. The check fails if it
takes more than SLACK_PAGES extra for the build's sanitizer. A sanitizer
maps shadow memory for allocated bytes whether or not they are touched,
and its allocator keeps its own metadata, so each sanitizer build has its
own bound, set between what this code measures and what a build that
zero-filled both calendar slabs and built a second, probe scheduler per
factory measured. Extra pages, 4 KB each, over seeds 1-7:

    build (preset)          this code      zero-fill + probe
    RelWithDebInfo          +22 .. +26     +275 .. +279
    ubsan                   +38 .. +40     (not measured)
    asan (Debug)            +215 .. +310   +522 .. +537
    tsan                    +387 .. +398   +2,930 .. +2,940

Check 3, SLO windows. `csfc_serve --virtual --windows=0.001
--windows-out=/dev/null` cuts the run into 1 us windows, ~25,000 per
request at 25 ms, and writes a row for every one of them. Only windows
that saw an event are stored, and the gap rows are written as they
stream, so peak RSS must stay flat from --count=20 to --count=100 (held to
the same SLACK_MB). A sink that stored every window peaked at 156 MB and
685 MB.

Each child is reaped with os.wait4, so its own rusage, and nothing else's,
gives its peak RSS and page faults.

Usage: sim_memory_test.py --sim=PATH/TO/csfc_sim --serve=PATH/TO/csfc_serve
                          [--sanitizer=NAME]
Stdlib only; registered as the `csfc_sim_memory` ctest entry.
"""

import argparse
import json
import os
import subprocess
import sys

SMALL, LARGE = 4000, 400000
WINDOW_COUNTS = (20, 100)  # check 3: ~5x10^5 and ~2.5x10^6 windows
SLACK_MB = 8.0
SLACK_PAGES = {"": 64, "undefined": 64, "address": 400, "thread": 1000}


def run(cmd, count, offered="arrivals"):
    """Runs `cmd` and checks that the requests its JSON counts under
    `offered` and its completions both number `count`; returns its
    rusage."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    out = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        sys.exit(f"FAIL: {' '.join(cmd)} exited {proc.returncode}")
    m = json.loads(out)
    if not m[offered] == m["completions"] == count:
        sys.exit(f"FAIL: {' '.join(cmd)} completed {m['completions']} of "
                 f"{m[offered]} {offered}, {count} requests")
    return usage


def peak_rss_mb(cmd, count, offered="arrivals"):
    """Runs `cmd` over `count` requests at the paper's load; returns its
    peak RSS in MB."""
    cmd = cmd + ["--json", "--interarrival=25", f"--count={count}"]
    return run(cmd, count, offered).ru_maxrss / 1024.0  # Linux reports KB


def check_flat(name, cmd, offered="arrivals", counts=(SMALL, LARGE)):
    """Check 1 (or 3) for one command; returns whether it failed."""
    small_n, large_n = counts
    small = peak_rss_mb(cmd, small_n, offered)
    large = peak_rss_mb(cmd, large_n, offered)
    print(f"{name} peak RSS: {small:.1f} MB at --count={small_n}, "
          f"{large:.1f} MB at --count={large_n}")
    if large - small > SLACK_MB:
        print(f"FAIL: {name} peak RSS grew by {large - small:.1f} MB "
              f"(allowed {SLACK_MB:g} MB)")
        return True
    return False


def setup_faults(sim, sched):
    """Minor page faults of a one-request run with scheduler `sched`."""
    return run([sim, "--json", "--count=1", f"--sched={sched}"], 1).ru_minflt


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--sim", required=True, help="path to csfc_sim")
    ap.add_argument("--serve", required=True, help="path to csfc_serve")
    ap.add_argument("--sanitizer", default="", choices=sorted(SLACK_PAGES),
                    help="the build's CSFC_SANITIZE value")
    args = ap.parse_args()
    slack_pages = SLACK_PAGES[args.sanitizer]

    failed = check_flat("csfc_sim", [args.sim])
    failed |= check_flat("csfc_serve --virtual", [args.serve, "--virtual"],
                         offered="offered")
    failed |= check_flat("csfc_serve --virtual --windows=0.001",
                         [args.serve, "--virtual", "--windows=0.001",
                          "--windows-out=/dev/null"],
                         offered="offered", counts=WINDOW_COUNTS)

    csfc = setup_faults(args.sim, "csfc")
    fcfs = setup_faults(args.sim, "fcfs")
    print(f"one-request page faults: csfc {csfc}, fcfs {fcfs} "
          f"({csfc - fcfs:+d})")
    if csfc - fcfs > slack_pages:
        print(f"FAIL: building csfc faulted in {csfc - fcfs} extra pages "
              f"(allowed {slack_pages})")
        failed = True

    if failed:
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
