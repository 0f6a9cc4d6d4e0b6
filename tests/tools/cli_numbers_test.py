#!/usr/bin/env python3
"""The small CLIs reject a bad number as a usage error (exit 2).

trace_inspect's --windows/--errors, csfc_curves' bits and dims, and the
video_server / nonlinear_editing user counts are parsed as one whole
token (common/parse.h's ParseToken). Before, they went through atoi: a
negative window count wrapped to a huge size_t and the run aborted with
an uncaught std::length_error, and "5x" ran as 5. This runs each binary
with bad values and fails unless every one exits 2 with a usage line on
stderr, then checks that good values still run (exit 0).

It also checks that csfc_sim rejects a negative relative deadline and
names --deadline in the error, and that it refuses to replay a trace
whose request names a cylinder past the disk's last one (exit 1, an
InvalidArgument that names the request id).

Usage: cli_numbers_test.py --sim=PATH --trace-inspect=PATH --curves=PATH
                           --video-server=PATH --nonlinear-editing=PATH
Stdlib only; registered as the `csfc_cli_numbers` ctest entry.
"""

import argparse
import os
import subprocess
import sys
import tempfile

failures = []


def run(cmd):
    return subprocess.run(cmd, capture_output=True, text=True, timeout=120)


def expect_usage(cmd):
    proc = run(cmd)
    if proc.returncode != 2 or "usage:" not in proc.stderr:
        failures.append(f"{' '.join(cmd)}: exit {proc.returncode}, "
                        f"stderr {proc.stderr.strip()[:200]!r}; "
                        f"want exit 2 and a usage line")


def expect_ok(cmd):
    proc = run(cmd)
    if proc.returncode != 0:
        failures.append(f"{' '.join(cmd)}: exit {proc.returncode}, "
                        f"stderr {proc.stderr.strip()[:200]!r}")


def main():
    ap = argparse.ArgumentParser()
    for name in ("sim", "trace-inspect", "curves", "video-server",
                 "nonlinear-editing"):
        ap.add_argument(f"--{name}", required=True)
    a = ap.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        trace = os.path.join(tmp, "run.jsonl")
        expect_ok([a.sim, "--count=50", "--json", f"--trace-jsonl={trace}"])
        for bad in ("--windows=-3", "--windows=5x", "--windows=0",
                    "--windows=", "--windows=18446744073709551616",
                    "--windows=1000001", "--errors=-1", "--errors=3y",
                    "--errors="):
            expect_usage([a.trace_inspect, bad, trace])
        expect_ok([a.trace_inspect, "--windows=5", "--errors=3", trace])

    for args in (["draw", "hilbert", "3x"], ["draw", "hilbert", "-1"],
                 ["draw", "hilbert", "2", "2"], ["analyze", "hilbert", "2", "x"],
                 ["analyze", "hilbert", "-2", "3"],
                 ["analyze", "hilbert", "2", "4294967299"]):
        expect_usage([a.curves] + args)
    expect_ok([a.curves, "draw", "hilbert", "2"])
    expect_ok([a.curves, "analyze", "hilbert", "2", "3"])

    for example in (a.video_server, a.nonlinear_editing):
        for args in (["abc"], ["-5"], ["4x"], [""], ["4", "5"]):
            expect_usage([example] + args)

    for deadline in ("--deadline=-50:100", "--deadline=-50:-10"):
        proc = run([a.sim, "--count=10", "--json", deadline])
        if proc.returncode == 0 or "--deadline" not in proc.stderr:
            failures.append(f"csfc_sim {deadline}: exit {proc.returncode}, "
                            f"stderr {proc.stderr.strip()[:200]!r}; want a "
                            f"failure that names --deadline")

    # The 3,832-cylinder disk's last cylinder is 3,831.
    with tempfile.TemporaryDirectory() as tmp:
        for cylinder, ok in ((3831, True), (3832, False),
                             (4000000000, False)):
            trace = os.path.join(tmp, f"cyl{cylinder}.trace")
            with open(trace, "w") as f:
                f.write("0 0 -1 100 65536 0 0 1\n")
                f.write(f"7 1000 -1 {cylinder} 65536 0 0 1\n")
            cmd = [a.sim, "--json", f"--trace-in={trace}"]
            if ok:
                expect_ok(cmd)
                continue
            proc = run(cmd)
            if (proc.returncode != 1 or "InvalidArgument" not in proc.stderr
                    or "id 7" not in proc.stderr):
                failures.append(f"{' '.join(cmd)}: exit {proc.returncode}, "
                                f"stderr {proc.stderr.strip()[:200]!r}; want "
                                f"exit 1 and an InvalidArgument naming id 7")

    if failures:
        sys.exit("FAIL:\n  " + "\n  ".join(failures))
    print("ok: bad numbers are usage errors; good ones run; off-disk "
          "cylinders are rejected")


if __name__ == "__main__":
    main()
