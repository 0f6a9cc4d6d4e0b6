#!/usr/bin/env python3
"""The shipped CLIs do not load the C++ runtime from shared libraries.

tools/CMakeLists.txt links every tool with -static-libstdc++ and
-static-libgcc: loading and relocating libstdc++.so and libgcc_s.so was
about a quarter of a one-request csfc_sim run (DESIGN.md section 9,
"Start-up"). This runs `readelf -d` on each binary given and fails if its
dynamic section lists either library as NEEDED, so a later CMake edit
cannot quietly bring the loader cost back. Sanitizer builds keep the
shared runtime on purpose; with a non-empty --sanitizer the check is
skipped.

Usage: link_test.py --readelf=PATH --sanitizer=NAME BINARY...
Stdlib only; registered as the `csfc_tools_link` ctest entry.
"""

import argparse
import re
import subprocess
import sys

SHARED_RUNTIME = re.compile(r"\[(libstdc\+\+\.so[^\]]*|libgcc_s\.so[^\]]*)\]")


def needed(readelf, binary):
    """The NEEDED entries of `binary`'s dynamic section."""
    proc = subprocess.run([readelf, "-d", binary], capture_output=True,
                          text=True)
    if proc.returncode != 0:
        sys.exit(f"FAIL: {readelf} -d {binary} exited {proc.returncode}: "
                 f"{proc.stderr.strip()}")
    return [line for line in proc.stdout.splitlines() if "(NEEDED)" in line]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--readelf", default="",
                    help="path to readelf (default: readelf on PATH)")
    ap.add_argument("--sanitizer", default="",
                    help="the build's CSFC_SANITIZE value")
    ap.add_argument("binaries", nargs="+", help="executables to check")
    args = ap.parse_args()
    if args.sanitizer:
        print(f"SKIP: CSFC_SANITIZE={args.sanitizer} builds link the shared "
              f"C++ runtime")
        return 0

    readelf = args.readelf or "readelf"
    failed = False
    for binary in args.binaries:
        matches = map(SHARED_RUNTIME.search, needed(readelf, binary))
        shared = [m.group(1) for m in matches if m]
        if shared:
            print(f"FAIL: {binary} loads {', '.join(shared)}")
            failed = True
        else:
            print(f"ok: {binary}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
