#!/usr/bin/env python3
"""The shipped CLIs load no shared libraries at start-up.

tools/CMakeLists.txt links every tool with -static-pie: loading and
relocating shared libraries was a large share of a one-request csfc_sim
run (DESIGN.md section 9, "Start-up"). This runs `readelf -d` on each binary
given and fails if its dynamic section lists any NEEDED entry, so a later
CMake edit cannot quietly bring the loader cost back. It also checks that
the binary is still position independent (ELF type DYN), so ASLR applies:
plain -static would also pass the NEEDED check.

On a toolchain without -static-pie, CMake falls back to linking only the
C++ runtime statically (--linkage=static-cxx); the check then fails only
on libstdc++.so or libgcc_s.so. Sanitizer builds keep the shared runtime
on purpose; with a non-empty --sanitizer the check is skipped.

Usage: link_test.py --readelf=PATH --sanitizer=NAME
                    --linkage=static-pie|static-cxx BINARY...
Stdlib only; registered as the `csfc_tools_link` ctest entry.
"""

import argparse
import re
import subprocess
import sys

SHARED_CXX_RUNTIME = re.compile(r"\[(libstdc\+\+\.so[^\]]*|libgcc_s\.so[^\]]*)\]")
NEEDED_NAME = re.compile(r"\[([^\]]*)\]")


def readelf(tool, flag, binary):
    proc = subprocess.run([tool, flag, binary], capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"FAIL: {tool} {flag} {binary} exited {proc.returncode}: "
                 f"{proc.stderr.strip()}")
    return proc.stdout


def needed(tool, binary):
    """The NEEDED entries of `binary`'s dynamic section."""
    return [line for line in readelf(tool, "-d", binary).splitlines()
            if "(NEEDED)" in line]


def elf_type(tool, binary):
    """The ELF header's Type field, e.g. 'DYN' or 'EXEC'."""
    for line in readelf(tool, "-h", binary).splitlines():
        if line.strip().startswith("Type:"):
            return line.split(":", 1)[1].split()[0]
    return "?"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--readelf", default="",
                    help="path to readelf (default: readelf on PATH)")
    ap.add_argument("--sanitizer", default="",
                    help="the build's CSFC_SANITIZE value")
    ap.add_argument("--linkage", choices=("static-pie", "static-cxx"),
                    default="static-pie",
                    help="how tools/CMakeLists.txt linked the tools")
    ap.add_argument("binaries", nargs="+", help="executables to check")
    args = ap.parse_args()
    if args.sanitizer:
        print(f"SKIP: CSFC_SANITIZE={args.sanitizer} builds link the shared "
              f"C++ runtime")
        return 0

    tool = args.readelf or "readelf"
    failed = False
    for binary in args.binaries:
        entries = needed(tool, binary)
        if args.linkage == "static-pie":
            shared = [m.group(1) for m in map(NEEDED_NAME.search, entries) if m]
        else:
            shared = [m.group(1) for m in map(SHARED_CXX_RUNTIME.search, entries)
                      if m]
        kind = elf_type(tool, binary) if args.linkage == "static-pie" else "DYN"
        if shared:
            print(f"FAIL: {binary} loads {', '.join(shared)}")
            failed = True
        elif kind != "DYN":
            print(f"FAIL: {binary} is ELF type {kind}, not a PIE (DYN)")
            failed = True
        else:
            print(f"ok: {binary} ({args.linkage})")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
