#!/usr/bin/env python3
"""End-to-end exit-code contract for tools/csfc_analyze/csfc_analyze.py.

Runs the real CLI as a subprocess against the real tree and asserts:

  * a clean tree exits 0 (whichever engine is selected),
  * every --seed-violation=RULE exits 1 and names the seeded file,
  * without libclang, auto mode prints a visible fallback notice and
    still completes (a clean exit must never be mistaken for full AST
    coverage), and --engine=libclang forced exits 2,
  * --self-test exits 0.

Stdlib only; registered as the `csfc_analyze_cli` ctest entry.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
ANALYZER = REPO / "tools" / "csfc_analyze" / "csfc_analyze.py"

sys.path.insert(0, str(ANALYZER.parent))
import csfc_analyze  # noqa: E402


def run_cli(*extra: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(ANALYZER), *extra],
        capture_output=True, text=True, timeout=300)


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repo", type=Path, default=REPO)
    parser.add_argument("--compdb", type=Path,
                        default=REPO / "build" / "compile_commands.json")
    args = parser.parse_args(argv)
    base = ["--repo", str(args.repo), "--compdb", str(args.compdb)]
    failures: list = []

    def check(name: str, proc: subprocess.CompletedProcess,
              want_exit: int, *fragments: str) -> None:
        text = proc.stdout + proc.stderr
        if proc.returncode != want_exit:
            failures.append(
                f"{name}: exit {proc.returncode}, wanted {want_exit}\n"
                f"--- output ---\n{text}")
            return
        for frag in fragments:
            if frag not in text:
                failures.append(
                    f"{name}: output missing {frag!r}\n"
                    f"--- output ---\n{text}")

    check("self-test", run_cli("--self-test"), 0, "self-test OK")

    # The committed tree must be clean under every available engine.
    check("clean-tree", run_cli(*base), 0, "OK")
    check("clean-tree-regex", run_cli(*base, "--engine=regex"), 0,
          "csfc_analyze[regex]: OK")

    for rule, fragment in (
            ("layering", "_seeded_layering.h"),
            ("hot-alloc", "_seeded_hot.h"),
            ("exc-safety", "_seeded_mover.h"),
            # hot-coverage findings point at the manifest entry, not the
            # seeded file: the function exists but lost its annotation.
            ("hot-coverage", "SeededCold::Push"),
            # Concurrency families (rules 5-7): each seed drops a file
            # with exactly one contract breach into the scanned tree.
            ("atomics-discipline", "_seeded_atomics.h"),
            ("lock-hierarchy", "_seeded_locks.h"),
            ("hot-blocking", "_seeded_blocking.h"),
            # Determinism families (rules 8-10, determinism.toml).
            ("determinism-taint", "_seeded_det.h"),
            ("fp-contract", "_seeded_fp.h"),
            ("rng-seed-flow", "_seeded_rng.h"),
            # Repo contracts (rules 11-13). The trace-contract seed adds
            # an enumerator to the real trace_event.h, so its findings
            # name the kind rather than a seeded file.
            ("registry", "_seeded_rogue.h"),
            ("trace-contract", "kSeededGhost"),
            ("no-std-function", "_seeded_function.h")):
        check(f"seed-{rule}",
              run_cli(*base, f"--seed-violation={rule}"), 1, fragment)

    if csfc_analyze.load_libclang() is None:
        # gcc-only container: the fallback must be loud, and forcing the
        # AST engine must be a hard error rather than a silent downgrade.
        check("fallback-notice", run_cli(*base, "--engine=auto"), 0,
              "falling back to regex engine")
        check("libclang-forced",
              run_cli(*base, "--engine=libclang"), 2, "libclang")
    elif args.compdb.exists():
        check("libclang-engine", run_cli(*base, "--engine=libclang"), 0,
              "csfc_analyze[libclang]: OK")

    if failures:
        print("analyze_cli_test FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print("analyze_cli_test OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
