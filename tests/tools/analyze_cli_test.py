#!/usr/bin/env python3
"""Exit-code and seed contract for tools/csfc_analyze/csfc_analyze.py.

Through the real CLI, as subprocesses against the real tree:

  * the clean tree exits 0,
  * one --seed-violation exits 1 and names the seeded file,
  * an unknown seed rule is a usage error and exits 2.

In process, on one loaded tree: every seed in SEEDS yields findings
that name its fragment (the seeded file, or what the seed edits).
The synthetic self-test is the separate csfc_analyze_self_test entry.

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

# What each seed's findings must mention.
SEED_FRAGMENTS = {
    "layering": "_seeded_layering.h",
    "hot-alloc": "_seeded_hot.h",
    # The seed strips [[nodiscard]] from the real Status.
    "exc-safety": "Status must be declared `class [[nodiscard]]`",
    # hot-coverage findings point at the manifest entry, not the seeded
    # file: the function exists but carries no annotation.
    "hot-coverage": "SeededCold::Push",
    # Concurrency families (rules 5-7): each seed drops a file with
    # exactly one contract breach into the scanned tree.
    "atomics-discipline": "_seeded_atomics.h",
    "lock-hierarchy": "_seeded_locks.h",
    "hot-blocking": "_seeded_blocking.h",
    # Determinism families (rules 8-10, determinism.toml).
    "determinism-taint": "_seeded_det.h",
    "fp-contract": "_seeded_fp.h",
    "rng-seed-flow": "_seeded_rng.h",
    # Repo contracts (rules 11-13). The trace-contract seed adds an
    # enumerator to the real trace_event.h, so its findings name the kind
    # rather than a seeded file.
    "registry": "_seeded_rogue.h",
    "trace-contract": "kSeededGhost",
    "no-std-function": "_seeded_function.h",
}


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
    repo = args.repo.resolve()
    base = ["--repo", str(repo), "--compdb", str(args.compdb)]
    failures: list = []

    def check(name: str, proc: subprocess.CompletedProcess,
              want_exit: int, fragment: str) -> None:
        text = proc.stdout + proc.stderr
        if proc.returncode != want_exit or fragment not in text:
            failures.append(
                f"{name}: exit {proc.returncode} (wanted {want_exit}), "
                f"output must mention {fragment!r}\n"
                f"--- output ---\n{text}")

    check("clean-tree", run_cli(*base), 0, "csfc_analyze: OK")
    check("seed-layering", run_cli(*base, "--seed-violation=layering"), 1,
          SEED_FRAGMENTS["layering"])
    check("usage-error", run_cli(*base, "--seed-violation=no-such-rule"), 2,
          "invalid choice")

    if sorted(SEED_FRAGMENTS) != sorted(csfc_analyze.SEEDS):
        failures.append(f"SEED_FRAGMENTS covers {sorted(SEED_FRAGMENTS)}, "
                        f"SEEDS has {sorted(csfc_analyze.SEEDS)}")
    here = ANALYZER.parent
    manifest, cman, dman = (parse((here / name).read_text(encoding="utf-8"))
                            for name, parse in csfc_analyze.MANIFESTS)
    compdb = csfc_analyze.parse_compdb(args.compdb, repo)
    tree = csfc_analyze.load_tree(repo)
    for rule, fragment in sorted(SEED_FRAGMENTS.items()):
        seeded = dict(tree)
        m, c = csfc_analyze.apply_seed(rule, seeded, manifest, cman)
        findings = csfc_analyze.run_checks(seeded, m, c, dman, compdb)
        text = "\n".join(f.render() for f in findings)
        if fragment not in text:
            failures.append(f"seed-{rule}: findings must mention "
                            f"{fragment!r}\n--- findings ---\n{text}")

    if failures:
        print("analyze_cli_test FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print(f"analyze_cli_test OK (3 CLI runs, {len(SEED_FRAGMENTS)} seeds "
          f"in process)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
