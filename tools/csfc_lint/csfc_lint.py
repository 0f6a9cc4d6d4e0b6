#!/usr/bin/env python3
"""csfc_lint: static checks for repo contracts clang-tidy cannot know.

Rules (all scoped to src/, tools/, DESIGN.md — tests may break them):

  registry          Every Scheduler subclass in src/ must be constructible
                    through sched/registry.cc (make_unique<X> or X::Create),
                    so CLI tools and sweeps can reach every policy.
  trace-contract    Every TraceEventKind must have (a) an emission site in
                    src/ outside src/obs, (b) a schema entry in
                    tools/trace_inspect.cc, and (c) its wire name mentioned
                    in DESIGN.md section 10.
  no-std-function   src/core and src/sched hot paths must not use
                    std::function (FunctionRef or templates instead; the
                    one sanctioned use is the SchedulerFactory alias in
                    sched/scheduler.h — a cold-path factory seam).

Two former rules retired into csfc_analyze's manifest-driven families:
the textual `determinism` rule (rand/time/wall-clock token ban) into
determinism-taint / fp-contract / rng-seed-flow (driven by
tools/csfc_analyze/determinism.toml), and `include-hygiene` (the
scheduler core may see only the tracer seam of obs/) into its layering
family (driven by tools/csfc_analyze/layers.toml).

Run `csfc_lint.py --repo <root>` (CI, and `cmake --build build --target
lint`); `--self-test` checks each rule catches a seeded violation.
Stdlib only. Exit code 0 = clean, 1 = findings, 2 = usage/internal error.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path
from typing import Dict, List, NamedTuple

CXX_SUFFIXES = (".h", ".cc")


class Finding(NamedTuple):
    rule: str
    path: str
    line: int  # 1-based; 0 = whole-file / cross-file finding
    message: str

    def render(self) -> str:
        loc = f"{self.path}:{self.line}" if self.line else self.path
        return f"{loc}: [{self.rule}] {self.message}"


# A "tree" is a {relative_posix_path: content} mapping. The real run loads
# it from disk; the self-test injects synthetic trees with seeded
# violations so every rule's detection logic stays covered.
Tree = Dict[str, str]


def load_tree(repo: Path) -> Tree:
    tree: Tree = {}
    for sub in ("src", "tools"):
        base = repo / sub
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix in CXX_SUFFIXES and path.is_file():
                rel = path.relative_to(repo).as_posix()
                tree[rel] = path.read_text(encoding="utf-8")
    design = repo / "DESIGN.md"
    if design.is_file():
        tree["DESIGN.md"] = design.read_text(encoding="utf-8")
    return tree


RAW_STRING_RE = re.compile(r'(?:u8|[uUL])?R"([^()\\ \t\n]{0,16})\(')


def strip_comments(text: str) -> str:
    """Blanks // and /* */ comments, preserving line numbers.

    String-literal aware: comment markers inside "...", '...' and raw
    string literals R"tag(...)tag" do not start comments (an over-strip
    there would hide real code from the contract greps). A backslash-
    newline at the end of a // comment continues it onto the next line,
    matching the preprocessor's line splicing. Literal contents are kept
    verbatim — only comments are blanked.
    """
    out: List[str] = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if text.startswith("//", i):
            # Line comment; an odd run of trailing backslashes before the
            # newline splices the next line into the comment.
            j = i
            while j < n:
                nl = text.find("\n", j)
                if nl < 0:
                    j = n
                    break
                k = nl - 1
                backslashes = 0
                while k >= i and text[k] == "\\":
                    backslashes += 1
                    k -= 1
                if backslashes % 2 == 1:
                    j = nl + 1
                    continue
                j = nl
                break
            out.append(re.sub(r"[^\n]", " ", text[i:j]))
            i = j
        elif text.startswith("/*", i):
            end = text.find("*/", i + 2)
            stop = n if end < 0 else end + 2
            out.append(re.sub(r"[^\n]", " ", text[i:stop]))
            i = stop
        elif c == '"' or (c in "uULR" and RAW_STRING_RE.match(text, i)):
            m = RAW_STRING_RE.match(text, i)
            if m:
                # Raw string: closes only at )tag" — quotes, // and */
                # inside are all literal.
                end = text.find(")" + m.group(1) + '"', m.end())
                stop = n if end < 0 else end + len(m.group(1)) + 2
                out.append(text[i:stop])
                i = stop
            else:
                j = i + 1
                while j < n and text[j] not in '"\n':
                    j += 2 if text[j] == "\\" else 1
                j = min(j + 1, n)
                out.append(text[i:j])
                i = j
        elif c == "'":
            # Char literal (or a digit separator pair, which is harmless
            # to copy verbatim the same way).
            j = i + 1
            while j < n and text[j] not in "'\n":
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            out.append(text[i:j])
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


def line_of(text: str, offset: int) -> int:
    return text.count("\n", 0, offset) + 1


# --- registry ---------------------------------------------------------------

SCHEDULER_CLASS_RE = re.compile(
    r"class\s+(\w+)\s+(?:final\s+)?:\s*public\s+Scheduler\b")


def check_registry(tree: Tree) -> List[Finding]:
    registry = tree.get("src/sched/registry.cc", "")
    registry_code = strip_comments(registry)
    findings: List[Finding] = []
    for path, text in tree.items():
        if not path.startswith("src/"):
            continue
        code = strip_comments(text)
        for m in SCHEDULER_CLASS_RE.finditer(code):
            name = m.group(1)
            if (f"make_unique<{name}>" in registry_code
                    or f"{name}::Create" in registry_code):
                continue
            findings.append(Finding(
                "registry", path, line_of(code, m.start()),
                f"scheduler {name} is not constructible via "
                f"sched/registry.cc — register it in MakeSchedulerFactory "
                f"(and AllSchedulerNames) so tools and sweeps can reach it"))
    return findings


# --- trace-contract ---------------------------------------------------------

ENUM_RE = re.compile(
    r"enum\s+class\s+TraceEventKind[^{]*\{(.*?)\}", re.DOTALL)
ENUMERATOR_RE = re.compile(r"\b(k[A-Z]\w*)\b")
# Matches both the {kind, "name"} table form and a case/return switch.
WIRE_NAME_RE = re.compile(
    r"TraceEventKind::(k\w+)[,:]\s*(?:return\s+)?\"(\w+)\"")


def design_section(tree: Tree, number: int) -> str:
    design = tree.get("DESIGN.md", "")
    m = re.search(rf"^## {number}\..*?(?=^## \d|\Z)", design,
                  re.DOTALL | re.MULTILINE)
    return m.group(0) if m else ""


def check_trace_contract(tree: Tree) -> List[Finding]:
    header = tree.get("src/obs/trace_event.h", "")
    enum_m = ENUM_RE.search(strip_comments(header))
    if enum_m is None:
        return [Finding("trace-contract", "src/obs/trace_event.h", 0,
                        "enum class TraceEventKind not found")]
    kinds = ENUMERATOR_RE.findall(enum_m.group(1))

    wire_names = dict(WIRE_NAME_RE.findall(
        strip_comments(tree.get("src/obs/trace_event.cc", ""))))

    emitters = "\n".join(
        strip_comments(text) for path, text in sorted(tree.items())
        if path.startswith("src/") and not path.startswith("src/obs/"))
    inspector = strip_comments(tree.get("tools/trace_inspect.cc", ""))
    section10 = design_section(tree, 10)

    findings: List[Finding] = []
    for kind in kinds:
        if f"TraceEventKind::{kind}" not in emitters:
            findings.append(Finding(
                "trace-contract", "src/obs/trace_event.h", 0,
                f"TraceEventKind::{kind} has no emission site in src/ — "
                f"dead event kinds rot the schema; emit it or remove it"))
        if not re.search(rf"\b{kind}\b", inspector):
            findings.append(Finding(
                "trace-contract", "tools/trace_inspect.cc", 0,
                f"TraceEventKind::{kind} has no schema entry in "
                f"trace_inspect — the validator would pass unknown "
                f"payloads for it"))
        name = wire_names.get(kind)
        if name is None:
            findings.append(Finding(
                "trace-contract", "src/obs/trace_event.cc", 0,
                f"TraceEventKind::{kind} has no wire name in "
                f"TraceEventKindName"))
        elif name not in section10:
            findings.append(Finding(
                "trace-contract", "DESIGN.md", 0,
                f"trace event \"{name}\" is not documented in DESIGN.md "
                f"section 10"))
    return findings


# --- no-std-function --------------------------------------------------------

# The one sanctioned std::function in the scheduler layer: the factory
# alias. Factories run once per sweep point, never per request.
STD_FUNCTION_ALLOWED = {
    ("src/sched/scheduler.h", "SchedulerFactory"),
}


def check_no_std_function(tree: Tree) -> List[Finding]:
    findings: List[Finding] = []
    for path, text in sorted(tree.items()):
        if not (path.startswith("src/core/") or path.startswith("src/sched/")):
            continue
        code = strip_comments(text)
        for m in re.finditer(r"std::function\b", code):
            ln = line_of(code, m.start())
            line_text = code.splitlines()[ln - 1]
            if any(path == p and marker in line_text
                   for p, marker in STD_FUNCTION_ALLOWED):
                continue
            findings.append(Finding(
                "no-std-function", path, ln,
                "std::function in a scheduler hot path — use FunctionRef "
                "(common/function_ref.h) or a template parameter"))
    return findings


ALL_CHECKS = [
    check_registry,
    check_trace_contract,
    check_no_std_function,
]


def run_checks(tree: Tree) -> List[Finding]:
    findings: List[Finding] = []
    for check in ALL_CHECKS:
        findings.extend(check(tree))
    return findings


# --- self-test --------------------------------------------------------------

def _clean_tree() -> Tree:
    """A minimal tree satisfying every rule."""
    return {
        "src/sched/scheduler.h":
            "class Scheduler {};\n"
            "using SchedulerFactory = std::function<SchedulerPtr()>;\n",
        "src/sched/fancy.h":
            "class FancyScheduler final : public Scheduler {};\n",
        "src/sched/registry.cc":
            "factory = std::make_unique<FancyScheduler>();\n",
        "src/obs/trace_event.h":
            "enum class TraceEventKind : uint8_t { kArrival, kDispatch };\n",
        "src/obs/trace_event.cc":
            "case TraceEventKind::kArrival: return \"arrival\";\n"
            "case TraceEventKind::kDispatch: return \"dispatch\";\n",
        "src/sim/simulator.cc":
            "e.kind = obs::TraceEventKind::kArrival;\n"
            "e.kind = obs::TraceEventKind::kDispatch;\n",
        "tools/trace_inspect.cc":
            "case K::kArrival: break;\ncase K::kDispatch: break;\n",
        "src/core/dispatcher.h":
            "#include \"obs/tracer.h\"\n// std::function would be flagged\n",
        "DESIGN.md":
            "## 10. Observability\narrival dispatch\n## 11. Next\n",
    }


def self_test() -> int:
    failures: List[str] = []

    def expect(name: str, findings: List[Finding], rule: str, fragment: str):
        hits = [f for f in findings if f.rule == rule and fragment in f.message]
        if not hits:
            failures.append(
                f"{name}: expected a [{rule}] finding mentioning "
                f"{fragment!r}, got {[f.render() for f in findings]}")

    clean = _clean_tree()
    residue = run_checks(clean)
    if residue:
        failures.append("clean tree not clean: "
                        + "; ".join(f.render() for f in residue))

    # 1. Unregistered scheduler subclass.
    t = _clean_tree()
    t["src/sched/rogue.h"] = "class RogueScheduler final : public Scheduler {};\n"
    expect("unregistered-scheduler", run_checks(t), "registry",
           "RogueScheduler")

    # 2. std::function on a core hot path (comments must NOT trip it).
    t = _clean_tree()
    t["src/core/dispatcher.h"] += "std::function<void()> hook_;\n"
    expect("std-function-in-core", run_checks(t), "no-std-function",
           "std::function")

    # 3. TraceEventKind missing from the trace_inspect schema.
    t = _clean_tree()
    t["src/obs/trace_event.h"] = (
        "enum class TraceEventKind : uint8_t { kArrival, kDispatch, "
        "kRetry };\n")
    t["src/obs/trace_event.cc"] += (
        "case TraceEventKind::kRetry: return \"retry\";\n")
    t["src/sim/simulator.cc"] += "e.kind = obs::TraceEventKind::kRetry;\n"
    t["DESIGN.md"] = "## 10. Observability\narrival dispatch retry\n## 11. N\n"
    expect("missing-schema-entry", run_checks(t), "trace-contract",
           "no schema entry")

    # 3b. Kind that is never emitted, and one missing from DESIGN §10.
    t = _clean_tree()
    t["src/obs/trace_event.h"] = (
        "enum class TraceEventKind : uint8_t { kArrival, kDispatch, "
        "kGhost };\n")
    t["src/obs/trace_event.cc"] += (
        "case TraceEventKind::kGhost: return \"ghost\";\n")
    t["tools/trace_inspect.cc"] += "case K::kGhost: break;\n"
    found = run_checks(t)
    expect("unemitted-kind", found, "trace-contract", "no emission site")
    expect("undocumented-kind", found, "trace-contract", "not documented")

    # 4. (retired) The textual determinism rule moved to csfc_analyze's
    # manifest-driven families — determinism-taint / fp-contract /
    # rng-seed-flow, driven by tools/csfc_analyze/determinism.toml — which
    # see annotations and the call graph instead of banning tokens. Assert
    # the retirement so a stray reintroduction of the old rule fails loudly.
    t = _clean_tree()
    t["src/sim/simulator.cc"] += "int jitter = rand() % 7;\n"
    leftovers = [f for f in run_checks(t) if f.rule == "determinism"]
    if leftovers:
        failures.append(
            "determinism rule should be retired (csfc_analyze owns it): "
            + "; ".join(f.render() for f in leftovers))

    # Comment-stripping control: violations in comments are not findings.
    t = _clean_tree()
    t["src/core/dispatcher.h"] += (
        "// std::function and rand()\n"
        "/* std::random_device too */\n")
    residue = [f for f in run_checks(t)
               if f.path == "src/core/dispatcher.h"]
    if residue:
        failures.append("commented-out violations were flagged: "
                        + "; ".join(f.render() for f in residue))

    # 6. Stripper hardening: a // inside a string literal must not blank
    # the rest of the line (over-stripping hides real violations).
    t = _clean_tree()
    t["src/core/dispatcher.h"] += (
        "const char* url = \"http://x\"; std::function<void()> f;\n")
    expect("slash-slash-in-string", run_checks(t), "no-std-function",
           "std::function")

    # 6b. Raw strings: unbalanced quotes and comment markers inside
    # R"(...)" must not derail parsing of the code that follows.
    t = _clean_tree()
    t["src/core/dispatcher.h"] += (
        "const char* raw = R\"(quote \" and // and /* inside)\";\n"
        "std::function<void()> g;\n")
    expect("raw-string", run_checks(t), "no-std-function", "std::function")

    # 6c. A backslash-continued // comment splices the next line into the
    # comment — code there is not live and must not be flagged.
    t = _clean_tree()
    t["src/core/dispatcher.h"] += (
        "// disabled hook: \\\n"
        "std::function<void()> h;\n")
    residue = [f for f in run_checks(t) if f.rule == "no-std-function"]
    if residue:
        failures.append("line-spliced comment was flagged as live code: "
                        + "; ".join(f.render() for f in residue))

    if failures:
        print("csfc_lint self-test FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print(f"csfc_lint self-test OK ({len(ALL_CHECKS)} rules, "
          f"seeded violations all caught)")
    return 0


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repo", type=Path, default=Path(__file__).parents[2],
                        help="repository root (default: two levels up)")
    parser.add_argument("--self-test", action="store_true",
                        help="verify every rule catches a seeded violation")
    args = parser.parse_args(argv)

    if args.self_test:
        return self_test()

    repo = args.repo.resolve()
    if not (repo / "src").is_dir():
        print(f"csfc_lint: {repo} does not look like the repo root",
              file=sys.stderr)
        return 2
    tree = load_tree(repo)
    findings = run_checks(tree)
    for f in findings:
        print(f.render(), file=sys.stderr)
    if findings:
        print(f"csfc_lint: {len(findings)} finding(s) in {len(tree)} files",
              file=sys.stderr)
        return 1
    print(f"csfc_lint: OK ({len(tree)} files, {len(ALL_CHECKS)} rules)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
