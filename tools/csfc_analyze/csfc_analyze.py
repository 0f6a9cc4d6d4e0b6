#!/usr/bin/env python3
"""csfc_analyze: AST-backed contract analyzer for the csfc codebase.

Thirteen rule families. Ten read the three checked-in manifests
(tools/csfc_analyze/layers.toml, tools/csfc_analyze/concurrency.toml and
tools/csfc_analyze/determinism.toml); the last three check repo contracts
no manifest needs to spell out:

  layering       src/ include edges must follow the layer DAG declared in
                 layers.toml, plus the tracer seam and per-file exceptions
                 declared there.
  hot-alloc      Functions annotated CSFC_HOT (common/annotations.h) and
                 functions that hold a lock (REQUIRES(...)) must not
                 allocate: no operator new / malloc family /
                 make_unique|make_shared / std::function / node-based
                 containers / std::string construction / container growth
                 calls. A sanctioned amortized allocation is marked on its
                 own line with `// csfc:alloc-ok(<reason>)`. Code compiled
                 out of release builds (#ifndef NDEBUG) is exempt.
  hot-coverage   The manifest's [hot] entry_points list pins which
                 functions MUST carry the CSFC_HOT annotation. hot-alloc
                 only audits what is annotated; this closes the loop so a
                 backend rewrite cannot silently drop the per-request path
                 out of the audit.
  exc-safety     Types on the zero-copy queue path (Request) must declare
                 explicit noexcept move operations, and
                 Status / Result must be [[nodiscard]] at class level —
                 a throwing move silently degrades every vector growth
                 and slot-pool recycle back to copies.
  atomics-discipline
                 Every atomic operation in src/ must spell an explicit
                 std::memory_order, and every atomic variable must have an
                 [[atomic]] row in concurrency.toml declaring its role and
                 the allowed orders per operation kind (load/store/rmw/cas).
                 Unmanifested atomics, stale rows, implicit seq_cst, and
                 orders outside the declared set are all errors.
  lock-hierarchy Every Mutex instance must have a [[lock]] row, and nested
                 MutexLock acquisitions (plus REQUIRES(...) regions) must
                 follow the total acquisition order declared in
                 [locks].order — out-of-order or recursive acquisition is
                 an error.
  hot-blocking   CSFC_HOT functions may not block: no mutex acquisition,
                 condvar wait, sleep, or I/O. Unbounded spin loops over
                 atomics must justify progress with a
                 `// csfc:spin-ok(<reason>)` marker on the loop header.
  determinism-taint
                 Functions annotated CSFC_DETERMINISTIC must be pure
                 functions of their inputs and recorded seeds: the
                 manifest's [deterministic] entry_points list pins the
                 annotations (like hot-coverage pins CSFC_HOT), annotated
                 bodies may not read wall clocks, branch on thread ids, or
                 cast pointers to integers, and std::unordered_ use there
                 needs a `// csfc:unordered-ok(<reason>)` marker. Tree-wide,
                 wall clocks live only behind the clock seam
                 (common/clock.h) and every getenv needs an [[envread]]
                 row.
  fp-contract    Every TU under [fp].contract_scope must compile with
                 -ffp-contract=off and without fast-math flags (verified
                 from compile_commands.json — contracted FMA and licensed
                 reassociation both change result bits between builds).
                 `long double` is banned, and a libm transcendental needs
                 a `// csfc:libm-ok(<reason>)` marker on its line.
  rng-seed-flow  Every RNG constructed in src/ outside the rng seam
                 (common/random) needs an [[rng]] row declaring its role
                 and seed provenance, and the seed expression must still
                 appear in the declaring file or its sibling. Raw std
                 engines, std::random_device, rand()/srand(), and
                 default-constructed Rng are all errors.
  registry       Every Scheduler subclass in src/ must be constructible
                 through sched/registry.cc (make_unique<X> or X::Create),
                 so CLI tools and sweeps can reach every policy.
  trace-contract Every TraceEventKind must have (a) an emission site in
                 src/ outside src/obs, (b) a schema entry in
                 tools/trace_inspect.cc, and (c) its wire name mentioned
                 in DESIGN.md section 10.
  no-std-function
                 src/core and src/sched must not use std::function
                 (FunctionRef or templates instead; the one sanctioned
                 use is the SchedulerFactory alias in sched/scheduler.h,
                 a cold-path factory seam).

Engines:

  libclang   (preferred) python3-clang + libclang over the build tree's
             compile_commands.json. The hot-alloc rule walks the real call
             graph: every project-defined function *reachable* from a
             CSFC_HOT or REQUIRES root is scanned; traversal stops at
             virtual and external calls. noexcept and [[nodiscard]] are
             verified on the AST (exception specifications and the
             WarnUnusedResult attribute), not by pattern match.
  regex      fallback when libclang is unavailable (the dev container is
             gcc-only). Implements all rules textually; the hot-alloc
             scan degrades to the direct bodies of annotated functions —
             no transitive call graph. The degradation is announced on
             stderr so a clean exit is never mistaken for full AST
             coverage.

The three concurrency families are textual in BOTH engines: memory_order
arguments, MutexLock statements, and spin markers are lexical facts, and
sharing one implementation makes engine agreement structural (the same
stance layering already takes). The three determinism families take the
same stance — annotations, markers, manifest rows, and compile commands
are all lexical facts — and the libclang engine additionally walks the
call graph so functions *reachable* from a CSFC_DETERMINISTIC root are
taint-scanned too (traversal stops at virtual and external calls, and at
the clock/rng seam files).
The three repo-contract families are textual in both engines as well.

`--self-test` seeds one violation per rule against synthetic trees and
verifies each is caught. `--seed-violation=RULE` injects a violation into
the real tree (in memory — forces the regex engine) so the CLI test can
assert exit codes end to end. Exit 0 = clean, 1 = findings, 2 =
usage/engine error.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Set, Tuple

try:
    import tomllib
except ImportError:  # pragma: no cover - python < 3.11
    tomllib = None

CXX_SUFFIXES = (".h", ".cc")
ALLOC_OK_MARKER = "csfc:alloc-ok("
SPIN_OK_MARKER = "csfc:spin-ok("
UNORDERED_OK_MARKER = "csfc:unordered-ok("
LIBM_OK_MARKER = "csfc:libm-ok("
HOT_TOKEN = "CSFC_HOT"
DET_TOKEN = "CSFC_DETERMINISTIC"


class Finding(NamedTuple):
    rule: str
    path: str
    line: int  # 1-based; 0 = whole-file finding
    message: str

    def render(self) -> str:
        loc = f"{self.path}:{self.line}" if self.line else self.path
        return f"{loc}: [{self.rule}] {self.message}"


Tree = Dict[str, str]

# The files outside src/ that the trace-contract rule reads: the JSONL
# schema validator and the design document's event table (section 10).
CONTRACT_FILES = ("tools/trace_inspect.cc", "DESIGN.md")


def load_tree(repo: Path) -> Tree:
    tree: Tree = {}
    base = repo / "src"
    for path in sorted(base.rglob("*")):
        if path.suffix in CXX_SUFFIXES and path.is_file():
            tree[path.relative_to(repo).as_posix()] = path.read_text(
                encoding="utf-8")
    for rel in CONTRACT_FILES:
        path = repo / rel
        if path.is_file():
            tree[rel] = path.read_text(encoding="utf-8")
    return tree


# --- manifest (layers.toml) -------------------------------------------------


class Manifest(NamedTuple):
    layers: Dict[str, List[str]]
    seam_headers: List[str]
    seam_layers: List[str]
    exceptions: Dict[str, List[str]]  # src-relative file -> allowed includes
    hot_entry_points: List[str]  # "Class::Name" that must be CSFC_HOT


def parse_manifest(text: str) -> Manifest:
    if tomllib is None:
        raise RuntimeError("python >= 3.11 (tomllib) required")
    data = tomllib.loads(text)
    seam = data.get("seam", {})
    exceptions: Dict[str, List[str]] = {}
    for exc in data.get("exception", []):
        exceptions.setdefault(exc["file"], []).extend(exc["allow"])
    return Manifest(
        layers={k: list(v) for k, v in data.get("layers", {}).items()},
        seam_headers=list(seam.get("headers", [])),
        seam_layers=list(seam.get("layers", [])),
        exceptions=exceptions,
        hot_entry_points=list(data.get("hot", {}).get("entry_points", [])))


# --- contract tables --------------------------------------------------------


class Contracts(NamedTuple):
    # (header path, type name): must declare explicit noexcept move ops.
    nothrow_move: List[Tuple[str, str]]
    # (header path, type name): must be `class [[nodiscard]]`.
    nodiscard: List[Tuple[str, str]]


DEFAULT_CONTRACTS = Contracts(
    nothrow_move=[
        # Slot-pool entries live inside Request. Its priority vector is a
        # fixed inline array, so request.h static_asserts that Request is
        # trivially copyable instead of listing SmallVector here; CValue
        # is a trivial double alias and needs no declaration.
        ("src/workload/request.h", "Request"),
    ],
    nodiscard=[
        ("src/common/status.h", "Status"),
        ("src/common/status.h", "Result"),
    ])


# --- text utilities ---------------------------------------------------------


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


def blank_strings(code: str) -> str:
    """Blanks the contents of string/char literals, preserving offsets.

    Run on comment-stripped text. Keeps the quotes so tokens stay
    delimited; handles escapes. Raw strings survive strip_comments with
    their delimiters intact and are blanked here by the same scan (the
    d-char-seq is rare enough in this codebase that plain-quote pairing is
    sufficient for structure matching).
    """
    out: List[str] = []
    i, n = 0, len(code)
    while i < n:
        c = code[i]
        if c in "\"'":
            quote = c
            out.append(c)
            i += 1
            while i < n and code[i] != quote:
                if code[i] == "\\" and i + 1 < n:
                    out.append("  " if code[i + 1] != "\n" else " \n")
                    i += 2
                    continue
                out.append("\n" if code[i] == "\n" else " ")
                i += 1
            if i < n:
                out.append(quote)
                i += 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def scrub(text: str) -> str:
    """Comments stripped, string contents blanked. Offsets preserved."""
    return blank_strings(strip_comments(text))


def line_of(text: str, offset: int) -> int:
    return text.count("\n", 0, offset) + 1


def match_delim(code: str, open_idx: int, open_c: str, close_c: str) -> int:
    """Index just past the delimiter matching code[open_idx], or len."""
    depth = 0
    for i in range(open_idx, len(code)):
        if code[i] == open_c:
            depth += 1
        elif code[i] == close_c:
            depth -= 1
            if depth == 0:
                return i + 1
    return len(code)


def ndebug_exempt_lines(code: str) -> Set[int]:
    """0-based indices of lines inside `#ifndef NDEBUG` regions.

    Release builds (RelWithDebInfo defines NDEBUG) compile these out, so
    debug-only shadow/audit blocks are exempt from the hot-alloc rule.
    """
    exempt: Set[int] = set()
    stack: List[str] = []
    for idx, raw in enumerate(code.splitlines()):
        line = raw.lstrip()
        m = re.match(r"#\s*(ifndef|ifdef|if|elif|else|endif)\b\s*(\w+)?", line)
        if m:
            kind, macro = m.group(1), m.group(2)
            if kind == "ifndef":
                stack.append("ndebug" if macro == "NDEBUG" else "other")
            elif kind in ("ifdef", "if"):
                stack.append("other")
            elif kind in ("else", "elif"):
                if stack:
                    stack[-1] = "other" if stack[-1] == "ndebug" else stack[-1]
            elif kind == "endif":
                if stack:
                    stack.pop()
        if "ndebug" in stack:
            exempt.add(idx)
    return exempt


def class_scopes(code: str) -> List[Tuple[int, int, str]]:
    """(body_start, body_end, name) for every class/struct body in `code`.

    Expects scrubbed text. Used to qualify out-of-line definition lookups
    for annotated member declarations.
    """
    scopes: List[Tuple[int, int, str]] = []
    for m in re.finditer(
            r"\b(?:class|struct)\s+(?:\[\[[^\]]*\]\]\s*)?(\w+)[^;{}()]*\{",
            code):
        open_idx = m.end() - 1
        scopes.append((open_idx, match_delim(code, open_idx, "{", "}"),
                       m.group(1)))
    return scopes


def enclosing_class(scopes: List[Tuple[int, int, str]],
                    offset: int) -> Optional[str]:
    best = None
    for start, end, name in scopes:
        if start < offset < end:
            if best is None or start > best[0]:
                best = (start, name)
    return best[1] if best else None


def sibling_path(path: str) -> Optional[str]:
    if path.endswith(".h"):
        return path[:-2] + ".cc"
    if path.endswith(".cc"):
        return path[:-3] + ".h"
    return None


# --- rule 1: layering -------------------------------------------------------

INCLUDE_RE = re.compile(r"#\s*include\s+\"([^\"]+)\"")


def check_layering(tree: Tree, manifest: Manifest) -> List[Finding]:
    findings: List[Finding] = []
    for path, text in sorted(tree.items()):
        parts = path.split("/")
        if parts[0] != "src" or len(parts) < 3:
            continue
        layer = parts[1]
        if layer not in manifest.layers:
            findings.append(Finding(
                "layering", path, 0,
                f"layer `{layer}` is not declared in layers.toml — every "
                f"src/ directory must have a row in [layers]"))
            continue
        allowed = set(manifest.layers[layer])
        code = strip_comments(text)
        for m in INCLUDE_RE.finditer(code):
            inc = m.group(1)
            inc_layer = inc.split("/")[0] if "/" in inc else None
            if inc_layer is None or inc_layer not in manifest.layers:
                continue
            if inc_layer == layer or inc_layer in allowed:
                continue
            if (inc in manifest.seam_headers
                    and layer in manifest.seam_layers):
                continue
            if inc in manifest.exceptions.get(path, []):
                continue
            findings.append(Finding(
                "layering", path, line_of(code, m.start()),
                f"#include \"{inc}\": layer `{layer}` may not depend on "
                f"`{inc_layer}` — see tools/csfc_analyze/layers.toml for "
                f"the DAG (add a [[exception]] there only with a comment "
                f"saying why)"))
    return findings


# --- rule 2: hot-path allocation freedom (regex engine) ---------------------

ALLOC_PATTERNS: List[Tuple[re.Pattern, str]] = [
    (re.compile(r"\bnew\b"), "operator new"),
    (re.compile(r"\b(?:malloc|calloc|realloc|strdup)\s*\("),
     "C heap allocation"),
    (re.compile(r"\bmake_(?:unique|shared)(?:_for_overwrite)?\b"),
     "make_unique/make_shared"),
    (re.compile(r"\bstd::function\b"),
     "std::function (type-erasing, may allocate)"),
    (re.compile(r"\bstd::(?:multi)?(?:map|set)\b"
                r"|\bstd::(?:unordered_\w+|list|forward_list|deque)\b"),
     "node-based container"),
    (re.compile(r"(?:\.|->)\s*(?:push_back|emplace_back|emplace|resize|"
                r"reserve|insert|append|assign)\s*\("),
     "container growth call"),
    (re.compile(r"\bstd::string\b(?!\s*[&*])|\bstd::to_string\b"),
     "std::string construction"),
]

HOT_MESSAGE = ("CSFC_HOT code must stay allocation-free; if this allocation "
               "is amortized by design, mark the line with "
               "// csfc:alloc-ok(reason)")


def _scan_body(path: str, text: str, code: str, start: int, end: int,
               label: str, exempt: Set[int], why: str,
               seen: Set[Tuple[str, int, str]],
               findings: List[Finding]) -> None:
    orig_lines = text.splitlines()
    code_lines = code.splitlines()
    first = line_of(code, start) - 1
    last = line_of(code, min(end, len(code) - 1) if code else 0) - 1
    for idx in range(first, min(last + 1, len(code_lines))):
        if idx in exempt:
            continue
        if idx < len(orig_lines) and ALLOC_OK_MARKER in orig_lines[idx]:
            continue
        sline = code_lines[idx]
        for pat, what in ALLOC_PATTERNS:
            if not pat.search(sline):
                continue
            if what == "node-based container" and "iterator" in sline:
                continue  # naming an iterator type allocates nothing
            key = (path, idx + 1, what)
            if key in seen:
                continue
            seen.add(key)
            findings.append(Finding(
                "hot-alloc", path, idx + 1,
                f"{what} in {why} `{label}` — {HOT_MESSAGE}"))


def _body_after_signature(code: str, j: int) -> Optional[int]:
    """Scans past trailing signature tokens (const, noexcept(...),
    override, ->ret) to the defining `{`; None for declarations, calls
    and anything else."""
    n = len(code)
    while j < n:
        c = code[j]
        if c == "{":
            return j
        if c in ";=)}":
            return None
        if c == "(":
            j = match_delim(code, j, "(", ")")
            continue
        j += 1
    return None


def _definition_bodies(code: str, cls: Optional[str],
                       name: str) -> List[Tuple[int, int]]:
    """(body_start, body_end) of out-of-line definitions of cls::name."""
    qual = rf"\b{re.escape(cls)}\s*::\s*{re.escape(name)}\s*\(" if cls \
        else rf"\b{re.escape(name)}\s*\("
    bodies: List[Tuple[int, int]] = []
    for m in re.finditer(qual, code):
        close = match_delim(code, m.end() - 1, "(", ")")
        body = _body_after_signature(code, close)
        if body is not None:
            bodies.append((body, match_delim(code, body, "{", "}")))
    return bodies


def hot_function_bodies(
        scrubbed: Dict[str, str],
        token: str = HOT_TOKEN) -> List[Tuple[str, str, int, int]]:
    """(path, label, body_start, body_end) for every `token`-annotated
    function (CSFC_HOT by default; the determinism family passes
    CSFC_DETERMINISTIC).

    Resolves declaration-only annotations to their out-of-line
    definitions in the same file (inline/template) or the .h/.cc
    sibling, qualified by the enclosing class so same-named methods of
    other classes (e.g. the reference implementations) are not swept
    in. Shared by the hot-alloc, hot-blocking and determinism-taint
    rule families.
    """
    bodies: List[Tuple[str, str, int, int]] = []
    seen: Set[Tuple[str, int]] = set()

    def add(path: str, label: str, start: int, end: int) -> None:
        if (path, start) not in seen:
            seen.add((path, start))
            bodies.append((path, label, start, end))

    for path, code in sorted(scrubbed.items()):
        if path == "src/common/annotations.h":
            continue
        scopes = None
        for m in re.finditer(rf"\b{token}\b", code):
            line_start = code.rfind("\n", 0, m.start()) + 1
            if code[line_start:m.start()].lstrip().startswith("#"):
                continue  # the macro definition itself
            brace = code.find("{", m.end())
            semi = code.find(";", m.end())
            head_end = min(x for x in (brace, semi, len(code)) if x >= 0)
            head = code[m.end():head_end]
            paren = head.find("(")
            if paren < 0:
                continue
            name_m = re.search(r"(\w+)\s*$", head[:paren])
            if not name_m:
                continue
            name = name_m.group(1)
            if brace != -1 and (semi == -1 or brace < semi):
                add(path, name, brace, match_delim(code, brace, "{", "}"))
                continue
            if scopes is None:
                scopes = class_scopes(code)
            cls = enclosing_class(scopes, m.start())
            label = f"{cls}::{name}" if cls else name
            candidates = [path]
            sib = sibling_path(path)
            if sib in scrubbed:
                candidates.append(sib)
            for cand in candidates:
                for start, end in _definition_bodies(scrubbed[cand], cls,
                                                     name):
                    add(cand, label, start, end)
    return bodies


def check_hot_alloc(tree: Tree) -> List[Finding]:
    findings: List[Finding] = []
    seen: Set[Tuple[str, int, str]] = set()
    scrubbed = {p: scrub(t) for p, t in tree.items()
                if p.startswith("src/")}
    exempt = {p: ndebug_exempt_lines(c) for p, c in scrubbed.items()}

    for path, label, start, end in hot_function_bodies(scrubbed):
        _scan_body(path, tree[path], scrubbed[path], start, end, label,
                   exempt[path], "hot function", seen, findings)

    for path, code in sorted(scrubbed.items()):
        if path == "src/common/annotations.h":
            continue
        text = tree[path]
        # Lock-holding functions: REQUIRES(...) marks a region that runs
        # under a capability; allocating there stretches the critical
        # section by a potential syscall.
        for m in re.finditer(r"\bREQUIRES\s*\(", code):
            line_start = code.rfind("\n", 0, m.start()) + 1
            if code[line_start:m.start()].lstrip().startswith("#"):
                continue  # the macro definition
            close = match_delim(code, m.end() - 1, "(", ")")
            body = _body_after_signature(code, close)
            if body is None:
                continue
            seg = code[max(0, m.start() - 400):m.start()]
            names = list(re.finditer(r"(\w+)\s*\(", seg))
            label = names[-1].group(1) if names else "<lock region>"
            _scan_body(path, text, code, body,
                       match_delim(code, body, "{", "}"), label,
                       exempt[path], "lock-holding function", seen, findings)
    return findings


# --- rule 3: hot-coverage (annotation pinning) ------------------------------


def annotated_hot_names(tree: Tree, token: str = HOT_TOKEN) -> Set[str]:
    """Every name `token` (CSFC_HOT by default) is attached to, as both
    `Cls::Name` (when resolvable) and bare `Name`. Works on declarations
    and definitions alike; out-of-line `CSFC_HOT T Cls::Name(...)` forms
    contribute their qualified name directly."""
    covered: Set[str] = set()
    for path, text in tree.items():
        if not path.startswith("src/") or path == "src/common/annotations.h":
            continue
        code = scrub(text)
        scopes = None
        for m in re.finditer(rf"\b{token}\b", code):
            line_start = code.rfind("\n", 0, m.start()) + 1
            if code[line_start:m.start()].lstrip().startswith("#"):
                continue
            brace = code.find("{", m.end())
            semi = code.find(";", m.end())
            head_end = min(x for x in (brace, semi, len(code)) if x >= 0)
            head = code[m.end():head_end]
            paren = head.find("(")
            if paren < 0:
                continue
            qual_m = re.search(r"(\w+)\s*::\s*(\w+)\s*$", head[:paren])
            if qual_m:
                covered.add(f"{qual_m.group(1)}::{qual_m.group(2)}")
                covered.add(qual_m.group(2))
                continue
            name_m = re.search(r"(\w+)\s*$", head[:paren])
            if not name_m:
                continue
            name = name_m.group(1)
            covered.add(name)
            if scopes is None:
                scopes = class_scopes(code)
            cls = enclosing_class(scopes, m.start())
            if cls:
                covered.add(f"{cls}::{name}")
    return covered


def check_hot_coverage(tree: Tree, manifest: Manifest) -> List[Finding]:
    if not manifest.hot_entry_points:
        return []
    covered = annotated_hot_names(tree)
    findings: List[Finding] = []
    for entry in manifest.hot_entry_points:
        if entry not in covered:
            findings.append(Finding(
                "hot-coverage", "tools/csfc_analyze/layers.toml", 0,
                f"hot entry point `{entry}` carries no CSFC_HOT annotation "
                f"(or no longer exists) — annotate it, or remove it from "
                f"[hot] entry_points with a rationale"))
    return findings


# --- rule 4: exception safety (textual form) --------------------------------


def check_exc_safety(tree: Tree, contracts: Contracts) -> List[Finding]:
    findings: List[Finding] = []
    for path, tname in contracts.nothrow_move:
        text = tree.get(path)
        if text is None:
            findings.append(Finding(
                "noexcept-move", path, 0,
                f"contract type {tname}: file not found — update the "
                f"manifest in tools/csfc_analyze if the type moved"))
            continue
        code = strip_comments(text)
        t = re.escape(tname)
        if not re.search(rf"\b{t}\s*\(\s*{t}\s*&&[^)]*\)\s*noexcept", code):
            findings.append(Finding(
                "noexcept-move", path, 0,
                f"{tname} must declare an explicit noexcept move "
                f"constructor — a throwing (or suppressed) move degrades "
                f"vector growth and slot recycling to copies"))
        if not re.search(rf"operator=\s*\(\s*{t}\s*&&[^)]*\)\s*noexcept",
                         code):
            findings.append(Finding(
                "noexcept-move", path, 0,
                f"{tname} must declare an explicit noexcept move "
                f"assignment operator"))
    for path, tname in contracts.nodiscard:
        text = tree.get(path)
        if text is None:
            findings.append(Finding(
                "nodiscard", path, 0,
                f"contract type {tname}: file not found"))
            continue
        code = strip_comments(text)
        if not re.search(
                rf"(?:class|struct)\s*\[\[\s*nodiscard\s*\]\]\s*{re.escape(tname)}\b",
                code):
            findings.append(Finding(
                "nodiscard", path, 0,
                f"{tname} must be declared `class [[nodiscard]]` so "
                f"dropped error returns fail to compile"))
    return findings


# --- rules 5-7: concurrency contracts (concurrency.toml) --------------------


class AtomicRow(NamedTuple):
    file: str
    name: str
    role: str
    orders: Dict[str, Tuple[str, ...]]  # op kind -> allowed memory orders


class LockRow(NamedTuple):
    name: str
    file: str
    member: str


class ConcurrencyManifest(NamedTuple):
    atomics: Dict[str, AtomicRow]  # keyed by variable name
    extra_types: List[str]  # declaration spellings that count as atomics
    locks: List[LockRow]
    lock_order: List[str]  # total acquisition order, outermost first


VALID_ORDERS = {"relaxed", "consume", "acquire", "release", "acq_rel",
                "seq_cst"}
ATOMIC_OP_KINDS = ("load", "store", "rmw", "cas")
ATOMIC_ROLES = {"publication flag", "sequence counter", "relaxed statistic"}


def parse_concurrency(text: str) -> ConcurrencyManifest:
    if tomllib is None:
        raise RuntimeError("python >= 3.11 (tomllib) required")
    data = tomllib.loads(text)
    atomics: Dict[str, AtomicRow] = {}
    for row in data.get("atomic", []):
        name = row["name"]
        if name in atomics:
            raise ValueError(
                f"duplicate [[atomic]] row `{name}` — op sites are resolved "
                f"by variable name, so atomic names must be unique in src/")
        role = row.get("role", "")
        if role not in ATOMIC_ROLES:
            raise ValueError(
                f"[[atomic]] `{name}`: role {role!r} must be one of "
                f"{sorted(ATOMIC_ROLES)}")
        orders: Dict[str, Tuple[str, ...]] = {}
        for kind in ATOMIC_OP_KINDS:
            if kind not in row:
                continue
            vals = tuple(row[kind])
            bad = sorted(set(vals) - VALID_ORDERS)
            if bad:
                raise ValueError(
                    f"[[atomic]] `{name}`.{kind}: unknown memory orders "
                    f"{bad}")
            orders[kind] = vals
        if not orders:
            raise ValueError(
                f"[[atomic]] `{name}` allows no operations — declare at "
                f"least one of {ATOMIC_OP_KINDS}")
        atomics[name] = AtomicRow(row["file"], name, role, orders)
    locks = [LockRow(r["name"], r["file"], r["member"])
             for r in data.get("lock", [])]
    lock_names = [r.name for r in locks]
    if len(set(lock_names)) != len(lock_names):
        raise ValueError("duplicate [[lock]] names")
    order = list(data.get("locks", {}).get("order", []))
    unknown = sorted(set(order) - set(lock_names))
    if unknown:
        raise ValueError(f"[locks].order names unknown locks: {unknown}")
    missing = [n for n in lock_names if n not in order]
    if missing:
        raise ValueError(
            f"locks missing from [locks].order: {missing} — every lock "
            f"needs a place in the acquisition order")
    return ConcurrencyManifest(
        atomics=atomics,
        extra_types=list(data.get("atomics", {}).get("extra_types", [])),
        locks=locks,
        lock_order=order)


# Longest-first so `compare_exchange_weak` never half-matches `exchange`.
_ATOMIC_OPS = {
    "load": "load", "store": "store", "exchange": "rmw",
    "fetch_add": "rmw", "fetch_sub": "rmw", "fetch_and": "rmw",
    "fetch_or": "rmw", "fetch_xor": "rmw",
    "compare_exchange_weak": "cas", "compare_exchange_strong": "cas",
}
ATOMIC_OP_RE = re.compile(
    r"(\w+)\s*(?:\.|->)\s*("
    + "|".join(sorted(_ATOMIC_OPS, key=len, reverse=True)) + r")\s*\(")
MEMORY_ORDER_RE = re.compile(r"\bmemory_order(?:_|::\s*)(\w+)")


def _match_angle(code: str, open_idx: int) -> Optional[int]:
    """Index just past the `>` matching code[open_idx] == '<', or None."""
    depth = 0
    for i in range(open_idx, len(code)):
        if code[i] == "<":
            depth += 1
        elif code[i] == ">":
            depth -= 1
            if depth == 0:
                return i + 1
        elif code[i] in ";{}":
            return None  # ran off the declaration: a comparison, not a type
    return None


def find_atomic_decls(scrubbed: Dict[str, str],
                      extra_types: List[str]) -> List[Tuple[str, str, int]]:
    """(path, name, line) of every atomic variable declaration in src/.

    Matches `std::atomic<...> name` plus any manifest-declared extra
    spelling (template seams like the ring's AtomicSize parameter, which
    tests instantiate with instrumented atomics). References, template
    default arguments, and using-aliases contribute no declaration.
    """
    decls: List[Tuple[str, str, int]] = []
    extra = [re.compile(rf"\b{re.escape(t)}\s+(\w+)\s*[;{{=]")
             for t in extra_types]
    for path, code in sorted(scrubbed.items()):
        for m in re.finditer(r"\bstd::atomic\s*<", code):
            close = _match_angle(code, m.end() - 1)
            if close is None:
                continue
            name_m = re.match(r"\s*(\w+)\s*[;{=,]", code[close:])
            if name_m:
                decls.append((path, name_m.group(1),
                              line_of(code, m.start())))
        for pat in extra:
            for m in pat.finditer(code):
                decls.append((path, m.group(1), line_of(code, m.start())))
    return decls


def check_atomics(tree: Tree, cman: ConcurrencyManifest) -> List[Finding]:
    findings: List[Finding] = []
    scrubbed = {p: scrub(t) for p, t in tree.items()
                if p.startswith("src/")}
    decls = find_atomic_decls(scrubbed, cman.extra_types)
    rows = cman.atomics

    for path, name, line in decls:
        row = rows.get(name)
        if row is None:
            findings.append(Finding(
                "atomics-discipline", path, line,
                f"unmanifested atomic `{name}` — every std::atomic in src/ "
                f"needs an [[atomic]] row in "
                f"tools/csfc_analyze/concurrency.toml declaring its role "
                f"and allowed memory orders"))
        elif row.file != path:
            findings.append(Finding(
                "atomics-discipline", path, line,
                f"atomic `{name}` is declared here but its manifest row "
                f"names {row.file} — fix the [[atomic]] row"))

    declared = {(p, n) for p, n, _ in decls}
    for name in sorted(rows):
        row = rows[name]
        if (row.file, name) not in declared:
            findings.append(Finding(
                "atomics-discipline", row.file, 0,
                f"stale manifest row: atomic `{name}` is no longer "
                f"declared in {row.file} — delete or update the "
                f"[[atomic]] row"))

    names = {n for _, n, _ in decls} | set(rows)
    emitted: Set[Tuple[str, int, str]] = set()

    def emit(f: Finding) -> None:
        key = (f.path, f.line, f.message)
        if key not in emitted:  # two ops on one line report once
            emitted.add(key)
            findings.append(f)

    for path, code in sorted(scrubbed.items()):
        for m in ATOMIC_OP_RE.finditer(code):
            name, op = m.group(1), m.group(2)
            if name not in names:
                continue
            kind = _ATOMIC_OPS[op]
            line = line_of(code, m.start())
            args_end = match_delim(code, m.end() - 1, "(", ")")
            orders = MEMORY_ORDER_RE.findall(code[m.end():args_end])
            if not orders:
                emit(Finding(
                    "atomics-discipline", path, line,
                    f"`{name}.{op}` with implicit seq_cst — every atomic "
                    f"op must spell an explicit std::memory_order so the "
                    f"manifest can check it"))
            row = rows.get(name)
            if row is None:
                continue  # already flagged at the declaration
            allowed = row.orders.get(kind)
            if allowed is None:
                emit(Finding(
                    "atomics-discipline", path, line,
                    f"`{name}.{op}`: the manifest declares no allowed "
                    f"{kind} orders for `{name}` ({row.role}) — extend the "
                    f"[[atomic]] row or remove the operation"))
                continue
            for o in orders:
                if o not in allowed:
                    emit(Finding(
                        "atomics-discipline", path, line,
                        f"`{name}.{op}(memory_order_{o})` is outside the "
                        f"declared set {sorted(allowed)} for `{name}` "
                        f"({row.role})"))
    return findings


MUTEX_DECL_RE = re.compile(r"\b(?:mutable\s+)?Mutex\s+(\w+)\s*;")
MUTEX_ACQUIRE_RE = re.compile(r"\bMutexLock\s+\w+\s*\(\s*([^()]*?)\s*\)")
MUTEX_IMPL_FILE = "src/common/mutex.h"


def _brace_pairs(code: str) -> List[Tuple[int, int]]:
    pairs: List[Tuple[int, int]] = []
    stack: List[int] = []
    for i, c in enumerate(code):
        if c == "{":
            stack.append(i)
        elif c == "}" and stack:
            pairs.append((stack.pop(), i))
    return pairs


def check_lock_hierarchy(tree: Tree,
                         cman: ConcurrencyManifest) -> List[Finding]:
    findings: List[Finding] = []
    scrubbed = {p: scrub(t) for p, t in tree.items()
                if p.startswith("src/") and p != MUTEX_IMPL_FILE}
    rank = {n: i for i, n in enumerate(cman.lock_order)}

    decls: List[Tuple[str, str, int]] = []
    for path, code in sorted(scrubbed.items()):
        for m in MUTEX_DECL_RE.finditer(code):
            decls.append((path, m.group(1), line_of(code, m.start())))
    by_key = {(r.file, r.member): r for r in cman.locks}
    for path, member, line in decls:
        if (path, member) not in by_key:
            findings.append(Finding(
                "lock-hierarchy", path, line,
                f"Mutex `{member}` has no [[lock]] row in "
                f"tools/csfc_analyze/concurrency.toml — name it and place "
                f"it in [locks].order"))
    declared = {(p, m) for p, m, _ in decls}
    for r in cman.locks:
        if (r.file, r.member) not in declared:
            findings.append(Finding(
                "lock-hierarchy", r.file, 0,
                f"stale manifest row: lock `{r.name}` "
                f"({r.file}::{r.member}) is no longer declared — delete "
                f"or update the [[lock]] row"))

    def resolve(path: str, member: str) -> List[LockRow]:
        # A MutexLock in foo.cc acquires a member declared in foo.h (or
        # foo.cc itself): match manifest rows by member name within the
        # .h/.cc sibling pair, so the four classes that all name their
        # lock `mu_` stay distinct.
        stem = path.rsplit(".", 1)[0]
        return [r for r in cman.locks
                if r.member == member and r.file.rsplit(".", 1)[0] == stem]

    def emit(outer: str, inner: str, path: str, line: int) -> None:
        if outer == inner:
            findings.append(Finding(
                "lock-hierarchy", path, line,
                f"recursive acquisition of `{inner}` — Mutex is not "
                f"reentrant"))
        elif rank.get(inner, -1) <= rank.get(outer, -1):
            findings.append(Finding(
                "lock-hierarchy", path, line,
                f"`{inner}` acquired while holding `{outer}` — "
                f"[locks].order in concurrency.toml requires `{inner}` "
                f"before `{outer}`; acquire in order or restructure"))

    for path, code in sorted(scrubbed.items()):
        pairs = _brace_pairs(code)

        def hold_end(off: int) -> int:
            # The scoped lock lives to the end of its innermost block.
            best = -1
            end = len(code)
            for o, c in pairs:
                if o < off < c and o > best:
                    best, end = o, c
            return end

        acqs: List[Tuple[int, int, Optional[str], int]] = []
        for m in MUTEX_ACQUIRE_RE.finditer(code):
            ids = re.findall(r"\w+", m.group(1))
            if not ids:
                continue
            member = ids[-1]
            line = line_of(code, m.start())
            cands = resolve(path, member)
            if not cands:
                findings.append(Finding(
                    "lock-hierarchy", path, line,
                    f"MutexLock on `{member}` resolves to no [[lock]] row "
                    f"(no manifest entry with that member in this file's "
                    f".h/.cc pair) — add one to concurrency.toml"))
                node: Optional[str] = None
            elif len(cands) > 1:
                findings.append(Finding(
                    "lock-hierarchy", path, line,
                    f"MutexLock on `{member}` is ambiguous between "
                    f"{[r.name for r in cands]} — manifest rows must be "
                    f"unique per (file stem, member)"))
                node = None
            else:
                node = cands[0].name
            acqs.append((m.start(), hold_end(m.start()), node, line))

        # REQUIRES(cap) regions hold `cap` for the whole body.
        regions: List[Tuple[int, int, str]] = []
        for m in re.finditer(r"\bREQUIRES\s*\(([^()]*)\)", code):
            line_start = code.rfind("\n", 0, m.start()) + 1
            if code[line_start:m.start()].lstrip().startswith("#"):
                continue  # the macro definition
            body = _body_after_signature(code, m.end())
            if body is None:
                continue
            end = match_delim(code, body, "{", "}")
            for cap in m.group(1).split(","):
                ids = re.findall(r"\w+", cap)
                if not ids:
                    continue
                cands = resolve(path, ids[-1])
                if len(cands) == 1:
                    regions.append((body, end, cands[0].name))

        for off_a, end_a, node_a, _line_a in acqs:
            if node_a is None:
                continue
            for off_b, _end_b, node_b, line_b in acqs:
                if node_b is None or not (off_a < off_b < end_a):
                    continue
                emit(node_a, node_b, path, line_b)
        for start, end, node_r in regions:
            for off_b, _end_b, node_b, line_b in acqs:
                if node_b is None or not (start < off_b < end):
                    continue
                emit(node_r, node_b, path, line_b)
    return findings


BLOCKING_PATTERNS: List[Tuple[re.Pattern, str]] = [
    (re.compile(r"\bMutexLock\b"
                r"|\bstd::(?:lock_guard|unique_lock|scoped_lock)\b"),
     "mutex acquisition"),
    (re.compile(r"(?:\.|->)\s*(?:Lock|lock|try_lock)\s*\("),
     "mutex acquisition"),
    (re.compile(r"(?:\.|->)\s*(?:Wait|WaitFor|wait|wait_for|wait_until)"
                r"\s*\("),
     "blocking wait"),
    (re.compile(r"\bsleep_for\b|\bsleep_until\b|\busleep\s*\("
                r"|\bnanosleep\s*\("),
     "sleep"),
    (re.compile(r"\b(?:printf|fprintf|puts|fputs|fwrite|fread|fopen"
                r"|fclose|fflush|getline)\s*\("
                r"|\bstd::c(?:out|err|log)\b|\bstd::[io]?fstream\b"),
     "I/O"),
]

UNBOUNDED_LOOP_RE = re.compile(
    r"\bfor\s*\(\s*;\s*;\s*\)|\bwhile\s*\(\s*(?:true|1)\s*\)")

HOT_BLOCKING_MESSAGE = ("CSFC_HOT code must be wait-free on the happy "
                        "path: no locks, condvar waits, sleeps, or I/O")


def check_hot_blocking(tree: Tree,
                       cman: ConcurrencyManifest) -> List[Finding]:
    findings: List[Finding] = []
    scrubbed = {p: scrub(t) for p, t in tree.items()
                if p.startswith("src/")}
    exempt = {p: ndebug_exempt_lines(c) for p, c in scrubbed.items()}
    atomic_names = set(cman.atomics) | {
        n for _, n, _ in find_atomic_decls(scrubbed, cman.extra_types)}
    seen: Set[Tuple[str, int, str]] = set()

    for path, label, start, end in hot_function_bodies(scrubbed):
        code = scrubbed[path]
        orig_lines = tree[path].splitlines()
        code_lines = code.splitlines()
        first = line_of(code, start) - 1
        last = line_of(code, min(end, len(code) - 1) if code else 0) - 1
        for idx in range(first, min(last + 1, len(code_lines))):
            if idx in exempt[path]:
                continue
            sline = code_lines[idx]
            for pat, what in BLOCKING_PATTERNS:
                if not pat.search(sline):
                    continue
                key = (path, idx + 1, what)
                if key in seen:
                    continue
                seen.add(key)
                findings.append(Finding(
                    "hot-blocking", path, idx + 1,
                    f"{what} in hot function `{label}` — "
                    f"{HOT_BLOCKING_MESSAGE}"))

        # Unbounded spin loops over atomics need a progress argument.
        for m in UNBOUNDED_LOOP_RE.finditer(code, start, end):
            idx = line_of(code, m.start()) - 1
            if idx in exempt[path]:
                continue
            lb = code.find("{", m.end())
            if lb < 0 or code[m.end():lb].strip():
                continue  # braceless or unparsable loop body
            le = match_delim(code, lb, "{", "}")
            seg = code[lb:le]
            spins = ("memory_order" in seg
                     or any(mm.group(1) in atomic_names
                            for mm in ATOMIC_OP_RE.finditer(seg)))
            if not spins:
                continue
            marked = any(SPIN_OK_MARKER in orig_lines[i]
                         for i in (idx - 1, idx)
                         if 0 <= i < len(orig_lines))
            key = (path, idx + 1, "spin")
            if not marked and key not in seen:
                seen.add(key)
                findings.append(Finding(
                    "hot-blocking", path, idx + 1,
                    f"unbounded spin loop over atomics in hot function "
                    f"`{label}` — prove progress is bounded and mark the "
                    f"loop header with // csfc:spin-ok(reason)"))
    return findings


def run_concurrency_checks(tree: Tree,
                           cman: ConcurrencyManifest) -> List[Finding]:
    """Rules 5-7. Textual in both engines (see module docstring)."""
    return (check_atomics(tree, cman)
            + check_lock_hierarchy(tree, cman)
            + check_hot_blocking(tree, cman))


# --- rules 8-10: determinism contracts (determinism.toml) -------------------


class RngRow(NamedTuple):
    file: str
    name: str
    role: str
    seed: str  # provenance expression; must appear in file or sibling


class DeterminismManifest(NamedTuple):
    entry_points: List[str]  # "Class::Name" that must be CSFC_DETERMINISTIC
    clock_seam: List[str]  # the only files allowed to read wall clocks
    rng_seam: List[str]  # the only files allowed to own raw engines
    envreads: Dict[Tuple[str, str], str]  # (file, var) -> rationale
    fp_scope: str  # tree prefix whose TUs must pin -ffp-contract=off
    rngs: Dict[Tuple[str, str], RngRow]  # (file, name) -> row


def parse_determinism(text: str) -> DeterminismManifest:
    if tomllib is None:
        raise RuntimeError("python >= 3.11 (tomllib) required")
    data = tomllib.loads(text)
    det = data.get("deterministic", {})
    envreads: Dict[Tuple[str, str], str] = {}
    for row in data.get("envread", []):
        key = (row["file"], row["var"])
        if key in envreads:
            raise ValueError(
                f"duplicate [[envread]] row for {key} — one row per "
                f"(file, variable) read site")
        rationale = row.get("rationale", "").strip()
        if not rationale:
            raise ValueError(
                f"[[envread]] {key}: rationale is required — say why the "
                f"read cannot desynchronize replays")
        envreads[key] = rationale
    rngs: Dict[Tuple[str, str], RngRow] = {}
    for row in data.get("rng", []):
        key = (row["file"], row["name"])
        if key in rngs:
            raise ValueError(
                f"duplicate [[rng]] row for {key} — RNG sites are resolved "
                f"by (file, name), so each needs exactly one row")
        role = row.get("role", "").strip()
        seed = row.get("seed", "").strip()
        if not role or not seed:
            raise ValueError(
                f"[[rng]] {key}: role and seed are both required — the "
                f"row must record what the stream is for and where its "
                f"seed comes from")
        rngs[key] = RngRow(row["file"], row["name"], role, seed)
    return DeterminismManifest(
        entry_points=list(det.get("entry_points", [])),
        clock_seam=list(det.get("clock_seam", [])),
        rng_seam=list(det.get("rng_seam", [])),
        envreads=envreads,
        fp_scope=data.get("fp", {}).get("contract_scope", "src/"),
        rngs=rngs)


WALLCLOCK_RE = re.compile(
    r"\b(?:system|steady|high_resolution)_clock\b"
    r"|\btime\s*\(\s*(?:NULL|nullptr|0)?\s*\)"
    r"|\bclock_gettime\s*\(|\bgettimeofday\s*\(")

# Scanned inside CSFC_DETERMINISTIC bodies (and, under libclang,
# everything reachable from one). Entropy sources (random_device, rand)
# are tree-wide rng-seed-flow facts and are not duplicated here.
DET_BODY_PATTERNS: List[Tuple[re.Pattern, str]] = [
    (WALLCLOCK_RE, "wall-clock read"),
    (re.compile(r"\bstd::this_thread::get_id\b|\bpthread_self\s*\("),
     "thread-id dependence"),
    # Integer destination only: the closing `>` must follow the integer
    # type directly, so pointer-to-pointer casts such as the prefetch
    # casts (reinterpret_cast<const int64_t*> etc.) stay out of scope.
    (re.compile(
        r"\breinterpret_cast\s*<\s*(?:const\s+)?(?:std::)?"
        r"(?:u?int(?:8|16|32|64)?(?:_t)?|u?intptr_t|size_t|"
        r"unsigned(?:\s+long(?:\s+long)?)?|long(?:\s+long)?)\s*>"),
     "pointer-to-integer cast"),
]

DET_MESSAGE = ("CSFC_DETERMINISTIC code must be a pure function of its "
               "inputs and recorded seeds (common/annotations.h) — every "
               "bit-identity pin and the golden ledger ride on it")


def _det_scan_body(path: str, orig_lines: List[str], code_lines: List[str],
                   first: int, last: int, label: str,
                   seen: Set[Tuple[str, int, str]],
                   findings: List[Finding]) -> None:
    """Taint-scans lines [first, last] of a deterministic function."""
    for idx in range(max(0, first), min(last + 1, len(code_lines))):
        raw = orig_lines[idx] if idx < len(orig_lines) else ""
        sline = code_lines[idx]
        for pat, what in DET_BODY_PATTERNS:
            if not pat.search(sline):
                continue
            key = (path, idx + 1, what)
            if key in seen:
                continue
            seen.add(key)
            findings.append(Finding(
                "determinism-taint", path, idx + 1,
                f"{what} in deterministic function {label} — "
                f"{DET_MESSAGE}"))
        if "std::unordered_" in sline and UNORDERED_OK_MARKER not in raw:
            key = (path, idx + 1, "unordered")
            if key not in seen:
                seen.add(key)
                findings.append(Finding(
                    "determinism-taint", path, idx + 1,
                    f"std::unordered_ container in deterministic function "
                    f"{label} — iteration order is hash/insertion "
                    f"dependent; prove order cannot reach output and mark "
                    f"the line with // csfc:unordered-ok(reason)"))


GETENV_RE = re.compile(r"\b(?:std::\s*)?getenv\s*\(")


def check_det_taint(tree: Tree, dman: DeterminismManifest) -> List[Finding]:
    findings: List[Finding] = []
    # Annotation coverage: the manifest pins which functions must carry
    # CSFC_DETERMINISTIC, closing the same loop hot-coverage closes for
    # CSFC_HOT.
    if dman.entry_points:
        covered = annotated_hot_names(tree, token=DET_TOKEN)
        for entry in dman.entry_points:
            if entry not in covered:
                findings.append(Finding(
                    "determinism-taint",
                    "tools/csfc_analyze/determinism.toml", 0,
                    f"deterministic entry point `{entry}` carries no "
                    f"CSFC_DETERMINISTIC annotation (or no longer exists) "
                    f"— annotate it, or remove it from [deterministic] "
                    f"entry_points with a rationale"))

    scrubbed = {p: scrub(t) for p, t in tree.items()
                if p.startswith("src/")}
    seen: Set[Tuple[str, int, str]] = set()

    # Annotated bodies: direct taint scan (the libclang engine extends
    # this to everything reachable).
    for path, label, start, end in hot_function_bodies(scrubbed,
                                                       token=DET_TOKEN):
        code = scrubbed[path]
        _det_scan_body(
            path, tree[path].splitlines(), code.splitlines(),
            line_of(code, start) - 1,
            line_of(code, min(end, len(code) - 1) if code else 0) - 1,
            f"`{label}`", seen, findings)

    # Tree-wide: wall clocks live only behind the clock seam, and every
    # environment read needs an [[envread]] row.
    for path, code in sorted(scrubbed.items()):
        orig_lines = tree[path].splitlines()
        if path not in dman.clock_seam:
            for m in WALLCLOCK_RE.finditer(code):
                line = line_of(code, m.start())
                key = (path, line, "tree-clock")
                if key in seen:
                    continue
                seen.add(key)
                findings.append(Finding(
                    "determinism-taint", path, line,
                    f"wall-clock read `{m.group(0).strip()}` outside the "
                    f"clock seam ({', '.join(dman.clock_seam) or 'none'}) "
                    f"— real time enters through common/clock so runs "
                    f"replay bit-identically"))
        for m in GETENV_RE.finditer(code):
            line = line_of(code, m.start())
            idx = line - 1
            raw = orig_lines[idx] if idx < len(orig_lines) else ""
            if any(f == path and var in raw
                   for (f, var) in dman.envreads):
                continue
            findings.append(Finding(
                "determinism-taint", path, line,
                f"environment read without an [[envread]] row — declare "
                f"(file, variable) in tools/csfc_analyze/determinism.toml "
                f"with a rationale, or thread the value through "
                f"configuration"))
    for (f, var) in sorted(dman.envreads):
        text = tree.get(f)
        if text is None or var not in text:
            findings.append(Finding(
                "determinism-taint", f, 0,
                f"stale [[envread]] row: `{var}` is no longer read in "
                f"{f} — delete or update the row"))
    return findings


FAST_MATH_FLAGS = ("-ffast-math", "-funsafe-math-optimizations", "-Ofast",
                   "-ffp-contract=fast")
# Transcendentals and other non-correctly-rounded libm entry points.
# sqrt/fabs/floor/ceil/round are IEEE-exact and excluded. Longest
# alternatives first so `log10` never half-matches `log`.
LIBM_RE = re.compile(
    r"\bstd::(?:log1p|log10|log2|log|expm1|exp2|exp|pow|sinh|cosh|tanh|"
    r"asinh|acosh|atanh|asin|acos|atan2|atan|sin|cos|tan|cbrt|hypot|"
    r"tgamma|lgamma|erfc|erf)\s*\(")


def check_fp_contract(tree: Tree, dman: DeterminismManifest,
                      compdb_entries: Optional[List[Tuple[str, str]]]
                      ) -> List[Finding]:
    findings: List[Finding] = []
    if compdb_entries is not None:
        for rel, cmd in compdb_entries:
            if not rel.startswith(dman.fp_scope):
                continue
            if "-ffp-contract=off" not in cmd:
                findings.append(Finding(
                    "fp-contract", rel, 0,
                    "TU compiled without -ffp-contract=off — contracted "
                    "FMA skips the intermediate rounding, so a*b+c yields "
                    "different bits on FMA and non-FMA codegen; the "
                    "bit-identity pins need one rounding story per "
                    "expression (set it globally in CMakeLists.txt)"))
            for flag in FAST_MATH_FLAGS:
                if flag in cmd:
                    findings.append(Finding(
                        "fp-contract", rel, 0,
                        f"TU compiled with {flag} — fast-math licenses "
                        f"value-changing reassociation and breaks every "
                        f"bit-identity pin"))
    for path, text in sorted(tree.items()):
        if not path.startswith(dman.fp_scope):
            continue
        code = scrub(text)
        for m in re.finditer(r"\blong\s+double\b", code):
            findings.append(Finding(
                "fp-contract", path, line_of(code, m.start()),
                "long double — x87 80-bit intermediates vary by ABI and "
                "codegen; the determinism contract pins all FP to IEEE "
                "binary64"))
        orig_lines = text.splitlines()
        for idx, sline in enumerate(code.splitlines()):
            m = LIBM_RE.search(sline)
            if m is None:
                continue
            raw = orig_lines[idx] if idx < len(orig_lines) else ""
            if LIBM_OK_MARKER in raw:
                continue
            findings.append(Finding(
                "fp-contract", path, idx + 1,
                f"libm transcendental `{m.group(0).rstrip('(').strip()}` "
                f"— correctly rounded nowhere, pinned only per libm "
                f"build; justify reproducibility with "
                f"// csfc:libm-ok(reason) (the golden ledger pins the "
                f"actual values)"))
    return findings


RNG_DECL_RES = [
    # `Rng name;` / `Rng name(seed);` / `Rng name{...}` / `Rng name = ...`
    # — `Rng&` / `Rng*` borrows don't declare a stream and stay exempt.
    re.compile(r"\bRng\s+(\w+)\s*[;({=]"),
    re.compile(r"\bstd::optional<\s*Rng\s*>\s+(\w+)\s*[;({=]"),
    # lambda-capture / assignment construction: `rng = Rng(seed)`.
    re.compile(r"\b(\w+)\s*=\s*Rng\s*[({]"),
]
RNG_DEFAULT_RE = re.compile(r"\bRng\s*\(\s*\)")
STD_ENGINE_RE = re.compile(
    r"\bstd::(?:mt19937(?:_64)?|minstd_rand0?|default_random_engine|"
    r"ranlux(?:24|48)(?:_base)?|knuth_b|mersenne_twister_engine|"
    r"linear_congruential_engine|subtract_with_carry_engine|"
    r"random_device)\b")
C_RAND_RE = re.compile(r"\b(?:std::\s*)?s?rand\s*\(")


def check_rng_seed_flow(tree: Tree,
                        dman: DeterminismManifest) -> List[Finding]:
    findings: List[Finding] = []
    scrubbed = {p: scrub(t) for p, t in tree.items()
                if p.startswith("src/") and p not in dman.rng_seam}
    decls: List[Tuple[str, str, int]] = []
    for path, code in sorted(scrubbed.items()):
        for pat in RNG_DECL_RES:
            for m in pat.finditer(code):
                decls.append((path, m.group(1), line_of(code, m.start())))
        for m in RNG_DEFAULT_RE.finditer(code):
            findings.append(Finding(
                "rng-seed-flow", path, line_of(code, m.start()),
                "default-constructed Rng — the default seed hides the "
                "stream identity from the manifest; pass the recorded "
                "seed explicitly"))
        for m in STD_ENGINE_RE.finditer(code):
            findings.append(Finding(
                "rng-seed-flow", path, line_of(code, m.start()),
                f"`{m.group(0)}` outside the rng seam "
                f"({', '.join(dman.rng_seam) or 'none'}) — all randomness "
                f"flows through common/random's Rng with an explicit "
                f"recorded seed; raw engines and entropy sources cannot "
                f"replay"))
        for m in C_RAND_RE.finditer(code):
            findings.append(Finding(
                "rng-seed-flow", path, line_of(code, m.start()),
                "C rand()/srand() — global hidden state with no "
                "per-stream seed; all randomness flows through "
                "common/random's Rng"))

    matched: Set[Tuple[str, str]] = set()
    for path, name, line in sorted(set(decls)):
        row = dman.rngs.get((path, name))
        if row is None:
            findings.append(Finding(
                "rng-seed-flow", path, line,
                f"unmanifested RNG `{name}` — every Rng constructed in "
                f"src/ needs an [[rng]] row in "
                f"tools/csfc_analyze/determinism.toml declaring its role "
                f"and seed provenance"))
            continue
        matched.add((path, name))
        hay = tree[path]
        sib = sibling_path(path)
        if sib in tree:
            hay += tree[sib]
        if row.seed not in hay:
            findings.append(Finding(
                "rng-seed-flow", path, line,
                f"RNG `{name}`: the manifested seed expression "
                f"`{row.seed}` no longer appears in {path} or its .h/.cc "
                f"sibling — the seed path drifted; update the [[rng]] row "
                f"to the real provenance"))
    for key in sorted(dman.rngs):
        if key not in matched:
            f, name = key
            findings.append(Finding(
                "rng-seed-flow", f, 0,
                f"stale manifest row: RNG `{name}` is no longer declared "
                f"in {f} — delete or update the [[rng]] row"))
    return findings


def run_determinism_checks(tree: Tree, dman: DeterminismManifest,
                           compdb_entries: Optional[List[Tuple[str, str]]]
                           ) -> List[Finding]:
    """Rules 8-10. Textual in both engines (see module docstring); the
    libclang engine adds the transitive reachability walk on top."""
    return (check_det_taint(tree, dman)
            + check_fp_contract(tree, dman, compdb_entries)
            + check_rng_seed_flow(tree, dman))


# --- rules 11-13: repo contracts --------------------------------------------

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


def run_contract_checks(tree: Tree) -> List[Finding]:
    """Rules 11-13. Textual in both engines: registrations, enumerators,
    wire names and documentation are lexical facts."""
    return (check_registry(tree) + check_trace_contract(tree)
            + check_no_std_function(tree))


def run_regex_engine(tree: Tree, manifest: Manifest, contracts: Contracts,
                     cman: ConcurrencyManifest, dman: DeterminismManifest,
                     compdb_entries: Optional[List[Tuple[str, str]]] = None
                     ) -> List[Finding]:
    return (check_layering(tree, manifest)
            + check_hot_alloc(tree)
            + check_hot_coverage(tree, manifest)
            + check_exc_safety(tree, contracts)
            + run_concurrency_checks(tree, cman)
            + run_determinism_checks(tree, dman, compdb_entries)
            + run_contract_checks(tree))


# --- libclang engine --------------------------------------------------------


def load_libclang():
    """Returns the clang.cindex module with a working library, or None."""
    try:
        from clang import cindex  # type: ignore
    except Exception:
        return None
    try:
        cindex.Index.create()
        return cindex
    except Exception:
        pass
    import glob
    candidates = sorted(
        glob.glob("/usr/lib/llvm-*/lib/libclang.so*")
        + glob.glob("/usr/lib/*/libclang-*.so*"), reverse=True)
    for cand in candidates:
        try:
            cindex.Config.set_library_file(cand)
            cindex.Index.create()
            return cindex
        except Exception:
            continue
    return None


C_ALLOC_FNS = {"malloc", "calloc", "realloc", "strdup"}
STD_ALLOC_FNS = {"make_unique", "make_shared", "make_unique_for_overwrite",
                 "make_shared_for_overwrite", "to_string"}
GROWTH_METHODS = {"push_back", "emplace_back", "emplace", "emplace_hint",
                  "resize", "reserve", "insert", "append", "assign",
                  "push_front"}
ALLOC_CTOR_CLASSES = {"basic_string", "function", "map", "multimap", "set",
                      "multiset", "list", "forward_list", "deque",
                      "unordered_map", "unordered_multimap", "unordered_set",
                      "unordered_multiset"}


class LibclangEngine:
    """AST engine: transitive hot-alloc call-graph walk plus AST-level
    exception-spec / attribute verification. Layering stays textual —
    include edges are lexical facts either way."""

    def __init__(self, cindex, repo: Path, compdb: Path):
        self.cx = cindex
        self.repo = repo
        self.compdb_dir = compdb.parent if compdb.is_file() else compdb
        self.index = cindex.Index.create()
        self._files: Dict[str, List[str]] = {}
        # usr -> {qual, file, line, hot, requires, calls: [usr],
        #         allocs: [(file, line, what)]}
        self.funcs: Dict[str, dict] = {}
        # (rel_path, type name) -> {move_ctor, move_assign, nodiscard}
        self.records: Dict[Tuple[str, str], dict] = {}

    # -- source access -------------------------------------------------------

    def _lines(self, fname: str) -> List[str]:
        if fname not in self._files:
            try:
                self._files[fname] = Path(fname).read_text(
                    encoding="utf-8", errors="replace").splitlines()
            except OSError:
                self._files[fname] = []
        return self._files[fname]

    def _source_line(self, fname: str, line: int) -> str:
        lines = self._lines(fname)
        return lines[line - 1] if 0 < line <= len(lines) else ""

    def _rel(self, fname: str) -> str:
        try:
            return Path(fname).resolve().relative_to(self.repo).as_posix()
        except ValueError:
            return fname

    def _in_repo_src(self, cursor) -> bool:
        loc = cursor.location
        if loc.file is None:
            return False
        return self._rel(loc.file.name).startswith("src/")

    # -- collection ----------------------------------------------------------

    def parse_all(self) -> List[str]:
        cx = self.cx
        warnings: List[str] = []
        db = cx.CompilationDatabase.fromDirectory(str(self.compdb_dir))
        seen_files: Set[str] = set()
        for cmd in db.getAllCompileCommands():
            fname = cmd.filename
            if not Path(fname).is_absolute():
                fname = str(Path(cmd.directory) / fname)
            if fname in seen_files:
                continue
            seen_files.add(fname)
            if not self._rel(fname).startswith("src/"):
                continue
            args, skip = [], False
            for a in list(cmd.arguments)[1:]:
                if skip:
                    skip = False
                    continue
                if a == "-o":
                    skip = True
                    continue
                if a in ("-c", fname, cmd.filename):
                    continue
                args.append(a)
            try:
                tu = self.index.parse(fname, args=args)
            except Exception as e:  # noqa: BLE001 - report, keep going
                warnings.append(f"parse failed for {fname}: {e}")
                continue
            errors = [d for d in tu.diagnostics if d.severity >= 3]
            if errors:
                warnings.append(
                    f"{self._rel(fname)}: {len(errors)} parse error(s), "
                    f"first: {errors[0].spelling}")
            self._walk_top(tu.cursor)
        return warnings

    def _walk_top(self, cursor) -> None:
        cx = self.cx
        K = cx.CursorKind
        func_kinds = {K.FUNCTION_DECL, K.CXX_METHOD, K.CONSTRUCTOR,
                      K.DESTRUCTOR, K.FUNCTION_TEMPLATE,
                      K.CONVERSION_FUNCTION}
        record_kinds = {K.CLASS_DECL, K.STRUCT_DECL, K.CLASS_TEMPLATE}
        for c in cursor.get_children():
            if not self._in_repo_src(c):
                continue
            if c.kind in func_kinds and c.is_definition():
                self._register_function(c)
            elif c.kind in record_kinds and c.is_definition():
                self._register_record(c)
                self._walk_top(c)  # inline member definitions
            elif c.kind in (K.NAMESPACE, K.UNEXPOSED_DECL,
                            K.LINKAGE_SPEC):
                self._walk_top(c)

    def _qualname(self, cursor) -> str:
        cx = self.cx
        parts = [cursor.spelling]
        p = cursor.semantic_parent
        while p is not None and p.kind != cx.CursorKind.TRANSLATION_UNIT:
            if p.spelling and p.kind != cx.CursorKind.NAMESPACE:
                parts.append(p.spelling)
            elif p.spelling and p.spelling != "csfc":
                parts.append(p.spelling)
            p = p.semantic_parent
        return "::".join(reversed(parts))

    def _has_annotation(self, cursor, text: str) -> bool:
        cx = self.cx
        for decl in {cursor, cursor.canonical}:
            for ch in decl.get_children():
                if (ch.kind == cx.CursorKind.ANNOTATE_ATTR
                        and ch.spelling == text):
                    return True
        return False

    def _pre_body_text(self, cursor) -> str:
        """Source from the declaration start to its body (the signature
        and attributes), for both the definition and its first decl."""
        cx = self.cx
        out = []
        for decl in {cursor, cursor.canonical}:
            ext = decl.extent
            if ext.start.file is None:
                continue
            lines = self._lines(ext.start.file.name)
            body_line = ext.end.line
            for ch in decl.get_children():
                if ch.kind == cx.CursorKind.COMPOUND_STMT:
                    body_line = ch.extent.start.line
                    break
            out.append("\n".join(lines[ext.start.line - 1:body_line]))
        return "\n".join(out)

    def _in_std(self, cursor) -> bool:
        cx = self.cx
        p = cursor.semantic_parent
        while p is not None and p.kind != cx.CursorKind.TRANSLATION_UNIT:
            if (p.kind == cx.CursorKind.NAMESPACE
                    and p.spelling in ("std", "__cxx11", "__1")):
                return True
            p = p.semantic_parent
        return False

    def _register_function(self, cursor) -> None:
        usr = cursor.get_usr()
        if not usr or usr in self.funcs:
            return
        pre = self._pre_body_text(cursor)
        ext = cursor.extent
        info = {
            "qual": self._qualname(cursor),
            "file": cursor.location.file.name,
            "line": cursor.location.line,
            "end_line": (ext.end.line if ext.end.file is not None
                         else cursor.location.line),
            "hot": self._has_annotation(cursor, "csfc_hot"),
            "det": self._has_annotation(cursor, "csfc_deterministic"),
            "requires": ("REQUIRES(" in pre
                         or "requires_capability" in pre),
            "calls": [],
            "allocs": [],
        }
        self.funcs[usr] = info
        self._collect_body(cursor, info)

    def _collect_body(self, cursor, info: dict) -> None:
        cx = self.cx
        K = cx.CursorKind
        for c in cursor.get_children():
            loc = c.location
            if c.kind == K.CXX_NEW_EXPR and loc.file is not None:
                info["allocs"].append(
                    (loc.file.name, loc.line, "operator new"))
            elif c.kind == K.CALL_EXPR and loc.file is not None:
                ref = c.referenced
                if ref is not None:
                    name = ref.spelling
                    in_std = self._in_std(ref)
                    what = None
                    if name in C_ALLOC_FNS and not in_std:
                        what = f"C heap allocation ({name})"
                    elif in_std and name in STD_ALLOC_FNS:
                        what = f"std::{name}"
                    elif in_std and name in GROWTH_METHODS:
                        what = f"std container growth ({name})"
                    elif (ref.kind == K.CONSTRUCTOR and in_std
                          and ref.semantic_parent is not None
                          and ref.semantic_parent.spelling
                          in ALLOC_CTOR_CLASSES):
                        what = (f"allocating std type construction "
                                f"({ref.semantic_parent.spelling})")
                    if what is not None:
                        info["allocs"].append(
                            (loc.file.name, loc.line, what))
                    elif not in_std:
                        try:
                            virtual = ref.is_virtual_method()
                        except Exception:
                            virtual = False
                        if not virtual:
                            u = ref.get_usr()
                            if u:
                                info["calls"].append(u)
            self._collect_body(c, info)

    def _register_record(self, cursor) -> None:
        cx = self.cx
        K = cx.CursorKind
        key = (self._rel(cursor.location.file.name), cursor.spelling)
        rec = self.records.setdefault(
            key, {"move_ctor": None, "move_assign": None, "nodiscard": False})
        esk = getattr(self.cx, "ExceptionSpecificationKind", None)

        def noexcept_of(c) -> Optional[bool]:
            if esk is None:
                return None
            try:
                k = c.exception_specification_kind
            except Exception:
                return None
            return k in (esk.BASIC_NOEXCEPT, esk.COMPUTED_NOEXCEPT)

        warn_attr = getattr(K, "WARN_UNUSED_RESULT_ATTR", None)
        for ch in cursor.get_children():
            if ch.kind == K.CONSTRUCTOR:
                try:
                    is_move = ch.is_move_constructor()
                except Exception:
                    is_move = False
                if is_move:
                    rec["move_ctor"] = noexcept_of(ch)
            elif ch.kind == K.CXX_METHOD and ch.spelling == "operator=":
                args = list(ch.get_arguments())
                if args and args[0].type.kind == \
                        self.cx.TypeKind.RVALUEREFERENCE:
                    rec["move_assign"] = noexcept_of(ch)
            elif warn_attr is not None and ch.kind == warn_attr:
                rec["nodiscard"] = True

    # -- rule evaluation -----------------------------------------------------

    def hot_alloc_findings(self) -> List[Finding]:
        roots = [u for u, f in self.funcs.items()
                 if f["hot"] or f["requires"]]
        findings: List[Finding] = []
        seen_sites: Set[Tuple[str, int, str]] = set()
        visited: Set[str] = set()
        stack = [(u, self.funcs[u]["qual"]) for u in roots]
        while stack:
            usr, root = stack.pop()
            if usr in visited:
                continue
            visited.add(usr)
            f = self.funcs[usr]
            for fname, line, what in f["allocs"]:
                if ALLOC_OK_MARKER in self._source_line(fname, line):
                    continue
                rel = self._rel(fname)
                key = (rel, line, what)
                if key in seen_sites:
                    continue
                seen_sites.add(key)
                via = (f"hot function `{f['qual']}`" if f["qual"] == root
                       else f"`{f['qual']}` (reachable from CSFC_HOT "
                            f"`{root}`)")
                findings.append(Finding(
                    "hot-alloc", rel, line, f"{what} in {via} — "
                    f"{HOT_MESSAGE}"))
            for callee in f["calls"]:
                if callee in self.funcs and callee not in visited:
                    stack.append((callee, root))
        return findings

    def det_taint_findings(self, dman: DeterminismManifest,
                           tree: Tree) -> List[Finding]:
        """Transitive determinism taint: every project-defined function
        reachable from a CSFC_DETERMINISTIC root is body-scanned with the
        shared textual patterns. Annotated bodies themselves are covered
        by the shared textual pass (run_determinism_checks), so only the
        unannotated reachable interior is scanned here; traversal stops
        at virtual and external calls and the seam files are exempt."""
        roots = [u for u, f in self.funcs.items() if f["det"]]
        seam = set(dman.clock_seam) | set(dman.rng_seam)
        findings: List[Finding] = []
        seen: Set[Tuple[str, int, str]] = set()
        scrub_cache: Dict[str, List[str]] = {}
        visited: Set[str] = set()
        stack = [(u, self.funcs[u]["qual"]) for u in roots]
        while stack:
            usr, root = stack.pop()
            if usr in visited:
                continue
            visited.add(usr)
            f = self.funcs[usr]
            rel = self._rel(f["file"])
            if (rel.startswith("src/") and rel not in seam
                    and not f["det"] and rel in tree):
                if rel not in scrub_cache:
                    scrub_cache[rel] = scrub(tree[rel]).splitlines()
                _det_scan_body(
                    rel, tree[rel].splitlines(), scrub_cache[rel],
                    f["line"] - 1, f["end_line"] - 1,
                    f"`{f['qual']}` (reachable from CSFC_DETERMINISTIC "
                    f"`{root}`)", seen, findings)
            for callee in f["calls"]:
                if callee in self.funcs and callee not in visited:
                    stack.append((callee, root))
        return findings

    def hot_coverage_findings(self, manifest: Manifest,
                              tree: Tree) -> List[Finding]:
        if not manifest.hot_entry_points:
            return []
        covered: Set[str] = set()
        for f in self.funcs.values():
            if f["hot"]:
                covered.add(f["qual"])
                covered.add(f["qual"].split("::")[-1])
        # Union with the lexical scan: a header no TU in the compilation
        # database happens to reach would otherwise read as uncovered.
        # The rule asserts the annotation exists — a lexical fact — so the
        # AST can only add evidence, never veto it.
        covered |= annotated_hot_names(tree)
        findings: List[Finding] = []
        for entry in manifest.hot_entry_points:
            if entry not in covered:
                findings.append(Finding(
                    "hot-coverage", "tools/csfc_analyze/layers.toml", 0,
                    f"hot entry point `{entry}` carries no CSFC_HOT "
                    f"annotation (or no longer exists) — annotate it, or "
                    f"remove it from [hot] entry_points with a rationale"))
        return findings

    def exc_safety_findings(self, contracts: Contracts,
                            tree: Tree) -> List[Finding]:
        findings: List[Finding] = []
        textual = check_exc_safety(tree, contracts)
        for path, tname in contracts.nothrow_move:
            rec = self.records.get((path, tname))
            if rec is None or rec["move_ctor"] is None \
                    or rec["move_assign"] is None and rec["move_ctor"]:
                # Record or exception-spec API unavailable: keep the
                # textual verdict for this type.
                findings.extend(f for f in textual
                                if f.path == path and tname in f.message
                                and f.rule == "noexcept-move")
                continue
            if not rec["move_ctor"]:
                findings.append(Finding(
                    "noexcept-move", path, 0,
                    f"{tname}: move constructor is missing or not noexcept "
                    f"(AST exception specification)"))
            if not rec["move_assign"]:
                findings.append(Finding(
                    "noexcept-move", path, 0,
                    f"{tname}: move assignment is missing or not noexcept "
                    f"(AST exception specification)"))
        for path, tname in contracts.nodiscard:
            rec = self.records.get((path, tname))
            if rec is None:
                findings.extend(f for f in textual
                                if f.path == path and tname in f.message
                                and f.rule == "nodiscard")
                continue
            if not rec["nodiscard"]:
                # The attribute cursor is version-sensitive; fall back to
                # the textual check before declaring a violation.
                findings.extend(f for f in textual
                                if f.path == path and tname in f.message
                                and f.rule == "nodiscard")
        return findings

    def analyze(self, manifest: Manifest, contracts: Contracts,
                cman: ConcurrencyManifest, dman: DeterminismManifest,
                tree: Tree,
                compdb_entries: Optional[List[Tuple[str, str]]] = None
                ) -> Tuple[List[Finding], List[str]]:
        warnings = self.parse_all()
        findings = check_layering(tree, manifest)
        findings += self.hot_alloc_findings()
        findings += self.hot_coverage_findings(manifest, tree)
        findings += self.exc_safety_findings(contracts, tree)
        # The concurrency (5-7) and determinism (8-10) families share the
        # textual implementation with the regex engine: memory_order
        # arguments, MutexLock statements, markers, manifest rows and
        # compile commands are lexical facts, so running the same code
        # makes the required engine agreement structural.
        findings += run_concurrency_checks(tree, cman)
        findings += run_determinism_checks(tree, dman, compdb_entries)
        findings += run_contract_checks(tree)
        # What the AST adds: the call-graph walk from deterministic roots.
        findings += self.det_taint_findings(dman, tree)
        return findings, warnings


# --- self-test --------------------------------------------------------------

SELFTEST_MANIFEST = """
[layers]
common = []
sfc = ["common"]
obs = ["common"]
core = ["common", "sfc"]
sched = ["common", "sfc"]

[hot]
entry_points = ["Hot::Push", "Hot::Pop", "FooSched::Dispatch"]

[seam]
headers = ["obs/tracer.h"]
layers = ["core", "sched"]

[[exception]]
file = "src/sched/registry.h"
allow = ["core/x.h"]
"""

SELFTEST_CONTRACTS = Contracts(
    nothrow_move=[("src/common/request.h", "Request")],
    nodiscard=[("src/common/status.h", "Status")])

SELFTEST_CONCURRENCY = """
[locks]
order = ["wake", "stats"]

[[lock]]
name = "wake"
file = "src/core/pump.h"
member = "wake_mu_"

[[lock]]
name = "stats"
file = "src/core/pump.h"
member = "stats_mu_"

[[atomic]]
file = "src/core/ring.h"
name = "tail_"
role = "sequence counter"
load = ["relaxed"]
cas = ["relaxed"]

[[atomic]]
file = "src/core/ring.h"
name = "flag_"
role = "publication flag"
load = ["acquire"]
store = ["release"]
"""

SELFTEST_DETERMINISM = """
[deterministic]
entry_points = ["Det::Step"]
clock_seam = ["src/common/clock.h"]
rng_seam = ["src/common/random.h"]

[fp]
contract_scope = "src/"

[[envread]]
file = "src/core/det.h"
var = "CSFC_MODE"
rationale = "selftest: sanctioned implementation-selection read"

[[rng]]
file = "src/core/det.h"
name = "rng_"
role = "selftest stream"
seed = "rng_(seed)"
rationale = "explicit ctor seed"
"""

# Synthetic compile commands for the fp-contract family: every src/ TU of
# the clean tree, compiled with the pinned contract flag.
SELFTEST_COMPDB: List[Tuple[str, str]] = [
    ("src/core/hot.cc", "g++ -O2 -ffp-contract=off -c src/core/hot.cc"),
    ("src/sched/sched.cc",
     "g++ -O2 -ffp-contract=off -c src/sched/sched.cc"),
]


def _clean_tree() -> Tree:
    return {
        "src/common/annotations.h":
            "#define CSFC_HOT\n"
            "#define CSFC_DETERMINISTIC\n",
        "src/common/request.h":
            "class Request {\n"
            " public:\n"
            "  Request(Request&&) noexcept = default;\n"
            "  Request& operator=(Request&&) noexcept = default;\n"
            "};\n",
        "src/common/status.h": "class [[nodiscard]] Status {};\n",
        "src/common/mutex.h":
            "struct Mu {};\n"
            "class Cv {\n"
            " public:\n"
            "  void Wait(Mu& mu) REQUIRES(mu) { counter_ += 1; }\n"
            "};\n",
        "src/sfc/curve.h": "#include \"common/annotations.h\"\n",
        "src/obs/tracer.h": "namespace obs {}\n",
        "src/core/x.h": "namespace core {}\n",
        # The clock seam: the one file allowed to read a wall clock.
        "src/common/clock.h":
            "#include <chrono>\n"
            "class MonotonicClock {\n"
            " public:\n"
            "  long NowUs() {\n"
            "    return std::chrono::steady_clock::now()\n"
            "        .time_since_epoch().count();\n"
            "  }\n"
            "};\n",
        # The rng seam: the one file allowed to own seeding primitives.
        "src/common/random.h":
            "class Rng {\n"
            " public:\n"
            "  explicit Rng(unsigned long long seed);\n"
            "  double Uniform();\n"
            "};\n",
        "src/core/det.h":
            "#include <cmath>\n"
            "#include <cstdlib>\n"
            "#include \"common/annotations.h\"\n"
            "#include \"common/random.h\"\n"
            "class Det {\n"
            " public:\n"
            "  explicit Det(unsigned long long seed) : rng_(seed) {}\n"
            "  CSFC_DETERMINISTIC double Step() {\n"
            "    double v = std::log(2.0);"
            "  // csfc:libm-ok(selftest pinned value)\n"
            "    return v + rng_.Uniform();\n"
            "  }\n"
            "  const char* Mode() { return std::getenv(\"CSFC_MODE\"); }\n"
            " private:\n"
            "  Rng rng_;\n"
            "};\n",
        "src/core/hot.h":
            "#include \"common/annotations.h\"\n"
            "#include \"obs/tracer.h\"\n"
            "class Hot {\n"
            " public:\n"
            "  CSFC_HOT void Push(int v) {\n"
            "    heap_.push_back(v);  // csfc:alloc-ok(amortized growth)\n"
            "    // new std::function push_back in a comment is fine\n"
            "  }\n"
            "  CSFC_HOT int Pop();\n"
            "};\n",
        "src/core/hot.cc":
            "#include \"core/hot.h\"\n"
            "int Hot::Pop() {\n"
            "#ifndef NDEBUG\n"
            "  auto* shadow = new int(0);\n"
            "  delete shadow;\n"
            "#endif\n"
            "  std::map<int, int>::iterator it;\n"
            "  return 0;\n"
            "}\n",
        "src/core/ring.h":
            "#include <atomic>\n"
            "#include \"common/annotations.h\"\n"
            "class Ring {\n"
            " public:\n"
            "  CSFC_HOT bool Claim() {\n"
            "    for (;;) {  // csfc:spin-ok(bounded by one producer lap)\n"
            "      size_t t = tail_.load(std::memory_order_relaxed);\n"
            "      if (tail_.compare_exchange_weak(t, t + 1,\n"
            "                                      "
            "std::memory_order_relaxed)) {\n"
            "        flag_.store(1, std::memory_order_release);\n"
            "        return true;\n"
            "      }\n"
            "    }\n"
            "  }\n"
            "  int Check() { return flag_.load(std::memory_order_acquire);"
            " }\n"
            " private:\n"
            "  std::atomic<size_t> tail_{0};\n"
            "  std::atomic<int> flag_{0};\n"
            "};\n",
        "src/core/pump.h":
            "#include \"common/mutex.h\"\n"
            "class Pump {\n"
            " public:\n"
            "  void Snapshot() {\n"
            "    MutexLock lock(wake_mu_);\n"
            "    {\n"
            "      MutexLock lock2(stats_mu_);\n"
            "    }\n"
            "  }\n"
            " private:\n"
            "  Mutex wake_mu_;\n"
            "  Mutex stats_mu_;\n"
            "};\n",
        "src/sched/registry.h": "#include \"core/x.h\"\n",
        "src/sched/sched.h":
            "#include \"common/annotations.h\"\n"
            "class FooSched {\n"
            " public:\n"
            "  CSFC_HOT int Dispatch(long now);\n"
            "};\n",
        "src/sched/sched.cc":
            "#include \"sched/sched.h\"\n"
            "int FooSched::Dispatch(long now) { return head_; }\n",
        # Repo contracts (rules 11-13): one registered scheduler, the
        # sanctioned factory alias, and two trace kinds that are emitted,
        # validated by trace_inspect and documented in DESIGN.md.
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
        "src/core/emit.h":
            "e.kind = obs::TraceEventKind::kArrival;\n"
            "e.kind = obs::TraceEventKind::kDispatch;\n",
        "tools/trace_inspect.cc":
            "case K::kArrival: break;\ncase K::kDispatch: break;\n",
        "DESIGN.md":
            "## 10. Observability\narrival dispatch\n## 11. Next\n",
    }


def self_test() -> int:
    manifest = parse_manifest(SELFTEST_MANIFEST)
    contracts = SELFTEST_CONTRACTS
    cman = parse_concurrency(SELFTEST_CONCURRENCY)
    dman = parse_determinism(SELFTEST_DETERMINISM)
    failures: List[str] = []

    def run(tree: Tree, c: Contracts = contracts,
            cm: Optional[ConcurrencyManifest] = None,
            dm: Optional[DeterminismManifest] = None,
            compdb: Optional[List[Tuple[str, str]]] = None) -> List[Finding]:
        return run_regex_engine(tree, manifest, c, cm or cman, dm or dman,
                                SELFTEST_COMPDB if compdb is None
                                else compdb)

    def expect(name: str, findings: List[Finding], rule: str,
               fragment: str) -> None:
        if not any(f.rule == rule and fragment in f.message
                   for f in findings):
            failures.append(
                f"{name}: expected a [{rule}] finding mentioning "
                f"{fragment!r}, got {[f.render() for f in findings]}")

    residue = run(_clean_tree())
    if residue:
        failures.append("clean tree not clean: "
                        + "; ".join(f.render() for f in residue))

    # 1. Layering: sfc may only see common.
    t = _clean_tree()
    t["src/sfc/curve.h"] += "#include \"sched/sched.h\"\n"
    expect("layer-dag", run(t), "layering", "may not depend on `sched`")

    # 1b. Seam: core may see obs/tracer.h but nothing else in obs.
    t = _clean_tree()
    t["src/core/hot.h"] += "#include \"obs/export.h\"\n"
    expect("seam", run(t), "layering", "obs/export.h")

    # 2. Hot-alloc, inline body: unmarked growth call.
    t = _clean_tree()
    t["src/core/hot.h"] = t["src/core/hot.h"].replace(
        "    // new std::function push_back in a comment is fine\n",
        "    names_.push_back(v);\n")
    expect("hot-growth", run(t), "hot-alloc", "container growth call")

    # 2a. Hot-alloc: the default-initializing make_unique spelling.
    t = _clean_tree()
    t["src/core/hot.h"] = t["src/core/hot.h"].replace(
        "    // new std::function push_back in a comment is fine\n",
        "    auto buf = std::make_unique_for_overwrite<int[]>(v);\n")
    expect("hot-overwrite", run(t), "hot-alloc", "make_unique")

    # 2b. Hot-alloc through a declaration: definition lives in the .cc.
    t = _clean_tree()
    t["src/sched/sched.cc"] = (
        "#include \"sched/sched.h\"\n"
        "int FooSched::Dispatch(long now) { return *(new int(7)); }\n")
    expect("hot-decl-def", run(t), "hot-alloc", "operator new")

    # 2c. Lock-holding function allocating under the capability.
    t = _clean_tree()
    t["src/common/mutex.h"] = t["src/common/mutex.h"].replace(
        "counter_ += 1;", "slot_ = std::make_unique<int>(1);")
    expect("lock-alloc", run(t), "hot-alloc", "make_unique")

    # 2d. Hot-coverage: a pinned entry point loses its annotation. The
    # function still exists, so only the coverage rule (not hot-alloc)
    # can notice.
    t = _clean_tree()
    t["src/sched/sched.h"] = t["src/sched/sched.h"].replace(
        "CSFC_HOT int Dispatch(long now);", "int Dispatch(long now);")
    expect("hot-coverage", run(t), "hot-coverage", "FooSched::Dispatch")

    # 2e. Hot-coverage: a pinned entry point disappears entirely.
    t = _clean_tree()
    t["src/sched/sched.h"] = t["src/sched/sched.h"].replace(
        "CSFC_HOT int Dispatch(long now);", "")
    expect("hot-coverage-gone", run(t), "hot-coverage", "FooSched::Dispatch")

    # 3. Exception safety: move ctor loses noexcept.
    t = _clean_tree()
    t["src/common/request.h"] = t["src/common/request.h"].replace(
        "Request(Request&&) noexcept = default;", "Request(Request&&);")
    expect("move-noexcept", run(t), "noexcept-move", "move\nconstructor"
           .replace("\n", " "))

    # 3b. Status without [[nodiscard]].
    t = _clean_tree()
    t["src/common/status.h"] = "class Status {};\n"
    expect("nodiscard", run(t), "nodiscard", "[[nodiscard]]")

    # 5. Atomics: implicit seq_cst (no memory_order argument).
    t = _clean_tree()
    t["src/core/ring.h"] = t["src/core/ring.h"].replace(
        "flag_.load(std::memory_order_acquire)", "flag_.load()")
    expect("atomic-implicit", run(t), "atomics-discipline",
           "implicit seq_cst")

    # 5b. Atomics: order outside the declared set (release -> relaxed).
    t = _clean_tree()
    t["src/core/ring.h"] = t["src/core/ring.h"].replace(
        "flag_.store(1, std::memory_order_release)",
        "flag_.store(1, std::memory_order_relaxed)")
    expect("atomic-order", run(t), "atomics-discipline",
           "outside the declared set")

    # 5c. Atomics: a declaration with no manifest row.
    t = _clean_tree()
    t["src/core/ring.h"] = t["src/core/ring.h"].replace(
        "  std::atomic<int> flag_{0};\n",
        "  std::atomic<int> flag_{0};\n"
        "  std::atomic<int> extra_{0};\n")
    expect("atomic-unmanifested", run(t), "atomics-discipline",
           "unmanifested atomic `extra_`")

    # 5d. Atomics: an op kind the manifest does not allow for the var.
    t = _clean_tree()
    t["src/core/ring.h"] = t["src/core/ring.h"].replace(
        "return flag_.load(std::memory_order_acquire);",
        "flag_.fetch_add(1, std::memory_order_relaxed);\n"
        "    return flag_.load(std::memory_order_acquire);")
    expect("atomic-op-kind", run(t), "atomics-discipline",
           "no allowed rmw orders")

    # 5e. Atomics: stale manifest row after the variable is deleted.
    stale = parse_concurrency(
        SELFTEST_CONCURRENCY + "\n[[atomic]]\n"
        "file = \"src/core/ring.h\"\nname = \"ghost_\"\n"
        "role = \"publication flag\"\nload = [\"acquire\"]\n")
    expect("atomic-stale", run(_clean_tree(), cm=stale),
           "atomics-discipline", "stale manifest row")

    # 6. Lock hierarchy: nested acquisition against [locks].order.
    t = _clean_tree()
    t["src/core/pump.h"] = t["src/core/pump.h"].replace(
        "MutexLock lock(wake_mu_);", "MutexLock lock(stats_mu_);").replace(
        "MutexLock lock2(stats_mu_);", "MutexLock lock2(wake_mu_);")
    expect("lock-order", run(t), "lock-hierarchy", "while holding")

    # 6b. Lock hierarchy: recursive acquisition of the same lock.
    t = _clean_tree()
    t["src/core/pump.h"] = t["src/core/pump.h"].replace(
        "MutexLock lock2(stats_mu_);", "MutexLock lock2(wake_mu_);")
    expect("lock-recursive", run(t), "lock-hierarchy", "recursive")

    # 6c. Lock hierarchy: a Mutex with no manifest row.
    t = _clean_tree()
    t["src/core/pump.h"] = t["src/core/pump.h"].replace(
        "  Mutex wake_mu_;\n", "  Mutex wake_mu_;\n  Mutex extra_mu_;\n")
    expect("lock-unmanifested", run(t), "lock-hierarchy",
           "no [[lock]] row")

    # 6d. Lock hierarchy: REQUIRES(...) counts as holding for the body.
    t = _clean_tree()
    t["src/core/pump.h"] = t["src/core/pump.h"].replace(
        "  void Snapshot() {",
        "  void Flush() REQUIRES(stats_mu_) {\n"
        "    MutexLock lock3(wake_mu_);\n"
        "  }\n"
        "  void Snapshot() {")
    expect("lock-requires", run(t), "lock-hierarchy", "while holding")

    # 7. Hot-blocking: a sleep inside a CSFC_HOT body.
    t = _clean_tree()
    t["src/core/ring.h"] = t["src/core/ring.h"].replace(
        "      size_t t = tail_.load(std::memory_order_relaxed);",
        "      std::this_thread::sleep_for(std::chrono::microseconds(1));"
        "\n"
        "      size_t t = tail_.load(std::memory_order_relaxed);")
    expect("hot-sleep", run(t), "hot-blocking", "sleep")

    # 7b. Hot-blocking: a mutex acquisition inside a CSFC_HOT body.
    t = _clean_tree()
    t["src/core/ring.h"] = t["src/core/ring.h"].replace(
        "      size_t t = tail_.load(std::memory_order_relaxed);",
        "      MutexLock guard(mu_);\n"
        "      size_t t = tail_.load(std::memory_order_relaxed);")
    expect("hot-lock", run(t), "hot-blocking", "mutex acquisition")

    # 7c. Hot-blocking: the spin loop loses its csfc:spin-ok marker.
    t = _clean_tree()
    t["src/core/ring.h"] = t["src/core/ring.h"].replace(
        "  // csfc:spin-ok(bounded by one producer lap)", "")
    expect("hot-spin", run(t), "hot-blocking", "spin loop")

    # 8. Determinism coverage: the pinned entry point loses its
    # annotation (the function itself stays, so only coverage notices).
    t = _clean_tree()
    t["src/core/det.h"] = t["src/core/det.h"].replace(
        "CSFC_DETERMINISTIC double Step()", "double Step()")
    expect("det-coverage", run(t), "determinism-taint", "Det::Step")

    # 8b. Wall-clock read inside a deterministic body.
    t = _clean_tree()
    t["src/core/det.h"] = t["src/core/det.h"].replace(
        "    return v + rng_.Uniform();\n",
        "    v += std::chrono::steady_clock::now()"
        ".time_since_epoch().count();\n"
        "    return v + rng_.Uniform();\n")
    expect("det-clock", run(t), "determinism-taint",
           "wall-clock read in deterministic function")

    # 8c. Tree-wide: a wall clock outside the seam, outside any
    # deterministic body.
    t = _clean_tree()
    t["src/core/pump.h"] = t["src/core/pump.h"].replace(
        "  void Snapshot() {",
        "  long Now() { return std::chrono::system_clock::now()"
        ".time_since_epoch().count(); }\n"
        "  void Snapshot() {")
    expect("tree-clock", run(t), "determinism-taint",
           "outside the clock seam")

    # 8d. Environment read with no [[envread]] row.
    t = _clean_tree()
    t["src/core/det.h"] = t["src/core/det.h"].replace(
        "std::getenv(\"CSFC_MODE\")", "std::getenv(\"CSFC_OTHER\")")
    expect("env-unsanctioned", run(t), "determinism-taint",
           "without an [[envread]] row")
    # ... and the abandoned row is now stale.
    expect("env-stale", run(t), "determinism-taint",
           "stale [[envread]] row")

    # 8e. Unordered container in a deterministic body, no marker.
    t = _clean_tree()
    t["src/core/det.h"] = t["src/core/det.h"].replace(
        "    return v + rng_.Uniform();\n",
        "    std::unordered_map<int, int> m;\n"
        "    return v + rng_.Uniform() + m.size();\n")
    expect("det-unordered", run(t), "determinism-taint",
           "csfc:unordered-ok")

    # 8f. Pointer-to-integer cast (address-dependent ordering).
    t = _clean_tree()
    t["src/core/det.h"] = t["src/core/det.h"].replace(
        "    return v + rng_.Uniform();\n",
        "    v += reinterpret_cast<unsigned long>(&v);\n"
        "    return v + rng_.Uniform();\n")
    expect("det-ptr-cast", run(t), "determinism-taint",
           "pointer-to-integer")

    # 8g. Thread-id-dependent branching.
    t = _clean_tree()
    t["src/core/det.h"] = t["src/core/det.h"].replace(
        "    return v + rng_.Uniform();\n",
        "    auto tid = std::this_thread::get_id();\n"
        "    (void)tid;\n"
        "    return v + rng_.Uniform();\n")
    expect("det-thread-id", run(t), "determinism-taint", "thread-id")

    # 9. FP contract: a TU missing -ffp-contract=off.
    bad_db = [("src/core/hot.cc", "g++ -O2 -c src/core/hot.cc"),
              SELFTEST_COMPDB[1]]
    expect("fp-flag", run(_clean_tree(), compdb=bad_db), "fp-contract",
           "without -ffp-contract=off")

    # 9b. FP contract: a fast-math flag sneaks in.
    bad_db = [("src/core/hot.cc",
               "g++ -O2 -ffast-math -ffp-contract=off -c src/core/hot.cc"),
              SELFTEST_COMPDB[1]]
    expect("fp-fast-math", run(_clean_tree(), compdb=bad_db),
           "fp-contract", "-ffast-math")

    # 9c. long double in src/.
    t = _clean_tree()
    t["src/core/det.h"] = t["src/core/det.h"].replace(
        "    return v + rng_.Uniform();\n",
        "    long double wide = v;\n"
        "    return static_cast<double>(wide) + rng_.Uniform();\n")
    expect("fp-long-double", run(t), "fp-contract", "long double")

    # 9d. The libm transcendental loses its csfc:libm-ok marker.
    t = _clean_tree()
    t["src/core/det.h"] = t["src/core/det.h"].replace(
        "  // csfc:libm-ok(selftest pinned value)", "")
    expect("fp-libm", run(t), "fp-contract", "libm transcendental")

    # 10. RNG with no [[rng]] row.
    t = _clean_tree()
    t["src/core/det.h"] = t["src/core/det.h"].replace(
        "  Rng rng_;\n", "  Rng rng_;\n  Rng extra_;\n")
    expect("rng-unmanifested", run(t), "rng-seed-flow",
           "unmanifested RNG `extra_`")

    # 10b. The seed path drifts away from the manifested expression.
    t = _clean_tree()
    t["src/core/det.h"] = t["src/core/det.h"].replace(
        ": rng_(seed)", ": rng_(42)")
    expect("rng-seed-drift", run(t), "rng-seed-flow",
           "no longer appears")

    # 10c. Stale [[rng]] row after the variable is deleted.
    stale_dm = parse_determinism(
        SELFTEST_DETERMINISM + "\n[[rng]]\n"
        "file = \"src/core/det.h\"\nname = \"ghost_\"\n"
        "role = \"none\"\nseed = \"ghost_(1)\"\n"
        "rationale = \"stale\"\n")
    expect("rng-stale", run(_clean_tree(), dm=stale_dm), "rng-seed-flow",
           "stale manifest row")

    # 10d. Default-constructed Rng hides the stream identity.
    t = _clean_tree()
    t["src/core/det.h"] = t["src/core/det.h"].replace(
        "    return v + rng_.Uniform();\n",
        "    Rng scratch = Rng();\n"
        "    return v + scratch.Uniform();\n")
    expect("rng-default", run(t), "rng-seed-flow", "default-constructed")

    # 10e. Raw std engine outside the seam.
    t = _clean_tree()
    t["src/core/det.h"] = t["src/core/det.h"].replace(
        "  Rng rng_;\n", "  Rng rng_;\n  std::mt19937 gen_;\n")
    expect("rng-std-engine", run(t), "rng-seed-flow", "mt19937")

    # 10f. Entropy source.
    t = _clean_tree()
    t["src/core/det.h"] = t["src/core/det.h"].replace(
        "    return v + rng_.Uniform();\n",
        "    std::random_device rd;\n"
        "    return v + rng_.Uniform() + rd();\n")
    expect("rng-entropy", run(t), "rng-seed-flow", "random_device")

    # 11. Unregistered scheduler subclass.
    t = _clean_tree()
    t["src/sched/rogue.h"] = (
        "class RogueScheduler final : public Scheduler {};\n")
    expect("unregistered-scheduler", run(t), "registry", "RogueScheduler")

    # 12. TraceEventKind missing from the trace_inspect schema.
    t = _clean_tree()
    t["src/obs/trace_event.h"] = (
        "enum class TraceEventKind : uint8_t { kArrival, kDispatch, "
        "kRetry };\n")
    t["src/obs/trace_event.cc"] += (
        "case TraceEventKind::kRetry: return \"retry\";\n")
    t["src/core/emit.h"] += "e.kind = obs::TraceEventKind::kRetry;\n"
    t["DESIGN.md"] = "## 10. Observability\narrival dispatch retry\n## 11. N\n"
    expect("missing-schema-entry", run(t), "trace-contract",
           "no schema entry")

    # 12b. A kind that is never emitted, and one missing from DESIGN §10.
    t = _clean_tree()
    t["src/obs/trace_event.h"] = (
        "enum class TraceEventKind : uint8_t { kArrival, kDispatch, "
        "kGhost };\n")
    t["src/obs/trace_event.cc"] += (
        "case TraceEventKind::kGhost: return \"ghost\";\n")
    t["tools/trace_inspect.cc"] += "case K::kGhost: break;\n"
    found = run(t)
    expect("unemitted-kind", found, "trace-contract", "no emission site")
    expect("undocumented-kind", found, "trace-contract", "not documented")

    # 13. std::function in the scheduler core.
    t = _clean_tree()
    t["src/core/x.h"] += "std::function<void()> hook_;\n"
    expect("std-function-in-core", run(t), "no-std-function",
           "std::function")

    # 13b. Stripper hardening: a // inside a string literal must not blank
    # the rest of the line (over-stripping hides real violations).
    t = _clean_tree()
    t["src/core/x.h"] += (
        "const char* url = \"http://x\"; std::function<void()> f;\n")
    expect("slash-slash-in-string", run(t), "no-std-function",
           "std::function")

    # 13c. Raw strings: unbalanced quotes and comment markers inside
    # R"(...)" must not derail parsing of the code that follows.
    t = _clean_tree()
    t["src/core/x.h"] += (
        "const char* raw = R\"(quote \" and // and /* inside)\";\n"
        "std::function<void()> g;\n")
    expect("raw-string", run(t), "no-std-function", "std::function")

    # 13d. Commented-out violations, including a backslash-continued //
    # comment that splices the next line into it, are not live code.
    t = _clean_tree()
    t["src/core/x.h"] += (
        "// std::function and rand()\n"
        "/* std::function too */\n"
        "// disabled hook: \\\n"
        "std::function<void()> h;\n")
    residue = [f for f in run(t) if f.path == "src/core/x.h"]
    if residue:
        failures.append("commented-out code was flagged as live: "
                        + "; ".join(f.render() for f in residue))

    # Controls: alloc-ok marker, NDEBUG block, comment tokens, iterator
    # typedefs, the seam clock read, the sanctioned getenv, the marked
    # libm call and the manifested seeded Rng must all stay silent
    # (checked by the clean run above — reassert to make the intent
    # explicit).
    residue = [f for f in run(_clean_tree())
               if f.rule in ("hot-alloc", "determinism-taint",
                             "fp-contract", "rng-seed-flow")]
    if residue:
        failures.append("clean-tree controls tripped: "
                        + "; ".join(f.render() for f in residue))

    if failures:
        print("csfc_analyze self-test FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print("csfc_analyze self-test OK (13 rule families, "
          "seeded violations all caught)")
    return 0


# --- seeded violations on the real tree -------------------------------------

SEEDS: Dict[str, Dict[str, str]] = {
    "layering": {
        "src/sfc/_seeded_layering.h": "#include \"sched/scheduler.h\"\n",
    },
    "hot-alloc": {
        "src/core/_seeded_hot.h":
            "#include \"common/annotations.h\"\n"
            "CSFC_HOT inline int* SeededLeak() { return new int(7); }\n",
    },
    "exc-safety": {
        "src/workload/_seeded_mover.h":
            "class SeededMover {\n"
            " public:\n"
            "  SeededMover(SeededMover&& o);\n"
            "  SeededMover& operator=(SeededMover&& o);\n"
            "};\n",
    },
    "hot-coverage": {
        # A hot-path-shaped class with no CSFC_HOT anywhere; apply_seed
        # pins its Push as a required entry point.
        "src/core/_seeded_cold.h":
            "class SeededCold {\n"
            " public:\n"
            "  void Push(int v) { last_ = v; }\n"
            " private:\n"
            "  int last_ = 0;\n"
            "};\n",
    },
    "atomics-discipline": {
        # Unmanifested atomic plus an implicit-seq_cst load: two findings
        # from one file.
        "src/svc/_seeded_atomics.h":
            "#include <atomic>\n"
            "class SeededAtomics {\n"
            " public:\n"
            "  int Peek() { return unmanifested_flag_.load(); }\n"
            " private:\n"
            "  std::atomic<int> unmanifested_flag_{0};\n"
            "};\n",
    },
    "lock-hierarchy": {
        # Acquires the two seeded locks in the reverse of the order
        # apply_seed appends to [locks].order.
        "src/svc/_seeded_locks.h":
            "#include \"common/mutex.h\"\n"
            "class SeededLocks {\n"
            " public:\n"
            "  void Reversed() {\n"
            "    MutexLock inner_first(seeded_inner_mu_);\n"
            "    MutexLock outer_second(seeded_outer_mu_);\n"
            "  }\n"
            " private:\n"
            "  Mutex seeded_outer_mu_;\n"
            "  Mutex seeded_inner_mu_;\n"
            "};\n",
    },
    "hot-blocking": {
        # A sleep keeps this seed independent of the lock manifest (a
        # MutexLock here would also fire lock-hierarchy findings).
        "src/core/_seeded_blocking.h":
            "#include <chrono>\n"
            "#include <thread>\n"
            "#include \"common/annotations.h\"\n"
            "CSFC_HOT inline void SeededHotBlock() {\n"
            "  std::this_thread::sleep_for(std::chrono::microseconds(1));\n"
            "}\n",
    },
    "determinism-taint": {
        # A wall-clock read inside a CSFC_DETERMINISTIC body (also fires
        # the tree-wide clock-seam check — both are family-8 findings).
        "src/core/_seeded_det.h":
            "#include <chrono>\n"
            "#include \"common/annotations.h\"\n"
            "CSFC_DETERMINISTIC inline long SeededDetClock() {\n"
            "  return std::chrono::system_clock::now()\n"
            "      .time_since_epoch().count();\n"
            "}\n",
    },
    "fp-contract": {
        # Textual violation so the seed works with or without a
        # compilation database (seed runs force the regex engine).
        "src/core/_seeded_fp.h":
            "inline long double SeededWiden(double v) { return v; }\n",
    },
    "rng-seed-flow": {
        # An Rng member with no [[rng]] manifest row.
        "src/workload/_seeded_rng.h":
            "#include \"common/random.h\"\n"
            "class SeededRngHolder {\n"
            " private:\n"
            "  Rng rng_;\n"
            "};\n",
    },
    "registry": {
        # A Scheduler subclass sched/registry.cc never constructs.
        "src/sched/_seeded_rogue.h":
            "class SeededRogueScheduler final : public Scheduler {};\n",
    },
    # apply_seed adds the enumerator kSeededGhost to the real
    # src/obs/trace_event.h: no emission site, schema entry, wire name or
    # DESIGN.md row names it.
    "trace-contract": {},
    "no-std-function": {
        "src/core/_seeded_function.h":
            "#include <functional>\n"
            "inline std::function<int()> SeededHook() { return {}; }\n",
    },
}


def apply_seed(
        rule: str, tree: Tree, contracts: Contracts, manifest: Manifest,
        cman: ConcurrencyManifest
) -> Tuple[Contracts, Manifest, ConcurrencyManifest]:
    tree.update(SEEDS[rule])
    if rule == "trace-contract":
        header = "src/obs/trace_event.h"
        tree[header] = re.sub(r"(enum\s+class\s+TraceEventKind[^{]*\{)",
                              r"\1 kSeededGhost,", tree[header], count=1)
    elif rule == "exc-safety":
        contracts = Contracts(
            nothrow_move=contracts.nothrow_move
            + [("src/workload/_seeded_mover.h", "SeededMover")],
            nodiscard=contracts.nodiscard)
    elif rule == "hot-coverage":
        manifest = manifest._replace(
            hot_entry_points=manifest.hot_entry_points
            + ["SeededCold::Push"])
    elif rule == "lock-hierarchy":
        cman = cman._replace(
            locks=cman.locks + [
                LockRow("seeded_outer", "src/svc/_seeded_locks.h",
                        "seeded_outer_mu_"),
                LockRow("seeded_inner", "src/svc/_seeded_locks.h",
                        "seeded_inner_mu_"),
            ],
            lock_order=cman.lock_order + ["seeded_outer", "seeded_inner"])
    return contracts, manifest, cman


# --- CLI --------------------------------------------------------------------


def parse_compdb(path: Path, repo: Path) -> Optional[List[Tuple[str, str]]]:
    """(repo-relative file, full command) per TU, or None without a db.

    Textual on purpose: the fp-contract family reads the flags both
    engines compile under, so it must work in the gcc-only dev container
    where libclang is unavailable.
    """
    import json
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    if not isinstance(data, list):
        return None
    entries: List[Tuple[str, str]] = []
    for e in data:
        if not isinstance(e, dict):
            continue
        f = Path(e.get("file", ""))
        if not f.is_absolute():
            f = Path(e.get("directory", ".")) / f
        try:
            rel = f.resolve().relative_to(repo).as_posix()
        except (OSError, ValueError):
            continue
        cmd = e.get("command") or " ".join(e.get("arguments") or [])
        entries.append((rel, cmd))
    return entries


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--repo", type=Path,
                        default=Path(__file__).resolve().parents[2],
                        help="repository root (default: two levels up)")
    parser.add_argument("--compdb", type=Path, default=None,
                        help="compile_commands.json or its directory "
                             "(default: <repo>/build/compile_commands.json)")
    parser.add_argument("--layers", type=Path, default=None,
                        help="layer manifest (default: layers.toml next to "
                             "this script)")
    parser.add_argument("--concurrency", type=Path, default=None,
                        help="concurrency manifest (default: "
                             "concurrency.toml next to this script)")
    parser.add_argument("--determinism", type=Path, default=None,
                        help="determinism manifest (default: "
                             "determinism.toml next to this script)")
    parser.add_argument("--engine", choices=("auto", "libclang", "regex"),
                        default="auto",
                        help="auto prefers libclang and falls back to the "
                             "regex engine with a notice")
    parser.add_argument("--self-test", action="store_true",
                        help="verify every rule catches a seeded violation")
    parser.add_argument("--seed-violation", choices=sorted(SEEDS),
                        default=None,
                        help="inject one in-memory violation of the given "
                             "rule into the real tree (forces the regex "
                             "engine); the run must then exit 1")
    args = parser.parse_args(argv)

    if args.self_test:
        return self_test()

    repo = args.repo.resolve()
    if not (repo / "src").is_dir():
        print(f"csfc_analyze: {repo} does not look like the repo root",
              file=sys.stderr)
        return 2
    layers_path = args.layers or Path(__file__).resolve().parent / \
        "layers.toml"
    if not layers_path.is_file():
        print(f"csfc_analyze: layer manifest {layers_path} not found",
              file=sys.stderr)
        return 2
    try:
        manifest = parse_manifest(layers_path.read_text(encoding="utf-8"))
    except Exception as e:  # noqa: BLE001 - toml errors are user errors
        print(f"csfc_analyze: bad manifest {layers_path}: {e}",
              file=sys.stderr)
        return 2
    conc_path = args.concurrency or Path(__file__).resolve().parent / \
        "concurrency.toml"
    if not conc_path.is_file():
        print(f"csfc_analyze: concurrency manifest {conc_path} not found",
              file=sys.stderr)
        return 2
    try:
        cman = parse_concurrency(conc_path.read_text(encoding="utf-8"))
    except Exception as e:  # noqa: BLE001 - toml errors are user errors
        print(f"csfc_analyze: bad manifest {conc_path}: {e}",
              file=sys.stderr)
        return 2
    det_path = args.determinism or Path(__file__).resolve().parent / \
        "determinism.toml"
    if not det_path.is_file():
        print(f"csfc_analyze: determinism manifest {det_path} not found",
              file=sys.stderr)
        return 2
    try:
        dman = parse_determinism(det_path.read_text(encoding="utf-8"))
    except Exception as e:  # noqa: BLE001 - toml errors are user errors
        print(f"csfc_analyze: bad manifest {det_path}: {e}",
              file=sys.stderr)
        return 2

    tree = load_tree(repo)
    contracts = DEFAULT_CONTRACTS
    if args.seed_violation:
        if args.engine == "libclang":
            print("csfc_analyze: --seed-violation injects in-memory files "
                  "the libclang engine cannot see; use --engine=auto or "
                  "regex", file=sys.stderr)
            return 2
        contracts, manifest, cman = apply_seed(args.seed_violation, tree,
                                               contracts, manifest, cman)

    compdb = args.compdb or repo / "build" / "compile_commands.json"
    compdb_file = compdb / "compile_commands.json" if compdb.is_dir() \
        else compdb
    compdb_entries = parse_compdb(compdb_file, repo)
    if compdb_entries is None:
        print(f"csfc_analyze: no compilation database at {compdb_file}; "
              f"fp-contract flag verification skipped (the textual FP "
              f"checks still run)", file=sys.stderr)
    use_libclang = False
    if args.engine in ("auto", "libclang") and not args.seed_violation:
        cx = load_libclang()
        if cx is not None and compdb.exists():
            use_libclang = True
        elif args.engine == "libclang":
            reason = ("python clang bindings / libclang not available"
                      if cx is None else f"{compdb} not found")
            print(f"csfc_analyze: libclang engine forced but {reason}",
                  file=sys.stderr)
            return 2
        else:
            reason = ("libclang unavailable" if cx is None
                      else f"no compilation database at {compdb}")
            print(f"csfc_analyze: {reason}; falling back to regex engine "
                  f"(hot-path scan covers annotated bodies only, no "
                  f"transitive call graph)", file=sys.stderr)

    if use_libclang:
        try:
            engine = LibclangEngine(cx, repo, compdb)
            findings, warnings = engine.analyze(manifest, contracts, cman,
                                                dman, tree, compdb_entries)
            for w in warnings:
                print(f"csfc_analyze: warning: {w}", file=sys.stderr)
            label = "libclang"
        except Exception as e:  # noqa: BLE001
            if args.engine == "libclang":
                print(f"csfc_analyze: libclang engine failed: {e}",
                      file=sys.stderr)
                return 2
            print(f"csfc_analyze: libclang engine failed ({e}); falling "
                  f"back to regex engine", file=sys.stderr)
            findings = run_regex_engine(tree, manifest, contracts, cman,
                                        dman, compdb_entries)
            label = "regex"
    else:
        findings = run_regex_engine(tree, manifest, contracts, cman, dman,
                                    compdb_entries)
        label = "regex"

    for f in findings:
        print(f.render(), file=sys.stderr)
    if findings:
        print(f"csfc_analyze[{label}]: {len(findings)} finding(s) in "
              f"{len(tree)} files", file=sys.stderr)
        return 1
    print(f"csfc_analyze[{label}]: OK ({len(tree)} files, "
          f"13 rule families)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
