#!/usr/bin/env python3
"""csfc_analyze: textual contract analyzer for the csfc codebase.

Thirteen rule families. Ten read the three checked-in manifests
(tools/csfc_analyze/layers.toml, tools/csfc_analyze/concurrency.toml and
tools/csfc_analyze/determinism.toml); the last three check repo contracts
no manifest needs to spell out:

  layering       src/ include edges must follow the layer DAG declared in
                 layers.toml, plus the tracer seam and per-file exceptions
                 declared there.
  hot-alloc      Functions annotated CSFC_HOT (common/annotations.h),
                 functions that hold a lock (REQUIRES(...)), and every
                 function the call walk reaches from them must not
                 allocate: no operator new / malloc family /
                 make_unique|make_shared / std::function / node-based
                 containers / std::string construction / container growth
                 calls. A sanctioned amortized allocation is marked on its
                 own line with `// csfc:alloc-ok(<reason>)`; the same
                 marker on a call line stops the walk at that call. Code
                 compiled out of release builds (#ifndef NDEBUG) is exempt.
  hot-coverage   The manifest's [hot] entry_points list pins which
                 functions MUST carry the CSFC_HOT annotation. hot-alloc
                 only audits what is annotated; this closes the loop so a
                 backend rewrite cannot silently drop the per-request path
                 out of the audit.
  exc-safety     Status / Result must be [[nodiscard]] at class level, so
                 dropped error returns fail to compile. (That Request's
                 moves are nothrow is a static_assert in request.h.)
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
                 bodies and every function the call walk reaches from
                 them (outside the clock/rng seam files) may not read wall
                 clocks, branch on thread ids, or cast pointers to
                 integers, and std::unordered_ use there needs a
                 `// csfc:unordered-ok(<reason>)` marker. Tree-wide, wall
                 clocks live only behind the clock seam (common/clock.h)
                 and every getenv needs an [[envread]] row.
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

Every family is textual: it reads the scrubbed source (comments
stripped, string contents blanked), the manifests and the compile
commands, and needs no compiler. The call walk behind hot-alloc and
determinism-taint resolves calls by name over src/: `Cls::f(` reaches
Cls's `f` (a qualifier that names no class reaches every free `f`); a
bare `f(` reaches the enclosing class's own `f`, else every `f`; `x.f(`
and `x->f(` reach every `f`. A name some src/ class declares `virtual`
or `override` is not followed. What this does not give: calls resolve
by name, not by type (an overload set is followed whole, a call through
a function pointer or an operator not at all), and no exception
specification is read.

`--self-test` seeds one violation per rule against synthetic trees and
verifies each is caught. `--seed-violation=RULE` injects a violation into
the real tree (in memory) so the CLI test can assert exit codes end to
end. Exit 0 = clean, 1 = findings, 2 = usage error.
"""

from __future__ import annotations

import argparse
import bisect
import functools
import re
import sys
from pathlib import Path
from typing import (Callable, Dict, FrozenSet, List, NamedTuple, Optional,
                    Set, Tuple)

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

# (header path, type name): must be `class [[nodiscard]]`.
NODISCARD_TYPES: List[Tuple[str, str]] = [
    ("src/common/status.h", "Status"),
    ("src/common/status.h", "Result"),
]


# --- text utilities ---------------------------------------------------------


RAW_STRING_RE = re.compile(r'(?:u8|[uUL])?R"([^()\\ \t\n]{0,16})\(')


# The pure text helpers below are memoized on the file text: every rule
# family scrubs the same files, and the CLI test runs every seed against
# one loaded tree, so each file is scanned once per process.


@functools.lru_cache(maxsize=None)
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


@functools.lru_cache(maxsize=None)
def scrub(text: str) -> str:
    """Comments stripped, string contents blanked. Offsets preserved."""
    return blank_strings(strip_comments(text))


@functools.lru_cache(maxsize=None)
def _line_starts(text: str) -> Tuple[int, ...]:
    return (0,) + tuple(m.end() for m in re.finditer("\n", text))


@functools.lru_cache(maxsize=None)
def split_lines(text: str) -> Tuple[str, ...]:
    return tuple(text.splitlines())


def line_of(text: str, offset: int) -> int:
    return bisect.bisect_right(_line_starts(text), offset)


@functools.lru_cache(maxsize=None)
def matches(pattern: re.Pattern, code: str) -> Tuple[Tuple, ...]:
    """(line, matched text, *groups) of every match of `pattern`."""
    return tuple((line_of(code, m.start()), m.group(0)) + m.groups()
                 for m in pattern.finditer(code))


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


@functools.lru_cache(maxsize=None)
def ndebug_exempt_lines(code: str) -> FrozenSet[int]:
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
    return frozenset(exempt)


@functools.lru_cache(maxsize=None)
def class_scopes(code: str) -> Tuple[Tuple[int, int, str], ...]:
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
    return tuple(scopes)


def enclosing_class(scopes: Tuple[Tuple[int, int, str], ...],
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


# --- rule 2: hot-path allocation freedom -----------------------------------

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


def _body_lines(code: str, start: int, end: int) -> range:
    """0-based indices of the lines a body [start, end) spans."""
    last = line_of(code, min(end, len(code) - 1) if code else 0)
    return range(line_of(code, start) - 1,
                 min(last, len(split_lines(code))))


def _scan_body(path: str, text: str, code: str, start: int, end: int,
               where: str, seen: Set[Tuple[str, int, str]],
               findings: List[Finding]) -> None:
    orig_lines = split_lines(text)
    code_lines = split_lines(code)
    exempt = ndebug_exempt_lines(code)
    for idx in _body_lines(code, start, end):
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
                f"{what} in {where} — {HOT_MESSAGE}"))


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


ANNOTATIONS_FILE = "src/common/annotations.h"


@functools.lru_cache(maxsize=None)
def annotated_functions(code: str, token: str
                        ) -> Tuple[Tuple[Optional[str], str, int, int], ...]:
    """(class, name, body_start, body_end) of every function `token`
    (CSFC_HOT or CSFC_DETERMINISTIC) annotates in scrubbed `code`. The
    class is the `Cls::` qualifier of an annotated out-of-line definition,
    else the enclosing class; body_start is -1 for a declaration."""
    found: List[Tuple[Optional[str], str, int, int]] = []
    for m in re.finditer(rf"\b{token}\b", code):
        line_start = code.rfind("\n", 0, m.start()) + 1
        if code[line_start:m.start()].lstrip().startswith("#"):
            continue  # the macro definition itself
        brace = code.find("{", m.end())
        semi = code.find(";", m.end())
        head_end = min(x for x in (brace, semi, len(code)) if x >= 0)
        head = code[m.end():head_end]
        paren = head.find("(")
        name_m = re.search(r"(?:(\w+)\s*::\s*)?(\w+)\s*$", head[:paren])
        if paren < 0 or not name_m:
            continue
        cls = name_m.group(1) or enclosing_class(class_scopes(code),
                                                 m.start())
        if brace != -1 and (semi == -1 or brace < semi):
            found.append((cls, name_m.group(2), brace,
                          match_delim(code, brace, "{", "}")))
        else:
            found.append((cls, name_m.group(2), -1, -1))
    return tuple(found)


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
        if path == ANNOTATIONS_FILE:
            continue
        for cls, name, start, end in annotated_functions(code, token):
            label = f"{cls}::{name}" if cls else name
            if start >= 0:
                add(path, label, start, end)
                continue
            for cand in (path, sibling_path(path)):
                for d in function_definitions(cand, scrubbed.get(cand, "")):
                    if d.name == name and d.cls == cls:
                        add(cand, label, d.start, d.end)
    return bodies


@functools.lru_cache(maxsize=None)
def requires_regions(code: str
                     ) -> Tuple[Tuple[str, Tuple[str, ...], int, int], ...]:
    """(function, held capabilities, body_start, body_end) of every
    function defined with REQUIRES(caps): it holds each cap throughout."""
    found = []
    for m in re.finditer(r"\bREQUIRES\s*\(([^()]*)\)", code):
        line_start = code.rfind("\n", 0, m.start()) + 1
        if code[line_start:m.start()].lstrip().startswith("#"):
            continue  # the macro definition
        body = _body_after_signature(code, m.end())
        if body is None:
            continue
        names = list(re.finditer(r"(\w+)\s*\(",
                                 code[max(0, m.start() - 400):m.start()]))
        caps = tuple(ids[-1] for ids in (re.findall(r"\w+", cap)
                                         for cap in m.group(1).split(","))
                     if ids)
        found.append((names[-1].group(1) if names else "<lock region>", caps,
                      body, match_delim(code, body, "{", "}")))
    return tuple(found)


def requires_bodies(scrubbed: Dict[str, str]
                    ) -> List[Tuple[str, str, int, int]]:
    """(path, label, body_start, body_end) for every function defined
    with REQUIRES(...): it runs under a capability, so allocating there
    stretches the critical section by a potential syscall."""
    return [(path, label, start, end)
            for path, code in sorted(scrubbed.items())
            if path != ANNOTATIONS_FILE
            for label, _, start, end in requires_regions(code)]


# --- the call walk (hot-alloc and determinism-taint) ------------------------

# Words followed by `(` that are not calls or definitions of functions.
NOT_FUNCTIONS = frozenset((
    "if", "for", "while", "switch", "return", "catch", "throw", "new",
    "delete", "sizeof", "alignof", "alignas", "decltype", "noexcept",
    "static_assert", "typeid", "static_cast", "const_cast",
    "reinterpret_cast", "dynamic_cast", "constexpr", "requires",
    "operator", "defined", "assert", "bool", "char", "int", "long",
    "short", "unsigned", "signed", "double", "float", "void", "auto"))

# `Cls::f(`, `x.f(`, `x->f(` or `f(`, with optional template arguments.
CALL_RE = re.compile(
    r"(?:(\w+)\s*::\s*|(\.|->)\s*)?\b(\w+)\s*(?:<[^<>;(){}]*>\s*)?\(")
ACCESS_RE = re.compile(r"\b(?:public|private|protected)\s*$")


class FunctionDef(NamedTuple):
    path: str
    cls: Optional[str]
    name: str
    start: int  # the body's `{`
    end: int  # just past its `}`


def _is_function_name(name: str) -> bool:
    # ALL_CAPS words are macros (REQUIRES, EXCLUDES, ...).
    return name not in NOT_FUNCTIONS and not name.isupper()


@functools.lru_cache(maxsize=None)
def function_definitions(path: str, code: str) -> Tuple[FunctionDef, ...]:
    """Every function body defined in scrubbed `code`: inline members
    (class = the enclosing class), out-of-line `Cls::f` definitions and
    free functions (class None). Lambdas stay part of their enclosing
    body."""
    scopes = class_scopes(code)
    defs: List[FunctionDef] = []
    for m in CALL_RE.finditer(code):
        qual, member, name = m.groups()
        if member or not _is_function_name(name):
            continue
        j = m.start() - 1
        while j >= 0 and code[j].isspace():
            j -= 1
        if j >= 0 and (code[j] == "," or (
                code[j] == ":" and code[j - 1] != ":"
                and not ACCESS_RE.search(code, max(0, j - 12), j))):
            continue  # a constructor's member or base initializer
        close = match_delim(code, m.end() - 1, "(", ")")
        body = _body_after_signature(code, close)
        if body is None:
            continue
        defs.append(FunctionDef(path, qual or enclosing_class(scopes,
                                                              m.start()),
                                name, body,
                                match_delim(code, body, "{", "}")))
    return tuple(defs)


@functools.lru_cache(maxsize=None)
def virtual_names(code: str) -> FrozenSet[str]:
    """Names scrubbed `code` declares `virtual` or `override`: a call to
    one dispatches at run time, so the walk does not follow it."""
    names: Set[str] = set()
    for m in re.finditer(r"\bvirtual\b", code):
        n = re.search(r"(~?)(\w+)\s*\(", code[m.end():m.end() + 400])
        if n and not n.group(1):
            names.add(n.group(2))
    for m in re.finditer(r"\boverride\b", code):
        start = max(code.rfind(c, 0, m.start()) for c in ";{}") + 1
        n = re.search(r"(\w+)\s*\(", code[start:m.start()])
        if n:
            names.add(n.group(1))
    return frozenset(names)


@functools.lru_cache(maxsize=None)
def _body_calls(code: str, start: int, end: int
                ) -> Tuple[Tuple[Optional[str], bool, str, int], ...]:
    """(qualifier, is_member_call, name, offset) of every call in a body."""
    return tuple((m.group(1), m.group(2) is not None, m.group(3), m.start(3))
                 for m in CALL_RE.finditer(code, start, end)
                 if _is_function_name(m.group(3)))


def reachable_bodies(
        scrubbed: Dict[str, str],
        roots: List[Tuple[str, str, int, int]],
        stop: Callable[[str, int], bool] = lambda path, idx: False
) -> List[Tuple[str, str, int, int]]:
    """(path, where, body_start, body_end) of every function body the
    call walk reaches from `roots` (given as (path, where, start, end)),
    roots excluded. Calls resolve by name (module docstring); a call on a
    line `stop(path, 0-based line)` accepts is not followed."""
    by_name: Dict[str, List[FunctionDef]] = {}
    cls_of: Dict[Tuple[str, int], Optional[str]] = {}
    virtual: Set[str] = set()
    classes: Set[str] = set()
    for path, code in scrubbed.items():
        for d in function_definitions(path, code):
            by_name.setdefault(d.name, []).append(d)
            cls_of[(path, d.start)] = d.cls
        virtual |= virtual_names(code)
        classes.update(name for _, _, name in class_scopes(code))

    def resolve(cls: Optional[str], qual: Optional[str], member: bool,
                name: str) -> List[FunctionDef]:
        defs = by_name.get(name, [])
        if qual is not None:
            want = qual if qual in classes else None
            return [d for d in defs if d.cls == want]
        if not member and cls is not None:
            own = [d for d in defs if d.cls == cls]
            if own:
                return own
        return defs

    seen = {(path, start) for path, _, start, _ in roots}
    queue = [(path, start, end,
              cls_of.get((path, start),
                         enclosing_class(class_scopes(scrubbed[path]),
                                         start)), where)
             for path, where, start, end in roots]
    reached: List[Tuple[str, str, int, int]] = []
    for path, start, end, cls, root in queue:  # grows as bodies are found
        code = scrubbed[path]
        for qual, member, name, off in _body_calls(code, start, end):
            if name in virtual or stop(path, line_of(code, off) - 1):
                continue
            for d in resolve(cls, qual, member, name):
                if (d.path, d.start) in seen:
                    continue
                seen.add((d.path, d.start))
                label = f"{d.cls}::{d.name}" if d.cls else d.name
                where = f"`{label}` (reachable from {root})"
                reached.append((d.path, where, d.start, d.end))
                queue.append((d.path, d.start, d.end, d.cls, root))
    return reached


def check_hot_alloc(tree: Tree) -> List[Finding]:
    findings: List[Finding] = []
    seen: Set[Tuple[str, int, str]] = set()
    scrubbed = {p: scrub(t) for p, t in tree.items()
                if p.startswith("src/")}
    roots = ([(path, f"hot function `{label}`", start, end)
              for path, label, start, end in hot_function_bodies(scrubbed)]
             + [(path, f"lock-holding function `{label}`", start, end)
                for path, label, start, end in requires_bodies(scrubbed)])

    def stop(path: str, idx: int) -> bool:
        # Release builds compile NDEBUG blocks out, and a call line marked
        # alloc-ok sanctions whatever that call allocates.
        return (idx in ndebug_exempt_lines(scrubbed[path])
                or ALLOC_OK_MARKER in split_lines(tree[path])[idx])

    for path, where, start, end in roots + reachable_bodies(scrubbed, roots,
                                                             stop):
        _scan_body(path, tree[path], scrubbed[path], start, end, where,
                   seen, findings)
    return findings


# --- rule 3: hot-coverage (annotation pinning) ------------------------------


def annotated_hot_names(tree: Tree, token: str = HOT_TOKEN) -> Set[str]:
    """Every name `token` (CSFC_HOT by default) is attached to, as both
    `Cls::Name` (when resolvable) and bare `Name`. Works on declarations
    and definitions alike."""
    covered: Set[str] = set()
    for path, text in tree.items():
        if not path.startswith("src/") or path == ANNOTATIONS_FILE:
            continue
        for cls, name, _, _ in annotated_functions(scrub(text), token):
            covered.add(name)
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


# --- rule 4: exception safety ----------------------------------------------


def check_exc_safety(tree: Tree) -> List[Finding]:
    findings: List[Finding] = []
    for path, tname in NODISCARD_TYPES:
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
    extra = tuple(re.compile(rf"\b{re.escape(t)}\s+(\w+)\s*[;{{=]")
                  for t in extra_types)
    return [(path, name, line) for path, code in sorted(scrubbed.items())
            for name, line in _atomic_decls(code, extra)]


@functools.lru_cache(maxsize=None)
def _atomic_decls(code: str, extra: Tuple[re.Pattern, ...]
                  ) -> Tuple[Tuple[str, int], ...]:
    decls: List[Tuple[str, int]] = []
    for m in re.finditer(r"\bstd::atomic\s*<", code):
        close = _match_angle(code, m.end() - 1)
        if close is None:
            continue
        name_m = re.match(r"\s*(\w+)\s*[;{=,]", code[close:close + 200])
        if name_m:
            decls.append((name_m.group(1), line_of(code, m.start())))
    for pat in extra:
        decls.extend((name, line) for line, _, name in matches(pat, code))
    return tuple(decls)


@functools.lru_cache(maxsize=None)
def _atomic_ops(code: str) -> Tuple[Tuple[str, str, int, Tuple[str, ...]], ...]:
    """(variable, op, line, memory orders named in the call) per op."""
    ops = []
    for m in ATOMIC_OP_RE.finditer(code):
        args_end = match_delim(code, m.end() - 1, "(", ")")
        ops.append((m.group(1), m.group(2), line_of(code, m.start()),
                    tuple(MEMORY_ORDER_RE.findall(code[m.end():args_end]))))
    return tuple(ops)


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
        for name, op, line, orders in _atomic_ops(code):
            if name not in names:
                continue
            kind = _ATOMIC_OPS[op]
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


@functools.lru_cache(maxsize=None)
def _brace_pairs(code: str) -> Tuple[Tuple[int, int], ...]:
    pairs: List[Tuple[int, int]] = []
    stack: List[int] = []
    for i, c in enumerate(code):
        if c == "{":
            stack.append(i)
        elif c == "}" and stack:
            pairs.append((stack.pop(), i))
    return tuple(pairs)


@functools.lru_cache(maxsize=None)
def _lock_sites(code: str) -> Tuple[Tuple[int, int, str, int], ...]:
    """MutexLock acquisitions as (offset, hold end, member, line)."""
    pairs = _brace_pairs(code)

    def hold_end(off: int) -> int:
        # The scoped lock lives to the end of its innermost block.
        best = -1
        end = len(code)
        for o, c in pairs:
            if o < off < c and o > best:
                best, end = o, c
        return end

    acqs = []
    for m in MUTEX_ACQUIRE_RE.finditer(code):
        ids = re.findall(r"\w+", m.group(1))
        if ids:
            acqs.append((m.start(), hold_end(m.start()), ids[-1],
                         line_of(code, m.start())))
    return tuple(acqs)


def check_lock_hierarchy(tree: Tree,
                         cman: ConcurrencyManifest) -> List[Finding]:
    findings: List[Finding] = []
    scrubbed = {p: scrub(t) for p, t in tree.items()
                if p.startswith("src/") and p != MUTEX_IMPL_FILE}
    rank = {n: i for i, n in enumerate(cman.lock_order)}

    decls = [(path, member, line)
             for path, code in sorted(scrubbed.items())
             for line, _, member in matches(MUTEX_DECL_RE, code)]
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
        acqs: List[Tuple[int, int, Optional[str], int]] = []
        for off, hold_end, member, line in _lock_sites(code):
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
            acqs.append((off, hold_end, node, line))

        regions: List[Tuple[int, int, str]] = []
        for _, caps, body, end in requires_regions(code):
            for cap in caps:
                cands = resolve(path, cap)
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
    atomic_names = set(cman.atomics) | {
        n for _, n, _ in find_atomic_decls(scrubbed, cman.extra_types)}
    seen: Set[Tuple[str, int, str]] = set()

    for path, label, start, end in hot_function_bodies(scrubbed):
        code = scrubbed[path]
        orig_lines = split_lines(tree[path])
        code_lines = split_lines(code)
        exempt = ndebug_exempt_lines(code)
        for idx in _body_lines(code, start, end):
            if idx in exempt:
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
            if idx in exempt:
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
    """Rules 5-7."""
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

# Scanned inside CSFC_DETERMINISTIC bodies and everything the call walk
# reaches from one. Entropy sources (random_device, rand)
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


def _det_scan_body(path: str, text: str, code: str, start: int, end: int,
                   where: str, seen: Set[Tuple[str, int, str]],
                   findings: List[Finding]) -> None:
    """Taint-scans the body [start, end) of a deterministic function."""
    orig_lines = split_lines(text)
    code_lines = split_lines(code)
    for idx in _body_lines(code, start, end):
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
                f"{what} in {where} — {DET_MESSAGE}"))
        if "std::unordered_" in sline and UNORDERED_OK_MARKER not in raw:
            key = (path, idx + 1, "unordered")
            if key not in seen:
                seen.add(key)
                findings.append(Finding(
                    "determinism-taint", path, idx + 1,
                    f"std::unordered_ container in {where} — iteration "
                    f"order is hash/insertion dependent; prove order "
                    f"cannot reach output and mark the line with "
                    f"// csfc:unordered-ok(reason)"))


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

    # Annotated bodies, and every body the call walk reaches from them
    # outside the clock and rng seams.
    roots = [(path, f"deterministic function `{label}`", start, end)
             for path, label, start, end in hot_function_bodies(
                 scrubbed, token=DET_TOKEN)]
    seam = set(dman.clock_seam) | set(dman.rng_seam)
    for path, where, start, end in roots + [
            r for r in reachable_bodies(scrubbed, roots) if r[0] not in seam]:
        _det_scan_body(path, tree[path], scrubbed[path], start, end, where,
                       seen, findings)

    # Tree-wide: wall clocks live only behind the clock seam, and every
    # environment read needs an [[envread]] row.
    for path, code in sorted(scrubbed.items()):
        orig_lines = split_lines(tree[path])
        if path not in dman.clock_seam:
            for line, read in matches(WALLCLOCK_RE, code):
                key = (path, line, "tree-clock")
                if key in seen:
                    continue
                seen.add(key)
                findings.append(Finding(
                    "determinism-taint", path, line,
                    f"wall-clock read `{read.strip()}` outside the "
                    f"clock seam ({', '.join(dman.clock_seam) or 'none'}) "
                    f"— real time enters through common/clock so runs "
                    f"replay bit-identically"))
        for line, _ in matches(GETENV_RE, code):
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
LONG_DOUBLE_RE = re.compile(r"\blong\s+double\b")


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
        for line, _ in matches(LONG_DOUBLE_RE, code):
            findings.append(Finding(
                "fp-contract", path, line,
                "long double — x87 80-bit intermediates vary by ABI and "
                "codegen; the determinism contract pins all FP to IEEE "
                "binary64"))
        orig_lines = split_lines(text)
        flagged: Set[int] = set()
        for line, call in matches(LIBM_RE, code):
            raw = orig_lines[line - 1] if line <= len(orig_lines) else ""
            if LIBM_OK_MARKER in raw or line in flagged:
                continue
            flagged.add(line)
            findings.append(Finding(
                "fp-contract", path, line,
                f"libm transcendental `{call.rstrip('(').strip()}` "
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
            decls.extend((path, name, line)
                         for line, _, name in matches(pat, code))
        for line, _ in matches(RNG_DEFAULT_RE, code):
            findings.append(Finding(
                "rng-seed-flow", path, line,
                "default-constructed Rng — the default seed hides the "
                "stream identity from the manifest; pass the recorded "
                "seed explicitly"))
        for line, engine in matches(STD_ENGINE_RE, code):
            findings.append(Finding(
                "rng-seed-flow", path, line,
                f"`{engine}` outside the rng seam "
                f"({', '.join(dman.rng_seam) or 'none'}) — all randomness "
                f"flows through common/random's Rng with an explicit "
                f"recorded seed; raw engines and entropy sources cannot "
                f"replay"))
        for line, _ in matches(C_RAND_RE, code):
            findings.append(Finding(
                "rng-seed-flow", path, line,
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
    """Rules 8-10."""
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
    """Rules 11-13: registrations, enumerators, wire names and
    documentation are lexical facts."""
    return (check_registry(tree) + check_trace_contract(tree)
            + check_no_std_function(tree))


def run_checks(tree: Tree, manifest: Manifest, cman: ConcurrencyManifest,
               dman: DeterminismManifest,
               compdb_entries: Optional[List[Tuple[str, str]]] = None
               ) -> List[Finding]:
    return (check_layering(tree, manifest)
            + check_hot_alloc(tree)
            + check_hot_coverage(tree, manifest)
            + check_exc_safety(tree)
            + run_concurrency_checks(tree, cman)
            + run_determinism_checks(tree, dman, compdb_entries)
            + run_contract_checks(tree))


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
        "src/common/status.h":
            "class [[nodiscard]] Status {};\n"
            "template <typename T> class [[nodiscard]] Result {};\n",
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
            "    return Mix(v) + rng_.Uniform();\n"
            "  }\n"
            "  const char* Mode() { return std::getenv(\"CSFC_MODE\"); }\n"
            " private:\n"
            "  Rng rng_;\n"
            "};\n",
        # Unannotated helpers the call walk reaches: Hot::Pop -> Tidy ->
        # Settle, and Det::Step -> Mix.
        "src/core/tidy.h": "inline void Tidy(int v) { Settle(v); }\n",
        "src/core/settle.h": "inline void Settle(int v) { (void)v; }\n",
        "src/core/mix.h": "inline double Mix(double v) { return v; }\n",
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
            "  Tidy(1);\n"
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
    cman = parse_concurrency(SELFTEST_CONCURRENCY)
    dman = parse_determinism(SELFTEST_DETERMINISM)
    failures: List[str] = []

    def run(tree: Tree, cm: Optional[ConcurrencyManifest] = None,
            dm: Optional[DeterminismManifest] = None,
            compdb: Optional[List[Tuple[str, str]]] = None) -> List[Finding]:
        return run_checks(tree, manifest, cm or cman, dm or dman,
                          SELFTEST_COMPDB if compdb is None else compdb)

    def expect(name: str, findings: List[Finding], rule: str,
               fragment: str) -> None:
        if not any(f.rule == rule and fragment in f.message
                   for f in findings):
            failures.append(
                f"{name}: expected a [{rule}] finding mentioning "
                f"{fragment!r}, got {[f.render() for f in findings]}")

    def expect_none(name: str, findings: List[Finding], rule: str) -> None:
        hits = [f.render() for f in findings if f.rule == rule]
        if hits:
            failures.append(f"{name}: expected no [{rule}] finding, got "
                            f"{hits}")

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

    # 2f. The call walk: an allocation two calls deep, in an unannotated
    # helper in another file (Hot::Pop -> Tidy -> Settle).
    growth = "inline void Settle(int v) { pool.push_back(v); }\n"
    t = _clean_tree()
    t["src/core/settle.h"] = growth
    expect("walk-two-deep", run(t), "hot-alloc",
           "`Settle` (reachable from hot function `Hot::Pop`)")

    # 2g. The same chain through a name some class declares override is a
    # run-time dispatch the walk does not follow.
    t = _clean_tree()
    t["src/core/settle.h"] = growth
    t["src/core/tidy.h"] += ("struct Tidier : Base {\n"
                             "  void Tidy(int v) override;\n"
                             "};\n")
    expect_none("walk-override", run(t), "hot-alloc")

    # 2h. An alloc-ok marker on the call line stops the walk there.
    t = _clean_tree()
    t["src/core/settle.h"] = growth
    t["src/core/hot.cc"] = t["src/core/hot.cc"].replace(
        "  Tidy(1);\n", "  Tidy(1);  // csfc:alloc-ok(selftest cold call)\n")
    expect_none("walk-call-marker", run(t), "hot-alloc")

    # 3. Status without [[nodiscard]].
    t = _clean_tree()
    t["src/common/status.h"] = t["src/common/status.h"].replace(
        "class [[nodiscard]] Status", "class Status")
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
        "    return Mix(v) + rng_.Uniform();\n",
        "    v += std::chrono::steady_clock::now()"
        ".time_since_epoch().count();\n"
        "    return Mix(v) + rng_.Uniform();\n")
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
        "    return Mix(v) + rng_.Uniform();\n",
        "    std::unordered_map<int, int> m;\n"
        "    return Mix(v) + rng_.Uniform() + m.size();\n")
    expect("det-unordered", run(t), "determinism-taint",
           "csfc:unordered-ok")

    # 8f. Pointer-to-integer cast (address-dependent ordering).
    t = _clean_tree()
    t["src/core/det.h"] = t["src/core/det.h"].replace(
        "    return Mix(v) + rng_.Uniform();\n",
        "    v += reinterpret_cast<unsigned long>(&v);\n"
        "    return Mix(v) + rng_.Uniform();\n")
    expect("det-ptr-cast", run(t), "determinism-taint",
           "pointer-to-integer")

    # 8g. Thread-id-dependent branching in a callee of the annotated root
    # (Det::Step -> Mix, in another file).
    t = _clean_tree()
    t["src/core/mix.h"] = (
        "inline double Mix(double v) {\n"
        "  auto tid = std::this_thread::get_id();\n"
        "  (void)tid;\n"
        "  return v;\n"
        "}\n")
    expect("det-walk-thread-id", run(t), "determinism-taint",
           "thread-id dependence in `Mix` (reachable from deterministic "
           "function `Det::Step`)")

    # 8h. Thread-id-dependent branching.
    t = _clean_tree()
    t["src/core/det.h"] = t["src/core/det.h"].replace(
        "    return Mix(v) + rng_.Uniform();\n",
        "    auto tid = std::this_thread::get_id();\n"
        "    (void)tid;\n"
        "    return Mix(v) + rng_.Uniform();\n")
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
        "    return Mix(v) + rng_.Uniform();\n",
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
        "    return Mix(v) + rng_.Uniform();\n",
        "    Rng scratch = Rng();\n"
        "    return Mix(v) + scratch.Uniform();\n")
    expect("rng-default", run(t), "rng-seed-flow", "default-constructed")

    # 10e. Raw std engine outside the seam.
    t = _clean_tree()
    t["src/core/det.h"] = t["src/core/det.h"].replace(
        "  Rng rng_;\n", "  Rng rng_;\n  std::mt19937 gen_;\n")
    expect("rng-std-engine", run(t), "rng-seed-flow", "mt19937")

    # 10f. Entropy source.
    t = _clean_tree()
    t["src/core/det.h"] = t["src/core/det.h"].replace(
        "    return Mix(v) + rng_.Uniform();\n",
        "    std::random_device rd;\n"
        "    return Mix(v) + rng_.Uniform() + rd();\n")
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
    # apply_seed strips [[nodiscard]] from the real Status.
    "exc-safety": {},
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
        # compilation database.
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


def apply_seed(rule: str, tree: Tree, manifest: Manifest,
               cman: ConcurrencyManifest
               ) -> Tuple[Manifest, ConcurrencyManifest]:
    tree.update(SEEDS[rule])
    if rule == "trace-contract":
        header = "src/obs/trace_event.h"
        tree[header] = re.sub(r"(enum\s+class\s+TraceEventKind[^{]*\{)",
                              r"\1 kSeededGhost,", tree[header], count=1)
    elif rule == "exc-safety":
        status = "src/common/status.h"
        tree[status] = re.sub(r"class\s*\[\[\s*nodiscard\s*\]\]\s*Status\b",
                              "class Status", tree[status], count=1)
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
    return manifest, cman


# --- CLI --------------------------------------------------------------------


def parse_compdb(path: Path, repo: Path) -> Optional[List[Tuple[str, str]]]:
    """(repo-relative file, full command) per TU, or None without a db.

    The fp-contract family reads the flags each TU compiles under.
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


# The default manifests next to this script, with their parsers, in the
# order of --layers, --concurrency and --determinism.
MANIFESTS = (("layers.toml", parse_manifest),
             ("concurrency.toml", parse_concurrency),
             ("determinism.toml", parse_determinism))


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
    parser.add_argument("--self-test", action="store_true",
                        help="verify every rule catches a seeded violation")
    parser.add_argument("--seed-violation", choices=sorted(SEEDS),
                        default=None,
                        help="inject one in-memory violation of the given "
                             "rule into the real tree; the run must then "
                             "exit 1")
    args = parser.parse_args(argv)

    if args.self_test:
        return self_test()

    repo = args.repo.resolve()
    if not (repo / "src").is_dir():
        print(f"csfc_analyze: {repo} does not look like the repo root",
              file=sys.stderr)
        return 2
    here = Path(__file__).resolve().parent
    parsed = []
    for (default, parse), given in zip(
            MANIFESTS, (args.layers, args.concurrency, args.determinism)):
        path = given or here / default
        if not path.is_file():
            print(f"csfc_analyze: manifest {path} not found",
                  file=sys.stderr)
            return 2
        try:
            parsed.append(parse(path.read_text(encoding="utf-8")))
        except Exception as e:  # noqa: BLE001 - toml errors are user errors
            print(f"csfc_analyze: bad manifest {path}: {e}",
                  file=sys.stderr)
            return 2
    manifest, cman, dman = parsed

    tree = load_tree(repo)
    if args.seed_violation:
        manifest, cman = apply_seed(args.seed_violation, tree, manifest,
                                    cman)

    compdb = args.compdb or repo / "build" / "compile_commands.json"
    if compdb.is_dir():
        compdb = compdb / "compile_commands.json"
    compdb_entries = parse_compdb(compdb, repo)
    if compdb_entries is None:
        print(f"csfc_analyze: no compilation database at {compdb}; "
              f"fp-contract flag verification skipped (the textual FP "
              f"checks still run)", file=sys.stderr)

    findings = run_checks(tree, manifest, cman, dman, compdb_entries)
    for f in findings:
        print(f.render(), file=sys.stderr)
    if findings:
        print(f"csfc_analyze: {len(findings)} finding(s) in {len(tree)} "
              f"files", file=sys.stderr)
        return 1
    print(f"csfc_analyze: OK ({len(tree)} files, 13 rule families)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
