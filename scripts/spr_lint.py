#!/usr/bin/env python3
"""spr_lint: repo-specific determinism and hygiene lint for the spr tree.

The repo's core contract is bit-identical statuses, anchors and reports
across thread counts, machines and reruns. This lint enforces
the source-level invariants that keep that true, as named rules:

  wallclock         No wall-clock time, thread ids or pointer values where
                    they could flow into reports or serialized artifacts:
                    std::chrono::system_clock, time()/localtime()/gmtime()/
                    strftime()/gettimeofday(), std::this_thread::get_id and
                    %p-style pointer formatting are banned everywhere under
                    src/.  (steady_clock durations for *console* timing are
                    fine and used by core/experiment.)
  raw-rng           No unseeded/global randomness outside the seeded RNG
                    wrapper (src/deploy/rng.*): rand(), srand(),
                    std::random_device, and direct std::mt19937 /
                    default_random_engine construction.
  unordered-iter    No iteration over std::unordered_map/std::unordered_set
                    (hash order is implementation- and run-dependent), and
                    no unordered containers at all in the report/serialize/
                    merge layer (src/report/, src/stats/).  Keyed lookups
                    elsewhere are fine.
  raw-new           No raw `new` / `delete` in src/ — allocation goes
                    through containers, smart pointers or util/arena.h.
  header-hygiene    Every header under src/ starts with #pragma once, and
                    project includes are root-relative ("util/check.h"),
                    never parent-relative ("../util/check.h").

False positives are silenced per line with a justified pragma:

    foo();  // spr-lint: allow(raw-new) reason why this one is fine

or for a whole file (first 10 lines):

    // spr-lint-file: allow(wallclock) reason

A pragma with no reason text is itself a finding.  The lint is token-level
by default (comments and string/char literals are stripped before rules
run); when python libclang bindings are importable, the unordered-iter rule
upgrades to an AST walk over range-for statements.

Exit status: 0 when clean, 1 when any finding, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import os
import re
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from spr_source import (Finding, bind_comment_pragmas, collect_files,
                        parse_pragmas, relpath, strip_comments_and_strings)

try:
    import clang.cindex  # type: ignore

    HAVE_LIBCLANG = True
except Exception:  # pragma: no cover - environment dependent
    HAVE_LIBCLANG = False

RULES = {
    "wallclock": "wall-clock/thread-id/pointer value in deterministic code",
    "raw-rng": "randomness outside the seeded RNG wrapper",
    "unordered-iter": "hash-order iteration (or unordered container in "
    "report/serialize path)",
    "raw-new": "raw new/delete outside containers/arena",
    "header-hygiene": "public header include hygiene",
    "pragma": "malformed or unjustified spr-lint pragma",
}

# Paths whose *whole purpose* is nondeterministic-source wrapping.
RAW_RNG_ALLOWED = ("deploy/rng.h", "deploy/rng.cpp")

# Report/serialize/merge layer: no unordered containers at all.
ORDERED_ONLY_DIRS = ("src/report/", "src/stats/")

WALLCLOCK_PATTERNS = [
    (re.compile(r"\bsystem_clock\b"), "std::chrono::system_clock"),
    (re.compile(r"\bstd::time\s*\("), "std::time()"),
    (re.compile(r"[^:\w]time\s*\(\s*(NULL|nullptr|0)\s*\)"), "time(NULL)"),
    (re.compile(r"\blocaltime\s*\("), "localtime()"),
    (re.compile(r"\bgmtime\s*\("), "gmtime()"),
    (re.compile(r"\bstrftime\s*\("), "strftime()"),
    (re.compile(r"\bgettimeofday\s*\("), "gettimeofday()"),
    (re.compile(r"\bthis_thread::get_id\s*\("), "std::this_thread::get_id()"),
    (re.compile(r"%p\b"), "%p pointer formatting"),
]

RAW_RNG_PATTERNS = [
    (re.compile(r"[^\w:.]s?rand\s*\("), "rand()/srand()"),
    (re.compile(r"\brandom_device\b"), "std::random_device"),
    (re.compile(r"\bmt19937(_64)?\b"), "direct std::mt19937"),
    (re.compile(r"\bdefault_random_engine\b"), "std::default_random_engine"),
]

# `new` used as an allocation expression. Excludes placement-new-ish forms
# by virtue of the codebase not using them; operator-overload declarations
# ("operator new") are matched and must be pragma'd if ever added.
RAW_NEW_RE = re.compile(r"(^|[^\w.])new\s+[\w:<]")
RAW_DELETE_RE = re.compile(r"(^|[^\w.])delete(\s*\[\s*\])?\s+[\w:*(]")

UNORDERED_DECL_RE = re.compile(
    r"\bstd::unordered_(map|set|multimap|multiset)\s*<[^;{}]*?>\s+(\w+)"
)
UNORDERED_ANY_RE = re.compile(r"\bstd::unordered_(map|set|multimap|multiset)\b")
RANGE_FOR_RE = re.compile(r"\bfor\s*\([^;()]*?:\s*\(?\s*([A-Za-z_]\w*)")


def lint_wallclock(rel: str, lines: list[str], emit):
    for idx, line in enumerate(lines, start=1):
        for pattern, what in WALLCLOCK_PATTERNS:
            if pattern.search(line):
                emit(idx, "wallclock", f"{what} is nondeterministic across "
                     "runs/machines; reports must not depend on it")


def lint_raw_rng(rel: str, lines: list[str], emit):
    if rel.endswith(RAW_RNG_ALLOWED):
        return
    for idx, line in enumerate(lines, start=1):
        for pattern, what in RAW_RNG_PATTERNS:
            if pattern.search(line):
                emit(idx, "raw-rng", f"{what} outside deploy/rng — use the "
                     "seeded spr::Rng wrapper")


def lint_raw_new(rel: str, lines: list[str], emit):
    for idx, line in enumerate(lines, start=1):
        if RAW_NEW_RE.search(line):
            emit(idx, "raw-new", "raw `new` — use make_unique/containers "
                 "or util/arena.h")
        if RAW_DELETE_RE.search(line):
            emit(idx, "raw-new", "raw `delete` — ownership belongs in "
                 "smart pointers/containers")


def lint_unordered_token(rel: str, lines: list[str], emit):
    in_report_layer = any(d in rel for d in ORDERED_ONLY_DIRS) or (
        "serialize" in os.path.basename(rel)
    )
    unordered_vars: set[str] = set()
    for idx, line in enumerate(lines, start=1):
        if in_report_layer and UNORDERED_ANY_RE.search(line):
            emit(idx, "unordered-iter", "unordered container in the "
                 "report/serialize layer — hash order would leak into "
                 "artifacts; use std::map/std::vector")
            continue
        for m in UNORDERED_DECL_RE.finditer(line):
            unordered_vars.add(m.group(2))
    if in_report_layer or not unordered_vars:
        return
    for idx, line in enumerate(lines, start=1):
        m = RANGE_FOR_RE.search(line)
        if m and m.group(1) in unordered_vars:
            emit(idx, "unordered-iter", f"range-for over unordered container "
                 f"'{m.group(1)}' — iteration order is hash-order; copy into "
                 "a sorted container first")


def lint_unordered_clang(path: str, rel: str, emit) -> bool:
    """AST-accurate unordered-iter rule; returns False to request fallback."""
    try:
        index = clang.cindex.Index.create()
        tu = index.parse(path, args=["-std=c++20", "-Isrc"])
    except Exception:
        return False
    from clang.cindex import CursorKind

    for cursor in tu.cursor.walk_preorder():
        if cursor.kind != CursorKind.CXX_FOR_RANGE_STMT:
            continue
        children = list(cursor.get_children())
        if len(children) < 2:
            continue
        range_expr = children[-2]
        type_name = range_expr.type.get_canonical().spelling
        if "unordered_" in type_name:
            emit(
                cursor.location.line,
                "unordered-iter",
                "range-for over unordered container — iteration order is "
                "hash-order; copy into a sorted container first",
            )
    return True


def lint_header_hygiene(rel: str, raw_lines: list[str], lines: list[str], emit):
    if not rel.endswith(".h"):
        return
    first_directive = None
    for idx, line in enumerate(lines, start=1):
        if line.strip():
            first_directive = (idx, line.strip())
            break
    if first_directive is None or first_directive[1] != "#pragma once":
        emit(first_directive[0] if first_directive else 1, "header-hygiene",
             "header must start with #pragma once")
    for idx, line in enumerate(raw_lines, start=1):
        m = re.match(r'\s*#\s*include\s+"([^"]+)"', line)
        if m and m.group(1).startswith(".."):
            emit(idx, "header-hygiene", f'parent-relative include '
                 f'"{m.group(1)}" — include root-relative from src/')


def lint_file(path: str, root: str, use_clang: bool) -> list[Finding]:
    rel = relpath(path, root)
    try:
        with open(path, "r", encoding="utf-8", errors="replace") as f:
            text = f.read()
    except OSError as e:
        return [Finding(rel, 0, "pragma", f"unreadable: {e}")]

    raw_lines = text.split("\n")
    findings: list[Finding] = []
    pragmas = parse_pragmas(raw_lines, findings, rel, "spr-lint", RULES)
    lines = strip_comments_and_strings(text)
    bind_comment_pragmas(pragmas, lines)

    suppressed: list[Finding] = []

    def emit(line_no: int, rule: str, message: str):
        if pragmas.allows(line_no, rule):
            suppressed.append(Finding(rel, line_no, rule, message))
            return
        findings.append(Finding(rel, line_no, rule, message))

    lint_wallclock(rel, lines, emit)
    lint_raw_rng(rel, lines, emit)
    lint_raw_new(rel, lines, emit)
    if not (use_clang and lint_unordered_clang(path, rel, emit)):
        lint_unordered_token(rel, lines, emit)
    lint_header_hygiene(rel, raw_lines, lines, emit)
    return findings


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", default=None,
                        help="files or directories (default: src tools)")
    parser.add_argument("--root", default=os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))),
        help="repo root findings are reported relative to")
    parser.add_argument("--list-rules", action="store_true")
    parser.add_argument("--no-clang", action="store_true",
                        help="force the token-level unordered-iter rule even "
                        "when libclang is importable")
    args = parser.parse_args(argv)

    if args.list_rules:
        for name, doc in RULES.items():
            print(f"{name:16} {doc}")
        return 0

    paths = args.paths or ["src", "tools"]
    files = collect_files(paths, args.root)
    if not files:
        print("spr_lint: no input files", file=sys.stderr)
        return 2

    use_clang = HAVE_LIBCLANG and not args.no_clang
    findings: list[Finding] = []
    for path in files:
        findings.extend(lint_file(path, args.root, use_clang))

    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    for finding in findings:
        print(finding)
    mode = "libclang" if use_clang else "token-level"
    print(
        f"spr_lint: {len(files)} files, {len(findings)} finding(s) ({mode})",
        file=sys.stderr,
    )
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
