#!/usr/bin/env python3
"""Fixture proofs for spr_analyze: every rule must fire where the corpus
says it fires and stay silent on the sanctioned idioms.

Fixture convention: files under fixtures/ carry `EXPECT[rule-name]`
comment markers on the exact line a finding is required. `*_pass.cxx` and
`header_good.h` carry no markers and must come back clean. The pragma
fixtures assert the escape-hatch machinery itself (reason-required,
unknown-rule rejection, comment-line binding).

Run directly (`python3 test_spr_analyze.py`) or through ctest
(`spr_analyze_fixtures`).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import sys
import tempfile
import unittest
from types import SimpleNamespace

_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(os.path.dirname(_HERE))
sys.path.insert(0, _HERE)

import spr_analyze  # noqa: E402
from rules import RULES  # noqa: E402

_FIXTURES = os.path.join(_HERE, "fixtures")
_EXPECT_RE = re.compile(r"EXPECT\[([a-z\-]+)\]")


def expected_findings(path: str) -> set[tuple[int, str]]:
    out = set()
    with open(path) as f:
        for idx, line in enumerate(f, start=1):
            for m in _EXPECT_RE.finditer(line):
                out.add((idx, m.group(1)))
    return out


def analyze(path: str, engine: str = "fallback") -> set[tuple[int, str]]:
    findings = spr_analyze.analyze_files([path], _FIXTURES, engine)
    return {(f.line, f.rule) for f in findings}


# Marker-driven fixtures: findings must equal the EXPECT set, exactly.
_MARKED = [
    "arena_escape_fire.cxx", "arena_escape_pass.cxx",
    "view_lifetime_fire.cxx", "view_lifetime_pass.cxx",
    "determinism_taint_fire.cxx", "determinism_taint_pass.cxx",
    "merge_ordering_fire.cxx", "merge_ordering_pass.cxx",
    "line_rules_fire.cxx", "line_rules_pass.cxx",
    # A file named `serialize*` sits in the ordered-only layer.
    "serialize_bad.cxx",
    "header_bad.h", "header_good.h",
]


class FixtureCorpus(unittest.TestCase):
    def test_marked_fixtures(self):
        for name in _MARKED:
            with self.subTest(fixture=name):
                path = os.path.join(_FIXTURES, name)
                self.assertEqual(analyze(path), expected_findings(path),
                                 f"{name}: findings diverge from EXPECT "
                                 "markers")

    def test_every_fixture_is_asserted(self):
        pragma = {"pragma_fire.cxx", "pragma_pass.cxx"}
        self.assertEqual(set(os.listdir(_FIXTURES)), set(_MARKED) | pragma)

    def test_every_rule_has_fire_coverage(self):
        """No rule may silently die: the corpus proves each one fires."""
        covered = set()
        for name in _MARKED:
            covered |= {r for _, r in expected_findings(
                os.path.join(_FIXTURES, name))}
        expected = set(RULES) - {"pragma"}  # pragma: proven below
        self.assertEqual(len(expected), 9)
        self.assertEqual(covered, expected,
                         "rules without a must-fire fixture")


class PragmaMachinery(unittest.TestCase):
    def test_pragma_fire(self):
        path = os.path.join(_FIXTURES, "pragma_fire.cxx")
        got = analyze(path)
        with open(path) as f:
            lines = f.readlines()

        def line_of(text: str) -> int:
            return next(i for i, l in enumerate(lines, 1) if text in l)

        unknown = line_of("made-up-rule")
        self.assertEqual(got, {
            # allow without a reason, still covering its own line
            (line_of("allow(view-lifetime)"), "pragma"),
            (line_of("allow(raw-rng)"), "pragma"),
            # unknown rule names
            (unknown, "pragma"),
            (line_of("not-a-rule"), "pragma"),
            (unknown + 1, "view-lifetime"),  # bogus allow suppresses nothing
        })

    def test_pragma_pass(self):
        path = os.path.join(_FIXTURES, "pragma_pass.cxx")
        self.assertEqual(analyze(path), set(),
                         "justified same-line and comment-line pragmas must "
                         "suppress the findings they cover")


class Baseline(unittest.TestCase):
    def test_src_and_tools_are_clean(self):
        """The tree-wide zero-findings baseline the CI job gates."""
        files = spr_analyze.collect_files(["src", "tools"], _ROOT)
        findings = spr_analyze.analyze_files(files, _ROOT, "fallback")
        self.assertEqual([str(f) for f in findings], [])


class Usage(unittest.TestCase):
    def test_missing_path_is_a_usage_error(self):
        with contextlib.redirect_stderr(io.StringIO()):
            self.assertEqual(spr_analyze.main(["src", "no-such-dir"]), 2)


class Sarif(unittest.TestCase):
    def test_sarif_shape(self):
        path = os.path.join(_FIXTURES, "arena_escape_fire.cxx")
        findings = spr_analyze.analyze_files([path], _FIXTURES, "fallback")
        self.assertTrue(findings)
        with tempfile.TemporaryDirectory() as tmp:
            out = os.path.join(tmp, "out.sarif")
            spr_analyze.write_sarif(findings, out)
            with open(out) as f:
                sarif = json.load(f)
        self.assertEqual(sarif["version"], "2.1.0")
        run = sarif["runs"][0]
        self.assertEqual(run["tool"]["driver"]["name"], "spr_analyze")
        rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        for result in run["results"]:
            self.assertIn(result["ruleId"], rule_ids)
            loc = result["locations"][0]["physicalLocation"]
            self.assertGreaterEqual(loc["region"]["startLine"], 1)


class EngineAgreement(unittest.TestCase):
    @unittest.skipUnless(spr_analyze.HAVE_LIBCLANG,
                         "libclang bindings not importable")
    def test_fixtures_agree_across_engines(self):
        for name in sorted(os.listdir(_FIXTURES)):
            path = os.path.join(_FIXTURES, name)
            self.assertEqual(analyze(path, "clang"),
                             analyze(path, "fallback"),
                             f"{name}: engines disagree")

    def test_clang_keeps_only_the_analyzed_file(self):
        """An included header whose name ends like the analyzed file's
        (lgf.h for gf.h) is not the analyzed file."""
        import clang_backend

        def cursor_in(name):
            return SimpleNamespace(location=SimpleNamespace(
                file=SimpleNamespace(name=name)))

        source = os.path.abspath(os.path.join("src", "routing", "gf.h"))
        self.assertTrue(clang_backend._in_file(
            cursor_in(os.path.join("src", "routing", "gf.h")), source))
        for other in ("src/routing/lgf.h", "src/routing/slgf.h",
                      "src/graph/gf.h"):
            self.assertFalse(clang_backend._in_file(cursor_in(other), source))


if __name__ == "__main__":
    unittest.main(verbosity=2)
