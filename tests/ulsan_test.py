#!/usr/bin/env python3
"""Self-tests for the ulsan static-analysis suite.

Each rule is exercised against a four-way fixture corpus under
tests/fixtures/ulsan/<rule>/: a *firing* snippet the rule must flag, a
*suppressed* snippet where every finding carries a NOLINT, a *clean*
snippet showing the compliant shape, and an *unused* snippet whose
suppression covers nothing (itself an error).  On top of that, the
suppression syntax — blanket NOLINTs, unknown rule names, tokens shared
with clang-tidy, the coro-capture alias — and the CLI surface are tested
directly.

Run from the repo root:  python3 tests/ulsan_test.py
Registered with ctest as ``ulsan.selftest``.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "scripts"))

from ulsan.framework import all_rules, run  # noqa: E402

FIXTURES = REPO / "tests" / "fixtures" / "ulsan"

# rule name -> fixture location; flat rules keep one file per case,
# path-sensitive rules (layering, wire) keep one directory tree per case.
FLAT_RULES = {
    "determinism": FIXTURES / "determinism",
    "shard-affinity": FIXTURES / "shard_affinity",
    "coro-schedule-capture": FIXTURES / "coro_schedule",
    "coro-iife-capture": FIXTURES / "coro_iife",
    "coro-ref-across-await": FIXTURES / "coro_ref",
}
TREE_RULES = {
    "layering": FIXTURES / "layering",
    "wire-hygiene": FIXTURES / "wire",
}
ALL_RULES = {**FLAT_RULES, **TREE_RULES}

CASES = ("firing", "suppressed", "clean", "unused")


def case_paths(rule_name, case):
    base = ALL_RULES[rule_name]
    if rule_name in TREE_RULES:
        return [base / case]
    return [base / f"{case}.cpp"]


def run_case(rule_name, case):
    return run(case_paths(rule_name, case), rule_names=[rule_name])


class RegistryTest(unittest.TestCase):
    def test_expected_rules_registered(self):
        self.assertEqual(sorted(all_rules()), sorted(ALL_RULES))

    def test_rules_are_documented(self):
        for name, r in all_rules().items():
            with self.subTest(rule=name):
                self.assertTrue(r.summary.strip())
                self.assertTrue((r.doc or "").strip(),
                                f"ulsan-{name} has no --explain text")

    def test_fixture_corpus_is_complete(self):
        for name in ALL_RULES:
            for case in CASES:
                for p in case_paths(name, case):
                    with self.subTest(rule=name, case=case):
                        self.assertTrue(p.exists(), f"missing fixture {p}")


class FixtureCorpusTest(unittest.TestCase):
    """The firing/suppressed/clean/unused contract, per rule."""

    def test_firing(self):
        for name in ALL_RULES:
            with self.subTest(rule=name):
                res = run_case(name, "firing")
                self.assertGreaterEqual(len(res.new), 1,
                                        f"ulsan-{name} missed its fixture")
                self.assertTrue(all(f.rule == name for f in res.new))
                self.assertEqual(res.errors, [])

    def test_suppressed(self):
        for name in ALL_RULES:
            with self.subTest(rule=name):
                res = run_case(name, "suppressed")
                self.assertEqual(res.new, [],
                                 f"suppression did not cover ulsan-{name}: "
                                 f"{[f.render() for f in res.new]}")
                self.assertGreaterEqual(len(res.suppressed), 1)
                self.assertEqual(res.errors, [],
                                 [f.render() for f in res.errors])
                self.assertFalse(res.failed)

    def test_clean(self):
        for name in ALL_RULES:
            with self.subTest(rule=name):
                res = run_case(name, "clean")
                self.assertEqual(res.new, [],
                                 f"false positive from ulsan-{name}: "
                                 f"{[f.render() for f in res.new]}")
                self.assertEqual(res.suppressed, [])
                self.assertEqual(res.errors, [])

    def test_unused_suppression_is_an_error(self):
        for name in ALL_RULES:
            with self.subTest(rule=name):
                res = run_case(name, "unused")
                self.assertEqual(res.new, [])
                unused = [f for f in res.errors
                          if f.rule == "unused-suppression"]
                self.assertGreaterEqual(len(unused), 1,
                                        f"unused ulsan-{name} suppression "
                                        f"not reported")
                self.assertTrue(res.failed)


class SuppressionSyntaxTest(unittest.TestCase):
    def _run_snippet(self, code, rule_names=None):
        with tempfile.TemporaryDirectory() as td:
            p = Path(td) / "snippet.cpp"
            p.write_text(code)
            return run([p], rule_names=rule_names)

    def test_blanket_nolint_rejected(self):
        res = self._run_snippet("int x = 0;  // NOLINT\n")
        self.assertTrue(any(f.rule == "suppression-syntax"
                            and "blanket" in f.message
                            for f in res.errors))

    def test_unknown_ulsan_rule_rejected(self):
        res = self._run_snippet("int x = 0;  // NOLINT(ulsan-nonexistent)\n")
        self.assertTrue(any(f.rule == "suppression-syntax"
                            and "unknown rule" in f.message
                            for f in res.errors))

    def test_clang_tidy_tokens_ignored(self):
        res = self._run_snippet(
            "int x = 0;  // NOLINT(bugprone-use-after-move)\n")
        self.assertEqual(res.errors, [])
        self.assertFalse(res.failed)

    def test_shared_list_suppresses_both_tools(self):
        res = self._run_snippet(
            "#include <cstdlib>\n"
            "// NOLINTNEXTLINE(cert-msc30-c, ulsan-determinism)\n"
            "int roll() { return rand(); }\n",
            rule_names=["determinism"])
        self.assertEqual(res.new, [])
        self.assertEqual(len(res.suppressed), 1)
        self.assertEqual(res.errors, [])

    LEGACY = ("void arm() {\n"
              "  int hits = 0;\n"
              "  eng.schedule_after(100, [&hits] { ++hits; });"
              "  // NOLINT(coro-capture)\n"
              "}\n")

    def test_unprefixed_coro_token_suppresses_nothing(self):
        res = self._run_snippet(self.LEGACY,
                                rule_names=["coro-schedule-capture"])
        self.assertEqual(res.errors, [])  # a clang-tidy token: ignored
        self.assertEqual(len(res.new), 1)  # the finding is NOT suppressed

    def test_umbrella_alias_covers_both_coro_rules(self):
        code = ("template <typename T> struct Task {};\n"
                "Task<void> delay(int);\n"
                "void spawn(int& c) {\n"
                "  // NOLINTNEXTLINE(ulsan-coro-capture)\n"
                "  auto t = [&c]() -> Task<void> { co_await delay(1);"
                " ++c; }();\n"
                "  (void)t;\n"
                "}\n")
        res = self._run_snippet(code, rule_names=["coro-iife-capture"])
        self.assertEqual(res.new, [])
        self.assertEqual(len(res.suppressed), 1)
        self.assertEqual(res.errors, [])


class CliTest(unittest.TestCase):
    """End-to-end through ``python3 -m ulsan`` as check.sh invokes it."""

    def _ulsan(self, *argv):
        env = dict(os.environ,
                   PYTHONPATH=str(REPO / "scripts"),
                   PYTHONDONTWRITEBYTECODE="1")
        return subprocess.run(
            [sys.executable, "-m", "ulsan", *argv],
            cwd=REPO, env=env, capture_output=True, text=True)

    def test_src_tree_is_clean(self):
        proc = self._ulsan("src")
        self.assertEqual(proc.returncode, 0,
                         f"stdout:\n{proc.stdout}\nstderr:\n{proc.stderr}")
        self.assertIn("ulsan: clean", proc.stdout)

    def test_json_report_on_firing_fixture(self):
        rel = FLAT_RULES["determinism"].relative_to(REPO) / "firing.cpp"
        with tempfile.TemporaryDirectory() as td:
            out = Path(td) / "report.json"
            proc = self._ulsan(str(rel), "--json", str(out), "--quiet")
            self.assertEqual(proc.returncode, 1)
            payload = json.loads(out.read_text())
        self.assertEqual(payload["tool"], "ulsan")
        self.assertEqual(payload["counts"]["new"], 3)
        for f in payload["findings"]:
            self.assertTrue(f["rule"].startswith("ulsan-"))
            self.assertEqual(f["status"], "new")

    def test_list_rules(self):
        proc = self._ulsan("--list-rules")
        self.assertEqual(proc.returncode, 0)
        for name in ALL_RULES:
            self.assertIn(f"ulsan-{name}", proc.stdout)

    def test_explain(self):
        proc = self._ulsan("--explain", "layering")
        self.assertEqual(proc.returncode, 0)
        self.assertIn("sockets", proc.stdout)

    def test_unknown_rule_is_usage_error(self):
        proc = self._ulsan("src", "--rules", "no-such-rule")
        self.assertEqual(proc.returncode, 2)


if __name__ == "__main__":
    unittest.main(verbosity=2)
