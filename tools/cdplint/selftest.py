#!/usr/bin/env python3
"""cdplint self-test: fixture corpus, suppression/baseline round
trips, SARIF structure, and an end-to-end acceptance check against a
scratch copy of a real source file.

Runs the analyzer the same way users and CI do — as a subprocess of
``python3 tools/cdplint`` — so the CLI surface (exit codes, output
format, flags) is under test too. Plain unittest; also collectable
by pytest.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

CDPLINT = Path(__file__).resolve().parent
FIXTURES = CDPLINT / "fixtures"
REPO = CDPLINT.parents[1]

_FINDING_RE = re.compile(
    r"^(?P<path>.+?):(?P<line>\d+):(?P<col>\d+): "
    r"(?P<sev>error|warning)\[(?P<rule>[\w-]+)\]: ")

# Fixture groups run with --rule <group>; "engine" runs every rule so
# the suppression/waiver machinery (which is rule-agnostic) engages.
RULE_GROUPS = [
    "cycle-arith",
    "exhaustive-switch",
    "include-layering",
    "lock-discipline",
    "nondeterminism",
    "observer-purity",
    "quiesce-before-snapshot",
    "raw-new-delete",
    "snapshot-completeness",
    "stat-liveness",
    "stat-registered",
    "static-mutable",
    "unordered-output",
    "use-after-move",
]


def run_lint(args, cwd):
    """Run cdplint; return (exit_code, stdout, stderr)."""
    proc = subprocess.run(
        [sys.executable, str(CDPLINT)] + args,
        cwd=str(cwd), capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def findings_of(stdout):
    """Set of (path, line, rule) triples parsed from text output."""
    out = set()
    for ln in stdout.splitlines():
        m = _FINDING_RE.match(ln)
        if m:
            out.add((m.group("path"), int(m.group("line")),
                     m.group("rule")))
    return out


def expected_of(group_dir):
    out = set()
    for ln in (group_dir / "expected.txt").read_text().splitlines():
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        loc, rule = ln.split()
        path, line = loc.rsplit(":", 1)
        out.add((path, int(line), rule))
    return out


class FixtureCorpus(unittest.TestCase):
    """Each rule's positives fire at the planted lines and nothing
    else in the group fires — negatives stay silent."""

    def _check_group(self, group, extra_args):
        gdir = FIXTURES / group
        code, out, err = run_lint(
            ["--no-baseline"] + extra_args + ["src"], cwd=gdir)
        got = findings_of(out)
        want = expected_of(gdir)
        self.assertEqual(
            got, want,
            f"{group}: findings diverge from expected.txt\n"
            f"  unexpected: {sorted(got - want)}\n"
            f"  missing:    {sorted(want - got)}\n--- output ---\n"
            f"{out}{err}")
        self.assertEqual(code, 1 if want else 0)

    def test_engine_builtins(self):
        self._check_group("engine", [])


def _add_group_tests():
    for group in RULE_GROUPS:
        def test(self, group=group):
            self._check_group(group, ["--rule", group])
        setattr(FixtureCorpus, f"test_{group.replace('-', '_')}", test)


_add_group_tests()


class SuppressionRoundTrip(unittest.TestCase):
    def test_valid_suppression_silences(self):
        code, out, _ = run_lint(
            ["--no-baseline", "src/sup_ok.cc"],
            cwd=FIXTURES / "engine")
        self.assertEqual(findings_of(out), set(), out)
        self.assertEqual(code, 0)

    def test_reason_is_mandatory(self):
        code, out, _ = run_lint(
            ["--no-baseline", "src/sup_bad.cc"],
            cwd=FIXTURES / "engine")
        rules = {r for _, _, r in findings_of(out)}
        self.assertIn("bad-suppression", rules)
        self.assertIn("raw-new-delete", rules,
                      "a malformed suppression must not suppress")
        self.assertEqual(code, 1)


class BaselineRoundTrip(unittest.TestCase):
    def test_write_then_clean_then_no_grow(self):
        with tempfile.TemporaryDirectory() as td:
            work = Path(td)
            src = work / "src"
            src.mkdir()
            target = src / "grandfathered.cc"
            shutil.copyfile(
                FIXTURES / "engine" / "src" / "sup_bad.cc", target)
            bl = work / "baseline.json"

            code, _, _ = run_lint(
                ["--baseline", str(bl), "--write-baseline", "src"],
                cwd=work)
            self.assertEqual(code, 0)
            self.assertTrue(bl.exists())

            # Grandfathered findings no longer gate.
            code, out, _ = run_lint(
                ["--baseline", str(bl), "src"], cwd=work)
            self.assertEqual(code, 0, out)
            self.assertEqual(findings_of(out), set())

            # ...but a new violation still does (no-grow).
            with target.open("a") as f:
                f.write("\nint *fresh_violation = new int;\n")
            newline = len(target.read_text().splitlines())
            code, out, _ = run_lint(
                ["--baseline", str(bl), "src"], cwd=work)
            self.assertEqual(code, 1, out)
            self.assertEqual(
                findings_of(out),
                {("src/grandfathered.cc", newline, "raw-new-delete")},
                out)


class AcceptanceScratch(unittest.TestCase):
    """ISSUE acceptance: planting std::random_device and a hash-order
    stats dump into a scratch copy of memory_system.cc yields findings
    with the right file:line and rule id, in text and SARIF."""

    ANCHOR = "const unsigned maxDepth = std::max(cdpDepthHighWater, 1u);"

    def _scratch(self, work):
        dst = work / "scratch" / "src" / "sim"
        dst.mkdir(parents=True)
        real = REPO / "src" / "sim" / "memory_system.cc"
        lines = real.read_text().splitlines(keepends=True)
        anchor = next(i for i, ln in enumerate(lines)
                      if self.ANCHOR in ln)
        inject = [
            "    std::unordered_set<Addr> scheduled;\n",
            "    std::random_device planted_rd;\n",
            "    for (const auto pa2 : scheduled) {"
            " std::cout << pa2; }\n",
        ]
        lines[anchor + 1:anchor + 1] = inject
        out = dst / "memory_system.cc"
        out.write_text("".join(lines))
        # 1-based lines of the two planted statements.
        return out, anchor + 3, anchor + 4

    def test_planted_bugs_are_found(self):
        with tempfile.TemporaryDirectory() as td:
            work = Path(td)
            _, rd_line, loop_line = self._scratch(work)
            sarif_path = work / "out.sarif"
            code, out, _ = run_lint(
                ["--no-baseline", "--sarif", str(sarif_path),
                 "scratch"], cwd=work)
            self.assertEqual(code, 1, out)
            got = findings_of(out)
            path = "scratch/src/sim/memory_system.cc"
            self.assertIn((path, rd_line, "nondeterminism"), got, out)
            self.assertIn((path, loop_line, "unordered-output"), got,
                          out)

            sarif = json.loads(sarif_path.read_text())
            self.assertEqual(sarif["version"], "2.1.0")
            driver = sarif["runs"][0]["tool"]["driver"]
            self.assertEqual(driver["name"], "cdplint")
            rule_ids = [r["id"] for r in driver["rules"]]
            results = {
                (res["locations"][0]["physicalLocation"]
                 ["artifactLocation"]["uri"],
                 res["locations"][0]["physicalLocation"]["region"]
                 ["startLine"],
                 res["ruleId"])
                for res in sarif["runs"][0]["results"]}
            self.assertIn((path, rd_line, "nondeterminism"), results)
            self.assertIn((path, loop_line, "unordered-output"),
                          results)
            for res in sarif["runs"][0]["results"]:
                self.assertIn(res["ruleId"], rule_ids)
                self.assertEqual(res["ruleIndex"],
                                 rule_ids.index(res["ruleId"]))

    def test_unmodified_copy_is_clean(self):
        with tempfile.TemporaryDirectory() as td:
            work = Path(td)
            dst = work / "scratch" / "src" / "sim"
            dst.mkdir(parents=True)
            shutil.copyfile(
                REPO / "src" / "sim" / "memory_system.cc",
                dst / "memory_system.cc")
            code, out, _ = run_lint(
                ["--no-baseline", "scratch"], cwd=work)
            self.assertEqual(code, 0, out)


class JobsDeterminism(unittest.TestCase):
    """Output (text and SARIF bytes) is identical at any --jobs
    count; only the stderr timing line may differ."""

    def test_jobs_do_not_change_output(self):
        gdir = FIXTURES / "snapshot-completeness"
        runs = {}
        with tempfile.TemporaryDirectory() as td:
            for jobs in ("1", "4"):
                sarif = Path(td) / f"out-{jobs}.sarif"
                code, out, _ = run_lint(
                    ["--no-baseline", "--rule", "snapshot-completeness",
                     "--jobs", jobs, "--sarif", str(sarif), "src"],
                    cwd=gdir)
                runs[jobs] = (code, out, sarif.read_bytes())
        self.assertEqual(runs["1"][0], runs["4"][0])
        self.assertEqual(runs["1"][1], runs["4"][1],
                         "text output must not depend on --jobs")
        self.assertEqual(runs["1"][2], runs["4"][2],
                         "SARIF bytes must not depend on --jobs")


class DiffMode(unittest.TestCase):
    """--diff <ref> pins the differential contract: its findings are
    a strict subset of the full run (exactly the ones attributable to
    changed lines), byte-identical at any --jobs count, and refused
    in combination with --write-baseline."""

    NEW_FUNC = ("\nint *\nfreshLeak()\n{\n"
                "    return new int; // planted by DiffMode\n}\n")

    def _scratch_repo(self, work):
        """Copy the diffmode fixture, commit it, append a new finding
        to touched.cc only. Returns the line of the fresh finding."""
        shutil.copytree(FIXTURES / "diffmode" / "src", work / "src")
        def git(*args):
            subprocess.run(
                ["git", "-c", "user.email=selftest@cdplint",
                 "-c", "user.name=cdplint selftest", *args],
                cwd=str(work), capture_output=True, check=True)
        git("init", "-q")
        git("add", "-A")
        git("commit", "-q", "-m", "seed")
        target = work / "src" / "touched.cc"
        with target.open("a") as f:
            f.write(self.NEW_FUNC)
        return len(target.read_text().splitlines()) - 1

    def test_diff_is_strict_subset_of_full_run(self):
        with tempfile.TemporaryDirectory() as td:
            work = Path(td)
            fresh_line = self._scratch_repo(work)

            code, full_out, _ = run_lint(
                ["--no-baseline", "src"], cwd=work)
            self.assertEqual(code, 1)
            full = findings_of(full_out)
            # The committed findings plus the planted one.
            self.assertIn(("src/touched.cc", 7, "raw-new-delete"),
                          full)
            self.assertIn(("src/untouched.cc", 6, "raw-new-delete"),
                          full)

            code, diff_out, err = run_lint(
                ["--no-baseline", "--diff", "HEAD", "src"], cwd=work)
            self.assertEqual(code, 1, diff_out + err)
            diff = findings_of(diff_out)
            self.assertEqual(
                diff,
                {("src/touched.cc", fresh_line, "raw-new-delete")},
                "diff mode must report exactly the findings in "
                "changed regions\n" + diff_out)
            self.assertTrue(diff < full,
                            "--diff output must be a strict subset "
                            "of the full run")

    def test_diff_output_identical_at_any_jobs(self):
        with tempfile.TemporaryDirectory() as td:
            work = Path(td)
            self._scratch_repo(work)
            outs = {}
            for jobs in ("1", "4"):
                code, out, _ = run_lint(
                    ["--no-baseline", "--diff", "HEAD",
                     "--jobs", jobs, "src"], cwd=work)
                outs[jobs] = (code, out)
            self.assertEqual(outs["1"], outs["4"],
                             "--diff text output must not depend "
                             "on --jobs")

    def test_untracked_file_is_fully_linted(self):
        with tempfile.TemporaryDirectory() as td:
            work = Path(td)
            self._scratch_repo(work)
            fresh = work / "src" / "brand_new.cc"
            fresh.write_text("int *f() { return new int; }\n")
            code, out, _ = run_lint(
                ["--no-baseline", "--diff", "HEAD", "src"], cwd=work)
            self.assertEqual(code, 1)
            self.assertIn(("src/brand_new.cc", 1, "raw-new-delete"),
                          findings_of(out))

    def test_diff_rejects_write_baseline(self):
        code, _, err = run_lint(
            ["--diff", "HEAD", "--write-baseline", "src"], cwd=REPO)
        self.assertEqual(code, 2)
        self.assertIn("mutually exclusive", err)

    def test_bad_ref_fails_loudly(self):
        with tempfile.TemporaryDirectory() as td:
            work = Path(td)
            self._scratch_repo(work)
            code, _, err = run_lint(
                ["--no-baseline", "--diff", "no-such-ref", "src"],
                cwd=work)
            self.assertEqual(code, 2)
            self.assertIn("git diff", err)


class LayerDagMatchesDocs(unittest.TestCase):
    """The DAG the rule enforces and the one DESIGN.md documents are
    the same table; an edit to either without the other fails here."""

    _EDGE_RE = re.compile(r"^\s*([a-z]+)\s*->\s*(.*?)\s*$")

    def _docs_dag(self):
        text = (REPO / "DESIGN.md").read_text()
        begin, end = "<!-- layer-dag -->", "<!-- /layer-dag -->"
        self.assertIn(begin, text,
                      "DESIGN.md lost its layer-dag block")
        self.assertIn(end, text,
                      "DESIGN.md lost its layer-dag end marker")
        block = text.split(begin)[1].split(end)[0]
        dag = {}
        for ln in block.splitlines():
            m = self._EDGE_RE.match(ln)
            if not m:
                continue
            deps = tuple(d for d in
                         re.split(r"[,\s]+", m.group(2)) if d)
            dag[m.group(1)] = deps
        return dag

    def test_rule_table_matches_design_md(self):
        sys.path.insert(0, str(CDPLINT))
        try:
            from rules.include_layering import LAYER_DAG
        finally:
            sys.path.pop(0)
        self.assertEqual(self._docs_dag(), dict(LAYER_DAG))


class CliSurface(unittest.TestCase):
    def test_list_rules_names_all_rules(self):
        code, out, _ = run_lint(["--list-rules"], cwd=REPO)
        self.assertEqual(code, 0)
        for rid in RULE_GROUPS + ["bad-suppression",
                                  "unused-suppression",
                                  "legacy-waiver"]:
            self.assertIn(rid, out)

    def test_unknown_rule_is_usage_error(self):
        code, _, err = run_lint(
            ["--rule", "no-such-rule", "src"], cwd=REPO)
        self.assertEqual(code, 2)
        self.assertIn("unknown rule", err)

    def test_repo_tree_is_clean(self):
        code, out, err = run_lint(["src", "bench"], cwd=REPO)
        self.assertEqual(code, 0, out + err)


if __name__ == "__main__":
    unittest.main(verbosity=2)
