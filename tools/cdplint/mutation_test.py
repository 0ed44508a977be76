#!/usr/bin/env python3
"""cdplint mutation self-test: snapshot-completeness + CFG rules.

For each mutation, copy the repo's real ``src`` (and ``bench``) tree
to a scratch directory, delete one load-bearing line — a serialized
member, an enum case, a ``quiesce()`` before a checkpoint, a lock
acquisition, a stat increment — and assert the analyzer reports
exactly the expected finding, no more, no less. An analyzer that
goes quiet on any of these mutations has lost the property the rule
exists for, no matter how green the fixture corpus is.

The unmutated scratch copy must be clean under every exercised rule,
so the test also guards the annotation set in ``src/`` against rot.

Run directly or via ctest (``cdplint_mutation``).
"""

from __future__ import annotations

import re
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

CDPLINT = Path(__file__).resolve().parent
REPO = CDPLINT.parents[1]

_FINDING_RE = re.compile(
    r"^(?P<path>.+?):(?P<line>\d+):(?P<col>\d+): "
    r"error\[snapshot-completeness\]: non-static member "
    r"'(?P<member>\w+)' of (?P<cls>\w+) ")

# (class, file with the saveState body, member, the serialization
# line to delete — must occur exactly once in that file).
MUTATIONS = [
    ("Bus", "src/memsys/bus.cc", "busyUntil",
     "w.u64(busyUntil);"),
    ("Cache", "src/memsys/cache.cc", "stamp",
     "w.u64(stamp);"),
    ("Gshare", "src/cpu/gshare.cc", "history",
     "w.u32(history);"),
    ("Tlb", "src/vm/tlb.cc", "stamp",
     "w.u64(stamp);"),
    ("MarkovPrefetcher", "src/prefetch/markov_prefetcher.cc",
     "havePrev", "w.boolean(havePrev);"),
    ("QueuedArbiter", "src/memsys/queued_arbiter.cc",
     "enqueuedCount", "w.u64(enqueuedCount);"),
    ("AdaptiveVamController", "src/core/adaptive_vam.cc",
     "issuedInEpoch", "w.u64(issuedInEpoch);"),
    ("HeapAllocator", "src/workloads/heap_allocator.cc", "mappedTo",
     "w.u32(mappedTo);"),
    ("MemorySystem", "src/sim/memory_system.cc", "lastDrain",
     "w.u64(lastDrain);"),
]


# Flow-sensitive rule mutations: (rule, file, line-needle, which
# occurrence to delete — an int index, or "all" — and the exact
# finding set the mutant must produce, as (path, line) pairs in the
# post-deletion line numbering).
CFG_MUTATIONS = [
    # Delete one enum case from a fully-covered switch with no
    # default: eventKindName() stops covering EventKind::Scan.
    ("exhaustive-switch", "src/obs/event.hh",
     'case EventKind::Scan: return "scan";', 0,
     {("src/obs/event.hh", 68)}),
    # Delete every drain between warm-up and checkpoint (both the
    # cold leg's and the fork leg's — they share one function body,
    # so either alone dominates): the annotated saveCheckpoint()
    # call loses its quiesce.
    ("quiesce-before-snapshot", "bench/bench_common.cc",
     ".quiesce();", "all",
     {("bench/bench_common.cc", 202)}),
    # Rot both requires_quiesced annotations off the checkpoint
    # writers: the raw memsys->saveState inside resurfaces.
    ("quiesce-before-snapshot", "src/snapshot/snapshot.cc",
     "// cdplint: requires_quiesced(memsys)", "all",
     {("src/snapshot/snapshot.cc", 86)}),
    # Delete the lock acquisition in ~ThreadPool: the guarded
    # 'stopping' write right below it goes bare.
    ("lock-discipline", "src/runner/thread_pool.cc",
     "std::lock_guard<std::mutex> lk(mtx);", 0,
     {("src/runner/thread_pool.cc", 39)}),
    # Delete the only increment of a stat: 'trained' turns into a
    # dead counter that dumps as a plausible zero.
    ("stat-liveness", "src/prefetch/markov_prefetcher.cc",
     "++trained;", 0,
     {("src/prefetch/markov_prefetcher.hh", 114)}),
]

CFG_RULES = sorted({m[0] for m in CFG_MUTATIONS})

_ANY_FINDING_RE = re.compile(
    r"^(?P<path>.+?):(?P<line>\d+):(?P<col>\d+): "
    r"(?:error|warning)\[(?P<rule>[\w-]+)\]: ")


def run_lint(args, cwd):
    proc = subprocess.run(
        [sys.executable, str(CDPLINT)] + args,
        cwd=str(cwd), capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def _copy_src(work: Path) -> Path:
    dst = work / "src"
    shutil.copytree(REPO / "src", dst)
    return dst


def _findings(stdout):
    out = set()
    for ln in stdout.splitlines():
        m = _FINDING_RE.match(ln)
        if m:
            out.add((m.group("cls"), m.group("member")))
    return out


def _copy_tree(work: Path) -> None:
    """src plus bench: the CFG mutations reach into both."""
    shutil.copytree(REPO / "src", work / "src")
    shutil.copytree(REPO / "bench", work / "bench")


def _delete_line(target: Path, needle: str, which) -> None:
    """Delete the ``which``-th line containing ``needle`` ("all" for
    every occurrence), asserting the needle count is as expected."""
    lines = target.read_text().splitlines(keepends=True)
    hits = [i for i, ln in enumerate(lines) if needle in ln]
    assert hits, f"{target}: no line contains '{needle}'"
    if which == "all":
        doomed = set(hits)
    else:
        assert len(hits) > which, \
            f"{target}: only {len(hits)} lines contain '{needle}'"
        doomed = {hits[which]}
    target.write_text("".join(
        ln for i, ln in enumerate(lines) if i not in doomed))


def _cfg_findings(stdout):
    out = set()
    for ln in stdout.splitlines():
        m = _ANY_FINDING_RE.match(ln)
        if m:
            out.add((m.group("path"), int(m.group("line"))))
    return out


class MutationKill(unittest.TestCase):
    def test_unmutated_tree_is_clean(self):
        with tempfile.TemporaryDirectory() as td:
            work = Path(td)
            _copy_src(work)
            code, out, err = run_lint(
                ["--no-baseline", "--rule", "snapshot-completeness",
                 "src"], cwd=work)
            self.assertEqual(code, 0, out + err)

    def test_each_mutant_is_killed(self):
        for cls, rel, member, stmt in MUTATIONS:
            with self.subTest(cls=cls, member=member):
                with tempfile.TemporaryDirectory() as td:
                    work = Path(td)
                    _copy_src(work)
                    target = work / rel
                    text = target.read_text()
                    self.assertEqual(
                        text.count(stmt), 1,
                        f"{rel}: expected exactly one '{stmt}'")
                    lines = [ln for ln in
                             text.splitlines(keepends=True)
                             if stmt not in ln]
                    target.write_text("".join(lines))
                    code, out, err = run_lint(
                        ["--no-baseline",
                         "--rule", "snapshot-completeness", "src"],
                        cwd=work)
                    self.assertEqual(code, 1, out + err)
                    self.assertEqual(
                        _findings(out), {(cls, member)},
                        f"mutating {cls}.{member} must yield exactly "
                        f"that finding\n--- output ---\n{out}{err}")


class CfgMutationKill(unittest.TestCase):
    """The flow-sensitive rules must each catch their canonical
    regression when it is introduced into the real tree."""

    def test_unmutated_tree_is_clean(self):
        with tempfile.TemporaryDirectory() as td:
            work = Path(td)
            _copy_tree(work)
            args = ["--no-baseline"]
            for rid in CFG_RULES:
                args += ["--rule", rid]
            code, out, err = run_lint(
                args + ["src", "bench"], cwd=work)
            self.assertEqual(code, 0, out + err)

    def test_each_mutant_is_killed(self):
        for rid, rel, needle, which, expected in CFG_MUTATIONS:
            with self.subTest(rule=rid, file=rel):
                with tempfile.TemporaryDirectory() as td:
                    work = Path(td)
                    _copy_tree(work)
                    _delete_line(work / rel, needle, which)
                    code, out, err = run_lint(
                        ["--no-baseline", "--rule", rid,
                         "src", "bench"], cwd=work)
                    self.assertEqual(code, 1, out + err)
                    self.assertEqual(
                        _cfg_findings(out), expected,
                        f"deleting '{needle}' in {rel} must yield "
                        f"exactly {sorted(expected)}\n"
                        f"--- output ---\n{out}{err}")


if __name__ == "__main__":
    unittest.main(verbosity=2)
