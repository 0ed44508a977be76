#!/usr/bin/env python3
"""Paired perfbench runs: a base revision against this checkout.

Usage (from the root of a checkout):

    python3 tools/perfpair.py --base REV [--workloads W ...]
        [--seeds N ...] [--pairs P] [--seconds S] [--trace-pairs K]
        [--out BENCH_x.json] [--title TEXT] [--workdir DIR]
    python3 tools/perfpair.py --base REV --digests-only [--seeds N ...]
    python3 tools/perfpair.py --compare A.json B.json

REV is checked out in a `git worktree` under the work directory. Each
side is built and run through its own perfbench/run.py, with its own
CARGO_TARGET_DIR, so the two builds never share a tree. The first run
of each side builds it and is discarded.

Every pair runs both sides once, alternating which side goes first.
Every run is kept. The digest line of every run must be identical
across the two sides, or the script fails. The summary per
workload/seed (medians, inclusive quartiles, pairs in which the change
is better, all runs) is written as BENCH_*.json in the schema of the
committed files, and printed as the EXPERIMENTS.md table. With
--trace-pairs K, K more pairs run with --trace 1 at the first seed and
their per-layer rows land in ledger_* blocks.

--digests-only runs each workload once per side and seed for one
second and compares the digest lines: exit 0 when they match, 1 when
they differ, 2 on any other failure.

--base HEAD pairs the checkout with its own commit: on a clean tree
that measures the host's run-to-run spread.

--compare A B runs nothing. It re-summarizes two committed BENCH
files: for every workload/seed both carry, every summary metric and
each series (the parent runs and the change runs), it compares B's
median with A's and flags the metric when it moved by more than the
interquartile range of A's runs. With A a --base HEAD file, that asks
whether B's series lies outside the host's run-to-run spread.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("pointer-chase", "compute-resident", "warm-fork-sweep")
SUMMARY_METRICS = ("sim_uops_per_s", "wall_s", "setup_s", "peak_rss_mb")
LEDGER_METRICS = ("workloads.build_s", "workloads.next_ns_per_uop",
                  "sweep.fork_ctor_s", "snapshot.save_s",
                  "snapshot.restore_s", "snapshot.bytes")


class Side:
    """One checkout with its own perfbench build directory."""

    def __init__(self, label, root, target):
        self.label = label
        self.root = root
        self.target = target

    def run(self, workload, seed, seconds, trace):
        """One perfbench/run.py run: its result JSON, plus the digest
        line as "_digest" and the host descriptor as "_host"."""
        env = dict(os.environ, CARGO_TARGET_DIR=str(self.target))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace",
             str(trace)],
            cwd=self.root, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"{self.label} {workload} seed {seed}: "
                               f"run.py exited {proc.returncode}\n"
                               f"{proc.stderr[-2000:]}")
        digests = [ln for ln in lines if ln.startswith("digest ")]
        descriptor = [ln for ln in lines if ln.startswith("descriptor ")]
        result = json.loads(lines[-1])
        result["_digest"] = digests[-1] if digests else ""
        if descriptor:
            result["_host"] = json.loads(descriptor[-1].split(" ", 1)[1])
        return result


def better_is_higher():
    """End-to-end metric name -> True when higher is better."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"] == "higher" for m in spec["end_to_end"]}


def quartiles(runs):
    """First and third quartile, inclusive method (one run: itself)."""
    if len(runs) < 2:
        return [runs[0], runs[0]]
    q = statistics.quantiles(runs, n=4, method="inclusive")
    return [q[0], q[2]]


def summarize(parent, change, higher):
    """The per-metric block of the BENCH_*.json schema."""
    pm, cm = statistics.median(parent), statistics.median(change)
    wins = sum((c > p) if higher else (c < p)
               for p, c in zip(parent, change))
    return {
        "parent_median": pm,
        "parent_iqr": quartiles(parent),
        "change_median": cm,
        "change_iqr": quartiles(change),
        "change_vs_parent": round(cm / pm - 1, 4) if pm else 0.0,
        "change_better_pairs": f"{wins}/{len(parent)}",
        "parent_runs": parent,
        "change_runs": change,
    }


def fmt(metric, v):
    if metric == "sim_uops_per_s":
        return f"{v / 1e6:.2f} M"
    if metric.endswith("_s"):
        return f"{v * 1e3:.1f} ms" if v < 0.1 else f"{v:.3f}"
    return f"{v:.2f}"


def table(results):
    """The EXPERIMENTS.md table of a results block."""
    out = ["| workload / seed | pairs | metric | parent median [IQR] | "
           "change median [IQR] | change | change better |",
           "|---|---|---|---|---|---|---|"]
    for key, r in results.items():
        for m in SUMMARY_METRICS:
            s = r[m]
            pi, ci = s["parent_iqr"], s["change_iqr"]
            out.append(
                f"| {key} | {r['pairs']} | {m} | "
                f"{fmt(m, s['parent_median'])} [{fmt(m, pi[0])}–"
                f"{fmt(m, pi[1])}] | {fmt(m, s['change_median'])} "
                f"[{fmt(m, ci[0])}–{fmt(m, ci[1])}] | "
                f"{s['change_vs_parent'] * 100:+.1f}% | "
                f"{s['change_better_pairs']} |")
    return "\n".join(out)


def ledger_table(blocks):
    out = ["| ledger row (`--trace 1`) | parent | change |",
           "|---|---|---|"]
    for key, b in blocks.items():
        for m, s in b["metrics"].items():
            out.append(f"| {key} `{m}` | {s['parent_median']:.6g} | "
                       f"{s['change_median']:.6g} |")
    return "\n".join(out)


def run_pairs(base, head, workload, seed, pairs, seconds, trace):
    """Alternate the sides; return (base runs, change runs)."""
    runs = {base.label: [], head.label: []}
    for i in range(pairs):
        order = (base, head) if i % 2 == 0 else (head, base)
        for side in order:
            runs[side.label].append(
                side.run(workload, seed, seconds, trace))
        print(f"  {workload} seed {seed} trace {trace}: pair {i + 1}"
              f"/{pairs}", file=sys.stderr)
    return runs[base.label], runs[head.label]


class DigestMismatch(Exception):
    pass


def check_digests(parent, change, what):
    """The digest every run printed; raise if any two differ."""
    digests = {r["_digest"] for r in parent + change}
    if len(digests) != 1:
        raise DigestMismatch(f"{what}: digests differ: {sorted(digests)}")
    return digests.pop().rsplit(" ", 1)[-1]


def result_block(parent, change, seconds, higher):
    block = {
        "pairs": len(parent),
        "seconds_per_run": seconds,
        "digest_identical": True,
        "digest": check_digests(parent, change, "results"),
        "failed": {
            "parent": sum(r["failed"] for r in parent),
            "change": sum(r["failed"] for r in change),
            "attempted_parent": sum(r["attempted"] for r in parent),
            "attempted_change": sum(r["attempted"] for r in change),
        },
        "sim_ipc_identical": len({r["metrics"]["sim_ipc"]["value"]
                                  for r in parent + change}) == 1,
        "ok_frac_all_one": all(r["metrics"]["ok_frac"]["value"] == 1
                               for r in parent + change),
    }
    for m in SUMMARY_METRICS:
        block[m] = summarize([r["metrics"][m]["value"] for r in parent],
                             [r["metrics"][m]["value"] for r in change],
                             higher[m])
    return block


def compare(a, b):
    """The --compare rows of BENCH dicts @a and @b: (workload/seed,
    metric, series, A median, A IQR, B median, moved) for every
    block, summary metric and series both carry."""
    rows = []
    for key, ra in a["results"].items():
        rb = b["results"].get(key)
        if rb is None:
            continue
        for m in SUMMARY_METRICS:
            for series in ("parent", "change"):
                runs = f"{series}_runs"
                if runs not in ra.get(m, {}) or runs not in rb.get(m, {}):
                    continue
                am = statistics.median(ra[m][runs])
                q1, q3 = quartiles(ra[m][runs])
                bm = statistics.median(rb[m][runs])
                rows.append((key, m, series, am, q3 - q1, bm,
                             abs(bm - am) > q3 - q1))
    return rows


def compare_table(rows, a_name, b_name):
    out = [f"| workload / seed | metric | series | {a_name} median "
           f"(IQR) | {b_name} median | moved |",
           "|---|---|---|---|---|---|"]
    for key, m, series, am, iqr, bm, moved in rows:
        out.append(f"| {key} | {m} | {series} | {fmt(m, am)} "
                   f"({fmt(m, iqr)}) | {fmt(m, bm)} | "
                   f"{'**yes**' if moved else 'no'} |")
    return "\n".join(out)


def git(*args, cwd=ROOT):
    return subprocess.run(["git", *args], cwd=cwd, check=True, text=True,
                          stdout=subprocess.PIPE).stdout.strip()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--base", help="base revision")
    mode.add_argument("--compare", nargs=2, type=Path,
                      metavar=("A", "B"),
                      help="flag the medians of BENCH file B that lie "
                           "outside the IQR of A's runs")
    ap.add_argument("--workloads", nargs="+", default=list(WORKLOADS))
    ap.add_argument("--seeds", nargs="+", type=int, default=[1, 2002])
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace-pairs", type=int, default=0)
    ap.add_argument("--digests-only", action="store_true")
    ap.add_argument("--out", type=Path, help="BENCH_*.json to write")
    ap.add_argument("--title", default="")
    ap.add_argument("--workdir", type=Path,
                    help="worktree and build directory (default: a "
                         "temporary one, removed at exit)")
    args = ap.parse_args()

    if args.compare:
        a, b = (json.loads(p.read_text()) for p in args.compare)
        print(compare_table(compare(a, b), args.compare[0].name,
                            args.compare[1].name))
        return 0
    try:
        sha = git("rev-parse", "--verify", f"{args.base}^{{commit}}")
    except subprocess.CalledProcessError:
        print(f"perfpair: unknown revision {args.base}", file=sys.stderr)
        return 2
    work = args.workdir or Path(tempfile.mkdtemp(prefix="perfpair-"))
    work.mkdir(parents=True, exist_ok=True)
    tree = (work / f"base-{sha[:12]}").resolve()
    if tree.exists():  # left by an interrupted run
        shutil.rmtree(tree)
        git("worktree", "prune")
    git("worktree", "add", "--detach", str(tree), sha)
    base = Side("parent", tree, work.resolve() / "base-build")
    head = Side("change", ROOT, work.resolve() / "head-build")
    try:
        if not (tree / "perfbench" / "run.py").exists():
            print(f"perfpair: {args.base} has no perfbench/run.py",
                  file=sys.stderr)
            return 2
        if args.digests_only:
            return digests_only(base, head, args)
        return measure(base, head, args, sha)
    except DigestMismatch as e:
        print(f"perfpair: {e}", file=sys.stderr)
        return 1
    except (RuntimeError, subprocess.CalledProcessError) as e:
        print(f"perfpair: {e}", file=sys.stderr)
        return 2
    finally:
        git("worktree", "remove", "--force", str(tree))
        if not args.workdir:
            shutil.rmtree(work, ignore_errors=True)


def digests_only(base, head, args):
    status = 0
    for seed in args.seeds:
        for w in args.workloads:
            p = base.run(w, seed, 1, 0)["_digest"]
            c = head.run(w, seed, 1, 0)["_digest"]
            print(f"parent {p}\nchange {c}")
            if p != c:
                status = 1
    print("perfpair: digests " + ("differ" if status else "match"))
    return status


def measure(base, head, args, sha):
    higher = better_is_higher()
    for side in (base, head):  # build each side; the run is discarded
        host = side.run(args.workloads[0], args.seeds[0], 1, 0).get("_host")
    out = {
        "bench": args.title or f"perfbench end-to-end, {sha[:12]} "
                               "vs this checkout",
        "method": f"python3 tools/perfpair.py --base {sha[:12]}: "
                  f"python3 perfbench/run.py --workload W --seed N "
                  f"--seconds {args.seconds} --trace 0, alternating "
                  "which side runs first in each pair; medians and "
                  "quartiles (inclusive method) over runs",
        "host": host,
        "results": {},
    }
    for w in args.workloads:
        for seed in args.seeds:
            parent, change = run_pairs(base, head, w, seed, args.pairs,
                                       args.seconds, 0)
            out["results"][f"{w}/seed{seed}"] = result_block(
                parent, change, args.seconds, higher)
    ledgers = {}
    for w in args.workloads if args.trace_pairs else ():
        seed = args.seeds[0]
        parent, change = run_pairs(base, head, w, seed, args.trace_pairs,
                                   args.seconds, 1)
        check_digests(parent, change, f"{w} traced")
        rows = {}
        for m in LEDGER_METRICS:
            p = [r["metrics"][m]["value"] for r in parent]
            c = [r["metrics"][m]["value"] for r in change]
            rows[m] = {"parent_median": statistics.median(p),
                       "change_median": statistics.median(c),
                       "parent_runs": p, "change_runs": c}
        key = f"ledger_{w.replace('-', '_')}_seed{seed}_trace1"
        out[key] = {"pairs": args.trace_pairs,
                    "seconds_per_run": args.seconds, "metrics": rows}
        ledgers[w] = out[key]
    if args.out:
        args.out.write_text(json.dumps(out, indent=2) + "\n")
    print(table(out["results"]))
    if ledgers:
        print()
        print(ledger_table(ledgers))
    return 0


if __name__ == "__main__":
    sys.exit(main())
