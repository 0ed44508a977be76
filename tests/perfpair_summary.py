#!/usr/bin/env python3
"""Check tools/perfpair.py's summaries against the committed BENCH files.

Every BENCH_*.json at the repository root that carries paired runs
(`parent_runs`/`change_runs` per metric) is re-summarized from those
runs: medians, inclusive quartiles, the relative change and the
better-pair count must come out as committed, so the tool writes the
schema those files already use. Also checks that differing digests are
refused, that the EXPERIMENTS.md table renders, and that --compare
flags nothing for a file against itself and the set-up gain of
BENCH_build.json against BENCH_noise.json.

Usage: perfpair_summary.py <repository root>
"""

import importlib.util
import json
import math
import sys
from pathlib import Path

FIELDS = ("parent_median", "parent_iqr", "change_median", "change_iqr",
          "change_vs_parent", "change_better_pairs")


def same(a, b):
    if isinstance(a, list):
        return len(a) == len(b) and all(map(same, a, b))
    if isinstance(a, float):
        return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)
    return a == b


def main():
    sys.dont_write_bytecode = True  # leave no __pycache__ in tools/
    root = Path(sys.argv[1])
    spec = importlib.util.spec_from_file_location(
        "perfpair", root / "tools" / "perfpair.py")
    pp = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(pp)
    higher = pp.better_is_higher()

    errors, blocks = [], 0
    for path in sorted(root.glob("BENCH_*.json")):
        results = json.loads(path.read_text()).get("results")
        if not isinstance(results, dict):  # a bench harness's rows
            continue
        summarized = {}
        for key, r in results.items():
            if not all("parent_runs" in r.get(m, {})
                       for m in pp.SUMMARY_METRICS):
                continue
            summarized[key] = r
            for m in pp.SUMMARY_METRICS:
                s = r[m]
                got = pp.summarize(s["parent_runs"], s["change_runs"],
                                   higher[m])
                blocks += 1
                errors += [f"{path.name} {key} {m} {f}: {got[f]} != {s[f]}"
                           for f in FIELDS if not same(got[f], s[f])]
        if summarized and "| change better |" not in pp.table(summarized):
            errors.append(f"{path.name}: table did not render")
    if blocks == 0:
        errors.append("no BENCH_*.json with paired runs found")

    run = {"_digest": "digest workload=w seed=1 00ff"}
    if pp.check_digests([run], [dict(run)], "same") != "00ff":
        errors.append("check_digests did not return the digest")
    try:
        pp.check_digests([run], [{"_digest": "digest workload=w seed=1 01"}],
                         "differ")
        errors.append("check_digests accepted differing digests")
    except pp.DigestMismatch:
        pass

    noise = json.loads((root / "BENCH_noise.json").read_text())
    build = json.loads((root / "BENCH_build.json").read_text())
    moved = [r[:3] for r in pp.compare(noise, noise) if r[-1]]
    if moved:
        errors.append(f"--compare of BENCH_noise.json with itself "
                      f"flagged {moved}")
    moved = {r[:3] for r in pp.compare(noise, build) if r[-1]}
    for seed in (1, 2002):
        if (f"pointer-chase/seed{seed}", "setup_s", "parent") not in moved:
            errors.append(f"--compare of BENCH_noise.json with "
                          f"BENCH_build.json missed pointer-chase seed "
                          f"{seed} setup_s: flagged {sorted(moved)}")
    if "| moved |" not in pp.compare_table(pp.compare(noise, build),
                                           "A", "B"):
        errors.append("compare table did not render")

    for e in errors:
        print(e)
    print(f"perfpair_summary: {blocks} metric blocks, {len(errors)} errors")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
