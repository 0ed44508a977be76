#!/usr/bin/env python3
"""Bad-knob regression net for the cdpsim CLI.

Every input below used to hang, run with a value nobody asked for, or
fail late with an error that did not name the knob. Each must now exit
non-zero within a second, with the offending key on stderr. The knobs
that used to be unreachable from the CLI must parse and run.

Usage: bad_knobs.py <cdpsim>
"""

import os
import subprocess
import sys

# (arguments, key that stderr must name)
BAD = [
    (["core.rob=0"], "core.rob"),
    (["core.load_buffer=0"], "core.load_buffer"),
    (["core.issue_width=0"], "core.issue_width"),
    (["core.retire_width=0"], "core.retire_width"),
    (["cdp.enabled=treu"], "cdp.enabled"),
    (["cdp.depth=-1"], "cdp.depth"),
    (["core.issue_width=12abc"], "core.issue_width"),
    (["mem.bus_occupancy=0"], "mem.bus_occupancy"),
    (["mem.l1_ways=3"], "mem.l1_kb"),
    (["mem.l2_kb=1000"], "mem.l2_kb"),
    (["no.such.key=1"], "no.such.key"),
]

# Run lengths small enough that a correct run finishes quickly too.
SHORT = ["warmup_uops=1000", "measure_uops=1000", "workload=b2c"]
GOOD = [["core.retire_width=2", "mem.l1_ways=4"]]


def run(cdpsim, args, timeout):
    env = dict(os.environ)
    env.pop("CDP_SCALE", None)
    return subprocess.run([cdpsim, "-j1"] + args, capture_output=True,
                          text=True, env=env, timeout=timeout)


def main():
    if len(sys.argv) != 2:
        sys.exit("usage: bad_knobs.py <cdpsim>")
    cdpsim = sys.argv[1]
    failures = 0
    for args, key in BAD:
        try:
            res = run(cdpsim, SHORT + args, timeout=1)
        except subprocess.TimeoutExpired:
            print("FAIL: %s did not exit within 1 s" % " ".join(args))
            failures += 1
            continue
        if res.returncode == 0 or key not in res.stderr:
            print("FAIL: %s exited %d; stderr does not name %s:\n%s"
                  % (" ".join(args), res.returncode, key, res.stderr))
            failures += 1
        else:
            print("ok: %s -> %s" % (" ".join(args),
                                    res.stderr.splitlines()[0]))
    for args in GOOD:
        res = run(cdpsim, SHORT + args, timeout=30)
        if res.returncode != 0:
            print("FAIL: %s exited %d:\n%s"
                  % (" ".join(args), res.returncode, res.stderr))
            failures += 1
        else:
            print("ok: %s runs" % " ".join(args))
    if failures:
        sys.exit("%d bad-knob case(s) failed" % failures)


if __name__ == "__main__":
    main()
