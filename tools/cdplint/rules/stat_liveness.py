"""stat-liveness: a registered stat that no reachable path updates.

The stat-registered rule (PR 4) closes one half of the copy-paste
stat bug: a counter that exists but never shows up in a dump. This
rule closes the other half: a counter that shows up in every dump
and is *always zero*, because the increment was pasted onto the
wrong member, or the update sits behind an early ``return`` that
makes it dead code. A reviewer reading bench output trusts a zero —
"no replacements happened" — so a dead stat is worse than a missing
one.

A ``Scalar`` or ``Distribution`` member is *live* when some token
stream in the program contains an update of that name —

    ++x / x++ / --x / x--          x += e / x -= e / x = e
    x.set(e)                       x.sample(e)

— in a statement the CFG can actually reach (an update strictly
after an unconditional ``return``/``throw``/``break``/``continue``
contributes nothing). ``reset()`` is not an update — zeroing a counter
that nothing increments does not make it meaningful.

Matching is by member *name* across the whole program and ignores
the receiver, so an update through any alias or owner object counts.
That errs toward liveness (two classes sharing a member name shadow
each other), which is the right direction for a deadness verdict.
Findings anchor at the member declaration; a deliberately-dormant
stat (kept for checkpoint-format stability, say) takes
``// cdplint: allow(stat-liveness) -- reason`` on its declaration.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

import cfg as cfgmod
from engine import Finding, SEV_ERROR, rule
from lexer import IDENT, PUNCT

_LIVE_TYPES = {"Scalar", "Distribution"}
_UPDATE_CALLS = {"set", "sample"}
_UPDATE_OPS = {"++", "--", "+=", "-=", "=", "|=", "&=", "^="}

_LIVE_CACHE: Dict[int, Set[str]] = {}


def _stat_decls(model, ci) -> List:
    """Scalar/Distribution data members of one class."""
    return [m for m in ci.data_members()
            if m.type_text.rsplit("::", 1)[-1] in _LIVE_TYPES]


def _updates_in(toks, lo: int, hi: int, names: Set[str]
                ) -> List[Tuple[int, str]]:
    """(token index, name) of update expressions over tracked names
    in toks[lo:hi). Receiver-agnostic by design."""
    out = []
    n = min(hi, len(toks))
    for j in range(lo, n):
        t = toks[j]
        if t.kind != IDENT or t.text not in names:
            continue
        prev = toks[j - 1] if j > lo else None
        nxt = toks[j + 1] if j + 1 < n else None
        if prev is not None and prev.kind == PUNCT and \
                prev.text in ("++", "--"):
            out.append((j, t.text))
            continue
        if nxt is None or nxt.kind != PUNCT:
            continue
        # Escape analysis, one token deep: the name passed as a bare
        # call argument or having its address taken may be updated
        # through the alias — count it live rather than guess.
        if prev is not None and prev.kind == PUNCT and \
                (prev.text == "&" or
                 (prev.text in ("(", ",") and
                  nxt.text in (")", ","))):
            out.append((j, t.text))
            continue
        if nxt.text in _UPDATE_OPS:
            out.append((j, t.text))
        elif nxt.text in (".", "->") and j + 3 < n and \
                toks[j + 2].kind == IDENT and \
                toks[j + 2].text in _UPDATE_CALLS and \
                toks[j + 3].kind == PUNCT and toks[j + 3].text == "(":
            out.append((j, t.text))
    return out


def _live_names(model) -> Set[str]:
    """Every stat-member name with at least one reachable update
    anywhere in the program. Computed once per model and cached
    (workers are pure functions of the shared model)."""
    key = id(model)
    if key in _LIVE_CACHE:
        return _LIVE_CACHE[key]
    _LIVE_CACHE.clear()

    tracked: Set[str] = set()
    for lst in model.classes.values():
        for ci in lst:
            tracked.update(m.name for m in _stat_decls(model, ci))

    live: Set[str] = set()
    for path in sorted(model.streams):
        toks = model.streams[path]
        bodies = model.bodies.get(path, [])
        for b in bodies:
            ups = _updates_in(toks, b.body_lo, b.body_hi,
                              tracked - live)
            if not ups:
                continue
            c = cfgmod.build_cfg(toks, b.body_lo, b.body_hi)
            ok = {j for bid in c.reachable()
                  for lo, hi in c.block(bid).stmts
                  for j in range(lo, hi)}
            for j, name in ups:
                if j in ok:
                    live.add(name)
    _LIVE_CACHE[key] = live
    return live


@rule
class StatLiveness:
    id = "stat-liveness"
    severity = SEV_ERROR
    doc = """A Scalar/Distribution stat member with no reachable
    update (++/--/+=/-=/=/.set()/.sample()) anywhere in the program
    is dead: it renders as a trustworthy-looking zero in every dump.
    Updates in code the CFG proves unreachable do not count. Delete
    the member or wire it up; a deliberately-dormant stat takes
    '// cdplint: allow(stat-liveness) -- reason' on its
    declaration."""

    def check(self, ctx):
        model = ctx.model
        if model is None:
            return
        live = _live_names(model)
        for ci in model.classes_in(ctx.path):
            for m in _stat_decls(model, ci):
                if m.name in live:
                    continue
                yield Finding(
                    self.id, ctx.path, m.line, m.col,
                    f"stat member '{m.name}' of {ci.name} is never "
                    f"incremented or assigned on any reachable "
                    f"path; it reads as a plausible zero in every "
                    f"dump — remove it or wire it up")
