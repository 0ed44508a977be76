"""observer-purity: src/obs is a strict observer.

The tracing layer's contract (DESIGN.md section 9): enabling it must
never perturb simulated state or statistics — dumps are byte-
identical with tracing on, off, or compiled out. This rule makes the
contract structural:

  - observer code may not include simulator-internal headers (it can
    only observe what is passed to it, never reach into the machine);
  - observer code may not name the Stat types (Scalar, Distribution,
    StatGroup) — a tracer that bumps a counter changes the dump;
  - observer code may not call the mutating entry points of the
    memory system / simulator objects. A call whose receiver the
    checked code declares with a std:: type (a std::unique_ptr's
    release(), say) is on a library object, not a simulator one.

Scope: every file under src/obs/, plus out-of-line `Tracer::` member
definitions anywhere in the tree.
"""

from __future__ import annotations

from cpputil import match_close
from engine import Finding, SEV_ERROR, rule
from lexer import IDENT, PP, PUNCT


_FORBIDDEN_INCLUDE_PREFIXES = (
    "sim/", "memsys/", "core/", "cpu/", "mem/", "vm/", "prefetch/",
    "stats/", "runner/", "workloads/")

_STAT_TYPES = {"Scalar", "Distribution", "StatGroup"}

# Mutating entry points of simulator-side objects. Names are chosen
# to be specific to the simulator's interfaces so container methods
# (insert/erase on a sink-local std::map) do not false-positive.
_MUTATORS = {"allocate", "release", "promote", "extractPrefetch",
             "reconfigure", "resetAll", "sample",
             "noteIssued", "noteUseful", "observeMiss",
             "scanAndEnqueue", "enqueuePrefetch", "issuePrefetch",
             "completeFill", "drainAll", "drainPrefetches",
             "maybeInjectPollution", "reinforceOnHit"}


def _std_declared(toks, lo, hi):
    """Names declared in toks[lo:hi) with a std:: type: locals,
    parameters and members spelled `[const] std::T[<...>] [&|*] name`
    followed by one of `; = ( { , ) [`."""
    names = set()
    j = lo
    while j + 2 < hi:
        if not (toks[j].kind == IDENT and toks[j].text == "std" and
                toks[j + 1].text == "::"):
            j += 1
            continue
        k = j + 2
        while k + 1 < hi and toks[k].kind == IDENT and \
                toks[k + 1].text == "::":
            k += 2
        k += 1  # the type name
        if k < hi and toks[k].text == "<":
            depth = 0
            while k < hi:
                depth += {"<": 1, ">": -1, ">>": -2}.get(toks[k].text, 0)
                k += 1
                if depth <= 0:
                    break
        while k < hi and toks[k].text in ("const", "&", "&&", "*"):
            k += 1
        if k + 1 < hi and toks[k].kind == IDENT and \
                toks[k + 1].text in (";", "=", "(", "{", ",", ")", "["):
            names.add(toks[k].text)
        j += 2
    return names


@rule
class ObserverPurity:
    id = "observer-purity"
    severity = SEV_ERROR
    doc = """Code under src/obs/ and Tracer member functions are
    strict observers: they may not include simulator-internal
    headers, may not touch Stat members (Scalar/Distribution/
    StatGroup), and may not call mutating methods on memsys
    or simulator objects. Violations would let enabling a trace
    change simulated state or stats."""

    def check(self, ctx):
        p = ctx.path.replace("\\", "/")
        if "/obs/" in p or p.startswith("obs/"):
            yield from self._check_span(ctx, 0, len(ctx.tokens),
                                        includes=True)
            return
        # Out-of-line Tracer:: member definitions elsewhere.
        toks = ctx.tokens
        n = len(toks)
        i = 0
        while i + 3 < n:
            if (toks[i].kind == IDENT and toks[i].text == "Tracer" and
                    toks[i + 1].kind == PUNCT and
                    toks[i + 1].text == "::" and
                    toks[i + 2].kind == IDENT and
                    i + 3 < n and toks[i + 3].text == "("):
                close = match_close(toks, i + 3)
                j = close + 1
                while j < n and toks[j].text not in ("{", ";"):
                    j += 1
                if j < n and toks[j].text == "{":
                    body_end = match_close(toks, j)
                    yield from self._check_span(ctx, j, body_end,
                                                includes=False)
                    i = body_end
                    continue
            i += 1

    def _check_span(self, ctx, lo, hi, includes):
        toks = ctx.tokens
        n = len(toks)
        std_objects = _std_declared(toks, lo, min(hi + 1, n))
        for j in range(lo, min(hi + 1, n)):
            t = toks[j]
            if includes and t.kind == PP and \
                    t.text.startswith("#include"):
                target = t.text.split('"')
                if len(target) >= 2:
                    inc = target[1]
                    if inc.startswith(_FORBIDDEN_INCLUDE_PREFIXES):
                        yield Finding(
                            self.id, ctx.path, t.line, t.col,
                            f"observer code includes simulator-"
                            f"internal header \"{inc}\"; src/obs may "
                            "only depend on common/ and its own "
                            "headers")
                continue
            if t.kind != IDENT:
                continue
            if t.text in _STAT_TYPES:
                yield Finding(
                    self.id, ctx.path, t.line, t.col,
                    f"observer code names Stat type '{t.text}'; the "
                    "tracer must not read or write statistics — "
                    "dumps are byte-identical with tracing on or "
                    "off")
                continue
            if t.text in _MUTATORS and j > 0 and \
                    toks[j - 1].kind == PUNCT and \
                    toks[j - 1].text in (".", "->") and \
                    j + 1 < n and toks[j + 1].text == "(" and \
                    toks[j - 2].text not in std_objects:
                yield Finding(
                    self.id, ctx.path, t.line, t.col,
                    f"observer code calls mutating method "
                    f"'{t.text}()' on a simulator object; observers "
                    "may only read")
