"""stat-registered (v2): every stat member is wired to a StatGroup,
under a name that corresponds to the member.

A default-constructed Scalar/Distribution silently drops
every sample and never appears in a dump, so a declared-but-never-
constructed stat member is a bug. v1 detected this with a substring
search for `name(...)` anywhere in the paired source; v2 resolves
constructor initializer lists properly:

  Class::Class(args) : member(group, "name", "desc"), ... {

and checks, per registered member, that the registration name's
string-literal part corresponds to the member identifier (catching a
stat registered under another stat's name — invisible in v1, and a
silent mis-attribution in every dump).
"""

from __future__ import annotations

import re
from pathlib import Path

import lexer
from cpputil import match_close, split_top_args
from engine import Finding, SEV_ERROR, rule
from lexer import IDENT, PUNCT, STRING

_STAT_TYPES = {"Scalar", "Distribution"}


def _norm(s: str) -> str:
    return re.sub(r"[^a-z0-9]", "", s.lower())


def _words(s: str) -> list:
    """Lower-cased word list of a camelCase or snake_case name."""
    return sorted(w.lower()
                  for w in re.findall(r"[A-Z]?[a-z0-9]+|[A-Z]+(?![a-z])", s))


@rule
class StatRegistered:
    id = "stat-registered"
    severity = SEV_ERROR
    doc = """Every Scalar/Distribution member declared in a
    header must be constructed against a StatGroup in a constructor
    initializer list of the paired .cc (or inline in the header),
    and the registration name's literal part must correspond to the
    member identifier. An unregistered stat is invisible in every
    dump; a wrong-name registration mis-attributes its samples."""

    def __init__(self) -> None:
        self._lex_cache = {}

    def check(self, ctx):
        if not ctx.path.endswith(".hh"):
            return
        members = self._stat_members(ctx.tokens)
        if not members:
            return

        # Registrations can live inline in the header or in the
        # paired .cc's constructor initializer lists.
        streams = [ctx.tokens]
        cc = Path(str(ctx.root / Path(ctx.path).name)
                  ).with_suffix(".cc")
        cc_toks = self._lex_file(cc)
        if cc_toks is not None:
            streams.append(cc_toks)

        regs = {}
        for toks in streams:
            for name, args in self._init_list_entries(toks):
                regs.setdefault(name, []).append((toks, args))

        for line, col, mtype, name in members:
            entries = regs.get(name, [])
            constructed = [
                (toks, args) for toks, args in entries if args]
            if not constructed:
                yield Finding(
                    self.id, ctx.path, line, col,
                    f"stat member '{name}' ({mtype}) is never "
                    "constructed against a StatGroup; it would be "
                    "invisible in every stats dump")
                continue
            for toks, args in constructed:
                bad = self._name_mismatch(toks, args, name)
                if bad is not None:
                    yield Finding(
                        self.id, ctx.path, line, col,
                        f"stat member '{name}' is registered under "
                        f"name '{bad}', which does not correspond to "
                        "the member identifier; samples would be "
                        "mis-attributed in the dump")
                    break

    # -- helpers ----------------------------------------------------

    def _lex_file(self, path: Path):
        key = str(path)
        if key not in self._lex_cache:
            try:
                text = path.read_text(errors="replace")
            except OSError:
                self._lex_cache[key] = None
            else:
                self._lex_cache[key] = lexer.lex(text)[0]
        return self._lex_cache[key]

    def _stat_members(self, toks):
        """(line, col, type, name) for plain `Scalar name;` member
        declarations. `Scalar name{...};` declarations are treated as
        inline registrations, handled by _init_list_entries."""
        out = []
        n = len(toks)
        for i, t in enumerate(toks):
            if t.kind != IDENT or t.text not in _STAT_TYPES:
                continue
            if i + 2 >= n:
                continue
            if i > 0 and toks[i - 1].kind == PUNCT and \
                    toks[i - 1].text in (".", "->", "::"):
                continue  # qualified use, not a declaration
            nm = toks[i + 1]
            if nm.kind != IDENT:
                continue
            term = toks[i + 2]
            if term.kind == PUNCT and term.text == ";":
                out.append((t.line, t.col, t.text, nm.text))
        return out

    def _init_list_entries(self, toks):
        """Yield (member_name, arg_spans_tokens) for every entry of
        every constructor initializer list, plus inline brace-or-
        paren member initializers `Scalar s{...};` in class bodies."""
        n = len(toks)
        i = 0
        while i < n:
            t = toks[i]
            # Constructor init list: `) : name(...), name{...} ... {`
            if t.kind == PUNCT and t.text == ":" and i > 0 and \
                    toks[i - 1].kind == PUNCT and \
                    toks[i - 1].text == ")":
                j = i + 1
                while j + 1 < n:
                    if toks[j].kind != IDENT:
                        break
                    name = toks[j].text
                    opener = toks[j + 1]
                    if opener.kind != PUNCT or \
                            opener.text not in ("(", "{"):
                        break
                    close = match_close(toks, j + 1)
                    args = [
                        toks[a:b] for a, b in
                        split_top_args(toks, j + 2, close)]
                    yield name, args
                    j = close + 1
                    if j < n and toks[j].kind == PUNCT and \
                            toks[j].text == ",":
                        j += 1
                        continue
                    break
                i = j
                continue
            # Inline member init: `Scalar name{group, "n", "d"};`
            if t.kind == IDENT and t.text in _STAT_TYPES and \
                    i + 2 < n and toks[i + 1].kind == IDENT and \
                    toks[i + 2].kind == PUNCT and \
                    toks[i + 2].text == "{":
                close = match_close(toks, i + 2)
                args = [toks[a:b] for a, b in
                        split_top_args(toks, i + 3, close)]
                yield toks[i + 1].text, args
                i = close + 1
                continue
            i += 1

    def _name_mismatch(self, toks, args, member):
        """Return the offending registration-name literal when it
        cannot correspond to ``member``; None when plausible (or when
        the name is fully computed at runtime)."""
        if len(args) < 2:
            return None
        lits = [t.text[1:-1] for t in args[1] if t.kind == STRING]
        if not lits:
            return None  # dynamic name; nothing checkable
        literal = "".join(lits)
        member_n = _norm(member)
        full_n = _norm(literal)
        seg = literal.rsplit(".", 1)[-1]
        seg_n = _norm(seg)
        if (member_n == full_n or member_n == seg_n or
                full_n.endswith(member_n) or
                member_n.endswith(seg_n) and seg_n):
            return None
        # Same words in a different order also correspond: member
        # `uopsRetired` registered as ".retired_uops".
        if _words(member) == _words(seg):
            return None
        return literal
