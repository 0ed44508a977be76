"""Declaration-aware index over the lexed token streams.

The retired single-file linter knew which identifiers hold Cycle
timestamps via a hardcoded list; this module derives that information
from the declarations themselves, across every file in the lint run:

  - cycle_idents: identifiers declared with type `Cycle` (variables,
    members, parameters), e.g. `Cycle now`, `const Cycle &deadline`.
  - cycle_funcs: functions declared returning `Cycle`, so a call like
    `bus.freeCycle()` is recognized as a Cycle-typed operand.
  - unordered_idents: identifiers declared as std::unordered_map /
    std::unordered_set (any template arguments).
  - unordered_funcs: functions returning (references to) unordered
    containers, e.g. check::Access::entries().

The index is global across the run on purpose: the tree's naming is
consistent (a member called `completion` is a Cycle everywhere), and
the header that declares a member is usually a different file from
the .cc that does the arithmetic on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set

from lexer import IDENT, PUNCT, Token

# Tokens that may appear between a type name and the declared
# identifier (cv-qualifiers and declarator punctuation).
_DECL_SKIP_IDENTS = {"const", "volatile", "constexpr", "static",
                     "inline", "mutable"}
_DECL_SKIP_PUNCT = {"&", "*", "&&"}

_UNORDERED_TYPES = {"unordered_map", "unordered_set",
                    "unordered_multimap", "unordered_multiset"}


@dataclass
class DeclIndex:
    cycle_idents: Set[str] = field(default_factory=set)
    cycle_funcs: Set[str] = field(default_factory=set)
    unordered_idents: Set[str] = field(default_factory=set)
    unordered_funcs: Set[str] = field(default_factory=set)
    # path -> list of (line, member) Scalar/Distribution
    # declarations found in that header (consumed by stat-registered).
    stat_members: Dict[str, List] = field(default_factory=dict)

    def is_cycle_operand(self, name: str, is_call: bool) -> bool:
        if is_call:
            return name in self.cycle_funcs
        return name in self.cycle_idents

    def is_unordered_expr_ident(self, name: str) -> bool:
        return (name in self.unordered_idents or
                name in self.unordered_funcs)


def build_index(streams: Dict[str, List[Token]]) -> DeclIndex:
    """Scan every token stream and collect declarations."""
    idx = DeclIndex()
    for _path, toks in sorted(streams.items()):
        _scan_cycle_decls(toks, idx)
        _scan_unordered_decls(toks, idx)
    return idx


def _scan_cycle_decls(toks: List[Token], idx: DeclIndex) -> None:
    n = len(toks)
    for i, t in enumerate(toks):
        if t.kind != IDENT or t.text != "Cycle":
            continue
        # `using Cycle = ...` or `cdp::Cycle` type *position* only:
        # require the previous token not to be `=` (alias target use
        # is still a type position, fine) — no constraint needed; we
        # only act when an identifier follows.
        j = i + 1
        # Skip declarator decoration: `Cycle *p`, `Cycle &r`,
        # `Cycle const x`.
        while j < n and ((toks[j].kind == IDENT and
                          toks[j].text in _DECL_SKIP_IDENTS) or
                         (toks[j].kind == PUNCT and
                          toks[j].text in _DECL_SKIP_PUNCT)):
            j += 1
        if j >= n or toks[j].kind != IDENT:
            continue
        name = toks[j].text
        nxt = toks[j + 1] if j + 1 < n else None
        if nxt is not None and nxt.kind == PUNCT and nxt.text == "(":
            # Function returning Cycle (or paren-init variable, which
            # is indistinguishable without full parsing; recording it
            # as a callable is the useful interpretation here).
            idx.cycle_funcs.add(name)
            continue
        idx.cycle_idents.add(name)
        # Comma-separated declarator list: `Cycle a, b;`
        k = j + 1
        while k + 1 < n and toks[k].kind == PUNCT and toks[k].text == ",":
            if toks[k + 1].kind == IDENT:
                idx.cycle_idents.add(toks[k + 1].text)
                k += 2
            else:
                break


def _scan_unordered_decls(toks: List[Token], idx: DeclIndex) -> None:
    n = len(toks)
    for i, t in enumerate(toks):
        if t.kind != IDENT or t.text not in _UNORDERED_TYPES:
            continue
        # Must be followed by a template argument list.
        j = i + 1
        if j >= n or toks[j].text != "<":
            continue
        depth = 0
        while j < n:
            if toks[j].text == "<":
                depth += 1
            elif toks[j].text == ">":
                depth -= 1
                if depth == 0:
                    break
            elif toks[j].text == ">>":
                depth -= 2
                if depth <= 0:
                    break
            j += 1
        if j >= n:
            continue
        j += 1
        while j < n and ((toks[j].kind == IDENT and
                          toks[j].text in _DECL_SKIP_IDENTS) or
                         (toks[j].kind == PUNCT and
                          toks[j].text in _DECL_SKIP_PUNCT)):
            j += 1
        if j >= n or toks[j].kind != IDENT:
            continue
        name = toks[j].text
        nxt = toks[j + 1] if j + 1 < n else None
        if nxt is not None and nxt.kind == PUNCT and nxt.text == "(":
            idx.unordered_funcs.add(name)
        else:
            idx.unordered_idents.add(name)
