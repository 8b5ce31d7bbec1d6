"""Reference readers: the token-at-a-time .dis and bracket loops.

``rstkit.corpus`` matches a whole leaf or a constituent's head at a time
where it is well formed, else a ``(leaf n)`` field, a constituent's role
or a bracket node's head, and reads anything else, such as fields out of
order or a field that is not whole, as single tokens. These are the loops
it replaced, which read every parenthesis, name and number as its own
token. The differential tests in ``test_core.py`` hold the package's
readers to them: the same tree and EDUs, or the same exception, message
and offset. The checks a constituent makes as it closes, and the fold
into binary nodes, are a frozen copy of the package's before it read
whole constituents (``_Frame.close``, ``_chain``, ``_pair``), so the
package's own close is held to them too.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Sequence

from rstkit.core import MAX_DIGITS, NN, NS, SN, Edu, Leaf, MalformedTree, Node, RstTree
from rstkit.corpus import (
    NUCLEUS,
    ROOT,
    SATELLITE,
    SHORT_PATTERN,
    SPAN_REL,
    DisSyntaxError,
    RelationMap,
    normalize_edu_text,
)

# Branches in order: a text field, which may hold parentheses and newlines;
# a _! that no later _! closes; parentheses; an atom. Whitespace matches
# no branch, so finditer skips it between tokens.
_TOKEN_RE = re.compile(
    r"_!(?P<text>.*?)_!|(?P<lone>_!)|(?P<open>\()|(?P<close>\))|(?P<atom>[^\s()]+)",
    re.DOTALL,
)
_TT_ERR_RE = re.compile(r"\)//TT_ERR")

# (kind, value, offset); kind is "open", "close", "atom" or "text"
Token = tuple[str, str, int]


# A constituent as its parent sees it: (role, rel2par, binary subtree).
_Side = tuple[str, str, RstTree]


def _pair(left: _Side, right: _Side) -> Node:
    lrole, lrel, ltree = left
    rrole, rrel, rtree = right
    if lrole == NUCLEUS and rrole == SATELLITE:
        return Node(ltree, rtree, NS, rrel)
    if lrole == SATELLITE and rrole == NUCLEUS:
        return Node(ltree, rtree, SN, lrel)
    if lrole == SATELLITE and rrole == SATELLITE:
        return Node(ltree, rtree, NS, rrel)
    relation = lrel if lrel != SPAN_REL else rrel
    if relation == SPAN_REL:
        raise MalformedTree(
            f"two span-marked nuclei under one constituent at {ltree.span}"
        )
    return Node(ltree, rtree, NN, relation)


def _chain(parts: list[_Side]) -> _Side:
    role, rel, tree = parts[-1]
    for lrole, lrel, ltree in reversed(parts[:-1]):
        tree = _pair((lrole, lrel, ltree), (role, rel, tree))
        role = NUCLEUS if NUCLEUS in (lrole, role) else SATELLITE
        rel = lrel
    return role, rel, tree


@dataclass(slots=True)
class _Frame:
    role: str
    rel2par: str | None = None
    span: tuple[int, int] | None = None
    leaf: int | None = None
    text: str | None = None
    children: list[_Side] = field(default_factory=list)

    def close(self, pos: int) -> _Side:
        if self.leaf is not None:
            if self.text is None:
                raise DisSyntaxError(f"leaf {self.leaf} has no text field", pos)
            if self.children:
                raise DisSyntaxError(f"leaf {self.leaf} has children", pos)
            span = (self.leaf, self.leaf)
        elif self.span is None:
            raise DisSyntaxError("constituent lacks both span and leaf", pos)
        elif not self.children:
            raise DisSyntaxError(f"span {self.span} has no children", pos)
        else:
            span = self.span
        if self.role != ROOT and not self.rel2par:
            raise MalformedTree(f"missing rel2par on span {span}")
        rel2par = self.rel2par or SPAN_REL
        if self.leaf is not None:
            return self.role, rel2par, Leaf(Edu(self.leaf, self.text))
        if len(self.children) > 1 and not any(
            role == NUCLEUS for role, _, _ in self.children
        ):
            raise MalformedTree(f"constituent {span} has no nucleus child")
        start = span[0]
        for _, _, child in self.children:
            if child.span[0] != start:
                raise MalformedTree(
                    f"children of {span} not contiguous at {child.span}"
                )
            start = child.span[1] + 1
        if start != span[1] + 1:
            raise MalformedTree(f"children do not cover {span}")
        return self.role, rel2par, _chain(self.children)[2]


def scan(text: str) -> list[Token]:
    """Tokens as (kind, value, offset); a text field's value is its inside."""
    tokens: list[Token] = []
    for match in _TOKEN_RE.finditer(text):
        kind = match.lastgroup
        if kind == "lone":
            raise DisSyntaxError("unterminated _!text field", match.start())
        tokens.append((kind, match[kind], match.start()))
    return tokens


class Tokens:
    """Cursor over scanned tokens with position-carrying errors."""

    def __init__(self, text: str, length: int | None = None):
        self.tokens = scan(text)
        self.length = len(text) if length is None else length
        self.pos = 0

    @property
    def done(self) -> bool:
        return self.pos >= len(self.tokens)

    def take(self, kind: str | None = None) -> Token:
        try:
            token = self.tokens[self.pos]
        except IndexError:
            raise DisSyntaxError("unexpected end of input", self.length) from None
        if kind is not None and token[0] != kind:
            raise DisSyntaxError(f"expected {kind}, got {token[1]!r}", token[2])
        self.pos += 1
        return token

    def take_int(self) -> int:
        kind, value, pos = self.take()
        if kind != "atom" or not value.isdecimal():
            raise DisSyntaxError("expected integer", pos)
        if len(value) > MAX_DIGITS:
            raise DisSyntaxError(f"integer of {len(value)} digits", pos)
        return int(value)


def parse_dis(
    text: str, relation_map: RelationMap | None = None
) -> tuple[RstTree, tuple[Edu, ...]]:
    cursor = Tokens(_TT_ERR_RE.sub(")", text), len(text))
    cursor.take("open")
    _, role, pos = cursor.take("atom")
    if role != ROOT:
        raise DisSyntaxError(f"expected {ROOT}, got {role!r}", pos)
    frames: list[_Frame] = [_Frame(role)]
    edus: list[Edu] = []
    root: RstTree | None = None
    while root is None:
        kind, value, pos = cursor.take()
        if kind == "close":
            frame = frames.pop()
            side = frame.close(pos)
            if frame.leaf is not None:
                edus.append(side[2].edu)
            if frames:
                frames[-1].children.append(side)
            else:
                root = side[2]
            continue
        if kind != "open":
            raise DisSyntaxError(f"expected ( or ), got {value!r}", pos)
        head_kind, head, head_pos = cursor.take()
        if head_kind != "atom":
            raise DisSyntaxError("expected a name after (", head_pos)
        if head in (NUCLEUS, SATELLITE):
            frames.append(_Frame(head))
            continue
        if head == ROOT:
            raise DisSyntaxError("Root below the top level", head_pos)
        frame = frames[-1]
        if head == "span":
            frame.span = (cursor.take_int(), cursor.take_int())
        elif head == "leaf":
            frame.leaf = cursor.take_int()
        elif head == "rel2par":
            rel2par = cursor.take("atom")[1]
            if relation_map is not None and rel2par != SPAN_REL:
                rel2par = relation_map.apply(rel2par)
            frame.rel2par = rel2par
        elif head == "text":
            frame.text = normalize_edu_text(cursor.take("text")[1])
        else:
            raise DisSyntaxError(f"unknown field {head!r}", head_pos)
        cursor.take("close")
    if not cursor.done:
        raise DisSyntaxError("trailing content after tree", cursor.take()[2])
    if root.span[0] != 1:
        raise MalformedTree("leaf indices are not contiguous from 1")
    return root, tuple(edus)


def read_tree(line: str, edus: Sequence[Edu] | None = None) -> RstTree:
    cursor = Tokens(line)
    frames: list[tuple[str, str, list[RstTree]]] = []
    result: RstTree | None = None

    def attach(tree: RstTree, pos: int) -> None:
        nonlocal result
        if frames:
            frames[-1][2].append(tree)
        elif result is None:
            result = tree
        else:
            raise DisSyntaxError("multiple top-level trees on one line", pos)

    while not cursor.done:
        kind, value, pos = cursor.take()
        if kind == "open":
            head_kind, head, head_pos = cursor.take()
            if head_kind != "atom":
                raise DisSyntaxError("expected node head after (", head_pos)
            if head == "leaf":
                index = cursor.take_int()
                cursor.take("close")
                if edus is not None:
                    if not 1 <= index <= len(edus):
                        raise DisSyntaxError(f"leaf {index} outside document", pos)
                    attach(Leaf(edus[index - 1]), pos)
                else:
                    attach(Leaf(Edu(index, "")), pos)
            elif head in SHORT_PATTERN:
                relation = cursor.take("atom")[1]
                frames.append((SHORT_PATTERN[head], relation, []))
            else:
                raise DisSyntaxError(f"unknown node head {head!r}", head_pos)
        elif kind == "close":
            if not frames:
                raise DisSyntaxError("unbalanced )", pos)
            pattern, relation, children = frames.pop()
            if len(children) != 2:
                raise DisSyntaxError(
                    f"node needs exactly two children, got {len(children)}", pos
                )
            try:
                attach(Node(children[0], children[1], pattern, relation), pos)
            except MalformedTree as exc:
                raise DisSyntaxError(str(exc), pos) from None
        else:
            raise DisSyntaxError(f"unexpected token {value!r}", pos)

    if frames:
        raise DisSyntaxError("unclosed ( in bracket line", len(line))
    if result is None:
        raise DisSyntaxError("empty bracket line", 0)
    return result
