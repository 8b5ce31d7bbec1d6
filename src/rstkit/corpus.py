"""Treebank and config file I/O.

Covers the parenthesized .dis constituent format, read in one regex scan
that takes a whole leaf or a constituent's head per match where it is well
formed, else a (leaf n) field or a constituent's role, else a token, and
in one pass that maps relation names, collects EDUs and folds each n-ary
constituent into the binary nodes of a node table as it goes (a document
holds that table, and builds its tree only when the tree is read);
relation-name maps and label
inventories (editable text fixtures under rstkit/data); a canonical
one-line bracket format for predicted trees, written from and read into
node tables; split manifests; and
``load_documents``, which turns a corpus directory, manifest and split
into the documents every command works on.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property
from importlib import resources
from itertools import chain
from pathlib import Path
from typing import Iterable, Sequence

from .core import (
    MAX_DIGITS,
    NN,
    NS,
    SN,
    Edu,
    LabelInventory,
    MalformedTree,
    NodeTable,
    RstTree,
    build_tree,
    node_table,
)
from .metrics import check_segmentation

PATTERN_SHORT = {NN: "NN", NS: "NS", SN: "SN"}
SHORT_PATTERN = {v: k for k, v in PATTERN_SHORT.items()}


class DisSyntaxError(ValueError):
    """Malformed treebank or bracket input, with a character position."""

    def __init__(self, message: str, pos: int | None = None):
        if pos is not None:
            message = f"{message} (at offset {pos})"
        super().__init__(message)
        self.pos = pos


class UnknownRelation(KeyError):
    """A relation name has no entry in the active relation map."""

    def __str__(self) -> str:
        # KeyError's own str() shows its argument quoted, as a dict key
        return str(self.args[0]) if self.args else ""


class ConfigError(ValueError):
    """Bad configuration: an inventory, relation map, split manifest or
    answers file, or a flag."""


class MissingDocument(FileNotFoundError):
    """A split manifest names a document the corpus directory lacks."""


@dataclass(frozen=True)
class Document:
    """A document ready for parsing or scoring: its EDUs, whose indices run
    1..len(edus) in order, and the node table of its gold binary tree
    (``core.NodeTable``), the shape a parse's ``ParseResult.nodes`` has.

    Replays (``ReplayOracle``) and scoring (``score_document``) read the
    table. ``tree`` is built from it the first time it is read and kept, so
    a command that only replays or scores a document builds no gold tree. A
    caller that holds a tree passes ``core.node_table(tree)``.
    """

    doc_id: str
    edus: tuple[Edu, ...]
    nodes: NodeTable = field(repr=False, hash=False)

    @cached_property
    def tree(self) -> RstTree:
        return build_tree(self.edus, self.nodes)


# ---------------------------------------------------------------------------
# Field scan shared by the .dis reader and the bracket format

# One match per well-formed constituent, or else per field, or else per
# token. Constituents: a whole leaf, ( Nucleus|Satellite (leaf n)
# (rel2par name) (text _!..._!) ), and a constituent's head, ( Role
# (span a b) with the (rel2par name) that follows it, if one does. Fields:
# (leaf n), which the bracket format writes, a constituent's ( Role and a
# bracket node's (NS Relation. Tokens: ")"; a text field, which may hold
# parentheses and newlines; a _! that no later _! closes, which takes the
# rest of the input with it; "("; an atom. Whitespace matches no branch,
# so finditer skips it. A constituent branch matches exactly the field
# runs the readers accept there, and a field branch the token runs, spaced
# as the token scan allows, so anything else, such as a leaf's fields out
# of order, falls through to fields or tokens and is read or rejected as
# they are. Each part of a branch ends at its field's ) or, in a text, at
# the next _!, so a match that fails never scans past the constituent it
# tried. A number longer than _NUMBER allows is read as a token, and
# rejected there.
_NUMBER = rf"\d{{1,{MAX_DIGITS}}}"
_FIELD_RE = re.compile(
    rf"""
      (?P<close>\))
    | \(\s*(?:
        (?P<whole_leaf>(?P<leaf_role>Nucleus|Satellite)
          \s*\(\s*leaf\s+(?P<leaf_index>{_NUMBER})\s*\)
          \s*\(\s*rel2par\s+(?P<leaf_rel2par>(?!_!)[^\s()]+)\s*\)
          \s*\(\s*text\s+_!(?P<leaf_text>[^_]*(?:_(?!!)[^_]*)*)_!\s*\)
          \s*\))
      | (?P<head>(?P<head_role>Root|Nucleus|Satellite)
          \s*\(\s*span\s+(?P<head_first>{_NUMBER})\s+(?P<head_last>{_NUMBER})\s*\)
          (?:\s*\(\s*rel2par\s+(?P<head_rel2par>(?!_!)[^\s()]+)\s*\))?)
      | (?P<leaf>leaf\s+(?P<index>{_NUMBER})\s*\))
      | (?P<constituent>(?P<role>Root|Nucleus|Satellite)(?![^\s()]))
      | (?P<node>(?P<pattern>NS|SN|NN)\s+(?P<relation>(?!_!)[^\s()]+))
    )
    | _!(?P<text>.*?)_!
    | (?P<lone>_!.*)
    | (?P<open>\()
    | (?P<atom>[^\s()]+)
    """,
    re.DOTALL | re.VERBOSE,
)
# the head of a field: the atom after its (
_HEAD_RE = re.compile(r"\(\s*([^\s()]+)")
# Two WSJ training files carry stray tool output after closing parens.
_TT_ERR_RE = re.compile(r"\)//TT_ERR")
# what a relation in a .tree line cannot hold
_UNWRITABLE_RE = re.compile(r"[\s()]")

# (kind, value, offset): kind is "open", "close", "atom" or "text"; a text
# token's value is its inside
Token = tuple[str, str, int]
_TOKEN_KINDS = frozenset(("open", "close", "atom", "text"))
_FIELD_KINDS = frozenset(("whole_leaf", "head", "leaf", "constituent", "node"))


def _unterminated(match: re.Match) -> DisSyntaxError:
    return DisSyntaxError("unterminated _!text field", match.start())


def _token(match: re.Match, kind: str | None = None) -> Token:
    """A match as the token it starts with (every field starts with "("),
    which must be of ``kind`` if one is given."""
    if match.lastgroup == "lone":
        raise _unterminated(match)
    if match.lastgroup in _TOKEN_KINDS:
        token = (match.lastgroup, match[match.lastgroup], match.start())
    else:
        token = ("open", "(", match.start())
    if kind is not None and token[0] != kind:
        raise DisSyntaxError(f"expected {kind}, got {token[1]!r}", token[2])
    return token


def _head(field: re.Match) -> tuple[str, int]:
    """A field's head name and its offset."""
    head = _HEAD_RE.match(field.string, field.start())
    return head[1], head.start(1)


class _Tokens:
    """Lazy cursor over the fields and tokens of a text; ``take`` reads the
    next one as a token, for the checks of a field that did not match whole.

    Used as a context manager: an error raised inside gives way to an
    unterminated _! further on, which a reader reports before any other
    fault in the text.
    """

    def __init__(self, text: str, length: int | None = None):
        self.fields = _FIELD_RE.finditer(text)
        # end-of-input errors point past the text as the caller gave it
        self.length = len(text) if length is None else length

    def __enter__(self) -> "_Tokens":
        return self

    def __exit__(self, kind, error, traceback) -> None:
        if error is not None:
            for field in self.fields:
                if field.lastgroup == "lone":
                    raise _unterminated(field) from None

    def field(self) -> re.Match:
        field = next(self.fields, None)
        if field is None:
            raise DisSyntaxError("unexpected end of input", self.length)
        return field

    def take(self, kind: str | None = None) -> Token:
        return _token(self.field(), kind)

    def take_int(self) -> int:
        kind, value, pos = self.take()
        if kind != "atom" or not value.isdecimal():
            raise DisSyntaxError("expected integer", pos)
        if len(value) > MAX_DIGITS:
            raise DisSyntaxError(f"integer of {len(value)} digits", pos)
        return int(value)


def normalize_edu_text(raw: str) -> str:
    """Collapse whitespace runs to single spaces and trim the ends."""
    return " ".join(raw.split())


# ---------------------------------------------------------------------------
# .dis reader

# Child roles in the .dis constituent format.
ROOT = "Root"
NUCLEUS = "Nucleus"
SATELLITE = "Satellite"

# rel2par marker on the nucleus child of a mono-nuclear constituent. It is a
# placeholder, not a relation; the pair's relation comes from the satellite.
SPAN_REL = "span"

# A constituent as its parent sees it: (role, rel2par, first EDU, last EDU).
_Side = tuple[str, str, int, int]


def _pair(left: _Side, right: _Side, nodes: NodeTable) -> None:
    """Join two adjacent sides of a constituent into one binary node, an
    entry of ``nodes`` over both.

    Mono-nuclear pairs take the satellite side's relation; nucleus-nucleus
    pairs take whichever side carries a real relation (the shared
    multi-nuclear label in practice). A satellite-satellite pair can only be
    the tail of a satellite-only chain; it leans on the left side, which
    sits nearer the nucleus.
    """
    lrole, lrel, first, mid = left
    rrole, rrel, _, last = right
    if lrole == NUCLEUS and rrole == SATELLITE:
        nuclearity, relation = NS, rrel
    elif lrole == SATELLITE and rrole == NUCLEUS:
        nuclearity, relation = SN, lrel
    elif lrole == SATELLITE and rrole == SATELLITE:
        nuclearity, relation = NS, rrel
    else:
        # nucleus-nucleus: prefer the left rel2par, skipping "span" placeholders
        nuclearity, relation = NN, lrel if lrel != SPAN_REL else rrel
        if relation == SPAN_REL:
            raise MalformedTree(
                f"two span-marked nuclei under one constituent at {(first, mid)}"
            )
    nodes[(first, last)] = [mid, nuclearity, relation]


def _chain(parts: list[_Side], nodes: NodeTable) -> _Side:
    """Fold a constituent's children into a right-heavy binary chain of
    entries of ``nodes``.

    A k-child constituent becomes k-1 binary nodes: the first child paired
    against the folded remainder, so a multi-nuclear constituent yields
    intermediate nodes that repeat its relation with pattern NN. The folded
    remainder acts as Nucleus toward its left sibling iff it contains a
    nucleus, and presents its first child's rel2par as its own.
    """
    side = parts[-1]
    for left in parts[-2::-1]:
        _pair(left, side, nodes)
        role = NUCLEUS if NUCLEUS in (left[0], side[0]) else SATELLITE
        side = role, left[1], left[2], side[3]
    return side


@dataclass(slots=True)
class _Frame:
    role: str
    rel2par: str | None = None
    span: tuple[int, int] | None = None
    leaf: int | None = None
    text: str | None = None
    children: list[_Side] = field(default_factory=list)

    def close(self, pos: int, nodes: NodeTable) -> _Side:
        """Check the constituent and fold it into binary nodes of ``nodes``."""
        role, rel2par, span, children = (
            self.role, self.rel2par, self.span, self.children
        )
        if self.leaf is not None:
            if self.text is None:
                raise DisSyntaxError(f"leaf {self.leaf} has no text field", pos)
            if children:
                raise DisSyntaxError(f"leaf {self.leaf} has children", pos)
            span = (self.leaf, self.leaf)
        elif span is None:
            raise DisSyntaxError("constituent lacks both span and leaf", pos)
        elif not children:
            raise DisSyntaxError(f"span {span} has no children", pos)
        if not rel2par:
            if role != ROOT:
                raise MalformedTree(f"missing rel2par on span {span}")
            rel2par = SPAN_REL
        if self.leaf is not None:
            return role, rel2par, self.leaf, self.leaf
        if len(children) > 1 and NUCLEUS not in [side[0] for side in children]:
            raise MalformedTree(f"constituent {span} has no nucleus child")
        start = span[0]
        for _, _, first, last in children:
            if first != start:
                raise MalformedTree(
                    f"children of {span} not contiguous at {(first, last)}"
                )
            start = last + 1
        if start != span[1] + 1:
            raise MalformedTree(f"children do not cover {span}")
        _chain(children, nodes)
        return role, rel2par, span[0], span[1]


def parse_dis(
    text: str, relation_map: "RelationMap | None" = None
) -> tuple[RstTree, tuple[Edu, ...]]:
    """Parse .dis text into its binary tree plus its EDUs in order.

    The tree is ``core.build_tree`` of the node table ``read_dis`` keeps
    (see ``_fold_dis``), so both readers check and fold alike.
    """
    nodes, edus = _fold_dis(text, relation_map)
    return build_tree(edus, nodes), edus


def _fold_dis(
    text: str, relation_map: "RelationMap | None"
) -> tuple[NodeTable, tuple[Edu, ...]]:
    """Read .dis text into the node table of its binary tree plus its EDUs
    in order.

    Each constituent is checked and folded into binary nodes (see
    ``_chain``) as its closing parenthesis is read. With ``relation_map``,
    every real rel2par is mapped as it is read, each distinct name once;
    the "span" placeholder and the Root's missing rel2par pass through, and
    an unknown name raises UnknownRelation.
    """
    with _Tokens(_TT_ERR_RE.sub(")", text), len(text)) as cursor:
        root, nodes, edus = _read_constituents(cursor, relation_map)
    # every constituent covers its span with contiguous children, so the
    # leaves run root[2]..root[3] in document order
    if root[2] != 1:
        raise MalformedTree("leaf indices are not contiguous from 1")
    return nodes, edus


def _read_constituents(
    cursor: _Tokens, relation_map: "RelationMap | None"
) -> tuple[_Side, NodeTable, tuple[Edu, ...]]:
    """Read the Root constituent and everything in it: the Root's side, the
    node table and the EDUs. Treebank nesting is as deep as the document,
    so the open constituents are kept on an explicit frame stack. A whole
    leaf goes straight to its parent's children; every other constituent
    gets a frame, which its head fills as far as it is well formed and its
    fields fill after that."""
    mapped = {SPAN_REL: SPAN_REL}

    def relation(name: str) -> str:
        if relation_map is None:
            return name
        if name not in mapped:
            mapped[name] = relation_map.apply(name)
        return mapped[name]

    first = cursor.field()
    if first.lastgroup in _FIELD_KINDS:
        role, pos = _head(first)
    else:
        _token(first, "open")
        _, role, pos = cursor.take("atom")
    if role != ROOT:
        raise DisSyntaxError(f"expected {ROOT}, got {role!r}", pos)
    # the first field is a head or a constituent whose role is Root: the
    # loop below opens its frame as it opens every other
    frames: list[_Frame] = []
    nodes: NodeTable = {}
    edus: list[Edu] = []
    for field in chain((first,), cursor.fields):
        kind = field.lastgroup
        if kind == "whole_leaf":
            rel2par = relation(field["leaf_rel2par"])
            index = int(field["leaf_index"])
            if not rel2par:
                # a relation map may map a name to "", which ``close``
                # refuses as it refuses a missing rel2par
                raise MalformedTree(f"missing rel2par on span {(index, index)}")
            edus.append(Edu(index, normalize_edu_text(field["leaf_text"])))
            frames[-1].children.append((field["leaf_role"], rel2par, index, index))
        elif kind == "close":
            frame = frames.pop()
            side = frame.close(field.start(), nodes)
            # only a leaf frame records its EDU: a one-child constituent
            # over a leaf also closes to that leaf's span
            if frame.leaf is not None:
                edus.append(Edu(frame.leaf, frame.text))
            if not frames:
                root = side
                break
            frames[-1].children.append(side)
        elif kind == "head":
            role = field["head_role"]
            if role == ROOT and frames:
                raise DisSyntaxError(
                    "Root below the top level", field.start("head_role")
                )
            name = field["head_rel2par"]
            span = (int(field["head_first"]), int(field["head_last"]))
            frames.append(_Frame(role, name and relation(name), span))
        elif kind == "constituent":
            role = field["role"]
            if role == ROOT and frames:
                raise DisSyntaxError("Root below the top level", field.start("role"))
            frames.append(_Frame(role))
        elif kind == "leaf":
            frames[-1].leaf = int(field["index"])
        elif kind == "open":
            # a ( that starts no whole field: read it token by token
            head_kind, head, head_pos = cursor.take()
            if head_kind != "atom":
                raise DisSyntaxError("expected a name after (", head_pos)
            frame = frames[-1]
            if head == "span":
                frame.span = (cursor.take_int(), cursor.take_int())
            elif head == "leaf":
                frame.leaf = cursor.take_int()
            elif head == "rel2par":
                frame.rel2par = relation(cursor.take("atom")[1])
            elif head == "text":
                frame.text = normalize_edu_text(cursor.take("text")[1])
            else:
                raise DisSyntaxError(f"unknown field {head!r}", head_pos)
            cursor.take("close")
        elif kind == "node":
            head, head_pos = _head(field)
            raise DisSyntaxError(f"unknown field {head!r}", head_pos)
        else:
            _, value, pos = _token(field)
            raise DisSyntaxError(f"expected ( or ), got {value!r}", pos)
    else:
        raise DisSyntaxError("unexpected end of input", cursor.length)
    trailing = next(cursor.fields, None)
    if trailing is not None:
        raise DisSyntaxError("trailing content after tree", _token(trailing)[2])
    return root, nodes, tuple(edus)


def _doc_id_from_path(path: Path) -> str:
    name = path.name
    for suffix in (".dis", ".out"):
        if name.endswith(suffix):
            name = name[: -len(suffix)]
    return name


def read_utf8(path: str | Path, error: type[Exception] = ConfigError) -> str:
    """The text of a file, which must be UTF-8: other bytes raise ``error``
    naming the path."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path} is not UTF-8 text: {exc}") from None


def read_dis(
    path: str | Path, relation_map: "RelationMap | None" = None
) -> Document:
    """Load one annotated document, mapping relations as it reads.

    The document holds the node table the reader folds its constituents
    into, and no tree: ``Document.tree`` is built when first read. Its
    checks, messages and offsets are those of ``parse_dis``.
    """
    path = Path(path)
    text = read_utf8(path, DisSyntaxError)
    try:
        nodes, edus = _fold_dis(text, relation_map)
    except UnknownRelation as exc:
        raise UnknownRelation(f"{path}: {exc}") from None
    return Document(_doc_id_from_path(path), edus, nodes)


# ---------------------------------------------------------------------------
# Relation maps


def normalize_relation(name: str) -> str:
    """Lowercase and drop the embedded-unit suffix ("-e") if present."""
    name = name.strip().lower()
    if name.endswith("-e"):
        name = name[:-2]
    return name


@dataclass(frozen=True)
class RelationMap:
    """Normalized source name -> canonical target label."""

    entries: dict[str, str]

    def apply(self, name: str) -> str:
        key = normalize_relation(name)
        try:
            return self.entries[key]
        except KeyError:
            raise UnknownRelation(
                f"relation {name!r} is not in the relation map"
            ) from None


def _config_rows(path: Path) -> Iterable[tuple[int, list[str]]]:
    """Tab-split data rows of a config file, skipping blanks and # comments."""
    for lineno, line in enumerate(read_utf8(path).splitlines(), start=1):
        line = line.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        yield lineno, [cell.strip() for cell in line.split("\t")]


def load_relation_map(path: str | Path) -> RelationMap:
    path = Path(path)
    entries: dict[str, str] = {}
    for lineno, cells in _config_rows(path):
        if len(cells) != 2 or not cells[0] or not cells[1]:
            raise ConfigError(f"{path}:{lineno}: expected 'source<TAB>target'")
        key = normalize_relation(cells[0])
        if key in entries and entries[key] != cells[1]:
            raise ConfigError(
                f"{path}:{lineno}: conflicting targets for {cells[0]!r}"
            )
        entries[key] = cells[1]
    if not entries:
        raise ConfigError(f"{path}: empty relation map")
    return RelationMap(entries)


# ---------------------------------------------------------------------------
# Label inventories


def load_inventory(path: str | Path) -> LabelInventory:
    """The inventory a file holds. A set ``LabelInventory`` refuses, as one
    whose labels the answer rule reads alike, is a ``ConfigError``."""
    path = Path(path)
    directives: dict[str, str] = {}
    relations: list[str] = []
    for lineno, cells in _config_rows(path):
        if cells[0].startswith("!"):
            if len(cells) != 2:
                raise ConfigError(f"{path}:{lineno}: expected '!key<TAB>value'")
            directives[cells[0][1:]] = cells[1]
        elif len(cells) != 1:
            raise ConfigError(f"{path}:{lineno}: one relation name per line")
        elif _UNWRITABLE_RE.search(cells[0]):
            raise ConfigError(
                f"{path}:{lineno}: relation {cells[0]!r} has whitespace or a "
                "parenthesis, which a .tree line cannot hold"
            )
        else:
            relations.append(cells[0])
    try:
        return LabelInventory(
            id=directives["id"],
            relations=tuple(relations),
            default_relation=directives["default_relation"],
            default_nuclearity=directives.get("default_nuclearity", NS),
        )
    except KeyError as exc:
        raise ConfigError(f"{path}: missing directive !{exc.args[0]}") from None
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _data_path(filename: str) -> Path:
    return Path(str(resources.files("rstkit").joinpath("data", filename)))


def builtin_inventory(name: str) -> LabelInventory:
    """Bundled inventories: "rst-dt" (18 classes) or "instr-dt" (39)."""
    return load_inventory(_data_path(f"{name}.inv"))


def builtin_relation_map(name: str) -> RelationMap:
    """Bundled maps: "rst-dt-coarse" (fine -> 18) or "gum-rstdt"."""
    return load_relation_map(_data_path(f"{name}.map"))


def minicorpus_dir() -> Path:
    """Directory of the bundled synthetic corpus (.dis files + splits.tsv)."""
    return Path(str(resources.files("rstkit").joinpath("data", "minicorpus")))


# ---------------------------------------------------------------------------
# Canonical bracket format for predicted trees


def write_tree(tree: RstTree | NodeTable) -> str:
    """One-line bracket form: (NS Relation (leaf 1) (NN Rel ...)), of a node
    table over EDUs 1..n (``core.NodeTable``) or of a tree."""
    if isinstance(tree, dict):
        nodes, root = tree, (1, len(tree) + 1)
    else:
        nodes, root = node_table(tree), tree.span
    pieces: list[str] = []
    stack: list[object] = [root]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            pieces.append(item)
        elif item[0] == item[1]:
            pieces.append(f"(leaf {item[0]})")
        else:
            mid, nuclearity, relation = nodes[item]
            if not item[0] <= mid < item[1]:
                raise ValueError(f"split {mid} outside span {item}")
            if _UNWRITABLE_RE.search(relation):
                raise ValueError(
                    f"relation {relation!r} not writable in bracket form"
                )
            pieces.append(f"({PATTERN_SHORT[nuclearity]} {relation}")
            stack.append(")")
            stack.append((mid + 1, item[1]))
            stack.append((item[0], mid))
    text = ""
    for piece in pieces:
        if text and piece != ")":
            text += " "
        text += piece
    return text


def read_tree(line: str, edus: Sequence[Edu] | None = None) -> NodeTable:
    """Read the bracket form into the node table of its tree, which must
    cover EDUs 1..n: n is the number of ``edus`` when they are given, else
    the line's last EDU. A line over any other span raises
    SegmentationMismatch."""
    # frames hold (pattern, relation, the spans of the children so far)
    frames: list[tuple[str, str, list[tuple[int, int]]]] = []
    nodes: NodeTable = {}
    result: tuple[int, int] | None = None

    def attach(span: tuple[int, int], pos: int) -> None:
        nonlocal result
        if frames:
            frames[-1][2].append(span)
        elif result is None:
            result = span
        else:
            raise DisSyntaxError("multiple top-level trees on one line", pos)

    with _Tokens(line) as cursor:
        for field in cursor.fields:
            kind = field.lastgroup
            if kind == "leaf":
                index, pos = int(field["index"]), field.start()
                if edus is None:
                    if index < 1:
                        raise MalformedTree(f"EDU index must be 1-based, got {index}")
                elif not 1 <= index <= len(edus):
                    raise DisSyntaxError(f"leaf {index} outside document", pos)
                attach((index, index), pos)
            elif kind == "node":
                pattern = SHORT_PATTERN[field["pattern"]]
                frames.append((pattern, field["relation"], []))
            elif kind == "close":
                pos = field.start()
                if not frames:
                    raise DisSyntaxError("unbalanced )", pos)
                pattern, relation, children = frames.pop()
                if len(children) != 2:
                    raise DisSyntaxError(
                        f"node needs exactly two children, got {len(children)}", pos
                    )
                (first, mid), (start, last) = children
                if mid + 1 != start:
                    raise DisSyntaxError(
                        "children must cover adjacent spans, got "
                        f"{children[0]} then {children[1]}", pos
                    )
                nodes[(first, last)] = [mid, pattern, relation]
                attach((first, last), pos)
            elif kind == "open":
                # a ( that starts no whole node: read token by token, for the
                # error. A (leaf n) or (NS Relation whose tokens all read
                # would have matched whole, so its checks here always raise
                head_kind, head, head_pos = cursor.take()
                if head_kind != "atom":
                    raise DisSyntaxError("expected node head after (", head_pos)
                if head == "leaf":
                    cursor.take_int()
                    cursor.take("close")
                elif head in SHORT_PATTERN:
                    cursor.take("atom")
                raise DisSyntaxError(f"unknown node head {head!r}", head_pos)
            elif kind in _FIELD_KINDS:
                head, head_pos = _head(field)
                raise DisSyntaxError(f"unknown node head {head!r}", head_pos)
            else:
                _, value, pos = _token(field)
                raise DisSyntaxError(f"unexpected token {value!r}", pos)

    if frames:
        raise DisSyntaxError("unclosed ( in bracket line", len(line))
    if result is None:
        raise DisSyntaxError("empty bracket line", 0)
    check_segmentation(result, result[1] if edus is None else len(edus))
    return nodes


# ---------------------------------------------------------------------------
# Split manifests


def load_split_manifest(path: str | Path) -> dict[str, list[str]]:
    """Read split rows, enforce disjointness and any declared sizes."""
    path = Path(path)
    splits: dict[str, list[str]] = {}
    declared: dict[str, int] = {}
    owner: dict[str, str] = {}
    for lineno, cells in _config_rows(path):
        if cells[0] == "!count":
            if len(cells) != 3 or not re.fullmatch(_NUMBER, cells[2]):
                raise ConfigError(
                    f"{path}:{lineno}: expected '!count<TAB>split<TAB>N'"
                )
            declared[cells[1]] = int(cells[2])
            continue
        if len(cells) != 2 or not cells[0] or not cells[1]:
            raise ConfigError(f"{path}:{lineno}: expected 'split<TAB>doc_id'")
        name, doc_id = cells
        if doc_id in owner and owner[doc_id] != name:
            raise ConfigError(
                f"{path}:{lineno}: {doc_id!r} already in split {owner[doc_id]!r}"
            )
        if doc_id not in owner:
            owner[doc_id] = name
            splits.setdefault(name, []).append(doc_id)
    for name, expected in declared.items():
        actual = len(splits.get(name, []))
        if actual != expected:
            raise ConfigError(
                f"{path}: split {name!r} declares {expected} documents, has {actual}"
            )
    if not splits:
        raise ConfigError(f"{path}: no split rows")
    return splits


def resolve_document_path(corpus_dir: str | Path, doc_id: str) -> Path:
    corpus_dir = Path(corpus_dir)
    for candidate in (doc_id, f"{doc_id}.dis", f"{doc_id}.out.dis"):
        path = corpus_dir / candidate
        if path.is_file():
            return path
    raise MissingDocument(f"no file for document {doc_id!r} under {corpus_dir}")


def load_documents(
    corpus_dir: str | Path,
    manifest: str | Path | None = None,
    split: str | None = None,
    relation_map: RelationMap | None = None,
) -> list[Document]:
    """Read the documents a command works on, mapping relations as they load.

    With a manifest: the documents of ``split``, or of every split, in
    manifest order. Without one: every ``.dis`` file in the directory,
    sorted by name. Two files that give one document id, such as
    ``doc01.dis`` and ``doc01.out.dis``, raise ConfigError.
    """
    corpus_dir = Path(corpus_dir)
    if not corpus_dir.is_dir():
        raise ConfigError(f"corpus directory {corpus_dir} does not exist")
    if manifest:
        splits = load_split_manifest(manifest)
        if split:
            if split not in splits:
                raise ConfigError(
                    f"manifest has no split {split!r}; found {sorted(splits)}"
                )
            doc_ids = splits[split]
        else:
            doc_ids = [doc_id for ids in splits.values() for doc_id in ids]
    elif split:
        raise ConfigError("--split needs --manifest")
    else:
        doc_ids = sorted(p.name for p in corpus_dir.iterdir() if p.suffix == ".dis")
        if not doc_ids:
            raise ConfigError(f"no .dis files under {corpus_dir}")
    documents: list[Document] = []
    paths: dict[str, Path] = {}
    for name in doc_ids:
        path = resolve_document_path(corpus_dir, name)
        doc_id = _doc_id_from_path(path)
        if doc_id in paths:
            raise ConfigError(
                f"{paths[doc_id]} and {path} both give document id {doc_id!r}"
            )
        paths[doc_id] = path
        documents.append(read_dis(path, relation_map))
    return documents
