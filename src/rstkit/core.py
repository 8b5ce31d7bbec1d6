"""Tree model for RST constituency structure.

A document is a sequence of elementary discourse units (EDUs). Its analysis
is a binary constituency tree: every internal node joins two adjacent spans,
carries a nuclearity pattern (which side is more central) and a rhetorical
relation. Treebank files store n-ary constituents; ``rstkit.corpus`` folds
each into a right-heavy chain of binary nodes as it reads.

All tree walks here are iterative. Right-heavy binary trees over long
documents are as deep as the document is long, and recursion would hit the
interpreter limit near a thousand EDUs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from json.encoder import encode_basestring, encode_basestring_ascii
from typing import Iterator, Sequence, Union

# Nuclearity patterns, in canonical prompt spelling. The pattern is read
# left-to-right: NS means the left child is the nucleus.
NN = "nucleus-nucleus"
NS = "nucleus-satellite"
SN = "satellite-nucleus"
NUCLEARITY_PATTERNS = (NN, NS, SN)

# Most digits a number read from text may have. int() refuses longer digit
# strings than the interpreter's limit (sys.set_int_max_str_digits), which
# is never below 640, so a reader that keeps to this bound works alike
# under any limit. No index, count or length comes near it.
MAX_DIGITS = 640


def json_string(text: str | None) -> str:
    """``text`` as ``json.dumps(text, ensure_ascii=False)`` writes it: a
    quoted JSON string with non-ASCII kept as is, or ``null`` for None.

    The JSONL records (trace lines, training pairs, cache segment lines)
    are written field by field with this, each by a formatter of its own.
    """
    if text is None:
        return "null"
    if text.isascii() and "\x7f" not in text:
        # the ASCII escaper is about twice as fast, and below DEL it writes
        # the same text
        return encode_basestring_ascii(text)
    return encode_basestring(text)


class MalformedTree(ValueError):
    """A tree violates role, span, or adjacency constraints."""


def slot_setters(cls: type, *names: str) -> tuple:
    """The ``__set__`` of each named slot of ``cls``: a slotted frozen
    dataclass's ``__init__`` stores its fields through them."""
    return tuple(cls.__dict__[name].__set__ for name in names)


@dataclass(frozen=True, slots=True)
class Edu:
    """Elementary discourse unit: 1-based document index plus its text.

    Like ``Node`` and ``oracle.OracleQuery``, it checks its fields in its
    own ``__init__`` (``dataclasses.replace`` runs it too) and stores each
    through its slot, not through the frozen ``__setattr__``.
    """

    index: int
    text: str

    def __init__(self, index: int, text: str) -> None:
        if index < 1:
            raise MalformedTree(f"EDU index must be 1-based, got {index}")
        _set_edu_index(self, index)
        _set_edu_text(self, text)


_set_edu_index, _set_edu_text = slot_setters(Edu, "index", "text")


@dataclass(frozen=True, slots=True)
class Leaf:
    edu: Edu

    @property
    def span(self) -> tuple[int, int]:
        return (self.edu.index, self.edu.index)


@dataclass(frozen=True, eq=False, slots=True)
class Node:
    """Binary constituent over two adjacent spans.

    Equality compares whole trees, walking them with a stack rather than
    recursing; the hash covers only this node's span and labels, which equal
    trees share. ``__init__`` checks the labels and that the children are
    adjacent, and stores each field, ``span`` too, through its slot.
    """

    left: "RstTree"
    right: "RstTree"
    nuclearity: str
    relation: str
    span: tuple[int, int] = field(init=False)

    def __init__(
        self, left: "RstTree", right: "RstTree", nuclearity: str, relation: str
    ) -> None:
        if nuclearity not in NUCLEARITY_PATTERNS:
            raise MalformedTree(f"unknown nuclearity pattern {nuclearity!r}")
        if not relation:
            raise MalformedTree("internal node needs a relation label")
        lspan, rspan = left.span, right.span
        if lspan[1] + 1 != rspan[0]:
            raise MalformedTree(
                f"children must cover adjacent spans, got {lspan} then {rspan}"
            )
        _set_node_left(self, left)
        _set_node_right(self, right)
        _set_node_nuclearity(self, nuclearity)
        _set_node_relation(self, relation)
        _set_node_span(self, (lspan[0], rspan[1]))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Node):
            return NotImplemented
        pairs: list[tuple[RstTree, RstTree]] = [(self, other)]
        while pairs:
            a, b = pairs.pop()
            if a is b:
                continue
            if not isinstance(a, Node) or not isinstance(b, Node):
                if a != b:
                    return False
                continue
            if (a.span, a.nuclearity, a.relation) != (b.span, b.nuclearity, b.relation):
                return False
            pairs.append((a.right, b.right))
            pairs.append((a.left, b.left))
        return True

    def __hash__(self) -> int:
        return hash((self.span, self.nuclearity, self.relation))


(_set_node_left, _set_node_right, _set_node_nuclearity, _set_node_relation,
 _set_node_span) = slot_setters(Node, "left", "right", "nuclearity", "relation", "span")

RstTree = Union[Leaf, Node]


def leaves(tree: RstTree) -> list[Leaf]:
    """All leaves left to right."""
    found: list[Leaf] = []
    stack: list[RstTree] = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, Leaf):
            found.append(node)
        else:
            stack.append(node.right)
            stack.append(node.left)
    return found


def internal_nodes(tree: RstTree) -> Iterator[Node]:
    """Internal nodes in pre-order, left child before right."""
    stack: list[RstTree] = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, Node):
            yield node
            stack.append(node.right)
            stack.append(node.left)


class DocumentText:
    """A document's EDU texts joined by single spaces, with EDU offsets.

    EDU i (1-based) occupies ``text[starts[i]:ends[i]]``, so the text of
    EDUs first..last, space-joined, is the one slice
    ``text[starts[first]:ends[last]]``, and a prompt can take a long span's
    head and tail without joining its middle.
    """

    __slots__ = ("text", "starts", "ends")

    def __init__(self, edus: Sequence[Edu]):
        texts = [edu.text for edu in edus]
        self.text = " ".join(texts)
        # index 0 is unused, so EDU numbers index the tables directly
        self.starts = [0] * (len(texts) + 1)
        self.ends = [0] * (len(texts) + 1)
        pos = 0
        for index, text in enumerate(texts, 1):
            self.starts[index] = pos
            pos += len(text)
            self.ends[index] = pos
            pos += 1


@dataclass(frozen=True)
class LabelInventory:
    """Closed, ordered set of relation labels for one corpus convention.

    The order is meaningful: relation prompts list the options in inventory
    order. Defaults are the labels substituted for unusable oracle output.
    """

    id: str
    relations: tuple[str, ...]
    default_relation: str
    default_nuclearity: str = NS

    def __post_init__(self) -> None:
        if not self.relations:
            raise ValueError("inventory needs at least one relation")
        if len(set(self.relations)) != len(self.relations):
            raise ValueError("inventory relations must be unique")
        if self.default_relation not in self.relations:
            raise ValueError(
                f"default relation {self.default_relation!r} not in inventory"
            )
        if self.default_nuclearity not in NUCLEARITY_PATTERNS:
            raise ValueError(
                f"default nuclearity {self.default_nuclearity!r} unknown"
            )
