"""Tree model for RST constituency structure.

A document is a sequence of elementary discourse units (EDUs). Its analysis
is a binary constituency tree: every internal node joins two adjacent spans,
carries a nuclearity pattern (which side is more central) and a rhetorical
relation. Treebank files store n-ary constituents with per-child roles, so
this module also models that raw shape and converts it to the binary form
with a right-heavy chain.

All tree walks here are iterative. Right-heavy binary trees over long
documents are as deep as the document is long, and recursion would hit the
interpreter limit near a thousand EDUs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence, Union

# Nuclearity patterns, in canonical prompt spelling. The pattern is read
# left-to-right: NS means the left child is the nucleus.
NN = "nucleus-nucleus"
NS = "nucleus-satellite"
SN = "satellite-nucleus"
NUCLEARITY_PATTERNS = (NN, NS, SN)

# Child roles in the n-ary treebank shape.
ROOT = "Root"
NUCLEUS = "Nucleus"
SATELLITE = "Satellite"

# rel2par marker on the nucleus child of a mono-nuclear constituent. It is a
# placeholder, not a relation; the pair's relation comes from the satellite.
SPAN_REL = "span"


class MalformedTree(ValueError):
    """A tree violates role, span, or adjacency constraints."""


@dataclass(frozen=True)
class Edu:
    """Elementary discourse unit: 1-based document index plus its text."""

    index: int
    text: str

    def __post_init__(self) -> None:
        if self.index < 1:
            raise MalformedTree(f"EDU index must be 1-based, got {self.index}")


@dataclass(frozen=True)
class Leaf:
    edu: Edu

    @property
    def span(self) -> tuple[int, int]:
        return (self.edu.index, self.edu.index)


@dataclass(frozen=True, eq=False)
class Node:
    """Binary constituent over two adjacent spans.

    Equality compares whole trees, walking them with a stack rather than
    recursing; the hash covers only this node's span and labels, which equal
    trees share.
    """

    left: "RstTree"
    right: "RstTree"
    nuclearity: str
    relation: str
    span: tuple[int, int] = field(init=False)

    def __post_init__(self) -> None:
        if self.nuclearity not in NUCLEARITY_PATTERNS:
            raise MalformedTree(f"unknown nuclearity pattern {self.nuclearity!r}")
        if not self.relation:
            raise MalformedTree("internal node needs a relation label")
        lspan, rspan = self.left.span, self.right.span
        if lspan[1] + 1 != rspan[0]:
            raise MalformedTree(
                f"children must cover adjacent spans, got {lspan} then {rspan}"
            )
        object.__setattr__(self, "span", (lspan[0], rspan[1]))

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


def edu_count(tree: RstTree) -> int:
    return tree.span[1] - tree.span[0] + 1


def tree_text(tree: RstTree) -> str:
    """Text covered by a subtree, EDU texts joined by single spaces."""
    return " ".join(leaf.edu.text for leaf in leaves(tree))


def span_text(edus: Sequence[Edu], span: tuple[int, int]) -> str:
    """Text of EDUs span[0]..span[1] (1-based, inclusive), space-joined."""
    first, last = span
    if not (1 <= first <= last <= len(edus)):
        raise IndexError(f"span {span} out of range for {len(edus)} EDUs")
    return " ".join(edu.text for edu in edus[first - 1 : last])


class DocumentText:
    """A document's EDU texts joined by single spaces, with EDU offsets.

    EDU i (1-based) occupies ``text[starts[i]:ends[i]]``, so the text of
    EDUs first..last is the one slice ``text[starts[first]:ends[last]]``,
    equal to ``span_text`` of that span, and a prompt can take a long
    span's head and tail without joining its middle.
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


def check_tree(tree: RstTree, n_edus: int) -> None:
    """Validate that a tree covers EDUs 1..n_edus exactly once, in order.

    Node construction already enforces adjacency and label sanity; this
    checks the global leaf sequence so engine outputs can be asserted valid.
    """
    got = [leaf.edu.index for leaf in leaves(tree)]
    if got != list(range(1, n_edus + 1)):
        raise MalformedTree(f"leaves cover {got}, expected 1..{n_edus}")


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


# ---------------------------------------------------------------------------
# Raw n-ary treebank shape and binarization


@dataclass
class NaryNode:
    """Constituent as stored in treebank files.

    Leaves have ``edu`` set and no children. ``rel2par`` is the relation to
    the parent (None only on the Root). A mono-nuclear constituent marks its
    nucleus child with the placeholder rel2par "span".
    """

    role: str
    rel2par: str | None
    span: tuple[int, int]
    children: list["NaryNode"] = field(default_factory=list)
    edu: Edu | None = None

    @property
    def is_leaf(self) -> bool:
        return self.edu is not None


def validate_nary(root: NaryNode) -> None:
    """Check roles, spans, and the one-nucleus-minimum on every constituent."""
    if root.role != ROOT:
        raise MalformedTree(f"root must have role {ROOT!r}, got {root.role!r}")
    stack = [root]
    while stack:
        node = stack.pop()
        if node is not root:
            if node.role not in (NUCLEUS, SATELLITE):
                raise MalformedTree(f"bad child role {node.role!r}")
            if not node.rel2par:
                raise MalformedTree(f"missing rel2par on span {node.span}")
        if node.is_leaf:
            if node.children:
                raise MalformedTree(f"leaf {node.span} has children")
            assert node.edu is not None
            if node.span != (node.edu.index, node.edu.index):
                raise MalformedTree(
                    f"leaf span {node.span} does not match EDU {node.edu.index}"
                )
            continue
        if not node.children:
            raise MalformedTree(f"constituent {node.span} has no children")
        if len(node.children) > 1 and not any(
            c.role == NUCLEUS for c in node.children
        ):
            raise MalformedTree(f"constituent {node.span} has no nucleus child")
        pos = node.span[0]
        for child in node.children:
            if child.span[0] != pos:
                raise MalformedTree(
                    f"children of {node.span} not contiguous at {child.span}"
                )
            pos = child.span[1] + 1
            stack.append(child)
        if pos != node.span[1] + 1:
            raise MalformedTree(f"children do not cover {node.span}")


def _pair(left: tuple[str, str, RstTree], right: tuple[str, str, RstTree]) -> Node:
    """Join two sides of a constituent into one binary node.

    Each side is (role, rel2par, subtree). Mono-nuclear pairs take the
    satellite side's relation; nucleus-nucleus pairs take whichever side
    carries a real relation (the shared multi-nuclear label in practice).
    A satellite-satellite pair can only be the tail of a satellite-only
    chain; it leans on the left side, which sits nearer the nucleus.
    """
    lrole, lrel, ltree = left
    rrole, rrel, rtree = right
    if lrole == NUCLEUS and rrole == SATELLITE:
        return Node(ltree, rtree, NS, rrel)
    if lrole == SATELLITE and rrole == NUCLEUS:
        return Node(ltree, rtree, SN, lrel)
    if lrole == SATELLITE and rrole == SATELLITE:
        return Node(ltree, rtree, NS, rrel)
    # nucleus-nucleus: prefer the left rel2par, skipping "span" placeholders
    relation = lrel if lrel != SPAN_REL else rrel
    if relation == SPAN_REL:
        raise MalformedTree(
            f"two span-marked nuclei under one constituent at {ltree.span}"
        )
    return Node(ltree, rtree, NN, relation)


def _chain(parts: list[tuple[str, str, RstTree]]) -> tuple[str, str, RstTree]:
    """Fold a constituent's children into a right-heavy binary chain.

    The folded chain acts as Nucleus toward its left sibling iff it contains
    a nucleus, and presents its first child's rel2par as its own.
    """
    role, rel, tree = parts[-1]
    for lrole, lrel, ltree in reversed(parts[:-1]):
        tree = _pair((lrole, lrel, ltree), (role, rel, tree))
        role = NUCLEUS if NUCLEUS in (lrole, role) else SATELLITE
        rel = lrel
    return role, rel, tree


def binarize(root: NaryNode) -> RstTree:
    """Convert a validated n-ary constituent tree to the binary form.

    A k-child constituent becomes k-1 binary nodes: the first child paired
    against the folded remainder. Multi-nuclear constituents therefore yield
    intermediate nodes that repeat the parent's relation with pattern NN.
    """
    validate_nary(root)
    done: dict[int, tuple[str, str, RstTree]] = {}
    stack: list[tuple[NaryNode, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if node.is_leaf:
            assert node.edu is not None
            done[id(node)] = (node.role, node.rel2par or SPAN_REL, Leaf(node.edu))
            continue
        if not expanded:
            stack.append((node, True))
            stack.extend((child, False) for child in node.children)
            continue
        parts = [done.pop(id(child)) for child in node.children]
        _, _, tree = _chain(parts)
        done[id(node)] = (node.role, node.rel2par or SPAN_REL, tree)
    return done[id(root)][2]


# ---------------------------------------------------------------------------
# Gold derivations


@dataclass(frozen=True)
class Shift:
    def __str__(self) -> str:
        return "shift"


@dataclass(frozen=True)
class Reduce:
    nuclearity: str
    relation: str

    def __str__(self) -> str:
        return "reduce"


Action = Union[Shift, Reduce]


def derive_shift_reduce_sequence(tree: RstTree) -> list[Action]:
    """Post-order action sequence that rebuilds the tree, length 2n-1."""
    ordered: list[RstTree] = []
    stack: list[RstTree] = [tree]
    while stack:
        node = stack.pop()
        ordered.append(node)
        if isinstance(node, Node):
            stack.append(node.left)
            stack.append(node.right)
    actions: list[Action] = []
    for node in reversed(ordered):
        if isinstance(node, Leaf):
            actions.append(Shift())
        else:
            actions.append(Reduce(node.nuclearity, node.relation))
    return actions


@dataclass(frozen=True)
class SplitStep:
    """One top-down decision: where a span splits and how the halves relate.

    ``k`` is the 0-based relative index of the last EDU in the left half, so
    for a span of length m it lies in 0..m-2.
    """

    span: tuple[int, int]
    k: int
    nuclearity: str
    relation: str


def derive_split_sequence(tree: RstTree) -> list[SplitStep]:
    """Pre-order split decisions, left subtree before right, length n-1."""
    steps: list[SplitStep] = []
    stack: list[RstTree] = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, Leaf):
            continue
        steps.append(
            SplitStep(
                span=node.span,
                k=node.left.span[1] - node.span[0],
                nuclearity=node.nuclearity,
                relation=node.relation,
            )
        )
        stack.append(node.right)
        stack.append(node.left)
    return steps
