"""Tree model: construction rules, binarization, gold derivations.

The binarization tests write small n-ary trees as .dis text and compare
what ``parse_dis`` reads against a recursive reference implementation kept
here, written directly from the labeling rules. It is the fixed point the
reader's fold-as-it-reads must match. The same documents, and one-character
edits of them, hold the field-at-a-time readers to the token-at-a-time
ones in ``token_reader.py``.
"""

from __future__ import annotations

import copy
import dataclasses
import gc
import importlib.util
import itertools
import pickle
import random
import re
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import token_reader
from rstkit import (
    NUCLEARITY,
    NUCLEARITY_PATTERNS,
    ConfigError,
    DisSyntaxError,
    Document,
    DocumentText,
    Edu,
    LabelInventory,
    Leaf,
    MalformedTree,
    Node,
    OracleQuery,
    ParsePolicy,
    RelationMap,
    ReplayExhausted,
    ReplayOracle,
    ScriptedOracle,
    SegmentationMismatch,
    build_tree,
    internal_nodes,
    leaves,
    load_inventory,
    minicorpus_dir,
    node_table,
    parse_bottom_up,
    parse_dis,
    parse_top_down,
    read_dis,
    read_tree,
    write_tree,
)
from rstkit.cli import main as cli_main
from rstkit.core import NN, NS, SN
from rstkit.training import ENGINES, gold_walk

from conftest import DATA_DIR, LONG_DIGITS, check_tree, make_edus, random_tree


# ---------------------------------------------------------------------------
# Test-local n-ary trees, their .dis text, and the reference binarizer
#
# A constituent is (role, rel2par, body): body is the EDU index of a leaf,
# or the list of child constituents. The Root's rel2par is None.


def _edu(index: int) -> Edu:
    return Edu(index, f"edu {index}.")


def _span(node) -> tuple[int, int]:
    body = node[2]
    if isinstance(body, int):
        return (body, body)
    return (_span(body[0])[0], _span(body[-1])[1])


def to_dis(node) -> str:
    role, rel, body = node
    if isinstance(body, int):
        head, inside = f"(leaf {body})", [f"(text _!{_edu(body).text}_!)"]
    else:
        head, inside = "(span %d %d)" % _span(node), [to_dis(c) for c in body]
    rel2par = [] if rel is None else [f"(rel2par {rel})"]
    return " ".join([f"( {role}", head, *rel2par, *inside, ")"])


def ref_pair(left, right):
    lrole, lrel, ltree = left
    rrole, rrel, rtree = right
    if lrole == "Nucleus" and rrole == "Satellite":
        return Node(ltree, rtree, NS, rrel)
    if lrole == "Satellite" and rrole == "Nucleus":
        return Node(ltree, rtree, SN, lrel)
    if lrole == "Satellite" and rrole == "Satellite":
        return Node(ltree, rtree, NS, rrel)
    relation = lrel if lrel != "span" else rrel
    if relation == "span":
        raise MalformedTree("two span-marked nuclei")
    return Node(ltree, rtree, NN, relation)


def ref_fold(sides):
    if len(sides) == 1:
        return sides[0]
    first, rest = sides[0], ref_fold(sides[1:])
    node = ref_pair(first, rest)
    role = "Nucleus" if "Nucleus" in (first[0], rest[0]) else "Satellite"
    return (role, first[1], node)


def ref_binarize(node):
    role, rel, body = node
    if isinstance(body, int):
        return (role, rel or "span", Leaf(_edu(body)))
    sides = [ref_binarize(child) for child in body]
    return (role, rel or "span", ref_fold(sides)[2])


def ref_binarize_root(root):
    return ref_binarize(root)[2]


def read(root):
    """The binary tree ``parse_dis`` reads from the .dis text of ``root``."""
    tree, edus = parse_dis(to_dis(root))
    assert edus == tuple(leaf.edu for leaf in leaves(tree))
    return tree


# ---------------------------------------------------------------------------
# Basic shape rules


def test_edu_index_must_be_positive():
    with pytest.raises(MalformedTree):
        Edu(0, "zero")
    with pytest.raises(MalformedTree):
        Edu(-3, "negative")


def test_node_requires_adjacent_children():
    e = make_edus(3)
    with pytest.raises(MalformedTree, match="adjacent"):
        Node(Leaf(e[0]), Leaf(e[2]), NS, "Elaboration")
    # wrong order is also non-adjacent
    with pytest.raises(MalformedTree):
        Node(Leaf(e[1]), Leaf(e[0]), NS, "Elaboration")


def test_node_requires_known_nuclearity_and_relation():
    e = make_edus(2)
    with pytest.raises(MalformedTree, match="nuclearity"):
        Node(Leaf(e[0]), Leaf(e[1]), "NS", "Elaboration")
    with pytest.raises(MalformedTree, match="relation"):
        Node(Leaf(e[0]), Leaf(e[1]), NS, "")


def test_node_span_is_union_of_children():
    e = make_edus(3)
    inner = Node(Leaf(e[0]), Leaf(e[1]), NS, "Elaboration")
    assert inner.span == (1, 2)
    root = Node(inner, Leaf(e[2]), SN, "Background")
    assert root.span == (1, 3)


# label sets built in code that the answer rule cannot tell apart, and what
# each is refused with: load_inventory's wording, without the file's path
ALIKE_LABEL_SETS = [
    (("list", "List"), "relations 'list' and 'List' read as one answer"),
    (("02", "2"), "relations '2' and '02' read as one answer"),
    (("02",), "relation '02' reads as no relation of the set"),
]


@pytest.mark.parametrize(
    "relations,message", ALIKE_LABEL_SETS, ids=["case", "zero-padded", "alone"]
)
def test_inventory_whose_labels_read_alike_is_refused_where_it_is_made(
    tmp_path, relations, message
):
    # a gold replay over such a set would rewrite List as list and 02 as 2
    with pytest.raises(ValueError) as caught:
        LabelInventory("alike", relations, relations[0])
    assert str(caught.value) == message
    path = tmp_path / "alike.inv"
    path.write_text(f"!id\talike\n!default_relation\t{relations[0]}\n" + "".join(
        f"{label}\n" for label in relations
    ))
    with pytest.raises(ConfigError) as caught:
        load_inventory(path)
    assert str(caught.value) == f"{path}: {message}"


def _chain(n, right_heavy, deepest_relation="Elaboration", deepest_text=None):
    """A one-sided chain; the deepest node and leaf can be relabelled."""
    edus = list(make_edus(n))
    deep = n - 1 if right_heavy else 0
    if deepest_text is not None:
        edus[deep] = Edu(deep + 1, deepest_text)
    leafs = [Leaf(e) for e in edus]
    if right_heavy:
        tree = leafs[-1]
        for i, leaf in enumerate(reversed(leafs[:-1])):
            tree = Node(leaf, tree, NS, deepest_relation if i == 0 else "Elaboration")
    else:
        tree = leafs[0]
        for i, leaf in enumerate(leafs[1:]):
            tree = Node(tree, leaf, NS, deepest_relation if i == 0 else "Elaboration")
    return tree


@pytest.mark.parametrize("right_heavy", [True, False])
def test_deep_trees_compare_and_hash_without_recursion(right_heavy):
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        tree = _chain(1200, right_heavy)
        same = _chain(1200, right_heavy)
        relabelled = _chain(1200, right_heavy, deepest_relation="Cause")
        retexted = _chain(1200, right_heavy, deepest_text="other words.")
        assert tree == same and not tree != same
        assert hash(tree) == hash(same)
        assert tree != relabelled
        assert tree != retexted
        assert isinstance(hash(relabelled), int) and isinstance(hash(retexted), int)
        assert tree != _chain(1200, not right_heavy)
        assert {tree, same} == {tree}
    finally:
        sys.setrecursionlimit(limit)


def test_node_equality_against_other_types():
    e = make_edus(2)
    node = Node(Leaf(e[0]), Leaf(e[1]), NS, "Cause")
    assert node != Leaf(e[0])
    assert Leaf(e[0]) != node
    assert node != "(NS Cause (leaf 1) (leaf 2))"


def _records():
    """One of each slotted record: name -> (record, a field, another value)."""
    e = make_edus(2)
    query = OracleQuery(NUCLEARITY, "p", NUCLEARITY_PATTERNS, (1, 2))
    return {
        "edu": (e[0], "text", "other words."),
        "leaf": (Leaf(e[0]), "edu", e[1]),
        "node": (Node(Leaf(e[0]), Leaf(e[1]), NS, "Elaboration"), "relation", "Cause"),
        "query": (query, "prompt", "q"),
    }


@pytest.mark.parametrize("name", ["edu", "leaf", "node", "query"])
def test_records_are_slotted_and_frozen(name):
    record, field, value = _records()[name]
    assert not hasattr(record, "__dict__")
    with pytest.raises(AttributeError):
        object.__setattr__(record, "extra", 1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(record, field, value)
    with pytest.raises(dataclasses.FrozenInstanceError):
        delattr(record, field)
    # a name that is no field is refused too; on some Python versions the
    # frozen check of a slotted dataclass raises TypeError for it
    with pytest.raises((dataclasses.FrozenInstanceError, TypeError)):
        record.extra = 1
    assert not hasattr(record, "extra")
    changed = dataclasses.replace(record, **{field: value})
    assert getattr(changed, field) == value and changed != record
    same = dataclasses.replace(record)
    assert same == record and hash(same) == hash(record) and same is not record
    for copied in (copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert copied == record and hash(copied) == hash(record)
        assert getattr(copied, field) == getattr(record, field)


def test_replaced_records_are_checked_again():
    e = make_edus(3)
    node = Node(Leaf(e[0]), Leaf(e[1]), NS, "Elaboration")
    right = Node(Leaf(e[1]), Leaf(e[2]), NN, "Joint")
    assert dataclasses.replace(node, right=right).span == (1, 3)
    assert dataclasses.replace(Leaf(e[0]), edu=e[2]).span == (3, 3)
    with pytest.raises(MalformedTree, match="adjacent"):
        dataclasses.replace(node, right=Leaf(e[2]))
    with pytest.raises(MalformedTree, match="nuclearity"):
        dataclasses.replace(node, nuclearity="NS")
    with pytest.raises(MalformedTree, match="1-based"):
        dataclasses.replace(e[0], index=0)
    query = _records()["query"][0]
    with pytest.raises(ValueError, match="kind"):
        dataclasses.replace(query, kind="essay")
    with pytest.raises(ValueError, match="label set"):
        dataclasses.replace(query, valid_labels=())


def test_query_equality_and_hash_ignore_the_span():
    query = _records()["query"][0]
    for span in (None, (2, 5)):
        other = dataclasses.replace(query, span=span)
        assert other.span == span
        assert other == query and hash(other) == hash(query)
    assert dataclasses.replace(query, prompt="q") != query
    assert len({query, dataclasses.replace(query, span=None)}) == 1


def test_leaves_and_tree_text_order():
    e = make_edus(3)
    root = Node(Node(Leaf(e[0]), Leaf(e[1]), NS, "Cause"), Leaf(e[2]), NN, "Joint")
    assert [leaf.edu.index for leaf in leaves(root)] == [1, 2, 3]
    doc = DocumentText([leaf.edu for leaf in leaves(root)])
    assert doc.text == " ".join(edu.text for edu in e)


def test_internal_nodes_preorder_left_before_right():
    rng = random.Random(4)
    edus = make_edus(9, rng)
    tree = random_tree(rng, edus)
    seen = list(internal_nodes(tree))
    assert len(seen) == 8
    assert seen[0] is tree
    # every node appears before anything inside it, left side first
    for i, node in enumerate(seen):
        for later in seen[i + 1 :]:
            assert not (
                later.span[0] <= node.span[0] and node.span[1] <= later.span[1]
            ) or later.span == node.span


def test_check_tree_catches_gaps():
    e = make_edus(3)
    assert check_tree(Node(Node(Leaf(e[0]), Leaf(e[1]), NS, "Cause"),
                           Leaf(e[2]), NS, "Cause"), 3) is None
    with pytest.raises(MalformedTree):
        check_tree(Node(Leaf(e[0]), Leaf(e[1]), NS, "Cause"), 3)


# ---------------------------------------------------------------------------
# Binarization as .dis text is read, against the reference


def _leaf(i: int, role: str, rel: str):
    return (role, rel, i)


def _root(children):
    return ("Root", None, list(children))


def _text(*lines: str) -> str:
    return "( Root " + " ".join(lines) + " )"


# (MalformedTree message fragment, .dis text); each breaks one rule the
# reader checks as a constituent closes
MALFORMED_CONSTITUENTS = [
    # a nested constituent is checked when it closes, inside a sound Root
    ("rel2par", _text(
        "(span 1 3)",
        "( Nucleus (span 1 2)",
        "  ( Nucleus (leaf 1) (rel2par span) (text _!a_!) )",
        "  ( Satellite (leaf 2) (rel2par cause) (text _!b_!) ) )",
        "( Satellite (leaf 3) (rel2par cause) (text _!c_!) )",
    )),
    ("nucleus", _text(
        "(span 1 2)",
        "( Satellite (leaf 1) (rel2par cause) (text _!a_!) )",
        "( Satellite (leaf 2) (rel2par result) (text _!b_!) )",
    )),
    ("contiguous", _text(
        "(span 1 3)",
        "( Nucleus (leaf 1) (rel2par span) (text _!a_!) )",
        "( Satellite (leaf 3) (rel2par cause) (text _!c_!) )",
    )),
    ("cover", _text(
        "(span 1 3)",
        "( Nucleus (leaf 1) (rel2par span) (text _!a_!) )",
        "( Satellite (leaf 2) (rel2par cause) (text _!b_!) )",
    )),
]


@pytest.mark.parametrize(
    "fragment,text", MALFORMED_CONSTITUENTS, ids=[c[0] for c in MALFORMED_CONSTITUENTS]
)
def test_parse_dis_rejects_malformed_constituents(fragment, text):
    with pytest.raises(MalformedTree, match=fragment):
        parse_dis(text)


def _role_assignments(n: int):
    """Every Nucleus/Satellite combination with at least one nucleus."""
    for combo in itertools.product(("Nucleus", "Satellite"), repeat=n):
        if "Nucleus" in combo:
            yield combo


def _rel_for(roles, style: str):
    """rel2par assignment: canonical mono/multi or arbitrary names."""
    rels = []
    span_given = False
    for i, role in enumerate(roles):
        if style == "mono" and role == "Nucleus" and not span_given:
            rels.append("span")
            span_given = True
        elif style == "multi" and role == "Nucleus":
            rels.append("shared-rel")
        else:
            rels.append(f"rel-{i}")
    return rels


def test_binarize_matches_reference_on_all_flat_shapes():
    checked = 0
    for n in (2, 3, 4):
        for roles in _role_assignments(n):
            for style in ("mono", "multi", "arbitrary"):
                rels = _rel_for(roles, style)
                root = _root(
                    _leaf(i + 1, role, rel)
                    for i, (role, rel) in enumerate(zip(roles, rels))
                )
                got = read(root)
                expected = ref_binarize_root(root)
                assert got == expected, (roles, rels)
                check_tree(got, n)
                checked += 1
    assert checked == (3 + 7 + 15) * 3


def test_binarize_specific_mixed_shapes():
    # (N span, S a, S b): satellites fold NS with the right side's label
    got = read(_root([
        _leaf(1, "Nucleus", "span"),
        _leaf(2, "Satellite", "evidence"),
        _leaf(3, "Satellite", "background"),
    ]))
    assert got.nuclearity == NS and got.relation == "evidence"
    assert got.right.nuclearity == NS and got.right.relation == "background"

    # (S a, N span, S b)
    got = read(_root([
        _leaf(1, "Satellite", "attribution"),
        _leaf(2, "Nucleus", "span"),
        _leaf(3, "Satellite", "elaboration"),
    ]))
    assert got.nuclearity == SN and got.relation == "attribution"
    assert got.right.nuclearity == NS and got.right.relation == "elaboration"

    # multi-nuclear triple repeats the shared relation on the chain node
    got = read(_root([
        _leaf(1, "Nucleus", "list"),
        _leaf(2, "Nucleus", "list"),
        _leaf(3, "Nucleus", "list"),
    ]))
    assert (got.nuclearity, got.relation) == (NN, "list")
    assert (got.right.nuclearity, got.right.relation) == (NN, "list")

    # same-unit with an embedded satellite between the nuclei
    got = read(_root([
        _leaf(1, "Nucleus", "Same-Unit"),
        _leaf(2, "Satellite", "elaboration"),
        _leaf(3, "Nucleus", "Same-Unit"),
    ]))
    assert (got.nuclearity, got.relation) == (NN, "Same-Unit")
    assert (got.right.nuclearity, got.right.relation) == (SN, "elaboration")


def test_binarize_rejects_two_span_nuclei():
    root = _root([_leaf(1, "Nucleus", "span"), _leaf(2, "Nucleus", "span")])
    with pytest.raises(MalformedTree, match="span"):
        parse_dis(to_dis(root))
    with pytest.raises(MalformedTree):
        ref_binarize_root(root)


def test_binarize_single_child_root_unwraps():
    root = _root([
        ("Nucleus", "span", [
            _leaf(1, "Nucleus", "span"), _leaf(2, "Satellite", "cause"),
        ]),
    ])
    got = read(root)
    assert got == ref_binarize_root(root)
    assert (got.nuclearity, got.relation) == (NS, "cause")


@pytest.mark.parametrize("root", [
    ("Root", None, [("Nucleus", "span", 1)]),
    ("Root", None, [("Nucleus", "span", [("Nucleus", "span", 1)])]),
    _root([
        ("Nucleus", "span", [("Nucleus", "span", 1)]),
        ("Satellite", "cause", [
            ("Satellite", "cause", [("Satellite", "cause", 2)]),
        ]),
        _leaf(3, "Satellite", "evidence"),
    ]),
], ids=["root-over-leaf", "two-deep-over-leaf", "nested-over-leaves"])
def test_single_child_over_leaf_records_its_edu_once(root):
    # ``read`` asserts the EDUs are exactly the tree's leaves, in order
    got = read(root)
    assert got == ref_binarize_root(root)
    check_tree(got, _span(root)[1])


def test_binarize_leaf_root():
    assert read(("Root", None, 1)) == Leaf(_edu(1))


def _random_nary(rng: random.Random, lo: int, hi: int, role: str, rel):
    """A random constituent over EDUs lo..hi with the given role and rel2par."""
    if role != "Root" and rng.random() < 0.1:
        # a one-child constituent wrapping the same span, as the treebank
        # occasionally writes; it binarizes to its child's tree
        return (role, rel, [_random_nary(rng, lo, hi, role, rel)])
    if lo == hi:
        return _leaf(lo, role, rel)
    return (role, rel, [
        _random_nary(rng, a, b, crole, crel)
        for crole, crel, a, b in _random_children(rng, lo, hi)
    ])


def _random_children(rng: random.Random, lo: int, hi: int):
    """The children of a random constituent over EDUs lo..hi, in order, as
    (role, rel2par, first, last): two to four, all nuclei sharing one
    relation or one nucleus among satellites."""
    n_children = rng.randint(2, min(4, hi - lo + 1))
    cuts = sorted(rng.sample(range(lo, hi), n_children - 1))
    bounds = zip([lo] + [c + 1 for c in cuts], cuts + [hi])
    if rng.random() < 0.4:
        shared = rng.choice(["list", "sequence", "contrast"])
        return [("Nucleus", shared, a, b) for a, b in bounds]
    nucleus_at = rng.randrange(n_children)
    return [
        ("Nucleus", "span", a, b) if i == nucleus_at
        else ("Satellite", rng.choice(["cause", "evidence", "condition"]), a, b)
        for i, (a, b) in enumerate(bounds)
    ]


def test_binarize_matches_reference_on_random_nested_trees():
    rng = random.Random(20118)
    for trial in range(200):
        n = rng.randint(2, 14)
        root = _random_nary(rng, 1, n, "Root", None)
        got = read(root)
        assert got == ref_binarize_root(root), trial
        check_tree(got, n)
        assert sum(1 for _ in internal_nodes(got)) == n - 1


# ---------------------------------------------------------------------------
# The field readers against the token readers, on documents and their edits

# maps some of the names ``_random_nary`` writes; "condition" is left out
PARTIAL_MAP = RelationMap({
    name: name.title()
    for name in ("cause", "evidence", "list", "sequence", "contrast")
})


def _outcome(read, *args):
    """What a reader returns, or the type, message and offset it raises."""
    try:
        return read(*args)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "pos", None)


# a field or bracket node with nothing nested in it: (leaf 1), (text _!a_!)
_INNERMOST_RE = re.compile(r"\([^()]*\)")


@st.composite
def _edited(draw, text: str) -> str:
    """``text`` as it is; or with one character deleted, or with one the
    readers treat specially (or a whole ``_!``) inserted or put in place of
    one; or with two adjacent fields swapped; or with one separating space
    turned into a newline, a tab or a no-break space."""
    edit = draw(st.sampled_from(
        ("none", "insert", "delete", "replace", "swap", "respace")
    ))
    if edit == "swap":
        fields = list(_INNERMOST_RE.finditer(text))
        pairs = [
            (a, b) for a, b in zip(fields, fields[1:])
            if not text[a.end():b.start()].strip()
        ]
        if not pairs:
            return text
        a, b = pairs[draw(st.integers(min_value=0, max_value=len(pairs) - 1))]
        return text[:a.start()] + b[0] + text[a.end():b.start()] + a[0] + text[b.end():]
    if edit == "respace":
        spaces = [at for at, char in enumerate(text) if char == " "]
        if not spaces:
            return text
        at = spaces[draw(st.integers(min_value=0, max_value=len(spaces) - 1))]
        return text[:at] + draw(st.sampled_from("\n\t\xa0")) + text[at + 1:]
    at = draw(st.integers(min_value=0, max_value=len(text)))
    char = draw(st.sampled_from([*"()_! 0123456789", "_!"]))
    if edit == "insert":
        return text[:at] + char + text[at:]
    if edit == "delete":
        return text[:at] + text[at + 1:]
    if edit == "replace":
        return text[:at] + char + text[at + 1:]
    return text


@st.composite
def _dis_texts(draw) -> str:
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    n = draw(st.integers(min_value=1, max_value=8))
    return draw(_edited(to_dis(_random_nary(rng, 1, n, "Root", None))))


@given(_dis_texts(), st.sampled_from((None, PARTIAL_MAP)))
def test_field_reader_matches_token_reader_on_dis_edits(text, relation_map):
    expected = _outcome(token_reader.parse_dis, text, relation_map)
    assert _outcome(parse_dis, text, relation_map) == expected


@st.composite
def _bracket_lines(draw) -> tuple[str, tuple[Edu, ...] | None]:
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    n = draw(st.integers(min_value=1, max_value=8))
    edus = make_edus(n, rng)
    # a tree over all the EDUs, or over a span of them
    part = sorted((rng.randint(1, n), rng.randint(1, n)))
    lo, hi = draw(st.sampled_from(((1, n), part)))
    line = draw(_edited(write_tree(random_tree(rng, edus, None, lo, hi))))
    return line, draw(st.sampled_from((None, edus)))


@given(_bracket_lines())
def test_field_reader_matches_token_reader_on_bracket_edits(case):
    # the field reader gives the table of the token reader's tree, or its
    # error; and it refuses a tree that does not cover EDUs 1..n, n the
    # number of EDUs given or else the tree's last, where the token reader
    # returns it
    line, edus = case
    expected = _outcome(token_reader.read_tree, line, edus)
    if not isinstance(expected, tuple):
        span = expected.span
        n = span[1] if edus is None else len(edus)
        if span == (1, n):
            expected = node_table(expected)
        else:
            count = span[1] - span[0] + 1
            message = f"predicted covers {count} EDUs at {span}, gold {n} at {(1, n)}"
            expected = (SegmentationMismatch, message, None)
    assert _outcome(read_tree, line, edus) == expected


def _long_dis(n: int, children) -> str:
    """.dis text over EDUs 1..n, written without recursion. ``children(lo,
    hi)`` gives the children of the constituent over lo..hi, in order, as
    (role, rel2par, first, last). Each text ends in a space, so a _! that
    loses its partner shifts every later pair until the last _! is left
    alone."""
    pieces: list[str] = []
    stack: list = [("Root", None, 1, n)]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            pieces.append(item)
            continue
        role, rel, lo, hi = item
        rel2par = [] if rel is None else [f"(rel2par {rel})"]
        if lo == hi:
            text = f"(text _!edu {lo}. _!)"
            pieces += [f"( {role}", f"(leaf {lo})", *rel2par, text, ")"]
            continue
        pieces += [f"( {role}", f"(span {lo} {hi})", *rel2par]
        stack.append(")")
        stack.extend(reversed(children(lo, hi)))
    return "\n".join(pieces)


def _right_branching(lo: int, hi: int):
    return [
        ("Nucleus", "span", lo, lo),
        ("Satellite", "elaboration-additional", lo + 1, hi),
    ]


def test_readers_agree_on_whole_documents(relmap):
    """Every bundled .dis file and two 3000-EDU documents read to the same
    tree and EDUs through both readers, with and without a relation map.
    With the first leaf's text left open, both fail the same way.

    The package's reader must also take no more than a few times the token
    reader's CPU time on the long texts: a branch that scanned the rest of
    the text at every leaf makes it tens of times slower."""
    paths = sorted(minicorpus_dir().glob("*.dis")) + [DATA_DIR / "press_release.dis"]
    chain = _long_dis(3000, _right_branching)
    rng = random.Random(3000)
    long_texts = [chain, _long_dis(3000, lambda lo, hi: _random_children(rng, lo, hi))]
    spent = {token_reader.parse_dis: 0.0, parse_dis: 0.0}

    def outcome(read, text, relation_map):
        start = time.process_time()
        result = _outcome(read, text, relation_map)
        spent[read] += time.process_time() - start
        return result

    for text in [path.read_text(encoding="utf-8") for path in paths] + long_texts:
        for relation_map in (None, relmap):
            expected = outcome(token_reader.parse_dis, text, relation_map)
            assert not isinstance(expected[0], type), expected
            assert outcome(parse_dis, text, relation_map) == expected
    assert len(expected[1]) == 3000
    unterminated = chain.replace(". _!)", ". )", 1)
    expected = outcome(token_reader.parse_dis, unterminated, None)
    last = unterminated.rindex("_!")
    assert expected == (
        DisSyntaxError, f"unterminated _!text field (at offset {last})", last,
    )
    assert outcome(parse_dis, unterminated, None) == expected
    assert spent[parse_dis] < 4 * spent[token_reader.parse_dis]


def _longdoc():
    """The benchmark's generator of long documents, ``perfbench/longdoc.py``."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "longdoc.py"
    spec = importlib.util.spec_from_file_location("longdoc", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _shape_texts():
    """The generated .dis texts the reader tests above read: every flat
    shape of two to four children, random nested trees, and the two
    3000-EDU documents."""
    for n in (2, 3, 4):
        for roles in _role_assignments(n):
            for style in ("mono", "multi", "arbitrary"):
                rels = _rel_for(roles, style)
                yield to_dis(_root(
                    _leaf(i + 1, role, rel)
                    for i, (role, rel) in enumerate(zip(roles, rels))
                ))
    rng = random.Random(20118)
    for _ in range(200):
        yield to_dis(_random_nary(rng, 1, rng.randint(1, 14), "Root", None))
    yield _long_dis(3000, _right_branching)
    yield _long_dis(3000, lambda lo, hi: _random_children(rng, lo, hi))


def test_a_document_is_the_node_table_of_the_tree_its_text_gives(tmp_path, relmap):
    """Every shipped and benchmarked .dis file (the minicorpus, the press
    release, and longdoc seeds 1-3), with and without the coarse map, and
    the generated shapes: ``read_dis`` keeps the node table of the tree
    ``parse_dis`` and the token reader give, and builds the same tree from
    it when its tree is read."""
    shipped = sorted(minicorpus_dir().glob("*.dis")) + [DATA_DIR / "press_release.dis"]
    longdoc = _longdoc()
    for seed in (1, 2, 3):
        out = tmp_path / f"longdoc-{seed}"
        longdoc.generate(seed, out)
        shipped += sorted(out.glob("*.dis"))
    cases = [(path, relation_map) for path in shipped for relation_map in (None, relmap)]
    for number, text in enumerate(_shape_texts()):
        path = tmp_path / f"shape-{number}.dis"
        path.write_text(text, encoding="utf-8")
        cases.append((path, None))
    assert len(cases) == 2 * (22 + 1 + 12) + 75 + 200 + 2
    for path, relation_map in cases:
        text = path.read_text(encoding="utf-8")
        doc = read_dis(path, relation_map)
        tree, edus = parse_dis(text, relation_map)
        reference, reference_edus = token_reader.parse_dis(text, relation_map)
        assert doc.nodes == node_table(tree) == node_table(reference), path
        assert doc.edus == edus == reference_edus, path
        assert doc.tree == tree == reference, path
        assert len(doc.nodes) == len(edus) - 1, path


def test_a_relation_mapped_to_nothing_is_refused_as_the_token_reader_refuses_it():
    # a whole leaf, and a leaf whose fields are out of order, which is read
    # field by field
    whole = to_dis(_root([_leaf(1, "Nucleus", "span"), _leaf(2, "Satellite", "cause")]))
    swapped = whole.replace(
        "(leaf 2) (rel2par cause)", "(rel2par cause) (leaf 2)"
    )
    assert swapped != whole
    empty = RelationMap({"cause": ""})
    for text in (whole, swapped):
        expected = _outcome(token_reader.parse_dis, text, empty)
        assert expected == (MalformedTree, "missing rel2par on span (2, 2)", None)
        assert _outcome(parse_dis, text, empty) == expected


@given(st.integers(min_value=1, max_value=60), st.integers(min_value=0, max_value=2**32))
def test_build_tree_and_node_table_are_inverses(n, seed):
    rng = random.Random(seed)
    edus = make_edus(n, rng)
    tree = random_tree(rng, edus)
    nodes = node_table(tree)
    assert len(nodes) == n - 1
    assert all(span[0] <= mid < span[1] for span, (mid, _, _) in nodes.items())
    assert build_tree(edus, nodes) == tree
    assert node_table(build_tree(edus, nodes)) == nodes


def test_readers_reject_numbers_too_long_for_int_alike(int_digit_limit):
    # a number longer than int() reads under the default digit limit is
    # malformed input under every limit, in both readers, at its offset
    number = "9" * LONG_DIGITS
    dis = to_dis(_root([_leaf(1, "Nucleus", "span"), _leaf(2, "Satellite", "cause")]))
    cases = [
        (parse_dis, token_reader.parse_dis, dis.replace("(leaf 2)", f"(leaf {number})")),
        (parse_dis, token_reader.parse_dis, dis.replace("(span 1 2)", f"(span {number} 2)")),
        (read_tree, token_reader.read_tree, f"(NS cause (leaf 1) (leaf {number}))"),
        (read_tree, token_reader.read_tree, f"(NS cause (leaf 1) ( leaf {number} ))"),
    ]
    for read, reference, text in cases:
        pos = text.index(number)
        expected = (DisSyntaxError, f"integer of {LONG_DIGITS} digits (at offset {pos})", pos)
        assert _outcome(reference, text) == expected
        assert _outcome(read, text) == expected


# ---------------------------------------------------------------------------
# Gold derivations: replay parses that ask every decision, and derive-actions


def test_shift_reduce_sequence_counts_and_closure(inventory):
    policy = ParsePolicy(skip_forced=False)
    rng = random.Random(31)
    for _ in range(100):
        n = rng.randint(1, 24)
        edus = make_edus(n, rng)
        tree = random_tree(rng, edus)
        result = parse_bottom_up(edus, ReplayOracle(node_table(tree)), inventory, policy)
        actions = [e.resolved for e in result.trace if e.kind == "action"]
        assert len(actions) == 2 * n - 1
        assert actions.count("shift") == n
        assert result.corrected_count == 0
        assert write_tree(result.tree) == write_tree(tree)


def test_split_sequence_counts_and_closure(inventory):
    policy = ParsePolicy(skip_forced=False)
    rng = random.Random(32)
    for _ in range(100):
        n = rng.randint(1, 24)
        edus = make_edus(n, rng)
        tree = random_tree(rng, edus)
        result = parse_top_down(edus, ReplayOracle(node_table(tree)), inventory, policy)
        splits = [e for e in result.trace if e.kind == "split"]
        assert len(splits) == n - 1
        assert not any(e.forced for e in splits)
        assert result.corrected_count == 0
        assert write_tree(result.tree) == write_tree(tree)


def _derive_actions(tmp_path, capsys, root, strategy) -> list[list[str]]:
    path = tmp_path / "doc.dis"
    path.write_text(to_dis(root), encoding="utf-8")
    argv = ["derive-actions", "--file", str(path), "--strategy", strategy]
    assert cli_main(argv) == 0
    return [line.split("\t") for line in capsys.readouterr().out.splitlines()]


def test_split_sequence_is_preorder_left_first(tmp_path, capsys):
    root = _root([
        ("Nucleus", "joint", [_leaf(1, "Nucleus", "span"),
                              _leaf(2, "Satellite", "cause")]),
        ("Nucleus", "joint", [_leaf(3, "Satellite", "contrast"),
                              _leaf(4, "Nucleus", "span")]),
    ])
    rows = _derive_actions(tmp_path, capsys, root, "top-down")
    assert rows == [
        ["1", "4", "1", NN, "joint"],
        ["1", "2", "0", NS, "cause"],
        ["3", "4", "0", SN, "contrast"],
    ]


def test_action_sequence_is_postorder(tmp_path, capsys):
    root = _root([
        ("Nucleus", "span", [_leaf(1, "Nucleus", "span"),
                             _leaf(2, "Satellite", "cause")]),
        _leaf(3, "Satellite", "cause"),
    ])
    rows = _derive_actions(tmp_path, capsys, root, "bottom-up")
    assert rows == [
        ["shift"], ["shift"], ["reduce", NS, "cause"],
        ["shift"], ["reduce", NS, "cause"],
    ]


def _constituents(tree, role="Root", rel2par=None):
    """The (role, rel2par, body) constituent ``to_dis`` writes as text that
    ``parse_dis`` reads back as the binary ``tree``."""
    if isinstance(tree, Leaf):
        return (role, rel2par, tree.edu.index)
    nucleus, satellite = ("Nucleus", "span"), ("Satellite", tree.relation)
    left, right = {
        NS: (nucleus, satellite),
        SN: (satellite, nucleus),
        NN: (("Nucleus", tree.relation),) * 2,
    }[tree.nuclearity]
    return (role, rel2par, [_constituents(tree.left, *left),
                            _constituents(tree.right, *right)])


def _walk_rows(tree, strategy) -> list[list[str]]:
    """The rows derive-actions printed when it walked the gold tree itself:
    bottom-up, the actions in post-order; top-down, the splits in pre-order,
    k relative to the span. The engines' replay parses must give the same."""
    if strategy == "top-down":
        return [
            [str(node.span[0]), str(node.span[1]),
             str(node.left.span[1] - node.span[0]), node.nuclearity, node.relation]
            for node in internal_nodes(tree)
        ]
    # post-order is the reverse of a pre-order that visits right first
    rows, stack = [], [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, Node):
            rows.append(["reduce", node.nuclearity, node.relation])
            stack += (node.left, node.right)
        else:
            rows.append(["shift"])
    return rows[::-1]


@pytest.mark.parametrize("strategy", ["bottom-up", "top-down"])
def test_derive_actions_rows_equal_the_tree_walk(tmp_path, capsys, strategy):
    # relations that differ only in case, or read as one integer, print as
    # the tree spells them, though the answer rule resolves them alike
    relations = ("Elaboration", "list", "List", "02", "2")
    rng = random.Random(33)
    for _ in range(60):
        n = rng.randint(1, 24)
        tree = random_tree(rng, [_edu(i) for i in range(1, n + 1)], relations)
        assert read(_constituents(tree)) == tree
        rows = _derive_actions(tmp_path, capsys, _constituents(tree), strategy)
        assert rows == _walk_rows(tree, strategy)


# ---------------------------------------------------------------------------
# Parses free their own tables by reference counting


def test_parses_leave_no_garbage_cycles(inventory):
    # a parse's node table, prompts and oracle index must not wait for the
    # cyclic collector: with it off, nothing a parse made is left for it
    edus = make_edus(9)
    tree = random_tree(random.Random(5), edus)
    doc = Document("doc", edus, node_table(tree))
    garbage = ["banana", "1", "shift", "reduce", "0", "nucleus-nucleus", "Joint"]
    oracles = {
        "replay": (lambda: ReplayOracle(doc.nodes), ParsePolicy()),
        "scripted": (
            lambda: ScriptedOracle(garbage, cycle=True), ParsePolicy(skip_forced=False)
        ),
        # the script runs out mid-parse, which raises
        "exhausted": (
            lambda: ScriptedOracle(["0", "shift"]), ParsePolicy(truncate_chars=4)
        ),
    }
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for strategy, engine in ENGINES.items():
            for oracle, (make_oracle, policy) in oracles.items():
                try:
                    result = engine(edus, make_oracle(), inventory, policy)
                except ReplayExhausted:
                    assert oracle == "exhausted"
                else:
                    assert oracle != "exhausted"
                    check_tree(result.tree, len(edus))
                    del result
                assert gc.collect() == 0, (strategy, oracle)
            pairs = list(gold_walk(doc, inventory, strategy))
            assert pairs
            del pairs
            assert gc.collect() == 0, (strategy, "gold walk")
    finally:
        if enabled:
            gc.enable()
