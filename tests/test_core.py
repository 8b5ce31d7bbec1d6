"""Tree model: construction rules, binarization, gold derivations.

The binarization tests compare the package against a small recursive
reference implementation kept here, written directly from the labeling
rules. It is the fixed point the iterative production code must match.
"""

from __future__ import annotations

import itertools
import random
import sys

import pytest

from rstkit import (
    Edu,
    Leaf,
    MalformedTree,
    NaryNode,
    Node,
    Reduce,
    Shift,
    binarize,
    check_tree,
    derive_shift_reduce_sequence,
    derive_split_sequence,
    edu_count,
    internal_nodes,
    leaves,
    span_text,
    tree_text,
    validate_nary,
)
from rstkit.core import NN, NS, SN

from conftest import make_edus, random_tree


# ---------------------------------------------------------------------------
# Reference binarizer: recursive, rule-by-rule, small trees only


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


def ref_binarize(node: NaryNode):
    if node.is_leaf:
        return (node.role, node.rel2par or "span", Leaf(node.edu))
    sides = [ref_binarize(child) for child in node.children]
    return (node.role, node.rel2par or "span", ref_fold(sides)[2])


def ref_binarize_root(root: NaryNode):
    return ref_binarize(root)[2]


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
    assert edu_count(root) == 3


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


def test_leaves_and_tree_text_order():
    e = make_edus(3)
    root = Node(Node(Leaf(e[0]), Leaf(e[1]), NS, "Cause"), Leaf(e[2]), NN, "Joint")
    assert [leaf.edu.index for leaf in leaves(root)] == [1, 2, 3]
    assert tree_text(root) == " ".join(edu.text for edu in e)


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


def test_span_text_bounds():
    edus = make_edus(4)
    assert span_text(edus, (2, 3)) == f"{edus[1].text} {edus[2].text}"
    with pytest.raises(IndexError):
        span_text(edus, (0, 2))
    with pytest.raises(IndexError):
        span_text(edus, (3, 5))


def test_check_tree_catches_gaps():
    e = make_edus(3)
    assert check_tree(Node(Node(Leaf(e[0]), Leaf(e[1]), NS, "Cause"),
                           Leaf(e[2]), NS, "Cause"), 3) is None
    with pytest.raises(MalformedTree):
        check_tree(Node(Leaf(e[0]), Leaf(e[1]), NS, "Cause"), 3)


# ---------------------------------------------------------------------------
# N-ary validation


def _leaf(i: int, role: str, rel: str) -> NaryNode:
    return NaryNode(role, rel, (i, i), edu=Edu(i, f"edu {i}."))


def _nary(role, rel, children):
    return NaryNode(role, rel, (children[0].span[0], children[-1].span[1]),
                    children=list(children))


def test_validate_nary_accepts_canonical_shapes():
    root = _nary("Root", None, [
        _leaf(1, "Nucleus", "span"),
        _leaf(2, "Satellite", "elaboration"),
    ])
    validate_nary(root)


def test_validate_nary_rejects_bad_roles_and_gaps():
    with pytest.raises(MalformedTree, match="role"):
        validate_nary(_nary("Nucleus", "span",
                            [_leaf(1, "Nucleus", "span"),
                             _leaf(2, "Satellite", "cause")]))
    with pytest.raises(MalformedTree, match="nucleus"):
        validate_nary(_nary("Root", None, [
            _leaf(1, "Satellite", "cause"), _leaf(2, "Satellite", "result"),
        ]))
    with pytest.raises(MalformedTree, match="rel2par"):
        validate_nary(_nary("Root", None, [
            NaryNode("Nucleus", None, (1, 1), edu=Edu(1, "x")),
            _leaf(2, "Satellite", "cause"),
        ]))
    gap = NaryNode("Root", None, (1, 3), children=[
        _leaf(1, "Nucleus", "span"), _leaf(3, "Satellite", "cause"),
    ])
    with pytest.raises(MalformedTree, match="contiguous"):
        validate_nary(gap)
    short = NaryNode("Root", None, (1, 3), children=[
        _leaf(1, "Nucleus", "span"), _leaf(2, "Satellite", "cause"),
    ])
    with pytest.raises(MalformedTree, match="cover"):
        validate_nary(short)


def test_validate_nary_leaf_span_must_match_edu():
    bad = NaryNode("Root", None, (1, 1), edu=Edu(2, "x"))
    with pytest.raises(MalformedTree):
        validate_nary(bad)


# ---------------------------------------------------------------------------
# Binarization against the reference


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
                root = _nary("Root", None, [
                    _leaf(i + 1, role, rel)
                    for i, (role, rel) in enumerate(zip(roles, rels))
                ])
                got = binarize(root)
                expected = ref_binarize_root(root)
                assert got == expected, (roles, rels)
                check_tree(got, n)
                checked += 1
    assert checked == (3 + 7 + 15) * 3


def test_binarize_specific_mixed_shapes():
    # (N span, S a, S b): satellites fold NS with the right side's label
    root = _nary("Root", None, [
        _leaf(1, "Nucleus", "span"),
        _leaf(2, "Satellite", "evidence"),
        _leaf(3, "Satellite", "background"),
    ])
    got = binarize(root)
    assert got.nuclearity == NS and got.relation == "evidence"
    assert got.right.nuclearity == NS and got.right.relation == "background"

    # (S a, N span, S b)
    root = _nary("Root", None, [
        _leaf(1, "Satellite", "attribution"),
        _leaf(2, "Nucleus", "span"),
        _leaf(3, "Satellite", "elaboration"),
    ])
    got = binarize(root)
    assert got.nuclearity == SN and got.relation == "attribution"
    assert got.right.nuclearity == NS and got.right.relation == "elaboration"

    # multi-nuclear triple repeats the shared relation on the chain node
    root = _nary("Root", None, [
        _leaf(1, "Nucleus", "list"),
        _leaf(2, "Nucleus", "list"),
        _leaf(3, "Nucleus", "list"),
    ])
    got = binarize(root)
    assert (got.nuclearity, got.relation) == (NN, "list")
    assert (got.right.nuclearity, got.right.relation) == (NN, "list")

    # same-unit with an embedded satellite between the nuclei
    root = _nary("Root", None, [
        _leaf(1, "Nucleus", "Same-Unit"),
        _leaf(2, "Satellite", "elaboration"),
        _leaf(3, "Nucleus", "Same-Unit"),
    ])
    got = binarize(root)
    assert (got.nuclearity, got.relation) == (NN, "Same-Unit")
    assert (got.right.nuclearity, got.right.relation) == (SN, "elaboration")


def test_binarize_rejects_two_span_nuclei():
    root = _nary("Root", None, [
        _leaf(1, "Nucleus", "span"), _leaf(2, "Nucleus", "span"),
    ])
    with pytest.raises(MalformedTree, match="span"):
        binarize(root)
    with pytest.raises(MalformedTree):
        ref_binarize_root(root)


def test_binarize_single_child_root_unwraps():
    root = _nary("Root", None, [
        _nary("Nucleus", "span", [
            _leaf(1, "Nucleus", "span"), _leaf(2, "Satellite", "cause"),
        ]),
    ])
    got = binarize(root)
    assert got == ref_binarize_root(root)
    assert (got.nuclearity, got.relation) == (NS, "cause")


def test_binarize_leaf_root():
    root = NaryNode("Root", None, (1, 1), edu=Edu(1, "only."))
    assert binarize(root) == Leaf(Edu(1, "only."))


def _random_nary(rng: random.Random, lo: int, hi: int, depth: int) -> NaryNode:
    if lo == hi or depth == 0:
        # collapse the remaining span into leaves under one constituent
        if lo == hi:
            return _leaf(lo, "Nucleus", "placeholder")
    size = hi - lo + 1
    n_children = rng.randint(2, min(4, size))
    cuts = sorted(rng.sample(range(lo, hi), n_children - 1))
    bounds = list(zip([lo] + [c + 1 for c in cuts], cuts + [hi]))
    children = []
    for a, b in bounds:
        if a == b:
            children.append(_leaf(a, "x", "x"))
        else:
            children.append(_random_nary(rng, a, b, depth - 1))
    if rng.random() < 0.4:
        rel = rng.choice(["list", "sequence", "contrast"])
        for child in children:
            child.role, child.rel2par = "Nucleus", rel
    else:
        nucleus_at = rng.randrange(n_children)
        for i, child in enumerate(children):
            if i == nucleus_at:
                child.role, child.rel2par = "Nucleus", "span"
            else:
                child.role = "Satellite"
                child.rel2par = rng.choice(["cause", "evidence", "condition"])
    return NaryNode("Root" if lo == 1 and depth == 5 else "Nucleus", None,
                    (lo, hi), children=children)


def test_binarize_matches_reference_on_random_nested_trees():
    rng = random.Random(20118)
    for trial in range(200):
        n = rng.randint(2, 14)
        root = _random_nary(rng, 1, n, 5)
        root.role, root.rel2par = "Root", None
        got = binarize(root)
        assert got == ref_binarize_root(root), trial
        check_tree(got, n)
        assert sum(1 for _ in internal_nodes(got)) == n - 1


# ---------------------------------------------------------------------------
# Gold derivations


def _rebuild_from_actions(edus, actions):
    """Independent shift-reduce replay: plain list stack, no engine code."""
    stack, queue = [], list(edus)
    for action in actions:
        if isinstance(action, Shift):
            stack.append(Leaf(queue.pop(0)))
        else:
            right = stack.pop()
            left = stack.pop()
            stack.append(Node(left, right, action.nuclearity, action.relation))
    assert not queue and len(stack) == 1
    return stack[0]


def _rebuild_from_splits(edus, steps):
    """Independent top-down replay over the recorded absolute spans."""
    by_span = {step.span: step for step in steps}

    def build(lo: int, hi: int):
        if lo == hi:
            return Leaf(edus[lo - 1])
        step = by_span[(lo, hi)]
        mid = lo + step.k
        return Node(build(lo, mid), build(mid + 1, hi),
                    step.nuclearity, step.relation)

    return build(1, len(edus))


def test_shift_reduce_sequence_counts_and_closure():
    rng = random.Random(31)
    for _ in range(100):
        n = rng.randint(1, 24)
        edus = make_edus(n, rng)
        tree = random_tree(rng, edus)
        actions = derive_shift_reduce_sequence(tree)
        assert len(actions) == 2 * n - 1
        assert sum(isinstance(a, Shift) for a in actions) == n
        assert sum(isinstance(a, Reduce) for a in actions) == n - 1
        assert _rebuild_from_actions(edus, actions) == tree


def test_split_sequence_counts_and_closure():
    rng = random.Random(32)
    for _ in range(100):
        n = rng.randint(1, 24)
        edus = make_edus(n, rng)
        tree = random_tree(rng, edus)
        steps = derive_split_sequence(tree)
        assert len(steps) == n - 1
        for step in steps:
            first, last = step.span
            assert 0 <= step.k <= last - first - 1
        if n >= 1:
            assert _rebuild_from_splits(edus, steps) == tree


def test_split_sequence_is_preorder_left_first():
    e = make_edus(4)
    left = Node(Leaf(e[0]), Leaf(e[1]), NS, "Cause")
    right = Node(Leaf(e[2]), Leaf(e[3]), SN, "Contrast")
    root = Node(left, right, NN, "Joint")
    spans = [step.span for step in derive_split_sequence(root)]
    assert spans == [(1, 4), (1, 2), (3, 4)]


def test_action_sequence_is_postorder():
    e = make_edus(3)
    tree = Node(Node(Leaf(e[0]), Leaf(e[1]), NS, "Cause"), Leaf(e[2]), NS, "Cause")
    kinds = [str(a) for a in derive_shift_reduce_sequence(tree)]
    assert kinds == ["shift", "shift", "reduce", "shift", "reduce"]
