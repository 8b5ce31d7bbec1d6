"""Treebank reading, relation maps, bracket format, split manifests.

The press_release fixture's binary form is pinned by hand below, node by
node, from the labeling rules; the reader must reproduce it exactly.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, strategies as st

from rstkit import (
    ConfigError,
    DisSyntaxError,
    Edu,
    Leaf,
    MalformedTree,
    MissingDocument,
    Node,
    RelationMap,
    UnknownRelation,
    builtin_inventory,
    builtin_relation_map,
    load_documents,
    load_inventory,
    load_relation_map,
    minicorpus_dir,
    normalize_edu_text,
    parse_dis,
    read_dis,
    read_tree,
    write_tree,
)
from rstkit.core import NN, NS, NUCLEARITY_PATTERNS, SN
from rstkit.corpus import (
    _FIELD_RE,
    _TT_ERR_RE,
    load_split_manifest,
    normalize_relation,
    resolve_document_path,
)
from rstkit.engine import resolve_label
from rstkit.prompts import ACTION_LABELS

import token_reader
from conftest import DATA_DIR, make_edus, random_tree
from test_core import (
    _long_dis, _random_children, _random_nary, _right_branching, to_dis,
)

PRESS_TEXTS = (
    "Westinghouse Electric Corp. said",
    "it will buy Shaw-Walker Co.",
    "Terms weren't disclosed.",
    "Shaw-Walker,",
    "based in Muskegon, Mich.,",
    "makes metal files and desks, and seating and office systems furniture.",
)


def _press_expected(rels):
    """The fixture's binary tree with the given five relation labels."""
    e = [Leaf(Edu(i + 1, text)) for i, text in enumerate(PRESS_TEXTS)]
    attribution, elab_add, elab_obj, same_unit, elab_add_e = rels
    left = Node(Node(e[0], e[1], SN, attribution), e[2], NS, elab_add)
    right = Node(e[3], Node(e[4], e[5], SN, elab_obj), NN, same_unit)
    return Node(left, right, NS, elab_add_e)


def test_press_release_raw_tree(press_release_path):
    doc = read_dis(press_release_path)
    assert doc.doc_id == "press_release"
    assert tuple(edu.text for edu in doc.edus) == PRESS_TEXTS
    assert doc.tree == _press_expected((
        "attribution", "elaboration-additional",
        "elaboration-object-attribute-e", "Same-Unit",
        "elaboration-additional-e",
    ))


def test_press_release_mapped_tree(press_release_path, relmap):
    doc = read_dis(press_release_path, relmap)
    assert doc.tree == _press_expected((
        "Attribution", "Elaboration", "Elaboration", "Same-Unit", "Elaboration",
    ))


def test_tt_err_noise_is_stripped():
    text = """( Root (span 1 2)
      ( Nucleus (leaf 1) (rel2par span) (text _!first._!) )//TT_ERR
      ( Satellite (leaf 2) (rel2par cause) (text _!second._!) )
    )"""
    tree, edus = parse_dis(text)
    assert [e.text for e in edus] == ["first.", "second."]
    assert write_tree(tree) == "(NS cause (leaf 1) (leaf 2))"


def test_minicorpus_files_with_noise_still_parse(relmap):
    corpus = minicorpus_dir()
    raw = (corpus / "doc09.dis").read_text()
    assert ")//TT_ERR" in raw
    doc = read_dis(corpus / "doc09.dis", relmap)
    assert len(doc.edus) == 12


def test_edu_text_normalization():
    assert normalize_edu_text("  a\n   b\tc ") == "a b c"
    # paragraph markers survive; they are tokens, not whitespace
    assert normalize_edu_text("end of paragraph. <P>") == "end of paragraph. <P>"


def test_multiline_text_field():
    text = (
        "( Root (span 1 2)\n"
        "  ( Nucleus (leaf 1) (rel2par span) (text _!split\n"
        "      across lines_!) )\n"
        "  ( Satellite (leaf 2) (rel2par cause) (text _!whole._!) )\n"
        ")"
    )
    _, edus = parse_dis(text)
    assert edus[0].text == "split across lines"


# (input, message fragment, character offset the error reports)
DIS_SYNTAX_ERRORS = [
    ("( Root (span 1 2) ( Nucleus (leaf 1) (rel2par span) (text _!x_!) )", "end of input", 66),
    ("( Nucleus (leaf 1) (rel2par span) (text _!x_!) )", "expected Root", 2),
    ("( Root (leaf 1) (rel2par span) (text _!unterminated_) )", "unterminated", 37),
    ("( Root (span 1 1) ( Root (leaf 1) (text _!x_!) ) )", "below the top", 20),
    ("( Root (span 1 1) ( Nucleus (leaf 1) (rel2par span) (flavor tart) (text _!x_!) ) )", "unknown field", 53),
    ("( Root (span 1 1) ( Nucleus (leaf 1) (rel2par span) ) )", "no text", 52),
    ("( Root (span one 2) ( Nucleus (leaf 1) (rel2par span) (text _!x_!) ) )", "integer", 13),
    ("( Root (leaf 1) (text _!x_!) ) trailing", "trailing", 31),
    ("( Root (span 1 1) ( Nucleus (leaf 1) (rel2par span) (text _!x_!)"
     " ( Nucleus (leaf 2) (rel2par span) (text _!y_!) ) ) )", "has children", 114),
    ("( Root (span 1 1) ( Nucleus (rel2par span) (text _!x_!) ) )", "lacks both", 56),
    ("( Root (span 1 1) )", "no children", 18),
    ("( Root (span 1 1) x )", "expected \\( or \\)", 18),
    ("( Root (span 1 1) ( (leaf 1) ) )", "expected a name", 20),
    # fields that are not whole, read and rejected token by token
    ("( Root (span 1 1) ( Nucleus (leaf 1) (rel2par span) (text_!x_!) ) )",
     "unknown field 'text_!x_!'", 53),
    ("( Root (span 1 1) ( Nucleus (leaf 1) (rel2par _!x_!) (text _!x_!) ) )",
     "expected atom, got 'x'", 46),
    ("( Root (span 1 2 3) ( Nucleus (leaf 1) (rel2par span) (text _!x_!) ) )",
     "expected close, got '3'", 17),
    ("( Root (span 1 1) ( Nucleus (leaf 1) (rel2par span) (text _!a_!_!b_!) ) )",
     "expected close, got 'b'", 63),
    ("( Root (span 1 1) (Nucleus_!a_! (leaf 1) (rel2par span) (text _!x_!) ) )",
     "unknown field 'Nucleus_!a_!'", 19),
    # an unterminated _! is reported before a fault earlier in the text
    ("( Root (span one 2) ( Nucleus (leaf 1) (rel2par span) (text _!x) ) )",
     "unterminated", 60),
    ("( Root (leaf 1) (text _!x_!) ) _!x", "unterminated", 31),
    # any Unicode decimal digit reads as a number, whole field or not
    ("( Root (span 1 1) ( Nucleus (leaf \u0661) (rel2par span) ) )",
     "leaf 1 has no text field", 52),    ("( Root (span", "unexpected end of input", 12),
    ("( Root (leaf x) (text _!a_!) )", "expected integer", 13),
    # a bracket-format node head inside .dis text
    ("( Root (NS Elaboration (leaf 1) ) )", "unknown field 'NS'", 8),
    # a Root whose head is whole, below the top
    ("( Root (span 1 1) ( Root (span 1 1) ( Nucleus (leaf 1) (rel2par span)"
     " (text _!x_!) ) ) )", "below the top", 20),
]


@pytest.mark.parametrize("bad,fragment", [case[:2] for case in DIS_SYNTAX_ERRORS])
def test_dis_syntax_errors(bad, fragment):
    with pytest.raises(DisSyntaxError, match=fragment):
        parse_dis(bad)


@pytest.mark.parametrize("bad,fragment,pos", DIS_SYNTAX_ERRORS)
def test_dis_syntax_error_offsets(bad, fragment, pos):
    with pytest.raises(DisSyntaxError, match=fragment) as caught:
        parse_dis(bad)
    assert caught.value.pos == pos
    assert str(caught.value).endswith(f" (at offset {pos})")


def _scan(text):
    """The scan as (kind, value, offset): a token's value is its text, or a
    text field's inside; a whole field's value is the tuple of its parts."""
    scanned = []
    for match in _FIELD_RE.finditer(text):
        kind = match.lastgroup
        parts = tuple(
            value for name, value in match.groupdict().items()
            if value is not None and name != kind
        )
        scanned.append((kind, parts or match[kind], match.start()))
    return scanned


@pytest.mark.parametrize("text,tokens", [
    # a text field keeps parentheses and newlines, and only its inside
    ("(text _!a (b)\nc) _!)", [
        ("open", "(", 0), ("atom", "text", 1), ("text", "a (b)\nc) ", 6),
        ("close", ")", 19),
    ]),
    # _! inside an atom opens no text field
    ("(rel2par a_!b) x_!", [
        ("open", "(", 0), ("atom", "rel2par", 1), ("atom", "a_!b", 9),
        ("close", ")", 13), ("atom", "x_!", 15),
    ]),
    # the scan itself leaves tool noise as an atom; parse_dis drops it first
    (")//TT_ERR", [("close", ")", 0), ("atom", "//TT_ERR", 1)]),
    ("_!_! ( _!x_!_!y_!", [
        ("text", "", 0), ("open", "(", 5), ("text", "x", 7), ("text", "y", 12),
    ]),
    # any whitespace separates, a no-break space too; offsets count it
    ("  \t(leaf\xa01)  ", [("leaf", ("1",), 3)]),
    # a field that is not whole falls back to its tokens
    ("(span 1 2 3)", [
        ("open", "(", 0), ("atom", "span", 1), ("atom", "1", 6), ("atom", "2", 8),
        ("atom", "3", 10), ("close", ")", 11),
    ]),
    ("(text _!a_!_!b_!)", [
        ("open", "(", 0), ("atom", "text", 1), ("text", "a", 6), ("text", "b", 11),
        ("close", ")", 16),
    ]),
    # constituent and bracket-node openers; the role must be a whole atom
    ("( Nucleus (NS Cause-e (Satellite_!x", [
        ("constituent", ("Nucleus",), 0), ("node", ("NS", "Cause-e"), 10),
        ("open", "(", 22), ("atom", "Satellite_!x", 23),
    ]),
    # a _! that nothing closes takes the rest of the text
    ("(leaf 1) _!x (leaf 2)", [("leaf", ("1",), 0), ("lone", "_!x (leaf 2)", 9)]),
    # a whole leaf constituent, its text with parentheses and a newline
    ("( Nucleus (leaf 12) (rel2par cause-e) (text _!a (b)\nc_!) )", [
        ("whole_leaf", ("Nucleus", "12", "cause-e", "a (b)\nc"), 0),
    ]),
    # a head takes the rel2par that follows its span, spaced as fields are
    ("( Satellite\n(span 2 3)\t(rel2par cause-e) ( Nucleus", [
        ("head", ("Satellite", "2", "3", "cause-e"), 0),
        ("constituent", ("Nucleus",), 41),
    ]),
    # a head without one; a rel2par that is not whole stays out of the head
    ("( Nucleus (span 1 2) ( Nucleus (leaf 1)", [
        ("head", ("Nucleus", "1", "2"), 0), ("constituent", ("Nucleus",), 21),
        ("leaf", ("1",), 31),
    ]),
    ("( Nucleus (span 1 2) (rel2par _!x_!)", [
        ("head", ("Nucleus", "1", "2"), 0), ("open", "(", 21),
        ("atom", "rel2par", 22), ("text", "x", 30), ("close", ")", 35),
    ]),
    # the Root's head
    ("( Root (span 1 6)\n  ( Nucleus (span 1 3) (rel2par span)", [
        ("head", ("Root", "1", "6"), 0), ("head", ("Nucleus", "1", "3", "span"), 20),
    ]),
    # a leaf with a field that is not whole is read token by token
    ("( Nucleus (leaf1) (rel2par span) (text _!a_!) )", [
        ("constituent", ("Nucleus",), 0), ("open", "(", 10), ("atom", "leaf1", 11),
        ("close", ")", 16), ("open", "(", 18), ("atom", "rel2par", 19),
        ("atom", "span", 27), ("close", ")", 31), ("open", "(", 33),
        ("atom", "text", 34), ("text", "a", 39), ("close", ")", 44),
        ("close", ")", 46),
    ]),
    # a leaf whose fields are out of order is read token by token after
    # its (leaf n)
    ("( Satellite (leaf 2) (text _!b_!) (rel2par cause) )", [
        ("constituent", ("Satellite",), 0), ("leaf", ("2",), 12),
        ("open", "(", 21), ("atom", "text", 22), ("text", "b", 27),
        ("close", ")", 32), ("open", "(", 34), ("atom", "rel2par", 35),
        ("atom", "cause", 43), ("close", ")", 48), ("close", ")", 50),
    ]),
])
def test_token_scan(text, tokens):
    assert _scan(text) == tokens


def test_canonical_dis_scans_as_whole_constituents():
    """Every bundled .dis file, with its tool noise taken out as parse_dis
    takes it out, and the long and random documents that ``test_core``
    reads through both readers scan as whole leaves, heads and closing
    parentheses only, so none of them reaches the token arm."""
    paths = sorted(minicorpus_dir().glob("*.dis")) + sorted(DATA_DIR.glob("*.dis"))
    texts = [path.read_text(encoding="utf-8") for path in paths]
    rng = random.Random(3000)
    texts += [
        _long_dis(3000, _right_branching),
        _long_dis(3000, lambda lo, hi: _random_children(rng, lo, hi)),
    ]
    rng = random.Random(20118)
    texts += [
        to_dis(_random_nary(rng, 1, rng.randint(2, 14), "Root", None))
        for _ in range(200)
    ]
    for text in texts:
        kinds = {m.lastgroup for m in _FIELD_RE.finditer(_TT_ERR_RE.sub(")", text))}
        assert kinds <= {"whole_leaf", "head", "close"}, text[:200]


def test_errors_after_tt_err_noise_keep_their_offsets():
    head = "( Root (span 1 2) ( Nucleus (leaf 1) (rel2par span) (text _!a_!) )//TT_ERR"
    with pytest.raises(DisSyntaxError, match="end of input") as caught:
        parse_dis(head)
    assert caught.value.pos == 74
    # past the noise, offsets count in the text with the noise taken out
    bad_text = head + "\n ( Satellite (leaf 2) (rel2par cause) (text x) )\n)"
    with pytest.raises(DisSyntaxError, match="expected text, got 'x'") as caught:
        parse_dis(bad_text)
    assert caught.value.pos == 111


def test_dis_syntax_errors_carry_positions():
    try:
        parse_dis("( Root (span 1 1) ( Nucleus (leaf 1) (rel2par span)")
    except DisSyntaxError as exc:
        assert exc.pos is not None and exc.pos > 0
    else:
        pytest.fail("expected DisSyntaxError")


def test_noncontiguous_edu_indices_rejected():
    text = """( Root (span 1 2)
      ( Nucleus (leaf 1) (rel2par span) (text _!a_!) )
      ( Satellite (leaf 3) (rel2par cause) (text _!b_!) )
    )"""
    with pytest.raises(MalformedTree, match="contiguous"):
        parse_dis(text)
    # contiguous, but not from 1
    late = text.replace("span 1 2", "span 2 3").replace("leaf 1", "leaf 2")
    with pytest.raises(MalformedTree, match="contiguous from 1"):
        parse_dis(late)


def test_missing_rel2par_fails_at_binarize(tmp_path):
    path = tmp_path / "norel.dis"
    path.write_text("""( Root (span 1 2)
      ( Nucleus (leaf 1) (text _!a_!) )
      ( Satellite (leaf 2) (rel2par cause) (text _!b_!) )
    )""")
    with pytest.raises(MalformedTree, match="rel2par"):
        read_dis(path)


# ---------------------------------------------------------------------------
# Relation normalization and maps


@pytest.mark.parametrize("raw,expected", [
    ("Attribution", "attribution"),
    ("elaboration-object-attribute-e", "elaboration-object-attribute"),
    ("Temporal-Same-Time", "temporal-same-time"),
    ("  list ", "list"),
    ("attribution-e-e", "attribution-e"),  # exactly one suffix strip
])
def test_normalize_relation(raw, expected):
    assert normalize_relation(raw) == expected


def test_builtin_coarse_map_targets_match_inventory():
    relmap = builtin_relation_map("rst-dt-coarse")
    inventory = builtin_inventory("rst-dt")
    assert sorted(set(relmap.entries.values())) == sorted(inventory.relations)
    assert relmap.apply("Elaboration-Object-Attribute-E") == "Elaboration"
    assert relmap.apply("consequence-n") == "Cause"
    with pytest.raises(UnknownRelation):
        relmap.apply("flavor-of-the-week")


def test_gum_map_loads():
    relmap = builtin_relation_map("gum-rstdt")
    inventory = builtin_inventory("rst-dt")
    assert set(relmap.entries.values()) <= set(inventory.relations)
    assert relmap.apply("adversative-concession") == "Contrast"
    assert relmap.apply("joint-sequence") == "Temporal"


def test_load_relation_map_rejects_conflicts(tmp_path):
    path = tmp_path / "bad.map"
    path.write_text("cause\tCause\nCAUSE\tContrast\n")
    with pytest.raises(ConfigError, match="conflicting"):
        load_relation_map(path)
    # agreeing duplicates are fine
    path.write_text("cause\tCause\nCAUSE\tCause\n")
    assert load_relation_map(path).apply("Cause") == "Cause"


def test_load_relation_map_rejects_bad_rows(tmp_path):
    path = tmp_path / "bad.map"
    path.write_text("just-one-cell\n")
    with pytest.raises(ConfigError, match="source"):
        load_relation_map(path)
    path.write_text("# only comments\n")
    with pytest.raises(ConfigError, match="empty"):
        load_relation_map(path)


def test_parse_dis_maps_relations_as_read(press_release_path, relmap):
    text = press_release_path.read_text()
    mapped, edus = parse_dis(text, relmap)
    # the span placeholders and the Root's missing rel2par are not looked up
    assert mapped == _press_expected((
        "Attribution", "Elaboration", "Elaboration", "Same-Unit", "Elaboration",
    ))
    assert edus == parse_dis(text)[1]


def test_parse_dis_rejects_unmapped_relation():
    text = """( Root (span 1 2)
      ( Nucleus (leaf 1) (rel2par span) (text _!a_!) )
      ( Satellite (leaf 2) (rel2par mystery-e) (text _!b_!) )
    )"""
    with pytest.raises(UnknownRelation, match="mystery-e"):
        parse_dis(text, RelationMap({"cause": "Cause"}))


def test_unknown_relation_has_offending_name():
    relmap = RelationMap({"cause": "Cause"})
    with pytest.raises(UnknownRelation, match="mystery"):
        relmap.apply("mystery")


# ---------------------------------------------------------------------------
# Inventories


def test_builtin_inventories():
    rst = builtin_inventory("rst-dt")
    assert len(rst.relations) == 18
    assert rst.relations == tuple(sorted(rst.relations))
    assert rst.default_relation == "Elaboration"
    assert rst.default_nuclearity == "nucleus-satellite"

    instr = builtin_inventory("instr-dt")
    assert len(instr.relations) == 39
    assert instr.default_relation == "elaboration"
    assert instr.relations[0] == "preparation:act"


def test_every_label_set_the_engines_ask_reads_each_label_as_itself():
    # a split set of m labels, "0".."m-1", is a prefix of the 2000-label set,
    # and the rule returns the first label that matches, so that set stands
    # for every split set up to its size
    label_sets = [
        ACTION_LABELS,
        NUCLEARITY_PATTERNS,
        tuple(map(str, range(2000))),
        builtin_inventory("rst-dt").relations,
        builtin_inventory("instr-dt").relations,
    ]
    for labels in label_sets:
        assert [resolve_label(label, labels) for label in labels] == list(labels)


def test_load_inventory_requires_directives(tmp_path):
    path = tmp_path / "tiny.inv"
    path.write_text("alpha\nbeta\n")
    with pytest.raises(ConfigError, match="missing directive"):
        load_inventory(path)
    path.write_text("!id\ttiny\n!default_relation\tgamma\nalpha\nbeta\n")
    with pytest.raises(ConfigError, match="default relation"):
        load_inventory(path)
    path.write_text("!id\ttiny\n!default_relation\talpha\nalpha\nbeta\n")
    inv = load_inventory(path)
    assert inv.relations == ("alpha", "beta")
    assert inv.default_nuclearity == NS


@pytest.mark.parametrize("content,fragment", [
    ("!id\n!default_relation\talpha\nalpha\n", "1: expected '!key<TAB>value'"),
    ("!id\ttiny\n!default_relation\talpha\nalpha\tbeta\n", "3: one relation name"),
    ("!id\ttiny\n!default_relation\talpha\n", "at least one relation"),
    ("!id\ttiny\n!default_relation\talpha\nalpha\nalpha\n", "must be unique"),
    ("!id\ttiny\n!default_relation\talpha\n!default_nuclearity\tsideways\nalpha\n",
     "default nuclearity 'sideways' unknown"),

    # a .tree line cannot hold these labels
    ("!id\ttiny\n!default_relation\talpha\nalpha\nElab oration\n",
     "4: relation 'Elab oration' has whitespace or a parenthesis"),
    ("!id\ttiny\n!default_relation\tElab oration\nElab oration\n",
     "3: relation 'Elab oration' has whitespace"),
    ("!id\ttiny\n!default_relation\talpha\nalpha\ncause(x)\n",
     "4: relation 'cause(x)' has whitespace or a parenthesis"),

    # labels the answer rule reads as one, or as none of the set
    ("!id\ttiny\n!default_relation\tlist\nlist\nList\n02\n2\n",
     "relations 'list' and 'List' read as one answer"),
    ("!id\ttiny\n!default_relation\tlist\nlist\n2\n02\n",
     "relations '2' and '02' read as one answer"),
    ("!id\ttiny\n!default_relation\tx\nx\n+2\n2\n",
     "relations '2' and '+2' read as one answer"),
    ("!id\ttiny\n!default_relation\tStraße\nStraße\nSTRASSE\n",
     "relations 'Straße' and 'STRASSE' read as one answer"),
    ("!id\ttiny\n!default_relation\tlist\nlist\n02\n",
     "relation '02' reads as no relation of the set"),
    ("!id\ttiny\n!default_relation\tlist\nlist\n-0\n",
     "relation '-0' reads as no relation of the set"),
])
def test_load_inventory_errors(tmp_path, content, fragment):
    path = tmp_path / "tiny.inv"
    path.write_text(content, encoding="utf-8")
    with pytest.raises(ConfigError) as caught:
        load_inventory(path)
    assert str(caught.value).startswith(str(path))
    assert fragment in str(caught.value)


# ---------------------------------------------------------------------------
# Bracket format round-trip


def test_write_tree_format(press_release_path, relmap):
    doc = read_dis(press_release_path, relmap)
    line = write_tree(doc.tree)
    assert line == (
        "(NS Elaboration (NS Elaboration (SN Attribution (leaf 1) (leaf 2))"
        " (leaf 3)) (NN Same-Unit (leaf 4) (SN Elaboration (leaf 5)"
        " (leaf 6))))"
    )


def test_write_tree_rejects_unwritable_relation():
    e = make_edus(2)
    tree = Node(Leaf(e[0]), Leaf(e[1]), NS, "has space")
    with pytest.raises(ValueError, match="bracket"):
        write_tree(tree)


@given(st.integers(min_value=1, max_value=40), st.integers())
def test_bracket_round_trip(n, seed):
    rng = random.Random(seed)
    edus = make_edus(n, rng)
    tree = random_tree(rng, edus)
    line = write_tree(tree)
    assert read_tree(line, edus) == tree
    # without texts, structure and labels still round-trip
    bare = read_tree(line)
    assert write_tree(bare) == line


def test_write_leaf_only():
    tree = Leaf(Edu(1, "alone."))
    assert write_tree(tree) == "(leaf 1)"
    assert read_tree("(leaf 1)", [Edu(1, "alone.")]) == tree


# (line, message fragment, character offset the error reports)
READ_TREE_ERRORS = [
    ("(NS Cause (leaf 1) (leaf 2)", "unclosed", 27),
    ("(NS Cause (leaf 1))", "two children", 18),
    ("(leaf 1) (leaf 2)", "multiple top-level", 9),
    ("", "empty", 0),
    ("(XX Cause (leaf 1) (leaf 2))", "unknown node head", 1),
    ("(NS Cause (leaf 1) (leaf 3))", "adjacent", 27),
    ("((leaf 1))", "expected node head", 1),
    ("(leaf 1))", "unbalanced", 8),
    ("(NS Cause (leaf 1) x (leaf 2))", "unexpected token 'x'", 19),
    ("(NS _!x_! (leaf 1) (leaf 2))", "expected atom, got 'x'", 4),
    ("(XX Cause (leaf 1) _!x", "unterminated", 19),
    ("(NS Elab (leaf 1 2) (leaf 3))", "expected close, got '2'", 17),
    # a .dis field head inside bracket text
    ("(NS Elab (span 1 2) (leaf 3))", "unknown node head 'span'", 10),
    # a .dis constituent inside bracket text: a whole leaf, and a head
    ("(NS Elab ( Nucleus (leaf 1) (rel2par span) (text _!a_!) ) (leaf 2))",
     "unknown node head 'Nucleus'", 11),
    ("(NS Elab ( Satellite (span 1 2) (rel2par span) (leaf 3))",
     "unknown node head 'Satellite'", 11),
]


@pytest.mark.parametrize("line,fragment", [case[:2] for case in READ_TREE_ERRORS])
def test_read_tree_errors(line, fragment):
    with pytest.raises(DisSyntaxError, match=fragment):
        read_tree(line)


@pytest.mark.parametrize("line,fragment,pos", READ_TREE_ERRORS)
def test_read_tree_error_offsets(line, fragment, pos):
    with pytest.raises(DisSyntaxError, match=fragment) as caught:
        read_tree(line)
    assert caught.value.pos == pos


@pytest.mark.parametrize("line", [case[0] for case in READ_TREE_ERRORS])
def test_read_tree_errors_match_the_token_reader(line):
    outcomes = []
    for read in (read_tree, token_reader.read_tree):
        with pytest.raises(DisSyntaxError) as caught:
            read(line)
        outcomes.append((str(caught.value), caught.value.pos))
    assert outcomes[0] == outcomes[1]


def test_read_tree_checks_leaf_range():
    edus = make_edus(2)
    with pytest.raises(DisSyntaxError, match="outside"):
        read_tree("(NS Cause (leaf 1) (leaf 5))", edus)


# ---------------------------------------------------------------------------
# Split manifests


def test_minicorpus_manifest():
    splits = load_split_manifest(minicorpus_dir() / "splits.tsv")
    assert sorted(splits) == ["dev", "test", "train"]
    assert len(splits["train"]) == 14
    assert len(splits["dev"]) == 4
    assert len(splits["test"]) == 4
    assert splits["train"][0] == "doc01"


def test_manifest_count_directive_enforced(tmp_path):
    path = tmp_path / "splits.tsv"
    path.write_text("!count\ttrain\t3\ntrain\ta\ntrain\tb\n")
    with pytest.raises(ConfigError, match="declares 3"):
        load_split_manifest(path)


def test_manifest_rejects_overlap(tmp_path):
    path = tmp_path / "splits.tsv"
    path.write_text("train\ta\ndev\ta\n")
    with pytest.raises(ConfigError, match="'a' already in split 'train'"):
        load_split_manifest(path)
    # a repeat inside the same split is tolerated, once
    path.write_text("train\ta\ntrain\ta\n")
    assert load_split_manifest(path) == {"train": ["a"]}


def test_manifest_rejects_garbage(tmp_path):
    path = tmp_path / "splits.tsv"
    path.write_text("only-one-cell\n")
    with pytest.raises(ConfigError):
        load_split_manifest(path)
    path.write_text("# nothing\n")
    with pytest.raises(ConfigError, match="no split rows"):
        load_split_manifest(path)
    path.write_text("!count\ttrain\tmany\ntrain\ta\n")
    with pytest.raises(ConfigError, match="count"):
        load_split_manifest(path)


def test_resolve_document_path_probes_suffixes():
    corpus = minicorpus_dir()
    assert resolve_document_path(corpus, "doc01").name == "doc01.dis"
    assert resolve_document_path(corpus, "doc21").name == "doc21.out.dis"
    assert resolve_document_path(corpus, "doc01.dis").name == "doc01.dis"
    with pytest.raises(MissingDocument, match="doc99"):
        resolve_document_path(corpus, "doc99")


def test_load_documents_follows_manifest_or_directory(relmap, tmp_path):
    corpus = minicorpus_dir()
    manifest = corpus / "splits.tsv"
    splits = load_split_manifest(manifest)
    everything = load_documents(corpus, manifest, relation_map=relmap)
    assert [doc.doc_id for doc in everything] == [
        doc_id for ids in splits.values() for doc_id in ids
    ]
    assert all(doc.tree is not None for doc in everything)
    test = load_documents(corpus, manifest, "test", relmap)
    assert [doc.doc_id for doc in test] == splits["test"]
    assert test[0].doc_id == "doc19"
    # without a manifest: every .dis file in name order, relations unmapped
    for name in ("b.dis", "a.dis", "c.out.dis"):
        (tmp_path / name).write_text((corpus / "doc01.dis").read_text())
    (tmp_path / "notes.txt").write_text("not a document")
    plain = load_documents(tmp_path)
    assert [doc.doc_id for doc in plain] == ["a", "b", "c"]
    assert plain[0].tree == read_dis(corpus / "doc01.dis").tree


@pytest.mark.parametrize("names,manifest", [
    (("doc01.dis", "doc01.out.dis"), None),
    (("doc01.dis", "doc01.out.dis"), "test\tdoc01\ntest\tdoc01.out\n"),
    # a manifest that names one file twice
    (("doc01.dis",), "dev\tdoc01\ndev\tdoc01.dis\n"),
], ids=["directory", "manifest", "one-file-named-twice"])
def test_load_documents_rejects_two_files_with_one_id(tmp_path, names, manifest):
    text = (minicorpus_dir() / "doc01.dis").read_text()
    for name in names:
        (tmp_path / name).write_text(text)
    if manifest is not None:
        (tmp_path / "splits.tsv").write_text(manifest)
        manifest = tmp_path / "splits.tsv"
    first, second = (tmp_path / name for name in (names * 2)[:2])
    with pytest.raises(ConfigError) as caught:
        load_documents(tmp_path, manifest)
    assert str(caught.value) == f"{first} and {second} both give document id 'doc01'"


@pytest.mark.parametrize("where,manifest,split,fragment", [
    ("absent", None, None, "does not exist"),
    ("corpus", None, "dev", "--split needs --manifest"),
    ("corpus", "splits.tsv", "holdout", "no split 'holdout'"),
    ("empty", None, None, "no .dis files under"),
])
def test_load_documents_errors(tmp_path, where, manifest, split, fragment):
    corpus = minicorpus_dir()
    corpus_dir = {"absent": tmp_path / "absent", "corpus": corpus, "empty": tmp_path}[where]
    with pytest.raises(ConfigError, match=fragment):
        load_documents(corpus_dir, manifest and corpus / manifest, split)
