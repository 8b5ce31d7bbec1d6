"""Prompt byte-stability against frozen goldens, plus rendering properties."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from rstkit import (
    EMPTY_SLOT,
    DocumentText,
    Edu,
    SplitPrompts,
    action_prompt,
    builtin_inventory,
    nuclearity_prompt,
    relation_prompt,
    span_slot,
    truncate_text,
)

from conftest import GOLDEN_DIR
from make_goldens import golden_prompts


def _golden(name: str) -> bytes:
    return (GOLDEN_DIR / name).read_bytes()


@pytest.mark.parametrize("name", sorted(golden_prompts()))
def test_golden_bytes(name):
    assert golden_prompts()[name].encode("utf-8") == _golden(name)


def test_goldens_cover_option_list_sizes():
    rst_line = _golden("relation_rst.txt").decode().splitlines()[-1]
    instr_line = _golden("relation_instr.txt").decode().splitlines()[-1]
    rst_inner = rst_line[len("Relation label (") : -len("):")]
    instr_inner = instr_line[len("Relation label (") : -len("):")]
    assert len(rst_inner.split(", ")) == 18
    assert len(instr_inner.split(", ")) == 39


def test_empty_slots_render_placeholder():
    doc = DocumentText([Edu(1, ""), Edu(2, "text")])
    prompt = action_prompt(EMPTY_SLOT, span_slot(doc, 1, 1, None),
                           span_slot(doc, 2, 2, None))
    lines = prompt.split("\n")
    assert lines[0] == f"Stack2: {EMPTY_SLOT}"
    assert lines[1] == f"Stack1: {EMPTY_SLOT}"
    assert lines[2] == "Queue1: text"
    assert lines[3] == "Action (shift or reduce):"
    assert not prompt.endswith("\n")


def test_rendering_is_deterministic():
    a = nuclearity_prompt("left span", "right span")
    b = nuclearity_prompt("left span", "right span")
    assert a == b
    assert a.split("\n")[-1] == (
        "Nucleus label (nucleus-nucleus, nucleus-satellite, satellite-nucleus):"
    )


def test_relation_prompt_embeds_predicted_nuclearity():
    inv = builtin_inventory("rst-dt")
    prompt = relation_prompt("l", "r", "satellite-nucleus", inv)
    assert prompt.split("\n")[2] == "Nucleus label: satellite-nucleus"
    with pytest.raises(ValueError, match="nuclearity"):
        relation_prompt("l", "r", "NS", inv)


def test_relation_options_follow_inventory_order():
    inv = builtin_inventory("rst-dt")
    prompt = relation_prompt("l", "r", "nucleus-satellite", inv)
    expected = "Relation label (" + ", ".join(inv.relations) + "):"
    assert prompt.split("\n")[-1] == expected


def test_split_prompt_renumbers_from_zero():
    # the same texts render identically wherever the span sits
    texts = ["alpha one.", "beta two.", "gamma three."]
    expected = (
        "Input:\n0: alpha one.\n1: beta two.\n2: gamma three.\nSplit point (0 - 1):"
    )
    assert SplitPrompts(texts).render(1, 3) == expected
    assert SplitPrompts(["before."] + texts).render(2, 4) == expected


@given(st.lists(st.text(alphabet="abc xyz.", min_size=1, max_size=12),
                min_size=2, max_size=10))
def test_split_prompt_always_starts_at_zero(texts):
    prompt = SplitPrompts(texts).render(1, len(texts))
    lines = prompt.split("\n")
    assert lines[0] == "Input:"
    assert lines[1].startswith("0: ")
    assert lines[-1] == f"Split point (0 - {len(texts) - 2}):"


def test_split_prompt_needs_two_edus():
    with pytest.raises(ValueError):
        SplitPrompts(["only one"]).render(1, 1)


def test_split_labels():
    prompts = SplitPrompts([f"edu {i}." for i in range(1, 7)])
    assert prompts.labels(1, 2) == ("0",)
    assert prompts.labels(1, 5) == ("0", "1", "2", "3")
    assert prompts.labels(4, 6) == ("0", "1")


# ---------------------------------------------------------------------------
# Truncation


def test_truncate_disabled_or_within_budget():
    assert truncate_text("short", None) == "short"
    assert truncate_text("short", 5) == "short"
    assert truncate_text("short", 99) == "short"


def test_truncate_keeps_both_edges():
    text = "abcdefghijklmnopqrstuvwxyz"
    out = truncate_text(text, 15)
    assert len(out) == 15
    assert " ... " in out
    head, tail = out.split(" ... ")
    assert text.startswith(head)
    assert text.endswith(tail)
    assert len(head) == 5 and len(tail) == 5


def test_truncate_tiny_budget_is_a_prefix():
    assert truncate_text("abcdefgh", 3) == "abc"
    assert truncate_text("abcdefgh", 5) == "abcde"


@given(st.text(min_size=0, max_size=200), st.integers(min_value=6, max_value=80))
def test_truncate_length_property(text, budget):
    out = truncate_text(text, budget)
    assert len(out) <= max(budget, len(text) if len(text) <= budget else 0)
    if len(text) > budget:
        assert len(out) == budget
    else:
        assert out == text


# ---------------------------------------------------------------------------
# Span texts sliced from the joined document

_BUDGETS = st.one_of(
    st.none(), st.integers(min_value=-3, max_value=5),
    st.integers(min_value=6, max_value=40),
)


@given(st.lists(st.text(alphabet="ab .", max_size=9), min_size=1, max_size=8),
       st.data(), _BUDGETS)
def test_sliced_span_equals_truncated_join(texts, data, budget):
    doc = DocumentText([Edu(i, text) for i, text in enumerate(texts, 1)])
    first = data.draw(st.integers(min_value=1, max_value=len(texts)))
    last = data.draw(st.integers(min_value=first, max_value=len(texts)))
    joined = " ".join(texts[first - 1 : last])
    assert doc.text[doc.starts[first] : doc.ends[last]] == joined
    shown = truncate_text(joined, budget) if joined else EMPTY_SLOT
    assert span_slot(doc, first, last, budget) == shown


@given(st.lists(st.text(alphabet="ab .", max_size=9), min_size=2, max_size=8),
       st.data(), _BUDGETS)
def test_split_prompts_equal_line_by_line_rendering(texts, data, budget):
    first = data.draw(st.integers(min_value=1, max_value=len(texts) - 1))
    last = data.draw(st.integers(min_value=first + 1, max_value=len(texts)))
    lines = ["Input:"]
    for offset, text in enumerate(texts[first - 1 : last]):
        shown = truncate_text(text, budget) if text else EMPTY_SLOT
        lines.append(f"{offset}: {shown}")
    lines.append(f"Split point (0 - {last - first - 1}):")
    prompts = SplitPrompts(texts, budget)
    assert prompts.render(first, last) == "\n".join(lines)
    assert prompts.labels(first, last) == tuple(map(str, range(last - first)))
