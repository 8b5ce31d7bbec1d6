"""Prompt byte-stability against frozen goldens, plus rendering properties."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from rstkit import (
    EMPTY_SLOT,
    DocumentText,
    Edu,
    SplitPrompts,
    builtin_inventory,
    nuclearity_prompt,
    render_action_prompt,
    render_nuclearity_prompt,
    render_relation_prompt,
    render_split_prompt,
    span_slot,
    span_text,
    split_labels,
    truncate_span,
    truncate_text,
)

from conftest import GOLDEN_DIR

EDUS = [
    "Westinghouse Electric Corp. said",
    "it will buy Shaw-Walker Co.",
    "Terms weren't disclosed.",
    "Shaw-Walker,",
    "based in Muskegon, Mich.,",
    "makes metal files and desks, and seating and office systems furniture.",
]
SPAN12 = " ".join(EDUS[:2])


def _golden(name: str) -> bytes:
    return (GOLDEN_DIR / name).read_bytes()


def _rendered() -> dict[str, str]:
    rst = builtin_inventory("rst-dt")
    instr = builtin_inventory("instr-dt")
    return {
        "action_initial.txt": render_action_prompt(None, None, EDUS[0]),
        "action_midparse.txt": render_action_prompt(SPAN12, EDUS[2], EDUS[3]),
        "action_empty_queue.txt": render_action_prompt(SPAN12, EDUS[2], None),
        "nuclearity.txt": render_nuclearity_prompt(SPAN12, EDUS[2]),
        "relation_rst.txt": render_relation_prompt(
            SPAN12, EDUS[2], "nucleus-satellite", rst
        ),
        "relation_instr.txt": render_relation_prompt(
            "tighten the drain plug", "then refill the reservoir",
            "nucleus-nucleus", instr,
        ),
        "split_press.txt": render_split_prompt(EDUS),
        "split_pair.txt": render_split_prompt(EDUS[4:6]),
        "action_truncated.txt": render_action_prompt(
            SPAN12, EDUS[5], EDUS[2], truncate=40
        ),
    }


@pytest.mark.parametrize("name", sorted(_rendered()))
def test_golden_bytes(name):
    assert _rendered()[name].encode("utf-8") == _golden(name)


def test_goldens_cover_option_list_sizes():
    rst_line = _golden("relation_rst.txt").decode().splitlines()[-1]
    instr_line = _golden("relation_instr.txt").decode().splitlines()[-1]
    rst_inner = rst_line[len("Relation label (") : -len("):")]
    instr_inner = instr_line[len("Relation label (") : -len("):")]
    assert len(rst_inner.split(", ")) == 18
    assert len(instr_inner.split(", ")) == 39


def test_empty_slots_render_placeholder():
    prompt = render_action_prompt(None, "", "text")
    lines = prompt.split("\n")
    assert lines[0] == f"Stack2: {EMPTY_SLOT}"
    assert lines[1] == f"Stack1: {EMPTY_SLOT}"
    assert lines[2] == "Queue1: text"
    assert lines[3] == "Action (shift or reduce):"
    assert not prompt.endswith("\n")


def test_rendering_is_deterministic():
    a = render_nuclearity_prompt("left span", "right span")
    b = render_nuclearity_prompt("left span", "right span")
    assert a == b
    assert a.split("\n")[-1] == (
        "Nucleus label (nucleus-nucleus, nucleus-satellite, satellite-nucleus):"
    )


def test_relation_prompt_embeds_predicted_nuclearity():
    inv = builtin_inventory("rst-dt")
    prompt = render_relation_prompt("l", "r", "satellite-nucleus", inv)
    assert prompt.split("\n")[2] == "Nucleus label: satellite-nucleus"
    with pytest.raises(ValueError, match="nuclearity"):
        render_relation_prompt("l", "r", "NS", inv)


def test_relation_options_follow_inventory_order():
    inv = builtin_inventory("rst-dt")
    prompt = render_relation_prompt("l", "r", "nucleus-satellite", inv)
    expected = "Relation label (" + ", ".join(inv.relations) + "):"
    assert prompt.split("\n")[-1] == expected


def test_split_prompt_renumbers_from_zero():
    # the same texts render identically wherever the span sits
    texts = ["alpha one.", "beta two.", "gamma three."]
    assert render_split_prompt(texts) == (
        "Input:\n0: alpha one.\n1: beta two.\n2: gamma three.\nSplit point (0 - 1):"
    )


@given(st.lists(st.text(alphabet="abc xyz.", min_size=1, max_size=12),
                min_size=2, max_size=10))
def test_split_prompt_always_starts_at_zero(texts):
    prompt = render_split_prompt(texts)
    lines = prompt.split("\n")
    assert lines[0] == "Input:"
    assert lines[1].startswith("0: ")
    assert lines[-1] == f"Split point (0 - {len(texts) - 2}):"


def test_split_prompt_needs_two_edus():
    with pytest.raises(ValueError):
        render_split_prompt(["only one"])


def test_split_labels():
    assert split_labels(2) == ("0",)
    assert split_labels(5) == ("0", "1", "2", "3")
    with pytest.raises(ValueError):
        split_labels(1)


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
    edus = [Edu(i, text) for i, text in enumerate(texts, 1)]
    doc = DocumentText(edus)
    first = data.draw(st.integers(min_value=1, max_value=len(texts)))
    last = data.draw(st.integers(min_value=first, max_value=len(texts)))
    joined = span_text(edus, (first, last))
    assert truncate_span(doc, first, last, budget) == truncate_text(joined, budget)
    shown = span_slot(doc, first, last, budget)
    assert nuclearity_prompt(shown, shown) == render_nuclearity_prompt(
        joined, joined, budget
    )


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
    assert prompts.labels(first, last) == split_labels(last - first + 1)
