"""Prompt templates for the four decision types.

Rendering is byte-stable: fixed cue lines, single newline separators, no
trailing newline after the final cue. Fine-tuned and prompted models are
sensitive to drift here, so the exact bytes are pinned by golden tests.
"""

from __future__ import annotations

from typing import Sequence

from .core import NUCLEARITY_PATTERNS, DocumentText, LabelInventory

# Prompt kinds; also the "kind" field of training records and trace entries.
ACTION = "action"
NUCLEARITY = "nuclearity"
RELATION = "relation"
SPLIT = "split"
PROMPT_KINDS = (ACTION, NUCLEARITY, RELATION, SPLIT)

PromptKind = str

SHIFT = "shift"
REDUCE = "reduce"
ACTION_LABELS = (SHIFT, REDUCE)

# Rendered for a stack or queue position that holds nothing.
EMPTY_SLOT = "None"

_ELLIPSIS = " ... "

_NUCLEARITY_CUE = f"Nucleus label ({', '.join(NUCLEARITY_PATTERNS)}):"


def _elide(text: str, start: int, end: int, budget: int | None) -> str:
    """``truncate_text(text[start:end], budget)``, slicing only what is kept."""
    if budget is None or end - start <= budget:
        return text[start:end]
    if budget < 0:  # as str slicing reads it: all but that many at the end
        return text[start:end][:budget]
    if budget <= len(_ELLIPSIS):
        return text[start : start + budget]
    keep = budget - len(_ELLIPSIS)
    head = (keep + 1) // 2
    return text[start : start + head] + _ELLIPSIS + text[end - keep + head : end]


def truncate_text(text: str, budget: int | None) -> str:
    """Center-elide text over the budget, keeping both edges.

    Decision prompts care most about span boundaries, so the middle is what
    goes. Deterministic; None disables.
    """
    return _elide(text, 0, len(text), budget)


def span_slot(doc: DocumentText, first: int, last: int, budget: int | None) -> str:
    """What a prompt shows for EDUs first..last (1-based, inclusive): their
    text, elided to the budget, or the empty-slot placeholder when they hold
    no text.

    The kept head and tail are sliced from the joined document, so the cost
    follows the budget, not the span's length.
    """
    start, end = doc.starts[first], doc.ends[last]
    return EMPTY_SLOT if start == end else _elide(doc.text, start, end, budget)


# The renderers below take slot texts, already elided (see ``span_slot``).


def action_prompt(stack2: str, stack1: str, queue1: str) -> str:
    return (
        f"Stack2: {stack2}\n"
        f"Stack1: {stack1}\n"
        f"Queue1: {queue1}\n"
        "Action (shift or reduce):"
    )


def nuclearity_prompt(span2: str, span1: str) -> str:
    return f"Span2: {span2}\nSpan1: {span1}\n{_NUCLEARITY_CUE}"


def relation_prompt(
    span2: str, span1: str, nuclearity: str, inventory: LabelInventory
) -> str:
    if nuclearity not in NUCLEARITY_PATTERNS:
        raise ValueError(f"unknown nuclearity pattern {nuclearity!r}")
    options = ", ".join(inventory.relations)
    return (
        f"Span2: {span2}\n"
        f"Span1: {span1}\n"
        f"Nucleus label: {nuclearity}\n"
        f"Relation label ({options}):"
    )


class SplitPrompts:
    """Split prompts for the spans of one document.

    Each EDU's line text is elided once, and the renumbered ``"i: "``
    prefixes and the answers are made once, so a prompt costs one join of
    its own lines.
    """

    def __init__(self, edu_texts: Sequence[str], truncate: int | None = None):
        self._lines = [
            truncate_text(text, truncate) if text else EMPTY_SLOT
            for text in edu_texts
        ]
        self._prefixes = [f"\n{offset}: " for offset in range(len(edu_texts))]
        self._answers = tuple(map(str, range(len(edu_texts) - 1)))

    def render(self, first: int, last: int) -> str:
        """The prompt for EDUs first..last (1-based, inclusive), renumbered
        from 0 so a span renders the same wherever it sits in a document."""
        m = last - first + 1
        if m < 2:
            raise ValueError("split prompts need at least two EDUs")
        parts = [""] * (2 * m + 2)
        parts[0] = "Input:"
        parts[1 : 2 * m : 2] = self._prefixes[:m]
        parts[2 : 2 * m + 1 : 2] = self._lines[first - 1 : last]
        parts[-1] = f"\nSplit point (0 - {m - 2}):"
        return "".join(parts)

    def labels(self, first: int, last: int) -> tuple[str, ...]:
        """Valid answers for the span of EDUs first..last: "0".."m-2"."""
        return self._answers[: last - first]
