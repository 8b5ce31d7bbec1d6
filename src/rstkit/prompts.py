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

ACTION_LABELS = ("shift", "reduce")

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


def truncate_span(
    doc: DocumentText, first: int, last: int, budget: int | None
) -> str:
    """``truncate_text`` of the text of EDUs first..last (1-based, inclusive).

    The kept head and tail are sliced from the joined document, so the cost
    follows the budget, not the span's length.
    """
    return _elide(doc.text, doc.starts[first], doc.ends[last], budget)


def _slot(text: str | None, budget: int | None) -> str:
    if text is None or text == "":
        return EMPTY_SLOT
    return truncate_text(text, budget)


def span_slot(doc: DocumentText, first: int, last: int, budget: int | None) -> str:
    """What a prompt shows for EDUs first..last: their text, elided to the
    budget, or the empty-slot placeholder when they hold no text."""
    if doc.starts[first] == doc.ends[last]:
        return EMPTY_SLOT
    return truncate_span(doc, first, last, budget)


# The renderers below take slot texts, already elided (see ``span_slot``);
# the ``render_*`` functions take plain texts and elide them first.


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


def render_action_prompt(
    stack2: str | None,
    stack1: str | None,
    queue1: str | None,
    truncate: int | None = None,
) -> str:
    """Shift/reduce decision over the top two stack spans and queue front."""
    return action_prompt(
        _slot(stack2, truncate), _slot(stack1, truncate), _slot(queue1, truncate)
    )


def render_nuclearity_prompt(
    span2: str, span1: str, truncate: int | None = None
) -> str:
    """Nuclearity decision; span2 is the left span, span1 the right."""
    return nuclearity_prompt(_slot(span2, truncate), _slot(span1, truncate))


def render_relation_prompt(
    span2: str,
    span1: str,
    nuclearity: str,
    inventory: LabelInventory,
    truncate: int | None = None,
) -> str:
    """Relation decision, conditioned on the already-predicted nuclearity.

    The options list follows inventory order exactly.
    """
    return relation_prompt(
        _slot(span2, truncate), _slot(span1, truncate), nuclearity, inventory
    )


class SplitPrompts:
    """Split prompts for the spans of one document.

    Each EDU's line text is elided once, and the renumbered ``"i: "``
    prefixes and the answers are made once, so a prompt costs one join of
    its own lines.
    """

    def __init__(self, edu_texts: Sequence[str], truncate: int | None = None):
        self._lines = [_slot(text, truncate) for text in edu_texts]
        self._prefixes = [f"\n{offset}: " for offset in range(len(edu_texts))]
        self._answers = tuple(map(str, range(len(edu_texts) - 1)))

    def render(self, first: int, last: int) -> str:
        """The prompt for EDUs first..last (1-based, inclusive)."""
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
        """``split_labels`` of the span of EDUs first..last."""
        return self._answers[: last - first]


def render_split_prompt(
    edu_texts: Sequence[str], truncate: int | None = None
) -> str:
    """Split-point decision over a span's EDUs.

    EDUs are renumbered so the prompt always starts at 0 regardless of where
    the span sits in the document; the inclusive bound is length - 2, the
    last index a left half may end on.
    """
    return SplitPrompts(edu_texts, truncate).render(1, len(edu_texts))


def split_labels(span_len: int) -> tuple[str, ...]:
    """Valid split answers for a span of ``span_len`` EDUs: "0".."len-2"."""
    if span_len < 2:
        raise ValueError("spans of fewer than two EDUs cannot split")
    return tuple(str(k) for k in range(span_len - 1))
