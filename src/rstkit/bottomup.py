"""Bottom-up shift-reduce parsing driven by a decision oracle.

The transition system is the classic one: a stack of subtrees and a queue
of unread EDUs. Shift wraps the queue front as a leaf; reduce joins the top
two stack items into one node, left side being the item shifted earlier.
Parsing an n-EDU document always takes exactly 2n-1 actions.
"""

from __future__ import annotations

from typing import Sequence

from .core import DocumentText, Edu, LabelInventory
from .engine import (
    Decision,
    EmptyDocument,
    ParsePolicy,
    ParseResult,
    label_decision,
    run_decisions,
)
from .oracle import Oracle, OracleQuery
from .prompts import (
    ACTION,
    ACTION_LABELS,
    EMPTY_SLOT,
    REDUCE,
    SHIFT,
    action_prompt,
    span_slot,
)


def parse_bottom_up(
    edus: Sequence[Edu],
    oracle: Oracle,
    inventory: LabelInventory,
    policy: ParsePolicy = ParsePolicy(),
) -> ParseResult:
    """Parse a document, consulting the oracle for every open decision.

    Unusable answers never abort the parse: they are replaced by defaults
    (shift, or the single legal action; the inventory's default nuclearity
    and relation) and flagged in the trace. Identical oracle answers yield
    an identical tree and trace.

    Action prompts show only span texts, so each action needs just the one
    before it; a reduce's nuclearity and relation are asked alongside the
    actions that follow (see ``run_decisions``).
    """
    if not edus:
        raise EmptyDocument("cannot parse a document with no EDUs")
    n = len(edus)
    doc = DocumentText(edus)
    budget = policy.truncate_chars
    # the stack holds each subtree's EDU span and the slot text prompts show
    # for it
    stack: list[tuple[int, int, str]] = []
    # the internal nodes, as build_tree reads them
    nodes: dict[tuple[int, int], list] = {}
    queue = 0  # EDUs shifted so far; EDU queue + 1 heads the queue

    def action() -> Decision:
        legal = []
        if queue < n:
            legal.append(SHIFT)
        if len(stack) >= 2:
            legal.append(REDUCE)
        front = span_slot(doc, queue + 1, queue + 1, budget) if queue < n else None
        state = f"stack={len(stack)} queue={n - queue}"
        query = None
        if not (len(legal) == 1 and policy.skip_forced):
            prompt = action_prompt(
                stack[-2][2] if len(stack) >= 2 else EMPTY_SLOT,
                stack[-1][2] if stack else EMPTY_SLOT,
                EMPTY_SLOT if front is None else front,
            )
            # the span a reduce would build
            span = (stack[-2][0], stack[-1][1]) if len(stack) >= 2 else None
            query = OracleQuery(ACTION, prompt, ACTION_LABELS, span)

        def advance(resolved: str) -> list[Decision]:
            nonlocal queue
            unlocked = []
            if resolved == SHIFT:
                queue += 1
                stack.append((queue, queue, front))
            else:
                first, mid, left = stack[-2]
                _, last, right = stack.pop()
                stack[-1] = (first, last, span_slot(doc, first, last, budget))
                node = nodes[(first, last)] = [mid]
                unlocked.append(
                    label_decision(state, (first, last), left, right, inventory, node)
                )
            if queue < n or len(stack) > 1:
                unlocked.append(action())
            return unlocked

        return Decision(ACTION, state, query, legal, legal[0], advance)

    try:
        trace = run_decisions(oracle, action())
    finally:
        # action's closure holds the cell that holds action; emptying it
        # lets reference counting free the parse, not the cyclic collector
        action = None
    return ParseResult(trace, edus, nodes)
