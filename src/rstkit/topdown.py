"""Top-down parsing by recursive span splitting, driven by a decision oracle.

Each span of two or more EDUs is split at an oracle-chosen point, labeled
immediately, and the halves are processed left before right. The split
answer is a 0-based relative index (the span's EDUs are renumbered from 0
in the prompt), so the same fine-tuned model works anywhere in a document.
"""

from __future__ import annotations

from typing import Sequence

from .core import DocumentText, Edu, LabelInventory, Leaf
from .engine import (
    Decision,
    EmptyDocument,
    ParsePolicy,
    ParseResult,
    build_tree,
    label_decision,
    run_decisions,
)
from .oracle import Oracle, OracleQuery
from .prompts import SPLIT, SplitPrompts, span_slot


def split_span(state: str) -> tuple[int, int]:
    """The span (first, last) of a split decision, read from the state its
    trace entry records, ``span=(first,last)``."""
    first, last = state[6:-1].split(",")
    return int(first), int(last)


def parse_top_down(
    edus: Sequence[Edu],
    oracle: Oracle,
    inventory: LabelInventory,
    policy: ParsePolicy = ParsePolicy(),
) -> ParseResult:
    """Parse a document by splitting spans from the top.

    Split answers outside 0..len-2 or unparseable ones are corrected to 0
    and flagged; the trace note tells the two apart. Two-EDU spans have a
    single legal split, taken without a query under the default policy.

    A span's split needs only its parent's split, and its labels only its
    own split, so sibling spans are asked alongside each other (see
    ``run_decisions``); the trace stays in pre-order.
    """
    if not edus:
        raise EmptyDocument("cannot parse a document with no EDUs")
    n = len(edus)
    if n == 1:
        return ParseResult(tree=Leaf(edus[0]), trace=())

    doc = DocumentText(edus)
    budget = policy.truncate_chars
    prompts = SplitPrompts([edu.text for edu in edus], budget)
    # the internal nodes, as build_tree reads them
    nodes: dict[tuple[int, int], list] = {}

    def split(first: int, last: int) -> Decision:
        state = f"span=({first},{last})"  # read back by split_span
        legal = prompts.labels(first, last)
        query = None
        if not (last - first == 1 and policy.skip_forced):
            query = OracleQuery(SPLIT, prompts.render(first, last), legal, (first, last))

        def advance(resolved: str) -> list[Decision]:
            mid = first + int(resolved)
            node = nodes[(first, last)] = [mid]
            unlocked = [label_decision(
                state,
                (first, last),
                span_slot(doc, first, mid, budget),
                span_slot(doc, mid + 1, last, budget),
                inventory, node,
            )]
            if mid > first:
                unlocked.append(split(first, mid))
            if last > mid + 1:
                unlocked.append(split(mid + 1, last))
            return unlocked

        return Decision(SPLIT, state, query, legal, "0", advance)

    try:
        trace = run_decisions(oracle, split(1, n))
    finally:
        # split's closure holds the cell that holds split; emptying it lets
        # reference counting free the parse, not the cyclic collector
        split = None
    return ParseResult(tree=build_tree(edus, nodes), trace=trace)
