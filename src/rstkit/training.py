"""Gold derivation walks: training pairs and replay scripts.

A gold derivation simulates an engine over a gold tree and yields exactly
the decisions the engine would put to the oracle under the same policy,
with their gold answers. It serves two purposes: a walk renders each
decision's prompt, and its (prompt, completion) pairs are the fine-tuning
data; the (kind, answer) pairs alone, rendered from nothing, are the script
that drives a replay parse back to the original tree.
"""

from __future__ import annotations

import json
from typing import Iterable, Iterator, NamedTuple

from .core import (
    DocumentText,
    LabelInventory,
    Reduce,
    RstTree,
    derive_shift_reduce_sequence,
    derive_split_sequence,
)
from .corpus import Document
from .engine import ParsePolicy
from .oracle import ReplayOracle
from .prompts import (
    ACTION,
    EMPTY_SLOT,
    NUCLEARITY,
    RELATION,
    SPLIT,
    PromptKind,
    SplitPrompts,
    action_prompt,
    nuclearity_prompt,
    relation_prompt,
    span_slot,
)

BOTTOM_UP = "bottom-up"
TOP_DOWN = "top-down"
STRATEGIES = (BOTTOM_UP, TOP_DOWN)

# Reference fine-tuning configuration for the exported pairs, recorded in
# the export's metadata sidecar so a training run is reproducible from the
# artifact alone.
FINE_TUNING_DEFAULTS = {
    "epochs": 5,
    "batch_size": 16,
    "optimizer": "adam",
    "learning_rate": 2e-4,
    "lr_schedule": "linear-warmup-then-cosine",
    "warmup_ratio": 0.03,
    "gradient_clipping": 1.0,
    "lora_r": 64,
    "lora_alpha": 16,
    "lora_dropout": 0.1,
    "lora_targets": "all-linear",
    "quantization": "4bit-nf4-double",
}


class TrainingExample(NamedTuple):
    """One supervised pair; ``step`` matches the engine's trace numbering."""

    kind: PromptKind
    prompt: str
    completion: str
    doc_id: str
    step: int


# A gold decision as the derivations below yield it: its trace step, its
# kind, the gold answer, and the EDU spans its prompt shows. An action shows
# (stack2, stack1, queue front), each a (first, last) span or None; a
# nuclearity or relation decision shows (left, right); a split its own span.
GoldDecision = tuple[int, str, str, tuple]


def _gold_tree(doc: Document) -> RstTree:
    if doc.tree is None:
        raise ValueError(f"document {doc.doc_id} has no gold tree")
    return doc.tree


def _bottom_up_decisions(
    doc: Document, policy: ParsePolicy
) -> Iterator[GoldDecision]:
    """Oracle-visible decisions of a gold bottom-up parse, in engine order.

    Forced actions consume a step number but yield nothing, mirroring the
    engine's trace.
    """
    n = len(doc.edus)
    stack: list[tuple[int, int]] = []
    front = 1  # the EDU heading the queue
    step = 0
    for action in derive_shift_reduce_sequence(_gold_tree(doc)):
        stack2 = stack[-2] if len(stack) >= 2 else None
        stack1 = stack[-1] if stack else None
        # exactly one of shift and reduce is legal
        forced = (front <= n) != (stack2 is not None)
        if not (forced and policy.skip_forced):
            queue1 = (front, front) if front <= n else None
            yield step, ACTION, str(action), (stack2, stack1, queue1)
        step += 1
        if isinstance(action, Reduce):
            assert stack2 is not None and stack1 is not None
            yield step, NUCLEARITY, action.nuclearity, (stack2, stack1)
            yield step + 1, RELATION, action.relation, (stack2, stack1)
            step += 2
            stack.pop()
            stack[-1] = (stack2[0], stack1[1])
        else:
            stack.append((front, front))
            front += 1


def _top_down_decisions(
    doc: Document, policy: ParsePolicy
) -> Iterator[GoldDecision]:
    """Oracle-visible decisions of a gold top-down parse, in engine order."""
    step = 0
    for split in derive_split_sequence(_gold_tree(doc)):
        first, last = split.span
        if not (last - first == 1 and policy.skip_forced):
            yield step, SPLIT, str(split.k), split.span
        mid = first + split.k
        halves = ((first, mid), (mid + 1, last))
        yield step + 1, NUCLEARITY, split.nuclearity, halves
        yield step + 2, RELATION, split.relation, halves
        step += 3


def _gold_decisions(
    doc: Document, strategy: str, policy: ParsePolicy
) -> Iterator[GoldDecision]:
    if strategy == BOTTOM_UP:
        return _bottom_up_decisions(doc, policy)
    if strategy == TOP_DOWN:
        return _top_down_decisions(doc, policy)
    raise ValueError(f"unknown strategy {strategy!r}")


def _examples(
    doc: Document,
    inventory: LabelInventory,
    policy: ParsePolicy,
    decisions: Iterator[GoldDecision],
) -> Iterator[TrainingExample]:
    """Render each gold decision's prompt, as the engine renders it.

    Reduce labels use the gold nuclearity as the "predicted" value inside
    the relation prompt (teacher forcing).
    """
    text = DocumentText(doc.edus)
    budget = policy.truncate_chars
    splits = None

    def show(span: tuple[int, int] | None) -> str:
        return EMPTY_SLOT if span is None else span_slot(text, *span, budget)

    for step, kind, answer, spans in decisions:
        if kind == ACTION:
            prompt = action_prompt(*map(show, spans))
        elif kind == SPLIT:
            if splits is None:
                splits = SplitPrompts([edu.text for edu in doc.edus], budget)
            prompt = splits.render(*spans)
        elif kind == NUCLEARITY:
            # the relation decision that follows shows the same two spans
            left, right = map(show, spans)
            nuclearity = answer
            prompt = nuclearity_prompt(left, right)
        else:
            prompt = relation_prompt(left, right, nuclearity, inventory)
        yield TrainingExample(kind, prompt, answer, doc.doc_id, step)


def bottom_up_walk(
    doc: Document,
    inventory: LabelInventory,
    policy: ParsePolicy = ParsePolicy(),
) -> Iterator[TrainingExample]:
    """Training pairs of a gold bottom-up parse, in engine order."""
    return gold_walk(doc, inventory, BOTTOM_UP, policy)


def top_down_walk(
    doc: Document,
    inventory: LabelInventory,
    policy: ParsePolicy = ParsePolicy(),
) -> Iterator[TrainingExample]:
    """Training pairs of a gold top-down parse, in engine order."""
    return gold_walk(doc, inventory, TOP_DOWN, policy)


def gold_walk(
    doc: Document,
    inventory: LabelInventory,
    strategy: str,
    policy: ParsePolicy = ParsePolicy(),
) -> Iterator[TrainingExample]:
    return _examples(doc, inventory, policy, _gold_decisions(doc, strategy, policy))


def replay_oracle(
    doc: Document,
    inventory: LabelInventory,
    strategy: str,
    policy: ParsePolicy = ParsePolicy(),
) -> ReplayOracle:
    """Oracle that answers a parse of ``doc`` with its own gold decisions.

    Its script is the (kind, completion) sequence of ``gold_walk``, taken
    from the same gold decisions without rendering a prompt; the inventory
    only shapes prompts, so it does not change the script.
    """
    return ReplayOracle(
        (kind, answer) for _, kind, answer, _ in _gold_decisions(doc, strategy, policy)
    )


def export_training_pairs(
    documents: Iterable[Document],
    inventory: LabelInventory,
    strategy: str,
    policy: ParsePolicy = ParsePolicy(),
) -> Iterator[TrainingExample]:
    """All supervised pairs for a corpus, document by document."""
    for doc in documents:
        yield from gold_walk(doc, inventory, strategy, policy)


def example_to_json(example: TrainingExample) -> str:
    return json.dumps(
        {
            "kind": example.kind,
            "prompt": example.prompt,
            "completion": example.completion,
            "document_id": example.doc_id,
            "step": example.step,
        },
        ensure_ascii=False,
    )


def export_metadata(
    inventory: LabelInventory,
    strategy: str,
    policy: ParsePolicy,
    counts: dict[str, int],
) -> dict:
    """Sidecar describing an export well enough to train from it."""
    return {
        "strategy": strategy,
        "inventory": {
            "id": inventory.id,
            "relations": list(inventory.relations),
            "default_relation": inventory.default_relation,
            "default_nuclearity": inventory.default_nuclearity,
        },
        "policy": {
            "skip_forced": policy.skip_forced,
            "truncate_chars": policy.truncate_chars,
        },
        "examples_per_kind": dict(counts),
        "fine_tuning": dict(FINE_TUNING_DEFAULTS),
    }
