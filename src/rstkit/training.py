"""Gold walks: training pairs and replay scripts.

A gold derivation lists, in engine order, the answers a parse needs to
rebuild a gold tree under a policy: the script of a replay oracle. A gold
walk is a replay parse: the strategy's own engine runs on the document's
EDUs with that oracle, and each query it puts is one fine-tuning pair, so
the pairs hold exactly the prompts a parse shows the model.
"""

from __future__ import annotations

import json
from typing import Iterator, NamedTuple

from .bottomup import parse_bottom_up
from .core import (
    LabelInventory,
    Reduce,
    RstTree,
    derive_shift_reduce_sequence,
    derive_split_sequence,
)
from .corpus import Document
from .engine import ParsePolicy
from .oracle import KindMismatch, ReplayOracle
from .prompts import ACTION, NUCLEARITY, RELATION, SPLIT, PromptKind
from .topdown import parse_top_down

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


def _gold_tree(doc: Document) -> RstTree:
    if doc.tree is None:
        raise ValueError(f"document {doc.doc_id} has no gold tree")
    return doc.tree


def _bottom_up_answers(
    doc: Document, policy: ParsePolicy
) -> Iterator[tuple[str, str]]:
    """(kind, gold answer) of each query of a gold bottom-up parse.

    An action is forced when exactly one of shift and reduce is legal.
    """
    n = len(doc.edus)
    stacked = 0  # subtrees on the stack
    front = 1  # the EDU heading the queue
    for action in derive_shift_reduce_sequence(_gold_tree(doc)):
        forced = (front <= n) != (stacked >= 2)
        if not (forced and policy.skip_forced):
            yield ACTION, str(action)
        if isinstance(action, Reduce):
            yield NUCLEARITY, action.nuclearity
            yield RELATION, action.relation
            stacked -= 1
        else:
            stacked += 1
            front += 1


def _top_down_answers(
    doc: Document, policy: ParsePolicy
) -> Iterator[tuple[str, str]]:
    """(kind, gold answer) of each query of a gold top-down parse."""
    for split in derive_split_sequence(_gold_tree(doc)):
        first, last = split.span
        if not (last - first == 1 and policy.skip_forced):
            yield SPLIT, str(split.k)
        yield NUCLEARITY, split.nuclearity
        yield RELATION, split.relation


def replay_oracle(
    doc: Document,
    inventory: LabelInventory,
    strategy: str,
    policy: ParsePolicy = ParsePolicy(),
) -> ReplayOracle:
    """Oracle that answers a parse of ``doc`` with its own gold decisions.

    The inventory only shapes prompts, so it does not change the script.
    """
    if strategy == BOTTOM_UP:
        return ReplayOracle(_bottom_up_answers(doc, policy))
    if strategy == TOP_DOWN:
        return ReplayOracle(_top_down_answers(doc, policy))
    raise ValueError(f"unknown strategy {strategy!r}")


def gold_walk(
    doc: Document,
    inventory: LabelInventory,
    strategy: str,
    policy: ParsePolicy = ParsePolicy(),
) -> Iterator[TrainingExample]:
    """Training pairs of a gold parse, in engine order.

    The strategy's engine parses ``doc`` with ``replay_oracle``; each query
    it puts becomes a pair whose completion is the gold answer. Relation
    prompts carry the gold nuclearity (teacher forcing). A replay that
    leaves answers unused or corrects one raises KindMismatch, so a gold
    derivation that drifts from its engine cannot yield wrong pairs.
    """
    oracle = replay_oracle(doc, inventory, strategy, policy)
    parse = parse_bottom_up if strategy == BOTTOM_UP else parse_top_down
    result = parse(doc.edus, oracle, inventory, policy)
    if oracle.remaining or result.corrected_count:
        raise KindMismatch(
            f"{strategy} replay of {doc.doc_id} left {oracle.remaining} gold "
            f"answers unused and corrected {result.corrected_count}"
        )
    for entry in result.trace:
        if entry.prompt is not None:
            yield TrainingExample(
                entry.kind, entry.prompt, entry.raw, doc.doc_id, entry.step
            )


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
