"""Gold walks: training pairs from replay parses.

A gold walk is a replay parse: the strategy's own engine runs on the
document's EDUs with a ``ReplayOracle`` over its gold tree, which answers
each decision by the span it is about. Each query the engine puts is one
fine-tuning pair, so the pairs hold exactly the prompts a parse shows the
model, and which decisions are asked, and in what order, is decided by the
engine alone.
"""

from __future__ import annotations

import json
from typing import Iterator, NamedTuple

from .bottomup import parse_bottom_up
from .core import LabelInventory
from .corpus import Document
from .engine import ParsePolicy
from .oracle import KindMismatch, ReplayOracle
from .prompts import ACTION, NUCLEARITY, RELATION, SPLIT, PromptKind
from .topdown import parse_top_down

BOTTOM_UP = "bottom-up"
TOP_DOWN = "top-down"
# strategy -> its engine, and the decision kinds that engine asks
ENGINES = {BOTTOM_UP: parse_bottom_up, TOP_DOWN: parse_top_down}
KINDS = {BOTTOM_UP: (ACTION, NUCLEARITY, RELATION),
         TOP_DOWN: (SPLIT, NUCLEARITY, RELATION)}
STRATEGIES = tuple(ENGINES)

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


def gold_walk(
    doc: Document,
    inventory: LabelInventory,
    strategy: str,
    policy: ParsePolicy = ParsePolicy(),
) -> Iterator[TrainingExample]:
    """Training pairs of a gold parse, in engine order.

    The strategy's engine parses ``doc`` with ``ReplayOracle(doc.tree)``;
    each query it puts becomes a pair whose completion is the gold answer.
    Relation prompts carry the gold nuclearity (teacher forcing). A replay
    that corrects a gold answer, as when a relation is not in the
    inventory, raises KindMismatch, so a walk cannot yield wrong pairs.
    """
    if strategy not in ENGINES:
        raise ValueError(f"unknown strategy {strategy!r}")
    result = ENGINES[strategy](doc.edus, ReplayOracle(doc.tree), inventory, policy)
    if result.corrected_count:
        raise KindMismatch(
            f"{strategy} replay of {doc.doc_id} corrected "
            f"{result.corrected_count} gold answers"
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
