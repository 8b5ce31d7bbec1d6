"""Gold walks: training pairs from replay parses.

A gold walk is a replay parse: the strategy's own engine runs on the
document's EDUs with a ``ReplayOracle`` over its gold tree, which answers
each decision by the span it is about. Each query the engine puts is one
fine-tuning pair, so the pairs hold exactly the prompts a parse shows the
model, and which decisions are asked, and in what order, is decided by the
engine alone.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

from .bottomup import parse_bottom_up
from .core import LabelInventory, json_string
from .corpus import Document
from .engine import ParsePolicy, ParseResult
from .oracle import KindMismatch, ReplayOracle
from .prompts import ACTION, NUCLEARITY, RELATION, SPLIT, PromptKind, SplitPrompts
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
    """One supervised pair; ``step`` and ``state`` are those of its entry in
    the engine's trace (a split's state names its span, see
    ``topdown.split_span``)."""

    kind: PromptKind
    prompt: str
    completion: str
    doc_id: str
    step: int
    state: str = ""


def gold_walk(
    doc: Document,
    inventory: LabelInventory,
    strategy: str,
    policy: ParsePolicy = ParsePolicy(),
    split_prompts: SplitPrompts | None = None,
) -> Iterator[TrainingExample]:
    """Training pairs of a gold parse, in engine order.

    The strategy's engine parses ``doc`` with ``ReplayOracle(doc.tree)``;
    each query it puts becomes a pair whose completion is the gold answer.
    Relation prompts carry the gold nuclearity (teacher forcing). A replay
    that corrects a gold answer, as when a relation is not in the
    inventory, raises KindMismatch naming the first one, so a walk cannot
    yield wrong pairs. The walk reads the parse's trace alone, so it builds
    no tree (``ParseResult.tree``).

    ``split_prompts``, top-down only, is handed to ``parse_top_down`` to
    render the split prompts: made from ``doc``'s EDU texts under
    ``policy.truncate_chars``. Given ``SplitPrompts.escaped()``, a split
    pair's prompt is the plain prompt JSON-escaped, without its quotes, as
    ``example_to_json`` takes it; the other pairs' prompts stay plain.
    """
    if strategy not in ENGINES:
        raise ValueError(f"unknown strategy {strategy!r}")
    if split_prompts is not None and strategy != TOP_DOWN:
        raise ValueError(f"a {strategy} parse renders no split prompts")
    oracle = ReplayOracle(doc.tree)
    if split_prompts is None:
        result = ENGINES[strategy](doc.edus, oracle, inventory, policy)
    else:
        result = parse_top_down(doc.edus, oracle, inventory, policy, split_prompts)
    if result.corrected_count:
        raise KindMismatch(describe_corrections(strategy, doc.doc_id, result, inventory))
    for entry in result.trace:
        if entry.prompt is not None:
            yield TrainingExample(
                entry.kind, entry.prompt, entry.raw, doc.doc_id, entry.step,
                entry.state,
            )


def describe_corrections(
    strategy: str, doc_id: str, result: ParseResult, inventory: LabelInventory
) -> str:
    """How many gold answers a replay parse corrected, and the first one."""
    first = next(entry for entry in result.trace if entry.corrected)
    return (
        f"{strategy} replay of {doc_id} corrected "
        f"{result.corrected_count} gold answers, the first a {first.kind} "
        f"{first.raw!r} at step {first.step} ({first.note}) under "
        f"inventory {inventory.id!r}"
    )


def example_to_json(
    example: TrainingExample, escaped_prompt: str | None = None
) -> str:
    """The pair as ``json.dumps(record, ensure_ascii=False)`` writes the
    record ``{"kind", "prompt", "completion", "document_id", "step"}``,
    formatted directly.

    ``escaped_prompt``, when given, is the prompt already escaped as
    ``json_string`` escapes it, without the quotes (as
    ``SplitPrompts.escaped`` renders it), and is written in its place.
    """
    q = json_string
    kind, prompt, completion, doc_id, step, _ = example
    prompt = q(prompt) if escaped_prompt is None else f'"{escaped_prompt}"'
    return (
        f'{{"kind": {q(kind)}, "prompt": {prompt}, '
        f'"completion": {q(completion)}, "document_id": {q(doc_id)}, '
        f'"step": {int.__repr__(step)}}}'
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
