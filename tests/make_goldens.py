"""Writes the golden prompt files under tests/goldens/.

Run from the repository root:

    PYTHONPATH=src python3 tests/make_goldens.py

The outputs are committed and the byte-stability tests compare against
them, so regenerating must be a no-op unless a template deliberately
changes. Texts come from the press_release fixture so the goldens double
as readable documentation of each template. Each prompt is rendered the
way a parse renders it: span slots sliced from a ``DocumentText``, split
prompts from ``SplitPrompts``.
"""

from __future__ import annotations

from pathlib import Path

from rstkit import (
    EMPTY_SLOT,
    NN,
    NS,
    DocumentText,
    Edu,
    SplitPrompts,
    action_prompt,
    builtin_inventory,
    nuclearity_prompt,
    relation_prompt,
    span_slot,
)

GOLDEN_DIR = Path(__file__).resolve().parent / "goldens"

EDUS = [
    "Westinghouse Electric Corp. said",
    "it will buy Shaw-Walker Co.",
    "Terms weren't disclosed.",
    "Shaw-Walker,",
    "based in Muskegon, Mich.,",
    "makes metal files and desks, and seating and office systems furniture.",
]


def _document(texts) -> DocumentText:
    return DocumentText([Edu(i, text) for i, text in enumerate(texts, 1)])


def golden_prompts() -> dict[str, str]:
    """Golden file name -> the prompt it must hold."""
    press = _document(EDUS)
    instr = _document(["tighten the drain plug", "then refill the reservoir"])

    def slot(first: int, last: int, budget: int | None = None) -> str:
        return span_slot(press, first, last, budget)

    split = SplitPrompts(EDUS)
    return {
        # initial state: empty stack positions render the placeholder
        "action_initial.txt": action_prompt(EMPTY_SLOT, EMPTY_SLOT, slot(1, 1)),
        # stack holds (1,2) and (3,3); EDU 4 heads the queue
        "action_midparse.txt": action_prompt(slot(1, 2), slot(3, 3), slot(4, 4)),
        # queue exhausted near the end of a parse
        "action_empty_queue.txt": action_prompt(slot(1, 2), slot(3, 3), EMPTY_SLOT),
        "nuclearity.txt": nuclearity_prompt(slot(1, 2), slot(3, 3)),
        "relation_rst.txt": relation_prompt(
            slot(1, 2), slot(3, 3), NS, builtin_inventory("rst-dt")
        ),
        "relation_instr.txt": relation_prompt(
            span_slot(instr, 1, 1, None), span_slot(instr, 2, 2, None),
            NN, builtin_inventory("instr-dt"),
        ),
        "split_press.txt": split.render(1, 6),
        # a span late in the document still numbers its EDUs from 0
        "split_pair.txt": split.render(5, 6),
        "action_truncated.txt": action_prompt(
            slot(1, 2, 40), slot(6, 6, 40), slot(3, 3, 40)
        ),
    }


def main() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    goldens = golden_prompts()
    for name, text in goldens.items():
        (GOLDEN_DIR / name).write_bytes(text.encode("utf-8"))
        print(f"--- {name}")
        print(text)
    print(f"wrote {len(goldens)} goldens to {GOLDEN_DIR}")


if __name__ == "__main__":
    main()
