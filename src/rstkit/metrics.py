"""Standard-Parseval scoring of binary constituency trees.

One tuple per internal node (span, nuclearity, relation), read from a
predicted tree and from the gold document's node table; micro-averaged F1
over summed corpus counts at four levels: span only, span+nuclearity,
span+relation, and all three. With gold segmentation the predicted and gold
tuple counts per document are equal, so precision and recall coincide.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .core import NodeTable, RstTree, internal_nodes

LEVELS = ("span", "nuclearity", "relation", "full")


class SegmentationMismatch(ValueError):
    """Predicted and gold trees cover different EDU counts."""


class EmptyCorpus(ValueError):
    """No scoreable tuples: every document had a single EDU, or none given."""


def round1(value: float) -> float:
    """Round to one decimal, halves away from zero."""
    scaled = value * 10
    if scaled >= 0:
        return math.floor(scaled + 0.5) / 10
    return math.ceil(scaled - 0.5) / 10


def extract_tuples(
    tree: RstTree, include_root: bool = True
) -> dict[tuple[int, int], tuple[str, str]]:
    """Span -> (nuclearity, relation) for every internal node.

    Spans are unique within a binary tree, so a dict loses nothing. The
    root tuple (the whole-document span) can be excluded for comparison
    with tools that do not count it; a leaf-only tree yields nothing.
    """
    tuples = {
        node.span: (node.nuclearity, node.relation)
        for node in internal_nodes(tree)
    }
    if not include_root and tuples:
        tuples.pop(tree.span, None)
    return tuples


@dataclass(frozen=True)
class ParsevalCounts:
    """Match counts for one document or a whole corpus (just add them).

    ``predicted`` and ``gold`` are the tuple totals, identical across
    levels since every internal node contributes to each.
    """

    predicted: int = 0
    gold: int = 0
    matched_span: int = 0
    matched_nuclearity: int = 0
    matched_relation: int = 0
    matched_full: int = 0

    def __add__(self, other: "ParsevalCounts") -> "ParsevalCounts":
        return ParsevalCounts(
            predicted=self.predicted + other.predicted,
            gold=self.gold + other.gold,
            matched_span=self.matched_span + other.matched_span,
            matched_nuclearity=self.matched_nuclearity + other.matched_nuclearity,
            matched_relation=self.matched_relation + other.matched_relation,
            matched_full=self.matched_full + other.matched_full,
        )

    def matched(self, level: str) -> int:
        try:
            return {
                "span": self.matched_span,
                "nuclearity": self.matched_nuclearity,
                "relation": self.matched_relation,
                "full": self.matched_full,
            }[level]
        except KeyError:
            raise ValueError(f"unknown level {level!r}") from None


def score_document(
    predicted: RstTree, gold: NodeTable, include_root: bool = True
) -> ParsevalCounts:
    """Count matches between one predicted tree and the node table of one
    gold tree (``core.NodeTable``), as ``Document.nodes`` holds it; a
    caller that holds a gold tree passes ``core.node_table(tree)``.

    The gold tree covers EDUs 1..n, as a document's does, so its n-1 nodes
    give its span; a prediction over another span raises
    SegmentationMismatch. Single-EDU documents have no internal nodes and
    contribute zeros.
    """
    gold_n = len(gold) + 1
    gold_span = (1, gold_n)
    if predicted.span != gold_span:
        pred_n = predicted.span[1] - predicted.span[0] + 1
        raise SegmentationMismatch(
            f"predicted covers {pred_n} EDUs at {predicted.span}, "
            f"gold {gold_n} at {gold_span}"
        )
    pred = extract_tuples(predicted, include_root)
    matched_span = matched_nuc = matched_rel = matched_full = 0
    for span, (nuc, rel) in pred.items():
        node = gold.get(span)
        if node is None:
            continue
        _, gold_nuc, gold_rel = node
        matched_span += 1
        if nuc == gold_nuc:
            matched_nuc += 1
        if rel == gold_rel:
            matched_rel += 1
        if nuc == gold_nuc and rel == gold_rel:
            matched_full += 1
    # without the root, the root's span (the prediction's too) counts on
    # neither side
    return ParsevalCounts(
        predicted=len(pred),
        gold=len(gold) if include_root or not gold else len(gold) - 1,
        matched_span=matched_span,
        matched_nuclearity=matched_nuc,
        matched_relation=matched_rel,
        matched_full=matched_full,
    )


@dataclass(frozen=True)
class LevelScore:
    precision: float
    recall: float
    f1: float


def micro_scores(counts: ParsevalCounts) -> dict[str, LevelScore]:
    """Percentages per level, rounded to one decimal, halves away from zero."""
    if counts.predicted <= 0 or counts.gold <= 0:
        raise EmptyCorpus("no tuples to score")
    scores = {}
    for level in LEVELS:
        matched = counts.matched(level)
        precision = matched / counts.predicted
        recall = matched / counts.gold
        f1 = (
            0.0
            if precision + recall == 0
            else 2 * precision * recall / (precision + recall)
        )
        scores[level] = LevelScore(
            precision=round1(100 * precision),
            recall=round1(100 * recall),
            f1=round1(100 * f1),
        )
    return scores


def micro_f1(counts: ParsevalCounts) -> dict[str, float]:
    """Just the F1 percentages per level."""
    return {level: score.f1 for level, score in micro_scores(counts).items()}


@dataclass(frozen=True)
class RelationRow:
    """Per-relation tallies; matching is on span plus relation."""

    relation: str
    predicted: int
    gold: int
    matched: int

    @property
    def f1(self) -> float:
        if self.predicted + self.gold == 0:
            return 0.0
        return round1(200 * self.matched / (self.predicted + self.gold))


def per_relation_rows(
    pairs: Iterable[tuple[RstTree, RstTree]],
    relations: Iterable[str] = (),
    include_root: bool = True,
) -> list[RelationRow]:
    """Tallies per relation label, highest gold frequency first.

    ``relations`` seeds the row set (an inventory, normally) so labels the
    corpus never realized still show up with zero counts.
    """
    predicted: dict[str, int] = {rel: 0 for rel in relations}
    gold: dict[str, int] = {rel: 0 for rel in relations}
    matched: dict[str, int] = {rel: 0 for rel in relations}
    for pred_tree, gold_tree in pairs:
        pred = extract_tuples(pred_tree, include_root)
        ref = extract_tuples(gold_tree, include_root)
        for span, (_, rel) in pred.items():
            predicted[rel] = predicted.get(rel, 0) + 1
            if span in ref and ref[span][1] == rel:
                matched[rel] = matched.get(rel, 0) + 1
        for span, (_, rel) in ref.items():
            gold[rel] = gold.get(rel, 0) + 1
    rows = [
        RelationRow(
            relation=rel,
            predicted=predicted.get(rel, 0),
            gold=gold.get(rel, 0),
            matched=matched.get(rel, 0),
        )
        for rel in sorted(set(predicted) | set(gold))
    ]
    rows.sort(key=lambda row: (-row.gold, row.relation))
    return rows
