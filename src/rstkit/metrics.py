"""Standard-Parseval scoring of binary constituency trees.

One tuple per internal node (span, nuclearity, relation), read from the
node tables (``core.NodeTable``) of a prediction and of its gold document;
micro-averaged F1 over summed corpus counts at four levels: span only,
span+nuclearity, span+relation, and all three. With gold segmentation the
predicted and gold tuple counts per document are equal, so precision and
recall coincide.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from dataclasses import astuple, dataclass
from typing import Iterable

from .core import NodeTable

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


def check_segmentation(span: tuple[int, int], n: int) -> None:
    """Raise SegmentationMismatch unless a prediction over ``span`` covers
    EDUs 1..n, as the gold tree of an n-EDU document does."""
    if span != (1, n):
        raise SegmentationMismatch(
            f"predicted covers {span[1] - span[0] + 1} EDUs at {span}, "
            f"gold {n} at {(1, n)}"
        )


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
        return ParsevalCounts(*map(operator.add, astuple(self), astuple(other)))

    def matched(self, level: str) -> int:
        if level not in LEVELS:
            raise ValueError(f"unknown level {level!r}")
        return getattr(self, f"matched_{level}")


def score_document(
    predicted: NodeTable, gold: NodeTable, include_root: bool = True
) -> ParsevalCounts:
    """Count matches between the node tables of one predicted and one gold
    tree over EDUs 1..n: ``ParseResult.nodes`` or ``read_tree``'s table
    against ``Document.nodes``. A caller that holds a tree passes
    ``core.node_table(tree)``.

    Tables of different sizes cover different EDUs, and raise
    SegmentationMismatch. Without the root, the span (1, n) counts on
    neither side. Single-EDU documents have no internal nodes and
    contribute zeros.
    """
    n = len(gold) + 1
    check_segmentation((1, len(predicted) + 1), n)
    root = None if include_root else (1, n)
    matched_span = matched_nuc = matched_rel = matched_full = 0
    for span, (_, nuc, rel) in predicted.items():
        node = gold.get(span)
        if node is None or span == root:
            continue
        _, gold_nuc, gold_rel = node
        matched_span += 1
        if nuc == gold_nuc:
            matched_nuc += 1
        if rel == gold_rel:
            matched_rel += 1
        if nuc == gold_nuc and rel == gold_rel:
            matched_full += 1
    tuples = len(gold) if include_root or not gold else len(gold) - 1
    return ParsevalCounts(
        predicted=tuples,
        gold=tuples,
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
    pairs: Iterable[tuple[NodeTable, NodeTable]],
    relations: Iterable[str] = (),
    include_root: bool = True,
) -> list[RelationRow]:
    """Tallies per relation label over (predicted, gold) node tables, as
    ``score_document`` reads them, highest gold frequency first.

    ``relations`` seeds the row set (an inventory, normally) so labels the
    corpus never realized still show up with zero counts.
    """
    seed = dict.fromkeys(relations, 0)
    predicted, gold, matched = Counter(seed), Counter(seed), Counter()
    for pred, ref in pairs:
        n = len(ref) + 1
        check_segmentation((1, len(pred) + 1), n)
        root = None if include_root else (1, n)
        for span, (_, _, rel) in pred.items():
            if span == root:
                continue
            predicted[rel] += 1
            node = ref.get(span)
            if node is not None and node[2] == rel:
                matched[rel] += 1
        for span, (_, _, rel) in ref.items():
            if span != root:
                gold[rel] += 1
    rows = [
        RelationRow(rel, predicted[rel], gold[rel], matched[rel])
        for rel in predicted.keys() | gold.keys()
    ]
    return sorted(rows, key=lambda row: (-row.gold, row.relation))
