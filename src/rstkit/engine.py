"""Shared plumbing for the two engines: policy, trace, result, and the loop
that puts their decisions to an oracle and resolves the answers."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, NamedTuple, Sequence

from .core import (
    _INTEGER_RE,
    NUCLEARITY_PATTERNS,
    Edu,
    LabelInventory,
    NodeTable,
    RstTree,
    build_tree,
    json_string,
    resolve_label,
)
from .oracle import Oracle, OracleQuery
from .prompts import NUCLEARITY, RELATION, SPLIT, nuclearity_prompt, relation_prompt


class EmptyDocument(ValueError):
    """Parsing needs at least one EDU."""


@dataclass(frozen=True)
class ParsePolicy:
    """Knobs shared by both engines.

    ``skip_forced`` takes single-option decisions without consulting the
    oracle (disable to emulate querying on every step). ``truncate_chars``
    center-elides long span texts in prompts; None leaves them whole.
    """

    skip_forced: bool = True
    truncate_chars: int | None = None


class TraceEntry(NamedTuple):
    """One decision as the engine saw it.

    ``prompt`` and ``raw`` are None on forced moves, which never reach the
    oracle. ``corrected`` marks answers that had to be replaced with a
    default; ``note`` says why (see ``run_decisions``).
    """

    step: int
    kind: str
    state: str
    prompt: str | None
    raw: str | None
    resolved: str
    corrected: bool = False
    forced: bool = False
    note: str = ""


@dataclass(frozen=True)
class ParseResult:
    """A parse's trace, and the tree its decisions built.

    ``edus`` and ``nodes`` are what ``core.build_tree`` reads: the
    document's EDUs and its node table (``core.NodeTable``), the same shape
    a gold ``Document`` holds. ``tree`` is built from them the first time it
    is read and kept, so a caller that reads only the trace, as a gold walk
    does, builds no tree.
    """

    trace: tuple[TraceEntry, ...]
    edus: Sequence[Edu] = field(repr=False, hash=False)
    nodes: NodeTable = field(repr=False, hash=False)

    @cached_property
    def tree(self) -> RstTree:
        return build_tree(self.edus, self.nodes)

    @property
    def query_count(self) -> int:
        return sum(1 for entry in self.trace if not entry.forced)

    @property
    def corrected_count(self) -> int:
        return sum(1 for entry in self.trace if entry.corrected)


def prompt_id(kind: str, prompt: str | None) -> str | None:
    """Stable short identifier for a rendered prompt, for trace records."""
    if prompt is None:
        return None
    digest = hashlib.sha1(prompt.encode("utf-8")).hexdigest()[:10]
    return f"{kind}:{digest}"


def trace_to_jsonl(trace: Iterable[TraceEntry]) -> str:
    """Line-delimited trace records; the prompt itself is reduced to an id.

    Each line is what ``json.dumps(record, ensure_ascii=False)`` writes for
    the record ``{"step", "kind", "state", "prompt_id", "raw", "resolved",
    "corrected", "forced", "note"}``, formatted directly.
    """
    q = json_string
    return "".join([
        f'{{"step": {int.__repr__(step)}, "kind": {q(kind)}, "state": {q(state)}, '
        f'"prompt_id": {q(prompt_id(kind, prompt))}, "raw": {q(raw)}, '
        f'"resolved": {q(resolved)}, "corrected": {"true" if corrected else "false"}, '
        f'"forced": {"true" if forced else "false"}, "note": {q(note)}}}\n'
        for step, kind, state, prompt, raw, resolved, corrected, forced, note in trace
    ])


class Decision(NamedTuple):
    """A decision whose inputs are all in, waiting to be taken.

    ``query`` is None for a forced decision, taken without the oracle.
    ``legal`` holds the answers the decision may take now, and ``default``
    the one it takes when forced or when the oracle's answer is unusable.
    ``advance`` receives the resolved answer and returns the decisions it
    makes ready, in serial order. A serial parse takes each of those, and
    everything they in turn make ready, before the decisions after them.
    """

    kind: str
    state: str
    query: OracleQuery | None
    legal: Sequence[str]
    default: str
    advance: Callable[[str], list["Decision"]]


def run_decisions(oracle: Oracle, first: Decision) -> tuple[TraceEntry, ...]:
    """Take every decision of a parse; return the trace in serial order.

    Here, and only here, an answer is resolved: its first line must name a
    member of ``query.valid_labels`` (``resolve_label``) that is
    ``legal``. Otherwise the decision takes its ``default``, and the entry
    is marked corrected with a note: illegal (a valid label not legal now),
    out-of-range (an integer, where the legal answers are integers) or
    unparseable. A forced decision takes its default, uncorrected. An
    answer spelled exactly as a label resolves by one lookup, at a cost
    that does not grow with the label set (``_resolve``).

    The serial order is depth-first over what made each decision ready. An
    oracle that offers ``answer_many(queries)`` is handed all ready queries
    of a round in one call, so it can answer them concurrently. Any other
    oracle is asked one query at a time with ``complete``, always the ready
    one that comes first in serial order, which is exactly the order of a
    serial parse. Forced decisions are taken as soon as they are ready and
    cost no round. Either way the oracle is called from this thread, and
    the same answers give the same trace.
    """
    answer_many = getattr(oracle, "answer_many", None)
    if answer_many is None:
        return _run_serial(oracle.complete, first)
    # ready decisions, the next in serial order last
    ready = [first]
    # decisions are taken round by round, and the trace is put back in
    # serial order at the end from what each one made ready
    taken: list = []
    unlocked_by: dict[int, tuple[int, list[Decision]]] = {}

    def settle(decision: Decision, raw: str | None) -> list[Decision]:
        query = decision.query
        resolved, note = decision.default, ""
        if raw is not None:
            resolved, note = _resolve(decision, raw)
        unlocked = decision.advance(resolved)
        unlocked_by[id(decision)] = (len(taken), unlocked)
        taken.append((
            decision.kind, decision.state, None if query is None else query.prompt,
            raw, resolved, bool(note), query is None, note,
        ))
        return unlocked

    while ready:
        round_: list[Decision] = []
        while ready:
            decision = ready.pop()
            if decision.query is None:
                ready.extend(reversed(settle(decision, None)))
            else:
                round_.append(decision)
        unlocked = []
        if round_:
            raws = answer_many([decision.query for decision in round_])
            for decision, raw in zip(round_, raws):
                unlocked.extend(settle(decision, raw))
        ready.extend(reversed(unlocked))

    order, stack = [], [first]
    while stack:
        index, unlocked = unlocked_by[id(stack.pop())]
        order.append(index)
        stack.extend(reversed(unlocked))
    return tuple(TraceEntry(step, *taken[i]) for step, i in enumerate(order))


def _run_serial(
    complete: Callable[[OracleQuery], str], first: Decision
) -> tuple[TraceEntry, ...]:
    """``run_decisions`` for an oracle asked one query at a time: take the
    next decision in serial order, ask it and settle it."""
    ready = [first]
    trace: list[TraceEntry] = []
    while ready:
        decision = ready.pop()
        query = decision.query
        if query is None:
            prompt, raw, resolved, note = None, None, decision.default, ""
        else:
            prompt, raw = query.prompt, complete(query)
            resolved, note = _resolve(decision, raw)
        ready.extend(reversed(decision.advance(resolved)))
        trace.append(TraceEntry(
            len(trace), decision.kind, decision.state, prompt, raw, resolved,
            bool(note), query is None, note,
        ))
    return tuple(trace)


# label set -> {label: resolve_label(label, labels)}, compiled the first
# time a decision over the set is resolved. The engines reuse a few sets:
# ACTION_LABELS, NUCLEARITY_PATTERNS and each inventory's relations. A
# split's set is never compiled (see ``_resolve``). Threads that compile a
# set at once compile the same table, so either may be kept.
_LABEL_TABLES: dict[tuple[str, ...], dict[str, str | None]] = {}


def _resolve(decision: Decision, raw: str) -> tuple[str, str]:
    """The answer ``decision`` takes for the oracle's ``raw`` answer, and
    the note of its correction ("" when there is none).

    An answer spelled exactly as a label costs the same whatever the size
    of the set: one table lookup, or for a split, whose labels are
    "0".."m-2" (``SplitPrompts.labels``), a read by value with a bound
    check. Any other spelling goes to ``resolve_label``, which both ways
    agree with. A decision whose legal answers are its label set itself,
    as all but an action's are, skips the legal test, a scan of the set.
    """
    labels = decision.query.valid_labels
    label = None
    if decision.kind == SPLIT:
        # an ASCII decimal without zero padding that is the kth label is
        # what the rule reads, as no character but a digit casefolds to one
        if (
            raw.isdigit() and raw.isascii() and len(raw) <= len(labels[-1])
            and (raw[0] != "0" or len(raw) == 1)
        ):
            k = int(raw)
            if k < len(labels) and labels[k] == raw:
                label = labels[k]
    else:
        table = _LABEL_TABLES.get(labels)
        if table is None:
            table = {spelling: resolve_label(spelling, labels) for spelling in labels}
            _LABEL_TABLES[labels] = table
        label = table.get(raw)
    if label is None:
        label = resolve_label(raw, labels)
    if label is None:
        number = _INTEGER_RE.fullmatch(raw.split("\n", 1)[0].strip())
        integral = number and decision.legal[0].isdecimal()
        return decision.default, "out-of-range" if integral else "unparseable"
    if decision.legal is not labels and label not in decision.legal:
        return decision.default, "illegal"
    return label, ""


def label_decision(
    state: str,
    span: tuple[int, int],
    left: str,
    right: str,
    inventory: LabelInventory,
    labels: list[str],
) -> Decision:
    """The nuclearity decision for the node over ``span``, which joins two
    spans.

    ``left`` and ``right`` are the two spans' slot texts, as prompts show
    them (see ``prompts.span_slot``). The answer makes ready the relation
    decision, whose prompt carries the nuclearity. The two labels are
    appended to ``labels`` as they are taken; the inventory's defaults stand
    in for unusable answers.
    """

    def take_relation(relation: str) -> list[Decision]:
        labels.append(relation)
        return []

    def take_nuclearity(nuclearity: str) -> list[Decision]:
        labels.append(nuclearity)
        prompt = relation_prompt(left, right, nuclearity, inventory)
        return [Decision(
            RELATION, state, OracleQuery(RELATION, prompt, inventory.relations, span),
            inventory.relations, inventory.default_relation, take_relation,
        )]

    prompt = nuclearity_prompt(left, right)
    return Decision(
        NUCLEARITY, state, OracleQuery(NUCLEARITY, prompt, NUCLEARITY_PATTERNS, span),
        NUCLEARITY_PATTERNS, inventory.default_nuclearity, take_nuclearity,
    )
