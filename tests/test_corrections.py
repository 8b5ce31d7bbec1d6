"""What unusable answers turn into.

Trace goldens: parses of a few minicorpus documents under hash-of-prompt
garbage answers (see ``make_goldens.py``) must give the committed
``.trace.jsonl`` and ``.tree`` files byte for byte.

Any answers, bounded-exhaustive: for every small document size, every
sequence of action or split answers the parse can be asked, drawn from the
valid answers and from unusable ones, must build a valid tree with the
exact decision counts, and every entry must resolve as the rule table
below says. Tier-1 stops at a smaller bound; with the environment variable
RSTKIT_TEST_ANY_ANSWERS_FULL=1 the check runs to the full bound (actions
for n <= 5 with forced decisions asked and n <= 6 with them skipped,
splits for n <= 7).
"""

from __future__ import annotations

import os
import re
from collections import Counter

import pytest

from rstkit import (
    ACTION,
    NUCLEARITY,
    RELATION,
    SPLIT,
    CallableOracle,
    ParsePolicy,
)
from rstkit.training import ENGINES

from conftest import GOLDEN_DIR, check_tree, make_edus
from make_goldens import golden_traces

FULL = os.environ.get("RSTKIT_TEST_ANY_ANSWERS_FULL") == "1"

# (engine, skip_forced) -> the largest document size to enumerate
MAX_EDUS = {
    ("bottom-up", False): 5 if FULL else 4,
    ("bottom-up", True): 6 if FULL else 5,
    ("top-down", False): 7 if FULL else 6,
    ("top-down", True): 7 if FULL else 6,
}

UNPARSEABLE = "perhaps"
# an integer names no label, and is no out-of-range split either
UNPARSEABLE_LABEL = "3"

# ---------------------------------------------------------------------------
# Trace goldens


@pytest.fixture(scope="module")
def traces():
    return golden_traces()


def test_trace_goldens_are_byte_identical(traces):
    for name, text in traces.items():
        assert text.encode("utf-8") == (GOLDEN_DIR / name).read_bytes(), name
    on_disk = {
        path.relative_to(GOLDEN_DIR).as_posix()
        for path in (GOLDEN_DIR / "traces").rglob("*") if path.is_file()
    }
    assert on_disk == set(traces)


def test_trace_goldens_show_every_note_and_forced_entries(traces):
    records = "".join(
        text for name, text in traces.items() if name.endswith(".jsonl")
    )
    for note in ("unparseable", "illegal", "out-of-range"):
        assert f'"note": "{note}"' in records, note
    assert '"forced": true' in records
    assert re.search(r'"raw": "[^"]*\\n', records), "no multi-line answer"


# ---------------------------------------------------------------------------
# Any answers


class _NeedMore(Exception):
    """The parse asked one more action or split than the answers hold."""


def _every_parse(parse, n, inventory, policy, choices):
    """(answers, result) for every sequence of action or split answers the
    parse can be asked, each answer drawn from ``choices(query)``. Label
    queries take a fixed alternation: a valid label, then an unparseable
    answer."""
    edus = make_edus(n)
    prefixes = [()]
    while prefixes:
        prefix = prefixes.pop()
        asked = iter(prefix)
        labels = 0
        unanswered = None

        def answer(query):
            nonlocal labels, unanswered
            if query.kind in (NUCLEARITY, RELATION):
                labels += 1
                if labels % 2 == 0:
                    return UNPARSEABLE_LABEL
                return query.valid_labels[labels // 2 % len(query.valid_labels)]
            for raw in asked:
                return raw
            unanswered = query
            raise _NeedMore

        try:
            result = parse(edus, CallableOracle(answer), inventory, policy)
        except _NeedMore:
            prefixes.extend(prefix + (raw,) for raw in choices(unanswered))
            continue
        yield prefix, result


def _action_choices(query):
    return ("shift", "reduce", UNPARSEABLE)


def _split_choices(query):
    # in range, one past the range (str(m-1) for a span of m EDUs), unparseable
    return (*query.valid_labels, str(len(query.valid_labels)), UNPARSEABLE)


# what each answer resolves to, by decision kind and class of answer:
# (resolved, note); FIRST_LEGAL is shift while the queue holds an EDU,
# else reduce, and ANSWER is the answer itself
FIRST_LEGAL, ANSWER = object(), object()
RULES = {
    (ACTION, "valid"): (ANSWER, ""),
    (ACTION, "forced"): (FIRST_LEGAL, ""),
    (ACTION, "unparseable"): (FIRST_LEGAL, "unparseable"),
    (ACTION, "illegal"): (FIRST_LEGAL, "illegal"),
    (SPLIT, "valid"): (ANSWER, ""),
    (SPLIT, "forced"): ("0", ""),
    (SPLIT, "unparseable"): ("0", "unparseable"),
    (SPLIT, "out-of-range"): ("0", "out-of-range"),
    (NUCLEARITY, "valid"): (ANSWER, ""),
    (NUCLEARITY, "unparseable"): ("nucleus-satellite", "unparseable"),
    (RELATION, "valid"): (ANSWER, ""),
    (RELATION, "unparseable"): ("Elaboration", "unparseable"),
}


def _expected(entry, policy):
    """(resolved, corrected, note) that ``RULES`` gives for a trace entry."""
    if entry.kind == ACTION:
        stack, queue = map(int, re.fullmatch(r"stack=(\d+) queue=(\d+)", entry.state).groups())
        legal = ["shift"] * (queue > 0) + ["reduce"] * (stack >= 2)
        first_legal = legal[0]
        if entry.raw is None:
            assert policy.skip_forced and len(legal) == 1
            answer = "forced"
        elif entry.raw in ("shift", "reduce"):
            answer = "valid" if entry.raw in legal else "illegal"
        else:
            answer = "unparseable"
    elif entry.kind == SPLIT:
        first, last = map(int, re.fullmatch(r"span=\((\d+),(\d+)\)", entry.state).groups())
        in_range = [str(k) for k in range(last - first)]
        if entry.raw is None:
            assert policy.skip_forced and len(in_range) == 1
            answer = "forced"
        elif entry.raw in in_range:
            answer = "valid"
        elif entry.raw == str(last - first):
            answer = "out-of-range"
        else:
            answer = "unparseable"
    else:
        answer = "unparseable" if entry.raw == UNPARSEABLE_LABEL else "valid"
    resolved, note = RULES[(entry.kind, answer)]
    if resolved is FIRST_LEGAL:
        resolved = first_legal
    elif resolved is ANSWER:
        resolved = entry.raw
    return resolved, bool(note), note


def _split_sequences(m, skip_forced):
    """How many split answer sequences a span of m EDUs can be asked."""
    if m == 1:
        return 1
    if m == 2 and skip_forced:
        return 1
    # split k (0-based) gives halves of k+1 and m-k-1 EDUs; out of range and
    # unparseable both split at 0
    return sum(
        _split_sequences(k + 1, skip_forced) * _split_sequences(m - k - 1, skip_forced)
        for k in range(m - 1)
    ) + 2 * _split_sequences(m - 1, skip_forced)


@pytest.mark.parametrize("skip_forced", [False, True], ids=["query-forced", "skip-forced"])
@pytest.mark.parametrize("strategy", sorted(ENGINES))
def test_any_answers_build_a_valid_tree(inventory, strategy, skip_forced):
    # the label defaults RULES names
    assert (inventory.default_nuclearity, inventory.default_relation) == (
        "nucleus-satellite", "Elaboration")
    policy = ParsePolicy(skip_forced=skip_forced)
    structural = ACTION if strategy == "bottom-up" else SPLIT
    choices = _action_choices if structural == ACTION else _split_choices
    for n in range(1, MAX_EDUS[(strategy, skip_forced)] + 1):
        counts = Counter({structural: 2 * n - 1 if structural == ACTION else n - 1,
                          NUCLEARITY: n - 1, RELATION: n - 1})
        parses = 0
        notes = set()
        for answers, result in _every_parse(
            ENGINES[strategy], n, inventory, policy, choices
        ):
            parses += 1
            check_tree(result.tree, n)
            assert Counter(entry.kind for entry in result.trace) == counts, answers
            for entry in result.trace:
                got = (entry.resolved, entry.corrected, entry.note)
                assert got == _expected(entry, policy), (answers, entry)
                assert entry.forced == (entry.raw is None)
                notes.add(entry.note)
        if structural == ACTION and not skip_forced:
            assert parses == 3 ** (2 * n - 1)
        elif structural == SPLIT:
            assert parses == _split_sequences(n, skip_forced)
        if n >= 3:
            # every note this kind of decision can get shows up
            expected = {"", "unparseable"}
            if structural == SPLIT:
                expected.add("out-of-range")
            elif not skip_forced:
                expected.add("illegal")
            assert notes == expected, n
