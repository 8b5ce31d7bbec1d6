"""The JSONL records rstkit writes, against ``json.dumps``.

Trace lines (``engine.trace_to_jsonl``), training pairs
(``training.example_to_json``, with split prompts from
``SplitPrompts.escaped``) and cache segment lines
(``oracle._segment_line``) are each written by a formatter of their own.
Each must give exactly what ``json.dumps(record, ensure_ascii=False)``
gives, for strings drawn from all of Unicode: control characters, quotes,
backslashes, DEL, the line and paragraph separators, lone surrogates and
characters outside the BMP. A cache store written with such prompts and
answers must read back to the same answers.

A prompt is hashed as UTF-8, for its trace id and its cache key, so a
prompt with a lone surrogate can be neither traced nor cached; prompts
here are drawn without them.
"""

from __future__ import annotations

import json
import tempfile

from hypothesis import example, given
from hypothesis import strategies as st

from rstkit import (
    NUCLEARITY,
    NUCLEARITY_PATTERNS,
    CachedOracle,
    OracleQuery,
    SplitPrompts,
    TraceEntry,
    TrainingExample,
    example_to_json,
    trace_to_jsonl,
)
from rstkit.core import json_string
from rstkit.engine import prompt_id
from rstkit.oracle import _segment_line

from conftest import FunctionOracle

# every ASCII code point, DEL and the JSON specials among them, the line and
# paragraph separators, a lone surrogate and a character outside the BMP
EVERY_KIND_OF_CHARACTER = (
    "".join(map(chr, range(0x80))) + '"\\' + "\u2028\u2029" + "\ud800"
    + "\U0001F600"
)
UTF8_CHARACTERS = EVERY_KIND_OF_CHARACTER.replace("\ud800", "")

_SPECIAL = st.sampled_from(EVERY_KIND_OF_CHARACTER)


def _text(characters=st.characters()):
    """Strings that mix the special characters with any others, often
    plain ASCII, so both of ``json_string``'s escapers are taken."""
    return st.one_of(
        st.text(st.characters(max_codepoint=0x7F)),
        st.text(st.one_of(_SPECIAL, characters)),
    )


TEXT = _text()
# encodable as UTF-8: no lone surrogates
UTF8_TEXT = _text(st.characters(codec="utf-8")).map(
    lambda text: text.replace("\ud800", "")
)


def _dumps(record: dict) -> str:
    return json.dumps(record, ensure_ascii=False)


@example(EVERY_KIND_OF_CHARACTER)
@example(None)
@example("\x7f")
@example("")
@given(st.none() | TEXT)
def test_json_string_is_json_dumps(text):
    assert json_string(text) == _dumps(text)


TRACE_ENTRIES = st.builds(
    TraceEntry,
    step=st.integers(),
    kind=TEXT,
    state=TEXT,
    prompt=st.none() | UTF8_TEXT,
    raw=st.none() | TEXT,
    resolved=TEXT,
    corrected=st.booleans(),
    forced=st.booleans(),
    note=TEXT,
)

_ALL_SPECIAL_ENTRIES = [
    TraceEntry(0, EVERY_KIND_OF_CHARACTER, EVERY_KIND_OF_CHARACTER,
               UTF8_CHARACTERS, EVERY_KIND_OF_CHARACTER,
               EVERY_KIND_OF_CHARACTER, True, False, EVERY_KIND_OF_CHARACTER),
    TraceEntry(1, "split", "(1, 6)", None, None, "0", False, True, ""),
]


@example([])
@example(_ALL_SPECIAL_ENTRIES)
@given(st.lists(TRACE_ENTRIES, max_size=4))
def test_trace_lines_are_json_dumps(entries):
    expected = "".join(
        _dumps({
            "step": entry.step,
            "kind": entry.kind,
            "state": entry.state,
            "prompt_id": prompt_id(entry.kind, entry.prompt),
            "raw": entry.raw,
            "resolved": entry.resolved,
            "corrected": entry.corrected,
            "forced": entry.forced,
            "note": entry.note,
        }) + "\n"
        for entry in entries
    )
    assert trace_to_jsonl(entries) == expected


@example(TrainingExample(*[EVERY_KIND_OF_CHARACTER] * 4, 7))
@given(st.builds(
    TrainingExample,
    kind=TEXT, prompt=TEXT, completion=TEXT, doc_id=TEXT, step=st.integers(),
))
def test_training_pairs_are_json_dumps(pair):
    assert example_to_json(pair) == _dumps({
        "kind": pair.kind,
        "prompt": pair.prompt,
        "completion": pair.completion,
        "document_id": pair.doc_id,
        "step": pair.step,
    })


@example([EVERY_KIND_OF_CHARACTER, "", '"\\\x7f\u2028', EVERY_KIND_OF_CHARACTER], 3)
@example(["", ""], None)
@given(
    st.lists(TEXT, min_size=2, max_size=7),
    st.none() | st.integers(0, 6) | st.integers(min_value=7),
)
def test_escaped_split_prompts_are_json_strings(texts, budget):
    prompts = SplitPrompts(texts, budget)
    escaped = prompts.escaped()
    for first in range(1, len(texts)):
        for last in range(first + 1, len(texts) + 1):
            rendered = prompts.render(first, last)
            assert '"' + escaped.render(first, last) + '"' == json_string(rendered)


@example(*[EVERY_KIND_OF_CHARACTER] * 4)
@given(TEXT, TEXT, TEXT, TEXT)
def test_cache_segment_lines_are_json_dumps(kind, fingerprint, prompt, raw):
    assert _segment_line(kind, fingerprint, prompt, raw) == _dumps({
        "kind": kind, "fingerprint": fingerprint, "prompt": prompt, "raw": raw,
    }) + "\n"


@example({UTF8_CHARACTERS: UTF8_CHARACTERS, "": "\u2028"}, UTF8_CHARACTERS)
@given(
    st.dictionaries(UTF8_TEXT, UTF8_TEXT, min_size=1, max_size=4),
    UTF8_TEXT,
)
def test_cache_store_reads_back_what_it_wrote(answers, fingerprint):
    queries = [
        OracleQuery(NUCLEARITY, prompt, NUCLEARITY_PATTERNS) for prompt in answers
    ]

    def refuse(query):
        raise AssertionError(f"asked again: {query.prompt!r}")

    with tempfile.TemporaryDirectory() as store:
        writer = CachedOracle(
            FunctionOracle(lambda query: answers[query.prompt], fingerprint),
            store,
        )
        assert writer.answer_many(queries) == list(answers.values())
        (segment,) = writer.store_dir.glob("*.jsonl")
        assert segment.read_bytes() == "".join(
            _dumps({
                "kind": NUCLEARITY, "fingerprint": fingerprint,
                "prompt": prompt, "raw": raw,
            }) + "\n"
            for prompt, raw in answers.items()
        ).encode("utf-8")
        reader = CachedOracle(FunctionOracle(refuse, fingerprint), store)
        assert reader.answer_many(queries) == list(answers.values())
        report = reader.report()
        assert (report["hits"], report["misses"]) == (len(answers), 0)
