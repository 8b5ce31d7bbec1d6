"""Spans around calls into rstkit's modules, recorded from outside the package.

The tracer replaces module-level names that callers look up at call time
(for example `rstkit.cli.parse_bottom_up`, which `cmd_parse` reads from its
own module, or `rstkit.bottomup.render_action_prompt`) and the oracles'
`complete` methods with wrappers that time each call. Nothing inside the
package changes; `uninstall` puts every original back.

A span has a name, start, end and parent. Spans are kept in memory and
handed over whole by `collect`. A span opened on a worker thread with no
open span there takes the open top-level span as its parent. Each span also
carries the time its direct children spent in an oracle's `complete`, so
an engine's or a cache's own time is its duration minus that.
"""

from __future__ import annotations

import itertools
import os
import threading
from time import perf_counter
from typing import Callable, NamedTuple

import rstkit.bottomup
import rstkit.cli
import rstkit.oracle
import rstkit.topdown
import rstkit.training

ORACLE_SPANS = ("oracle.replay", "oracle.cache", "oracle.http")
ENGINE_SPANS = ("bottomup.parse", "topdown.parse")


class Span(NamedTuple):
    sid: int
    name: str
    parent: int  # -1 for a top-level span
    start: float
    end: float
    oracle_s: float  # spent in direct children that are oracle calls
    count: int  # what the call produced: bytes, chars, decisions, ...
    size: int  # engine spans: EDUs in the document
    failed: bool

    @property
    def duration(self) -> float:
        return self.end - self.start


def _prompt_bytes(args, _result) -> int:
    return len(args[1].prompt.encode("utf-8"))


def _text_chars(_args, result) -> int:
    return len(result)


def _utf8_bytes(_args, result) -> int:
    return len(result.encode("utf-8"))


def _file_bytes(args, _result) -> int:
    return os.path.getsize(args[0])


def _decisions(_args, result) -> int:
    return len(result.trace)


def _tuples(_args, result) -> int:
    return result.predicted + result.gold


_LABEL_RENDERERS = ("render_nuclearity_prompt", "render_relation_prompt")
_RENDERERS = {
    rstkit.bottomup: ("render_action_prompt",) + _LABEL_RENDERERS,
    rstkit.topdown: ("render_split_prompt",) + _LABEL_RENDERERS,
    rstkit.training: ("render_action_prompt", "render_split_prompt") + _LABEL_RENDERERS,
}

# (owner, attribute, span name, what to count); an owner is the module or
# class whose attribute the caller looks up
FUNCTION_TARGETS = (
    (rstkit.cli, "read_dis", "corpus.read_dis", _file_bytes),
    (rstkit.cli, "write_tree", "corpus.write_tree", None),
    (rstkit.cli, "read_tree", "corpus.read_tree", None),
    (rstkit.cli, "parse_bottom_up", "bottomup.parse", _decisions),
    (rstkit.cli, "parse_top_down", "topdown.parse", _decisions),
    (rstkit.cli, "trace_to_jsonl", "engine.trace_to_jsonl", _utf8_bytes),
    (rstkit.cli, "score_document", "metrics.score_document", _tuples),
    (rstkit.cli, "example_to_json", "training.example_to_json", None),
    (rstkit.cli, "write_text_atomic", "cli.write_text_atomic", None),
    (rstkit.bottomup, "tree_text", "core.text_join", _text_chars),
    (rstkit.bottomup, "resolve_label", "oracle.resolve_label", None),
    (rstkit.topdown, "span_text", "core.text_join", _text_chars),
    (rstkit.topdown, "resolve_label", "oracle.resolve_label", None),
    (rstkit.training, "tree_text", "core.text_join", _text_chars),
    (rstkit.training, "span_text", "core.text_join", _text_chars),
    (rstkit.oracle.ReplayOracle, "complete", "oracle.replay", _prompt_bytes),
    (rstkit.oracle.CachedOracle, "complete", "oracle.cache", _prompt_bytes),
    (rstkit.oracle.HttpOracle, "complete", "oracle.http", _prompt_bytes),
) + tuple(
    (module, name, "prompts.render", None)
    for module, names in _RENDERERS.items()
    for name in names
)

# generator functions: each resumption is one span, counting what it yields
GENERATOR_TARGETS = (
    (rstkit.cli, "gold_walk", "training.gold_walk"),
    (rstkit.training, "gold_walk", "training.gold_walk"),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._top = -1
        self._originals: list[tuple[object, str, object]] = []
        # targets the package no longer has; their layers then read 0
        self.missing: list[str] = []

    # -- recording -----------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self) -> tuple[list, list | None]:
        stack = self._stack()
        parent = stack[-1] if stack else None
        # frame: [id, seconds spent in oracle children]
        frame = [next(self._ids), 0.0]
        stack.append(frame)
        return frame, parent

    def _close(self, name, frame, parent, start, end, count, size, failed):
        self._stack().pop()
        if parent is None:
            parent_id = self._top
        else:
            parent_id = parent[0]
            if name in ORACLE_SPANS:
                parent[1] += end - start
        self.spans.append(
            Span(frame[0], name, parent_id, start, end, frame[1], count, size, failed)
        )

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict,
             measure=None, top: bool = False):
        """Run ``fn(*args, **kwargs)`` in a span; ``top`` marks a top-level one."""
        frame, parent = self._open()
        if top:
            self._top = frame[0]
        failed = True
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
            failed = False
        finally:
            end = perf_counter()
            if top:
                self._top = -1
            if failed:
                self._close(name, frame, parent, start, end, 0, 0, True)
        count = measure(args, result) if measure else 0
        size = len(args[0]) if name in ENGINE_SPANS else 0
        self._close(name, frame, parent, start, end, count, size, False)
        return result

    def _wrap(self, fn: Callable, name: str, measure) -> Callable:
        call = self.call

        def traced(*args, **kwargs):
            return call(name, fn, args, kwargs, measure)

        return traced

    def _wrap_generator(self, fn: Callable, name: str) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            items = fn(*args, **kwargs)
            while True:
                frame, parent = tracer._open()
                start = perf_counter()
                try:
                    item = next(items)
                except StopIteration:
                    tracer._close(name, frame, parent, start, perf_counter(),
                                  0, 0, False)
                    return
                except BaseException:
                    tracer._close(name, frame, parent, start, perf_counter(),
                                  0, 0, True)
                    raise
                tracer._close(name, frame, parent, start, perf_counter(),
                              1, 0, False)
                yield item

        return traced

    # -- installing ----------------------------------------------------------

    def _replace(self, owner, attr: str, wrap) -> None:
        # read through __dict__ so a class attribute comes back as the plain
        # function, not a bound method
        original = vars(owner).get(attr)
        if original is None:
            self.missing.append(f"{owner.__name__}.{attr}")
            return
        self._originals.append((owner, attr, original))
        setattr(owner, attr, wrap(original))

    def install(self) -> None:
        self.missing = []
        for owner, attr, name, measure in FUNCTION_TARGETS:
            self._replace(owner, attr, lambda fn: self._wrap(fn, name, measure))
        for owner, attr, name in GENERATOR_TARGETS:
            self._replace(owner, attr, lambda fn: self._wrap_generator(fn, name))

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def collect(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans
