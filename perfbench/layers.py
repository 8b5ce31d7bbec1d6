"""Per-layer metrics from the spans of traced passes.

Every figure is per pass (totals divided by the number of traced passes)
unless it is a percentile, a ratio or a maximum. Percentiles pool the
samples of all traced passes and use the nearest rank.
"""

from __future__ import annotations

import math
from collections import Counter

from tracer import ENGINE_SPANS, ORACLE_SPANS, Span


def percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of the intervals."""
    total, reach = 0.0, -math.inf
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


class LayerStats:
    """Accumulates traced passes; `metrics` turns them into named figures."""

    def __init__(self, chain_sizes: tuple[int, ...]):
        self.chain_sizes = chain_sizes
        self.passes = 0
        self.calls: Counter = Counter()
        self.seconds: Counter = Counter()
        self.counts: Counter = Counter()
        self.engine_self: Counter = Counter()
        self.engine_decisions: Counter = Counter()
        # (engine span name, chain size) -> [self seconds, decisions]
        self.chains: dict[tuple[str, int], list[float]] = {}
        self.doc_ms: list[float] = []
        self.http_ms: list[float] = []
        self.http_failed = 0
        self.cache_hit_ms: list[float] = []
        self.cache_miss_self_ms: list[float] = []
        self.oracle_prompt_bytes = 0
        self.covered_s = 0.0
        self.wall_s = 0.0
        self.spans = 0
        self.endpoint: Counter = Counter()
        self.service_ms: list[float] = []
        self.concurrency_max = 0
        self.outcome: Counter = Counter()

    def add(self, spans: list[Span], outcome) -> None:
        """One traced pass: its spans and the pass's own observations."""
        self.passes += 1
        self.spans += len(spans)
        top = {s.sid for s in spans if s.parent == -1}
        engines = {s.sid for s in spans if s.name in ENGINE_SPANS}
        depth_one = []
        for s in spans:
            duration = s.duration
            self.calls[s.name] += 1
            self.seconds[s.name] += duration
            self.counts[s.name] += s.count
            if s.parent == -1:
                self.wall_s += duration
            elif s.parent in top:
                depth_one.append((s.start, s.end))
            if s.name in ENGINE_SPANS:
                own = duration - s.oracle_s
                self.engine_self[s.name] += own
                self.engine_decisions[s.name] += s.count
                self.doc_ms.append(duration * 1000.0)
                if s.size in self.chain_sizes:
                    acc = self.chains.setdefault((s.name, s.size), [0.0, 0])
                    acc[0] += own
                    acc[1] += s.count
            elif s.name in ORACLE_SPANS:
                if s.parent in engines:
                    self.oracle_prompt_bytes += s.count
                if s.name == "oracle.http":
                    self.http_ms.append(duration * 1000.0)
                    self.http_failed += s.failed
                elif s.name == "oracle.cache":
                    if s.oracle_s > 0:
                        self.cache_miss_self_ms.append((duration - s.oracle_s) * 1000.0)
                    else:
                        self.cache_hit_ms.append(duration * 1000.0)
        self.covered_s += _covered(depth_one)
        for key in ("requests", "connections", "prompts", "repeated_prompts", "non_200"):
            self.endpoint[key] += outcome.endpoint.get(key, 0)
        self.service_ms.extend(outcome.endpoint.get("service_ms", []))
        self.concurrency_max = max(
            self.concurrency_max, outcome.endpoint.get("concurrency_max", 0)
        )
        self.outcome["cache_bytes_written"] += outcome.cache_bytes_written
        self.outcome["prompt_bytes"] += outcome.prompt_bytes
        self.outcome["attempted"] += outcome.attempted
        self.outcome["failed"] += outcome.failed

    def _per_decision_us(self, engine: str, size: int) -> float:
        self_s, decisions = self.chains.get((engine, size), (0.0, 0))
        return _ratio(self_s, decisions) * 1e6

    def metrics(self, traced: float, untraced: float) -> dict:
        """Per-pass figures; ``traced`` and ``untraced`` are the run's
        pass times with and without tracing, by the same estimator."""
        m: dict[str, float] = {}

        def per(value: float) -> float:
            return value / self.passes

        def timed(span: str) -> None:
            m[f"{span}.s"] = per(self.seconds[span])

        m["corpus.read_dis.calls"] = per(self.calls["corpus.read_dis"])
        timed("corpus.read_dis")
        m["corpus.read_dis.bytes"] = per(self.counts["corpus.read_dis"])
        timed("corpus.write_tree")
        timed("corpus.read_tree")

        timed("training.gold_walk")
        m["training.gold_walk.examples"] = per(self.counts["training.gold_walk"])
        timed("training.example_to_json")

        shortest = min(self.chain_sizes, default=0)
        longest = max(self.chain_sizes, default=0)
        for layer, span in (("bottomup", "bottomup.parse"), ("topdown", "topdown.parse")):
            decisions = self.engine_decisions[span]
            m[f"{layer}.self_s"] = per(self.engine_self[span])
            m[f"{layer}.decisions"] = per(decisions)
            m[f"{layer}.us_per_decision"] = _ratio(self.engine_self[span], decisions) * 1e6
            short_us = self._per_decision_us(span, shortest)
            long_us = self._per_decision_us(span, longest)
            m[f"{layer}.us_per_decision.shortest_chain"] = short_us
            m[f"{layer}.us_per_decision.longest_chain"] = long_us
            m[f"{layer}.overhead_growth"] = _ratio(long_us, short_us)

        m["engine.doc_ms_p50"] = percentile(self.doc_ms, 0.5)
        m["engine.doc_ms_p90"] = percentile(self.doc_ms, 0.9)
        timed("engine.trace_to_jsonl")
        m["engine.trace_bytes"] = per(self.counts["engine.trace_to_jsonl"])

        timed("core.text_join")
        m["core.text_join.chars"] = per(self.counts["core.text_join"])

        m["prompts.render.calls"] = per(self.calls["prompts.render"])
        timed("prompts.render")
        m["prompts.bytes"] = per(self.oracle_prompt_bytes)
        m["prompts.kept_ratio"] = _ratio(
            self.oracle_prompt_bytes, self.counts["core.text_join"]
        )

        m["oracle.resolve_label.calls"] = per(self.calls["oracle.resolve_label"])
        timed("oracle.resolve_label")
        m["oracle.replay.calls"] = per(self.calls["oracle.replay"])

        http_p50 = percentile(self.http_ms, 0.5)
        requests = self.endpoint["requests"]
        m["oracle.http.calls"] = per(self.calls["oracle.http"])
        m["oracle.http.ms_p50"] = http_p50
        m["oracle.http.ms_p90"] = percentile(self.http_ms, 0.9)
        m["oracle.http.overhead_ms_p50"] = (
            http_p50 - percentile(self.service_ms, 0.5) if self.http_ms else 0.0
        )
        m["oracle.http.connections"] = per(self.endpoint["connections"])
        m["oracle.http.prompts_per_request"] = _ratio(self.endpoint["prompts"], requests)
        m["oracle.http.retries"] = per(self.endpoint["repeated_prompts"])
        m["oracle.http.failed"] = per(self.endpoint["non_200"] + self.http_failed)

        hits, misses = len(self.cache_hit_ms), len(self.cache_miss_self_ms)
        m["oracle.cache.hits"] = per(hits)
        m["oracle.cache.misses"] = per(misses)
        m["oracle.cache.hit_ratio"] = _ratio(hits, hits + misses)
        m["oracle.cache.hit_ms_p50"] = percentile(self.cache_hit_ms, 0.5)
        m["oracle.cache.miss_self_ms_p50"] = percentile(self.cache_miss_self_ms, 0.5)
        m["oracle.cache.bytes_written"] = per(self.outcome["cache_bytes_written"])

        timed("metrics.score_document")
        m["metrics.score_document.tuples"] = per(self.counts["metrics.score_document"])

        timed("cli.parse")
        timed("cli.eval")
        timed("cli.export_training")
        timed("cli.write_text_atomic")

        m["mock.service_ms_p50"] = percentile(self.service_ms, 0.5)
        m["mock.concurrency_max"] = self.concurrency_max

        m["http_requests"] = per(requests)
        m["prompt_bytes"] = per(self.outcome["prompt_bytes"])
        m["failed_share"] = _ratio(self.outcome["failed"], self.outcome["attempted"])

        m["trace.covered_share"] = _ratio(self.covered_s, self.wall_s)
        m["trace.wall_s"] = traced
        m["trace.untraced_wall_s"] = untraced
        m["trace.overhead_s"] = traced - untraced
        m["trace.spans"] = per(self.spans)
        return m
