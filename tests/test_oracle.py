"""Oracle behavior: label resolution, replay/scripted sources, HTTP client,
and the persistent cache."""

from __future__ import annotations

import hashlib
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from rstkit import (
    CachedOracle,
    CallableOracle,
    HttpOracle,
    KindMismatch,
    Leaf,
    Node,
    OracleFailure,
    OracleQuery,
    ParsePolicy,
    ReplayExhausted,
    ReplayOracle,
    ScriptedOracle,
    StoreCorrupt,
    resolve_label,
)
from rstkit.core import NS, SN
from rstkit.training import ENGINES

from conftest import make_edus


def _query(kind="action", prompt="p", labels=("shift", "reduce"), span=None):
    return OracleQuery(kind=kind, prompt=prompt, valid_labels=tuple(labels),
                       span=span)


# ---------------------------------------------------------------------------
# resolve_label


@pytest.mark.parametrize(
    "raw,labels,expected",
    [
        ("shift", ("shift", "reduce"), "shift"),
        ("Shift", ("shift", "reduce"), "shift"),
        ("  Reduce \n and more text", ("shift", "reduce"), "reduce"),
        ("reduce\nshift", ("shift", "reduce"), "reduce"),
        ("NUCLEUS-SATELLITE", ("nucleus-nucleus", "nucleus-satellite"), "nucleus-satellite"),
        ("2", ("0", "1", "2"), "2"),
        ("02", ("0", "1", "2"), "2"),
        ("007", ("0", "7"), "7"),
        ("+2", ("0", "1", "2"), "2"),
        ("7", ("0", "1", "2"), None),
        ("2.0", ("0", "1", "2"), None),
        ("banana", ("shift", "reduce"), None),
        ("", ("shift", "reduce"), None),
        ("\n\nshift", ("shift", "reduce"), None),
        ("Joint", ("Joint", "List"), "Joint"),
        ("joint", ("Joint", "List"), "Joint"),
        ("-0", ("0", "1", "2"), "0"),
        ("-1", ("0", "1", "2"), None),
    ],
)
def test_resolve_label(raw, labels, expected):
    assert resolve_label(raw, labels) == expected


def test_resolve_label_returns_canonical_spelling():
    got = resolve_label("ELABORATION", ("Elaboration", "Joint"))
    assert got == "Elaboration"


# ---------------------------------------------------------------------------
# Query validation


def test_query_rejects_unknown_kind():
    with pytest.raises(ValueError, match="kind"):
        OracleQuery(kind="essay", prompt="p", valid_labels=("a",))


def test_query_rejects_empty_label_set():
    with pytest.raises(ValueError, match="label"):
        OracleQuery(kind="action", prompt="p", valid_labels=())


# ---------------------------------------------------------------------------
# Replay and scripted oracles


def _three_edu_tree():
    e = make_edus(3)
    return Node(Leaf(e[0]), Node(Leaf(e[1]), Leaf(e[2]), SN, "Cause"), NS, "Joint")


def test_replay_answers_each_kind_by_span():
    oracle = ReplayOracle(_three_edu_tree())
    assert oracle.complete(_query(span=None)) == "shift"
    assert oracle.complete(_query(span=(1, 2))) == "shift"
    assert oracle.complete(_query(span=(2, 3))) == "reduce"
    assert oracle.complete(_query(span=(1, 3))) == "reduce"
    assert oracle.complete(_query("split", span=(1, 3))) == "0"
    assert oracle.complete(_query("split", span=(2, 3))) == "0"
    assert oracle.complete(_query("nuclearity", span=(1, 3))) == NS
    assert oracle.complete(_query("relation", span=(1, 3))) == "Joint"
    assert oracle.complete(_query("nuclearity", span=(2, 3))) == SN
    assert oracle.complete(_query("relation", span=(2, 3))) == "Cause"


@pytest.mark.parametrize("strategy", ["bottom-up", "top-down"])
def test_replay_answers_do_not_depend_on_question_order(minicorpus, inventory,
                                                       strategy):
    doc = minicorpus[7]
    replay = ReplayOracle(doc.tree)
    queries = []

    def record(query):
        queries.append(query)
        return replay.complete(query)

    engine = ENGINES[strategy]
    policy = ParsePolicy(skip_forced=False)
    result = engine(doc.edus, CallableOracle(record), inventory, policy)
    asked = [entry.raw for entry in result.trace]
    assert len(queries) == len(asked) and result.corrected_count == 0
    fresh = ReplayOracle(doc.tree)
    backwards = [fresh.complete(query) for query in reversed(queries)]
    assert backwards[::-1] == asked


def test_replay_kind_mismatch():
    # a label query over a span the gold tree has no node for
    oracle = ReplayOracle(_three_edu_tree())
    with pytest.raises(KindMismatch, match=r"\(1, 2\)"):
        oracle.complete(_query("relation", span=(1, 2)))
    with pytest.raises(KindMismatch, match="split"):
        oracle.complete(_query("split", span=(3, 5)))


def test_scripted_order_and_exhaustion():
    oracle = ScriptedOracle(["a", "b", "c"])
    assert [oracle.complete(_query()) for _ in range(3)] == ["a", "b", "c"]
    with pytest.raises(ReplayExhausted):
        oracle.complete(_query())


def test_scripted_cycle_repeats():
    oracle = ScriptedOracle(["x", "y"], cycle=True)
    got = [oracle.complete(_query()) for _ in range(5)]
    assert got == ["x", "y", "x", "y", "x"]


def test_scripted_empty_cycle_still_exhausts():
    oracle = ScriptedOracle([], cycle=True)
    with pytest.raises(ReplayExhausted):
        oracle.complete(_query())


def test_callable_oracle_passes_query_through():
    seen = []

    def fn(query):
        seen.append(query)
        return "reduce"

    oracle = CallableOracle(fn, fingerprint="probe")
    assert oracle.fingerprint == "probe"
    q = _query(prompt="specific prompt")
    assert oracle.complete(q) == "reduce"
    assert seen == [q]


# ---------------------------------------------------------------------------
# HTTP client against a local mock endpoint


class _MockHandler(BaseHTTPRequestHandler):
    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        raw = self.rfile.read(length)
        self.server.requests.append(
            {
                "authorization": self.headers.get("Authorization"),
                "content_type": self.headers.get("Content-Type"),
                "json": json.loads(raw),
            }
        )
        index = min(len(self.server.requests) - 1, len(self.server.script) - 1)
        status, payload, *headers = self.server.script[index]
        data = payload if isinstance(payload, bytes) else json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        for name, value in (headers[0] if headers else {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *_args):
        pass


@contextmanager
def _endpoint(script):
    """Serve a scripted list of (status, payload[, headers]) responses;
    later requests repeat the last entry."""
    server = ThreadingHTTPServer(("127.0.0.1", 0), _MockHandler)
    server.script = script
    server.requests = []
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_port}/v1/completions", server.requests
    finally:
        server.shutdown()
        server.server_close()


def _ok(text):
    return (200, {"choices": [{"text": text}]})


def test_http_success_returns_first_choice_text(monkeypatch):
    monkeypatch.delenv("RSTKIT_API_TOKEN", raising=False)
    with _endpoint([_ok(" shift")]) as (url, requests_seen):
        oracle = HttpOracle(url, model="m1", retries=0)
        assert oracle.complete(_query(prompt="the prompt")) == " shift"
    assert len(requests_seen) == 1
    req = requests_seen[0]
    assert req["authorization"] is None
    assert req["content_type"] == "application/json"
    assert req["json"] == {
        "model": "m1",
        "prompt": "the prompt",
        "max_tokens": 16,
        "temperature": 0.0,
        "stop": ["\n"],
    }


def test_http_greedy_decoding_is_pinned():
    oracle = HttpOracle("http://unused", model="m")
    assert oracle.fingerprint == "m|temperature=0.0|max_tokens=16|stop=nl"


def test_http_bearer_token_from_argument(monkeypatch):
    monkeypatch.delenv("RSTKIT_API_TOKEN", raising=False)
    with _endpoint([_ok("x")]) as (url, requests_seen):
        HttpOracle(url, model="m", api_token="abc123", retries=0).complete(_query())
    assert requests_seen[0]["authorization"] == "Bearer abc123"


def test_http_bearer_token_from_environment(monkeypatch):
    monkeypatch.setenv("RSTKIT_API_TOKEN", "env-token")
    with _endpoint([_ok("x")]) as (url, requests_seen):
        HttpOracle(url, model="m", retries=0).complete(_query())
    assert requests_seen[0]["authorization"] == "Bearer env-token"


def test_http_retries_through_server_errors():
    script = [(500, {"error": "busy"}), (500, {"error": "busy"}), _ok("reduce")]
    with _endpoint(script) as (url, requests_seen):
        oracle = HttpOracle(url, model="m", retries=3, backoff=0.01)
        assert oracle.complete(_query()) == "reduce"
    assert len(requests_seen) == 3


def test_http_fails_after_retry_budget():
    with _endpoint([(503, {"error": "down"})]) as (url, requests_seen):
        oracle = HttpOracle(url, model="m", retries=2, backoff=0.01)
        with pytest.raises(OracleFailure, match="3 attempts"):
            oracle.complete(_query())
    assert len(requests_seen) == 3


@pytest.mark.parametrize("body", [b"this is not json", {"nochoices": True}],
                         ids=["not-json", "no-choices"])
def test_http_malformed_body_fails_at_once(body):
    with _endpoint([(200, body), _ok("ok")]) as (url, requests_seen):
        oracle = HttpOracle(url, model="m", retries=2, backoff=30.0)
        with pytest.raises(OracleFailure, match="1 attempts: malformed"):
            oracle.complete(_query())
    assert len(requests_seen) == 1


@pytest.mark.parametrize("status", [400, 401, 404])
def test_http_client_errors_are_tried_once(status):
    with _endpoint([(status, {"error": "no"}), _ok("ok")]) as (url, requests_seen):
        oracle = HttpOracle(url, model="m", retries=3, backoff=30.0)
        with pytest.raises(OracleFailure, match=f"1 attempts: HTTP {status}"):
            oracle.complete(_query())
    assert len(requests_seen) == 1


def test_http_429_waits_for_retry_after():
    script = [(429, {"error": "slow down"}, {"Retry-After": "0"}), _ok("shift")]
    with _endpoint(script) as (url, requests_seen):
        oracle = HttpOracle(url, model="m", retries=1, backoff=30.0)
        started = time.monotonic()
        assert oracle.complete(_query()) == "shift"
        assert time.monotonic() - started < 5.0
    assert len(requests_seen) == 2


class _KeepAliveHandler(BaseHTTPRequestHandler):
    """HTTP/1.1 answers by ``server.answer(prompt)``; counts connections, and
    with ``server.drop`` closes each connection after one response without
    announcing it."""

    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True

    def setup(self):
        super().setup()
        with self.server.lock:
            self.server.opened += 1

    def finish(self):
        super().finish()
        with self.server.lock:
            self.server.closed += 1

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        with self.server.lock:
            self.server.prompts.append(body["prompt"])
        answer = self.server.answer(body["prompt"])
        data = json.dumps({"choices": [{"text": answer}]}).encode()
        self.send_response(200)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)
        self.close_connection = self.server.drop

    def log_message(self, *_args):
        pass


@contextmanager
def keep_alive_endpoint(drop=False, answer=lambda prompt: prompt):
    """A keep-alive endpoint, echoing by default; yields (url, server) with
    the prompts it saw and its opened/closed connection counts."""
    server = ThreadingHTTPServer(("127.0.0.1", 0), _KeepAliveHandler)
    server.daemon_threads = True
    server.lock = threading.Lock()
    server.opened = server.closed = 0
    server.prompts = []
    server.drop = drop
    server.answer = answer
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_port}/v1/completions", server
    finally:
        server.shutdown()
        server.server_close()


def wait_for(condition, seconds=5.0):
    deadline = time.monotonic() + seconds
    while not condition() and time.monotonic() < deadline:
        time.sleep(0.01)
    return condition()


def test_http_reuses_one_connection_per_thread():
    with keep_alive_endpoint() as (url, server):
        oracle = HttpOracle(url, model="m", retries=0)
        for i in range(5):
            assert oracle.complete(_query(prompt=f"p{i}")) == f"p{i}"
        assert server.opened == 1
        oracle.close()
        assert wait_for(lambda: server.closed == 1)


def test_http_reopens_a_connection_the_server_closed():
    # retries=0 and a long backoff: the reconnect must cost neither
    with keep_alive_endpoint(drop=True) as (url, server):
        oracle = HttpOracle(url, model="m", retries=0, backoff=30.0)
        started = time.monotonic()
        answers = [oracle.complete(_query(prompt=f"p{i}")) for i in range(3)]
        assert time.monotonic() - started < 5.0
        oracle.close()
    assert answers == ["p0", "p1", "p2"]
    assert server.prompts == ["p0", "p1", "p2"]
    assert server.opened == 3


def test_http_connection_refused_is_oracle_failure():
    # 127.0.0.1:9 is the discard port; nothing listens there
    oracle = HttpOracle("http://127.0.0.1:9/v1/completions", model="m",
                        retries=0, timeout=2.0)
    with pytest.raises(OracleFailure, match="1 attempts"):
        oracle.complete(_query())


def test_http_negative_retries_rejected():
    with pytest.raises(ValueError):
        HttpOracle("http://x", model="m", retries=-1)


# ---------------------------------------------------------------------------
# Cache


def _counting_inner(answer="reduce", delay=0.0, fingerprint="inner-v1"):
    import time

    calls = {"n": 0}
    lock = threading.Lock()

    def fn(_query):
        with lock:
            calls["n"] += 1
        if delay:
            time.sleep(delay)
        return answer

    return CallableOracle(fn, fingerprint=fingerprint), calls


def test_cache_miss_then_hit(tmp_path):
    inner, calls = _counting_inner()
    cache = CachedOracle(inner, tmp_path)
    q = _query(prompt="stable prompt")
    assert cache.complete(q) == "reduce"
    assert cache.complete(q) == "reduce"
    assert calls["n"] == 1
    assert cache.stats() == {"hits": 1, "misses": 1}
    assert cache.fingerprint == "inner-v1"


def _records(store) -> list[dict]:
    """Every record of every segment under ``store``, in name order."""
    return [
        json.loads(line)
        for path in sorted(store.glob("*.jsonl"))
        for line in path.read_text(encoding="utf-8").splitlines()
    ]


def _segment(*records) -> list[bytes]:
    """One record line of each of ``records``, a (kind, fingerprint,
    prompt, raw) tuple, as a segment writes it."""
    fields = ("kind", "fingerprint", "prompt", "raw")
    return [
        json.dumps(dict(zip(fields, record)), ensure_ascii=False).encode() + b"\n"
        for record in records
    ]


def test_cache_key_scheme_and_record_fields(tmp_path):
    inner, _ = _counting_inner(answer="raw answer\nwith tail")
    cache = CachedOracle(inner, tmp_path)
    q = _query(kind="relation", prompt="Q?", labels=("Joint",))
    cache.complete(q)
    expected_key = hashlib.sha256(
        "\x1f".join(("relation", "inner-v1", "Q?")).encode("utf-8")
    ).hexdigest()
    assert cache._key(q) == expected_key
    (segment,) = tmp_path.glob("*.jsonl")
    # one record per line: the newline inside the answer is escaped
    assert segment.read_bytes().count(b"\n") == 1
    assert _records(tmp_path) == [{
        "kind": "relation",
        "fingerprint": "inner-v1",
        "prompt": "Q?",
        "raw": "raw answer\nwith tail",
    }]
    assert sorted(p.name for p in tmp_path.iterdir()) == [segment.name]


def test_cache_persists_across_instances(tmp_path):
    inner1, _ = _counting_inner(answer="first")
    CachedOracle(inner1, tmp_path).complete(_query(prompt="shared"))

    inner2, calls2 = _counting_inner(answer="second")
    cache2 = CachedOracle(inner2, tmp_path)
    assert cache2.complete(_query(prompt="shared")) == "first"
    assert calls2["n"] == 0
    assert cache2.stats() == {"hits": 1, "misses": 0}


def test_cache_fingerprint_busts_stale_answers(tmp_path):
    inner_a, _ = _counting_inner(answer="old", fingerprint="model-a")
    inner_b, calls_b = _counting_inner(answer="new", fingerprint="model-b")
    q = _query(prompt="same prompt")
    CachedOracle(inner_a, tmp_path).complete(q)
    assert CachedOracle(inner_b, tmp_path).complete(q) == "new"
    assert calls_b["n"] == 1
    assert [r["fingerprint"] for r in _records(tmp_path)] == ["model-a", "model-b"]


def test_cache_corrupt_record_raises(tmp_path):
    inner, calls = _counting_inner()
    good = _segment(("action", "inner-v1", "a", "shift"),
                    ("action", "inner-v1", "b", "reduce"))
    path = tmp_path / "0.jsonl"
    for bad, match in [
        (b"{not json at all\n", "unreadable"),
        (b'{"kind": "action"}\n', "unreadable"),  # no raw field
        (b'{"kind": "action", "fingerprint": "f", "prompt": "p", "raw": 1}\n',
         "unreadable"),
        (b'{"kind": "action", "fingerprint": "f", "prompt": "p", "raw": "caf\xe9"}\n',
         "unreadable"),  # Latin-1, not UTF-8
        (b"\n", "unreadable"),  # an empty line
    ]:
        # a bad line before the last one is never a torn write
        path.write_bytes(good[0] + bad + good[1])
        with pytest.raises(StoreCorrupt, match=match) as raised:
            CachedOracle(inner, tmp_path)
        assert f"{path} line 2" in str(raised.value)
        # a bad last line, ended by its newline, is not torn either
        path.write_bytes(good[0] + bad)
        with pytest.raises(StoreCorrupt, match=match):
            CachedOracle(inner, tmp_path)
    # an older per-key record is read when the store is opened
    path.unlink()
    legacy = tmp_path / f"{'0' * 64}.json"
    legacy.write_text("{broken")
    with pytest.raises(StoreCorrupt, match=f"unreadable cache record {legacy}"):
        CachedOracle(inner, tmp_path)
    assert calls["n"] == 0


def test_cache_corrupt_record_leaves_no_entry(tmp_path):
    inner, calls = _counting_inner(answer="fetched")
    q = _query(prompt="poisoned")
    first = CachedOracle(inner, tmp_path)
    assert first.complete(q) == "fetched"
    (segment,) = tmp_path.glob("*.jsonl")
    segment.write_bytes(b"{not json at all\n")
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    with pytest.raises(StoreCorrupt, match="unreadable"):
        CachedOracle(inner, tmp_path)
    # the failed open asked nothing and wrote nothing to the store
    assert calls["n"] == 1
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
    # an instance made before the damage keeps answering from its table
    assert first.complete(q) == "fetched"
    assert calls["n"] == 1
    assert first.stats() == {"hits": 1, "misses": 1}
    first.close()


def test_segment_torn_last_line_is_skipped_and_counted(tmp_path):
    inner, calls = _counting_inner(answer="fetched")
    lines = _segment(("action", "inner-v1", "kept", "shift"),
                     ("action", "inner-v1", "torn", "reduce"))
    # the writer was killed inside its last line, a multi-byte character
    # cut in two among its bytes
    torn = lines[1][:-2] + "\u00e9".encode()[:1]
    (tmp_path / "0.jsonl").write_bytes(lines[0] + torn)
    cache = CachedOracle(inner, tmp_path)
    assert cache.complete(_query(prompt="kept")) == "shift"
    assert cache.complete(_query(prompt="torn")) == "fetched"
    assert calls["n"] == 1
    report = cache.report()
    assert report["torn_lines_skipped"] == 1
    assert report["conflicts"] == 0
    # the torn segment is left as it was; the answer went to a new one
    assert (tmp_path / "0.jsonl").read_bytes() == lines[0] + torn
    assert len(list(tmp_path.glob("*.jsonl"))) == 2


def test_segments_that_disagree_resolve_by_name_order(tmp_path):
    inner, calls = _counting_inner()
    (tmp_path / "b.jsonl").write_bytes(b"".join(_segment(
        ("action", "inner-v1", "p", "reduce"),
        ("action", "inner-v1", "q", "shift"),
    )))
    (tmp_path / "a.jsonl").write_bytes(b"".join(_segment(
        ("action", "inner-v1", "p", "shift"),
    )))
    # a per-key record of an older version comes after every segment
    (tmp_path / f"{'0' * 64}.json").write_text(json.dumps(
        {"kind": "action", "fingerprint": "inner-v1", "prompt": "q", "raw": "x"}
    ))
    cache = CachedOracle(inner, tmp_path)
    assert cache.answer_many([_query(prompt="p"), _query(prompt="q")]) == [
        "shift", "shift"
    ]
    assert calls["n"] == 0
    assert cache.report()["conflicts"] == 2


def test_legacy_per_key_records_are_read_once(tmp_path):
    """A directory of one ``<key>.json`` file per answer, as older versions
    wrote it, is read when the store is opened and never again."""
    inner, calls = _counting_inner(answer="fetched")
    queries = [_query(prompt=f"p{i}") for i in range(3)]
    for query in queries[:2]:
        key = hashlib.sha256(
            "\x1f".join((query.kind, "inner-v1", query.prompt)).encode()
        ).hexdigest()
        (tmp_path / f"{key}.json").write_text(json.dumps({
            "kind": query.kind, "fingerprint": "inner-v1",
            "prompt": query.prompt, "raw": f"stored {query.prompt}",
        }))
    cache = CachedOracle(inner, tmp_path)
    for path in tmp_path.glob("*.json"):
        path.unlink()
    # a record that appears after the store was opened is not looked for
    key = cache._key(queries[2])
    (tmp_path / f"{key}.json").write_text(json.dumps({
        "kind": "action", "fingerprint": "inner-v1", "prompt": "p2", "raw": "late",
    }))
    assert cache.answer_many(queries) == ["stored p0", "stored p1", "fetched"]
    assert calls["n"] == 1
    assert cache.stats() == {"hits": 2, "misses": 1}


def test_two_instances_see_each_others_records_after_reopening(tmp_path):
    inner_a, calls_a = _counting_inner(answer="from a")
    inner_b, calls_b = _counting_inner(answer="from b")
    a = CachedOracle(inner_a, tmp_path)
    b = CachedOracle(inner_b, tmp_path)
    assert a.complete(_query(prompt="one")) == "from a"
    assert b.complete(_query(prompt="two")) == "from b"
    # each wrote its own segment, and neither reads the other's until made
    # again
    assert len(list(tmp_path.glob("*.jsonl"))) == 2
    assert b.complete(_query(prompt="one")) == "from b"
    a = CachedOracle(inner_a, tmp_path)
    assert a.complete(_query(prompt="two")) == "from b"
    assert (calls_a["n"], calls_b["n"]) == (1, 2)
    # b's two answers to "one" disagree with a's; a's segment is older
    assert a.complete(_query(prompt="one")) == "from a"
    assert a.report()["conflicts"] == 1


def test_cache_complete_asks_the_inner_oracle_on_this_thread(tmp_path):
    threads = []

    def answer(_query):
        threads.append(threading.current_thread())
        return "x"

    cache = CachedOracle(CallableOracle(answer), tmp_path)
    assert cache.complete(_query(prompt="cold")) == "x"
    assert threads == [threading.current_thread()]
    assert cache.stats() == {"hits": 0, "misses": 1}
    cache.close()


def test_cache_concurrent_misses_write_once(tmp_path):
    inner, calls = _counting_inner(answer="only", delay=0.05)
    cache = CachedOracle(inner, tmp_path)
    q = _query(prompt="hot key")

    def ask(i):
        # half the threads ask in a round, as a parse does
        if i % 2:
            return cache.answer_many([q])[0]
        return cache.complete(q)

    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(ask, range(8)))
    cache.close()
    assert results == ["only"] * 8
    assert calls["n"] == 1
    assert len(_records(tmp_path)) == 1
    stats = cache.stats()
    assert stats["misses"] == 1
    assert stats["hits"] == 7


class _RoundInner:
    """Answers every query with its prompt and records each round asked."""

    fingerprint = "rounds"

    def __init__(self):
        self.rounds = []

    def answer_many(self, queries):
        self.rounds.append([query.prompt for query in queries])
        return [query.prompt for query in queries]

    def complete(self, query):
        raise AssertionError("a round goes to answer_many")


def test_cache_answer_many_fetches_each_key_once(tmp_path):
    inner = _RoundInner()
    cache = CachedOracle(inner, tmp_path)
    queries = [_query(prompt=f"p{i % 5}") for i in range(10)]
    assert cache.answer_many(queries) == [q.prompt for q in queries]
    # the misses of a round go to the inner oracle in one call, once each
    assert inner.rounds == [["p0", "p1", "p2", "p3", "p4"]]
    assert cache.stats() == {"hits": 5, "misses": 5}
    assert cache.answer_many(queries[:5]) == [q.prompt for q in queries[:5]]
    assert len(inner.rounds) == 1
    assert cache.report()["by_kind"] == {"action": {"hits": 10, "misses": 5}}
    assert [r["prompt"] for r in _records(tmp_path)] == ["p0", "p1", "p2", "p3", "p4"]
    assert cache.answer_many([]) == []
    assert len(inner.rounds) == 1


def test_cache_without_store_keeps_answers_for_the_run():
    inner, calls = _counting_inner(answer="x")
    cache = CachedOracle(inner, None)
    assert cache.answer_many([_query(prompt="a"), _query(prompt="b")]) == ["x", "x"]
    assert cache.complete(_query(prompt="a")) == "x"
    assert cache.complete(_query(prompt="b")) == "x"
    cache.close()
    assert calls["n"] == 2
    assert cache.stats() == {"hits": 2, "misses": 2}


def test_cache_inner_failure_reaches_the_caller(tmp_path):
    fail = {"now": True}

    def answer(_query):
        if fail["now"]:
            raise OracleFailure("down")
        return "up"

    cache = CachedOracle(CallableOracle(answer), tmp_path)
    with pytest.raises(OracleFailure, match="down"):
        cache.answer_many([_query(prompt="a"), _query(prompt="b")])
    assert list(tmp_path.iterdir()) == []
    assert cache.stats() == {"hits": 0, "misses": 0}
    # a failure is not kept: the next round asks again
    fail["now"] = False
    assert cache.complete(_query(prompt="a")) == "up"
    cache.close()
    assert [r["prompt"] for r in _records(tmp_path)] == ["a"]


def test_http_answer_many_runs_at_most_the_in_flight_limit():
    from rstkit.oracle import IN_FLIGHT_LIMIT

    lock = threading.Lock()
    running = {"now": 0, "max": 0}

    class SlowOracle(HttpOracle):
        # answer_many sends each query through complete, so a subclass that
        # overrides complete alone answers every query itself
        def complete(self, query):
            with lock:
                running["now"] += 1
                running["max"] = max(running["max"], running["now"])
            time.sleep(0.01)
            with lock:
                running["now"] -= 1
            return query.prompt

    oracle = SlowOracle("http://127.0.0.1:9/v1/completions", model="m")
    queries = [_query(prompt=f"p{i}") for i in range(3 * IN_FLIGHT_LIMIT)]
    assert oracle.answer_many(queries) == [q.prompt for q in queries]
    assert oracle.answer_many(queries[:1]) == ["p0"]
    oracle.close()
    assert 1 < running["max"] <= IN_FLIGHT_LIMIT
    assert not any(t.name.startswith("rstkit-oracle") for t in threading.enumerate())


def test_http_answer_many_raises_the_first_failure_after_every_request():
    finished = []

    class Flaky(HttpOracle):
        def complete(self, query):
            time.sleep(0.01 * int(query.prompt))
            finished.append(query.prompt)
            if query.prompt in ("1", "3"):
                raise OracleFailure(f"query {query.prompt}")
            return query.prompt

    oracle = Flaky("http://127.0.0.1:9/v1/completions", model="m")
    with pytest.raises(OracleFailure, match="query 1") as raised:
        oracle.answer_many([_query(prompt=str(i)) for i in range(5)])
    assert sorted(finished) == ["0", "1", "2", "3", "4"]
    # the answers that arrived, by query index
    assert raised.value.answered == {0: "0", 2: "2", 4: "4"}
    oracle.close()


def test_cache_keeps_the_answers_of_a_failed_round(tmp_path):
    class Flaky(HttpOracle):
        def complete(self, query):
            if query.prompt in ("1", "3"):
                raise OracleFailure(f"query {query.prompt}")
            return f"answer {query.prompt}"

    queries = [_query(prompt=str(i)) for i in range(5)]
    cache = CachedOracle(Flaky("http://127.0.0.1:9/v1/completions", model="m"), tmp_path)
    with pytest.raises(OracleFailure, match="query 1"):
        cache.answer_many(queries)
    cache.close()
    assert sorted((r["prompt"], r["raw"]) for r in _records(tmp_path)) == [
        ("0", "answer 0"), ("2", "answer 2"), ("4", "answer 4"),
    ]
    # the failed ones are asked again; the kept ones are not, and count as
    # the misses they were
    asked = []

    class Recording(HttpOracle):
        def complete(self, query):
            asked.append(query.prompt)
            return f"answer {query.prompt}"

    again = CachedOracle(Recording("http://127.0.0.1:9/v1/completions", model="m"),
                         tmp_path)
    assert again.answer_many(queries) == [f"answer {i}" for i in range(5)]
    again.close()
    assert sorted(asked) == ["1", "3"]
    assert again.stats() == {"hits": 3, "misses": 2}

    # an inner oracle with no answer_many is asked in order; what it
    # answered before failing is kept
    def answer(query):
        if query.prompt == "c":
            raise OracleFailure("down")
        return query.prompt

    cache = CachedOracle(CallableOracle(answer, fingerprint="serial"), tmp_path / "serial")
    with pytest.raises(OracleFailure, match="down"):
        cache.answer_many([_query(prompt=p) for p in "abcd"])
    assert [r["prompt"] for r in _records(tmp_path / "serial")] == ["a", "b"]


def test_cache_keeps_what_arrived_before_an_interrupted_wait(tmp_path, monkeypatch):
    import rstkit.oracle

    real_wait = rstkit.oracle.wait

    def interrupted(futures):
        # Ctrl-C once the first two requests are answered
        real_wait(futures[:2])
        raise KeyboardInterrupt

    class Slow(HttpOracle):
        def complete(self, query):
            if int(query.prompt) >= 2:
                time.sleep(0.2)
            return f"answer {query.prompt}"

    monkeypatch.setattr(rstkit.oracle, "wait", interrupted)
    cache = CachedOracle(Slow("http://127.0.0.1:9/v1/completions", model="m"), tmp_path)
    with pytest.raises(KeyboardInterrupt):
        cache.answer_many([_query(prompt=str(i)) for i in range(4)])
    cache.close()
    assert sorted(r["prompt"] for r in _records(tmp_path)) == ["0", "1"]


def test_cache_over_http_reuses_connections(tmp_path):
    from rstkit.oracle import IN_FLIGHT_LIMIT

    with keep_alive_endpoint() as (url, server):
        cache = CachedOracle(HttpOracle(url, model="m", retries=0), tmp_path)
        queries = [_query(prompt=f"p{i}") for i in range(4 * IN_FLIGHT_LIMIT)]
        for start in range(0, len(queries), 8):
            batch = queries[start:start + 8]
            assert cache.answer_many(batch) == [q.prompt for q in batch]
        cache.close()
        assert sorted(server.prompts) == sorted(q.prompt for q in queries)
        assert server.opened <= 8
        assert wait_for(lambda: server.closed == server.opened)
