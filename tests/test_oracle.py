"""Oracle behavior: label resolution, replay/scripted sources, HTTP client,
and the persistent cache."""

from __future__ import annotations

import hashlib
import http.client
import io
import json
import re
import shutil
import socket
import ssl
import struct
import subprocess
import sys
import threading
import time
import types
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
from hypothesis import example, given, strategies as st

import rstkit.engine
import rstkit.oracle
from rstkit import (
    CachedOracle,
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
    builtin_inventory,
    resolve_label,
)
from rstkit.core import MAX_DIGITS, NS, NUCLEARITY_PATTERNS, SN
from rstkit.engine import Decision, _resolve
from rstkit.oracle import ResponseError, _Reader
from rstkit.prompts import ACTION_LABELS, PROMPT_KINDS, SPLIT
from rstkit.training import ENGINES

from conftest import LONG_DIGITS, FunctionOracle, chain_tree, make_edus


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


def test_resolve_label_reads_long_integers_alike_under_any_digit_limit(
    int_digit_limit,
):
    labels = ("0", "1", "2")
    # an integer longer than int() reads under every limit is left as
    # written, zero padding and all
    assert resolve_label("0" * (MAX_DIGITS - 1) + "2", labels) == "2"
    assert resolve_label("0" * MAX_DIGITS + "2", labels) is None
    assert resolve_label("0" * LONG_DIGITS + "2", labels) is None
    assert resolve_label("-" + "0" * LONG_DIGITS, labels) is None
    assert resolve_label("1" * LONG_DIGITS, labels) is None


def test_resolve_label_returns_canonical_spelling():
    got = resolve_label("ELABORATION", ("Elaboration", "Joint"))
    assert got == "Elaboration"


# ---------------------------------------------------------------------------
# The answer rule by lookup


def _resolve_by_the_rule(decision, raw):
    """What a decision takes for ``raw`` by ``resolve_label`` over its valid
    labels alone, then the legal and note rule of ``run_decisions``."""
    label = resolve_label(raw, decision.query.valid_labels)
    if label is None:
        number = re.fullmatch(r"[+-]?\d+", raw.split("\n", 1)[0].strip())
        integral = number and decision.legal[0].isdecimal()
        return decision.default, "out-of-range" if integral else "unparseable"
    if label not in decision.legal:
        return decision.default, "illegal"
    return label, ""


def _decision(kind, labels, legal=None):
    legal = labels if legal is None else legal
    query = OracleQuery(kind, "p", labels)
    return Decision(kind, "s", query, legal, legal[0], lambda resolved: [])


# label sets that are no split's: sets whose labels the rule reads alike,
# which LabelInventory refuses but _resolve can still be handed, and a set
# whose labels are not all read by value
_OTHER_LABEL_SETS = (
    ("list", "List"),
    ("02", "2"),
    ("0", "01"),
    ("1", "0"),
    ACTION_LABELS,
    NUCLEARITY_PATTERNS,
    builtin_inventory("rst-dt").relations,
)

# other digits that int() reads, and that \d matches
_DIGITS = {
    script: str.maketrans("0123456789", digits)
    for script, digits in (
        ("arabic-indic", "\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669"),
        ("fullwidth", "\uff10\uff11\uff12\uff13\uff14\uff15\uff16\uff17\uff18\uff19"),
    )
}

# ways to spell an answer after a label of the set
_SPELLINGS = (
    lambda s: s,
    str.upper,
    str.lower,
    str.swapcase,
    lambda s: "0" + s,
    lambda s: "+" + s,
    lambda s: "-" + s,
    lambda s: "0" * MAX_DIGITS + s,
    lambda s: f" {s}\t",
    lambda s: s + "\nand a reason",
    lambda s: "\n" + s,
    lambda s: s.translate(_DIGITS["arabic-indic"]),
    lambda s: s.translate(_DIGITS["fullwidth"]),
)


@st.composite
def _decisions_and_answers(draw):
    """A decision over a split set of 1 to 2000 labels or another set, and
    a raw answer: a label spelled some way, an integer or junk."""
    if draw(st.booleans()):
        labels = tuple(map(str, range(draw(st.integers(1, 2000)))))
        kind = SPLIT
    else:
        labels = draw(st.sampled_from(_OTHER_LABEL_SETS))
        kind = draw(st.sampled_from(PROMPT_KINDS))
    legal = None
    if draw(st.booleans()):
        first = draw(st.integers(0, len(labels) - 1))
        legal = list(labels[first : draw(st.integers(first + 1, len(labels)))])
    index = draw(st.integers(0, len(labels) - 1) | st.sampled_from([0, len(labels) - 1]))
    raw = labels[index]
    for spell in draw(st.lists(st.sampled_from(_SPELLINGS), max_size=2)):
        raw = spell(raw)
    raw = draw(st.just(raw) | st.integers(-3, 2003).map(str) | st.text(max_size=6))
    return _decision(kind, labels, legal), raw


# answers that are legal as written but resolve to another label, which a
# shortcut taking any legal answer as it is would let through
@example((_decision("relation", ("list", "List")), "List"))
@example((_decision("relation", ("02", "2")), "02"))
@example((_decision(SPLIT, ("0", "01")), "01"))
@given(_decisions_and_answers())
def test_answer_rule_by_lookup_equals_resolve_label(decision_and_raw):
    decision, raw = decision_and_raw
    assert _resolve(decision, raw) == _resolve_by_the_rule(decision, raw)


@pytest.mark.parametrize("raw,labels,expected", [
    ("List", ("list", "List"), "list"),
    ("list", ("list", "List"), "list"),
    ("02", ("02", "2"), "2"),
    ("2", ("02", "2"), "2"),
])
def test_an_answer_spelled_as_a_label_resolves_to_its_canonical_label(
    raw, labels, expected
):
    assert _resolve(_decision("relation", labels), raw) == (expected, "")


@pytest.mark.parametrize("strategy", ["bottom-up", "top-down"])
@pytest.mark.parametrize("right_heavy", [False, True], ids=["left-chain", "right-chain"])
def test_gold_replay_resolves_every_answer_without_the_scan(
    monkeypatch, strategy, right_heavy
):
    """Each gold answer is spelled as a label, so none reaches the scan
    over the label set, however long the chain: a split answer k of a
    left-branching chain costs what a 0 of a right-branching one does,
    and no split's set is compiled into a table."""
    inventory = builtin_inventory("rst-dt")
    parse = ENGINES[strategy]
    # a three-EDU parse compiles the tables of the sets the engine reuses
    parse(make_edus(3), ReplayOracle(chain_tree(make_edus(3))), inventory)
    edus = make_edus(301)
    tree = chain_tree(edus, right_heavy)
    scans = []
    with monkeypatch.context() as patch:
        patch.setattr(rstkit.engine, "resolve_label", lambda raw, labels: scans.append(raw))
        result = parse(edus, ReplayOracle(tree), inventory)
    assert scans == []
    gold = parse(edus, ReplayOracle(tree), inventory)
    assert result.tree == gold.tree == tree
    assert result.trace == gold.trace and gold.corrected_count == 0


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
    result = engine(doc.edus, FunctionOracle(record), inventory, policy)
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

    oracle = FunctionOracle(fn, fingerprint="probe")
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


@pytest.mark.parametrize("body", [
    b"this is not json", {"nochoices": True},
    {"choices": [{"text": None}]}, {"choices": [{"text": 7}]},
], ids=["not-json", "no-choices", "null-text", "number-text"])
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
    """HTTP/1.1 answers by ``server.answer(prompt)``, a 400 where it gives
    None; counts connections, and with ``server.drop`` closes each
    connection after one response without announcing it."""

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
        if answer is None:
            data = json.dumps({"error": "refused"}).encode()
            self.send_response(400)
        else:
            data = json.dumps({"choices": [{"text": answer}]}).encode()
            self.send_response(200)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)
        self.close_connection = self.server.drop

    def log_message(self, *_args):
        pass


@contextmanager
def keep_alive_endpoint(drop=False, answer=lambda prompt: prompt, tls=None):
    """A keep-alive endpoint, echoing by default, over TLS with the server
    context ``tls``; yields (url, server) with the prompts it saw and its
    opened/closed connection counts."""
    server = ThreadingHTTPServer(("127.0.0.1", 0), _KeepAliveHandler)
    if tls is not None:
        server.socket = tls.wrap_socket(server.socket, server_side=True)
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
        scheme = "http" if tls is None else "https"
        yield f"{scheme}://127.0.0.1:{server.server_port}/v1/completions", server
    finally:
        server.shutdown()
        server.server_close()


def wait_for(condition, seconds=5.0):
    deadline = time.monotonic() + seconds
    while not condition() and time.monotonic() < deadline:
        time.sleep(0.01)
    return condition()


def test_http_reuses_an_idle_connection():
    with keep_alive_endpoint() as (url, server):
        oracle = HttpOracle(url, model="m", retries=0)
        for i in range(5):
            assert oracle.complete(_query(prompt=f"p{i}")) == f"p{i}"
        assert server.opened == 1
        oracle.close()
        assert wait_for(lambda: server.closed == 1)


def test_http_shares_idle_connections_between_threads():
    """Callers on several threads at once, each sending rounds through a
    cache and single queries straight to the client, with thread switches
    forced often: every answer is its own echoed prompt, which two requests
    on one connection at once would mix up, and no more connections open
    than requests can be in flight (each caller's own, and the cache's
    IN_FLIGHT_LIMIT - 1 fetch threads)."""
    from rstkit.oracle import IN_FLIGHT_LIMIT

    callers = 4

    def ask(caller):
        queries = [_query(prompt=f"c{caller}-{i}") for i in range(3 * IN_FLIGHT_LIMIT)]
        answers = cache.answer_many(queries)
        answers += [oracle.complete(query) for query in queries[:5]]
        return answers == [q.prompt for q in queries + queries[:5]]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with keep_alive_endpoint() as (url, server):
            oracle = HttpOracle(url, model="m", retries=0, timeout=10.0)
            cache = CachedOracle(oracle, None)
            with ThreadPoolExecutor(callers) as pool:
                assert all(pool.map(ask, range(callers), timeout=60))
            cache.close()
            assert len(server.prompts) == callers * (3 * IN_FLIGHT_LIMIT + 5)
            assert server.opened <= IN_FLIGHT_LIMIT - 1 + callers
            assert wait_for(lambda: server.closed == server.opened)
    finally:
        sys.setswitchinterval(interval)


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


@contextmanager
def raw_endpoint(script):
    """A TCP endpoint that reads each request and answers it with the
    bytes of ``script[n]`` for the n-th request in all (later ones repeat
    the last entry), each ``(response, then)``: ``then`` is "keep" (read
    the next request on the connection), "close", or "reset" (after 50 ms,
    so the client has read the response so far). Yields (url, server),
    with its opened-connection and request counts."""
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(0.05)
    server = types.SimpleNamespace(opened=0, requests=0, lock=threading.Lock())
    stop = threading.Event()
    conns, threads = [], []

    def serve(conn):
        with conn, conn.makefile("rb") as stream:
            while True:
                head = [stream.readline()]
                while head[-1] not in (b"\r\n", b""):
                    head.append(stream.readline())
                if head[-1] == b"":
                    return
                length = next(int(line.split(b":")[1]) for line in head
                              if line.lower().startswith(b"content-length:"))
                stream.read(length)
                with server.lock:
                    response, then = script[min(server.requests, len(script) - 1)]
                    server.requests += 1
                conn.sendall(response)
                if then == "close":
                    return
                if then == "reset":
                    time.sleep(0.05)
                    conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                                    struct.pack("ii", 1, 0))
                    return

    def accept():
        while not stop.is_set():
            try:
                conn, _ = listener.accept()
            except TimeoutError:
                continue
            conn.settimeout(None)
            server.opened += 1
            conns.append(conn)
            threads.append(threading.Thread(target=serve, args=(conn,), daemon=True))
            threads[-1].start()

    acceptor = threading.Thread(target=accept, daemon=True)
    acceptor.start()
    try:
        yield f"http://127.0.0.1:{listener.getsockname()[1]}/v1/completions", server
    finally:
        stop.set()
        acceptor.join(5)
        listener.close()
        for conn in conns:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # closed by its thread
        for thread in threads:
            thread.join(5)
        assert not acceptor.is_alive() and not any(t.is_alive() for t in threads)


def _answer_body(text):
    return json.dumps({"choices": [{"text": text}]}).encode()


def _sized(text, status_line=b"HTTP/1.1 200 OK", fields=b""):
    body = _answer_body(text)
    return b"%s\r\n%sContent-Length: %d\r\n\r\n%s" % (status_line, fields, len(body), body)


_CHUNKED_HEAD = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"


def _chunked(text):
    body = _answer_body(text)
    half = len(body) // 2
    return _CHUNKED_HEAD + (
        b"%x;name=value\r\n%s\r\n%X\r\n%s\r\n0\r\nX-Checksum: none\r\n\r\n"
        % (half, body[:half], len(body) - half, body[half:])
    )


# id -> (script, retries, the answer to each query, or the OracleFailure it
# raises, requests, connections opened)
FRAMING_CASES = {
    "chunked-extension-trailer": (
        [(_chunked("a"), "keep"), (_chunked("b"), "keep")], 0, ["a", "b"], 2, 1,
    ),
    "close-framed": (
        [(b"HTTP/1.1 200 OK\r\n\r\n" + _answer_body("a"), "close"),
         (b"HTTP/1.1 200 OK\r\n\r\n" + _answer_body("b"), "close")],
        0, ["a", "b"], 2, 2,
    ),
    # a body longer than one read, padded with JSON whitespace
    "close-framed-over-several-reads": (
        [(b"HTTP/1.1 200 OK\r\n\r\n" + _answer_body("a") + b" " * 20000, "close")],
        0, ["a"], 1, 1,
    ),
    "head-too-long": (
        [(b"HTTP/1.1 200 OK\r\nX-Padding: " + b"x" * 70000, "close")],
        0, [OracleFailure("1 attempts: request failed: ResponseError('response "
                          "head too long')")], 1, 1,
    ),
    "chunk-size-line-too-long": (
        [(_CHUNKED_HEAD + b"1" * 70000, "close")],
        0, [OracleFailure("1 attempts: request failed: ResponseError('response "
                          "line too long')")], 1, 1,
    ),
    "chunk-size-not-hex": (
        [(_CHUNKED_HEAD + b"zz\r\nab\r\n0\r\n\r\n", "keep")],
        0, [OracleFailure("1 attempts: request failed: ResponseError(\"bad chunk "
                          "size line b'zz'\")")], 1, 1,
    ),
    "chunk-longer-than-its-size": (
        [(_CHUNKED_HEAD + b"2\r\nabc\r\n0\r\n\r\n", "keep")],
        0, [OracleFailure("1 attempts: request failed: ResponseError('chunk "
                          "longer than its size')")], 1, 1,
    ),
    # the endpoint would answer again on the same connection: the client
    # must not ask it to
    "http-1.0": (
        [(_sized("a", b"HTTP/1.0 200 OK"), "keep"),
         (_sized("b", b"HTTP/1.0 200 OK"), "keep")], 0, ["a", "b"], 2, 2,
    ),
    "connection-close": (
        [(_sized("a", fields=b"Connection: close\r\n"), "keep"),
         (_sized("b", fields=b"Connection: close\r\n"), "keep")],
        0, ["a", "b"], 2, 2,
    ),
    "body-cut-short": (
        [(b'HTTP/1.1 200 OK\r\nContent-Length: 500\r\n\r\n{"choices"', "close")],
        2, [OracleFailure("3 attempts: request failed: ResponseError('the "
                          "connection closed inside the response')")], 3, 3,
    ),
    "garbage-status-line": (
        [(b"HTTP/1.1 two hundred\r\nContent-Length: 0\r\n\r\n", "keep")],
        2, [OracleFailure("3 attempts: request failed: ResponseError(\"bad "
                          "status line 'HTTP/1.1 two hundred'\")")], 3, 3,
    ),
    # a reset before the first response byte on a reused connection is a
    # stale connection: reopened, and the request sent again for free
    "reset-before-the-response": (
        [(_sized("a"), "keep"), (b"", "reset"), (_sized("b"), "keep")],
        0, ["a", "b"], 3, 2,
    ),
    # on a new connection it is a failed attempt
    "reset-before-the-response-on-a-new-connection": (
        [(b"", "reset"), (_sized("b"), "keep")],
        0, [OracleFailure("1 attempts: request failed: ConnectionResetError"), "b"],
        2, 2,
    ),
    # after the status line it is a failed attempt
    "reset-after-the-status-line": (
        [(_sized("a"), "keep"), (b"HTTP/1.1 200 OK\r\n", "reset"),
         (_sized("b"), "keep")],
        0, ["a", OracleFailure("1 attempts: request failed: ConnectionResetError")],
        2, 1,
    ),
    # interim heads are skipped, and the final response keeps the
    # connection alive
    "interim-100-and-103": (
        [(b"HTTP/1.1 100 Continue\r\n\r\n"
          b"HTTP/1.1 103 Early Hints\r\nLink: </hint>; rel=preload\r\n\r\n"
          + _sized("a"), "keep"),
         (b"HTTP/1.1 100 Continue\r\n\r\n" + _sized("b"), "keep")],
        0, ["a", "b"], 2, 1,
    ),
    "switching-protocols": (
        [(b"HTTP/1.1 101 Switching Protocols\r\nUpgrade: h2c\r\n"
          b"Connection: Upgrade\r\n\r\n", "keep")],
        1, [OracleFailure("2 attempts: request failed: ResponseError('switching "
                          "protocols, though no request asks to')")], 2, 2,
    ),
    # a Retry-After that is not ASCII digits is not read, as an HTTP-date
    # is not: the retry waits the backoff
    "retry-after-superscript-two": (
        [(_sized("x", b"HTTP/1.1 503 Busy", b"Retry-After: \xb2\r\n"), "keep"),
         (_sized("a"), "keep")], 1, ["a"], 2, 1,
    ),
    # a wait longer than any the clock can make fails the query at once
    "retry-after-past-the-clock": (
        [(_sized("x", b"HTTP/1.1 503 Busy", b"Retry-After: 99999999999999999999\r\n"),
          "keep")],
        3, [OracleFailure("1 attempts: HTTP 503: {\"choices\": [{\"text\": \"x\"}]}; "
                          "cannot wait Retry-After '99999999999999999999' s")], 1, 1,
    ),
    "retry-after-too-long-for-int": (
        [(_sized("x", b"HTTP/1.1 503 Busy", b"Retry-After: %s\r\n" % (b"9" * LONG_DIGITS)),
          "keep")],
        3, [OracleFailure("; cannot wait Retry-After '%s' s" % ("9" * 80))], 1, 1,
    ),
    # a Content-Length too long for int() is a malformed response, retried
    "content-length-too-long-for-int": (
        [(b"HTTP/1.1 200 OK\r\nContent-Length: %s\r\n\r\n{}" % (b"9" * LONG_DIGITS),
          "keep")],
        1, [OracleFailure("2 attempts: request failed: ResponseError(\"bad "
                          "Content-Length '%s'\")" % ("9" * 80))], 2, 2,
    ),
}


@pytest.mark.parametrize("script, retries, outcomes, requests, opened",
                         FRAMING_CASES.values(), ids=FRAMING_CASES)
def test_http_response_framing(script, retries, outcomes, requests, opened):
    with raw_endpoint(script) as (url, server):
        oracle = HttpOracle(url, model="m", retries=retries, backoff=0.01,
                            timeout=10.0)
        try:
            for prompt, outcome in zip("ab", outcomes):
                if isinstance(outcome, OracleFailure):
                    with pytest.raises(OracleFailure) as failure:
                        oracle.complete(_query(prompt=prompt))
                    assert str(outcome) in str(failure.value)
                else:
                    assert oracle.complete(_query(prompt=prompt)) == outcome
        finally:
            oracle.close()
        assert (server.requests, server.opened) == (requests, opened)


@pytest.mark.parametrize("retry_after, slept", [
    (b"9000000000", []),
    (b"1", [1.0]),
], ids=["past-the-timeout", "one-second"])
def test_http_retry_after_is_bounded_by_the_timeout(monkeypatch, retry_after, slept):
    # a Retry-After longer than the client's timeout fails the query at
    # once, and is not slept; a shorter one is waited out
    waits = []
    monkeypatch.setattr(rstkit.oracle, "time", types.SimpleNamespace(sleep=waits.append))
    busy = _sized("x", b"HTTP/1.1 503 Busy", b"Retry-After: %s\r\n" % retry_after)
    with raw_endpoint([(busy, "keep"), (_sized("a"), "keep")]) as (url, server):
        oracle = HttpOracle(url, model="m", retries=1, backoff=30.0, timeout=60.0)
        try:
            if slept:
                assert oracle.complete(_query()) == "a"
            else:
                with pytest.raises(OracleFailure) as failure:
                    oracle.complete(_query())
                assert str(failure.value).endswith(
                    "1 attempts: HTTP 503: {\"choices\": [{\"text\": \"x\"}]}; "
                    "cannot wait Retry-After '9000000000' s"
                )
        finally:
            oracle.close()
    assert waits == slept
    assert server.requests == 1 + len(slept)


# ---------------------------------------------------------------------------
# The response reader against http.client

# Where _Reader and http.client part ways on purpose: name -> whether
# _Reader rejects such a response (else it reads the body the response
# means). Any other response must read the same in both.
KNOWN_DIVERGENCES = {
    # the last coding is chunked, so the body is chunked (RFC 9112 6.3);
    # http.client de-chunks only a coding of exactly "chunked"
    "gzip, chunked": False,
    # http.client reads a chunk size with int(size, 16), which takes 0x
    "0x chunk size": True,
    # http.client reads +5 as 5, and -1 or 0x5 as no length at all
    "+5, -1 or 0x5 length": True,
    # http.client's header parser ends the fields at a line with no colon,
    # and joins a folded line to the one before
    "colon-less header line": True,
    "obs-folded header line": True,
    # a 204 or 304 has no body (RFC 9110 6.4.1); http.client reads chunks
    "chunked 204 or 304": False,
    # every 1xx is interim (RFC 9110 15.2); http.client skips only a 100
    "interim 1xx other than 100": False,
}


class _Feed(io.RawIOBase):
    """A socket whose ``recv`` returns ``data`` in pieces of the given
    sizes, taken in turn, then EOF; ``makefile`` gives http.client the same
    pieces."""

    def __init__(self, data: bytes, sizes: list[int]):
        self.data, self.sizes, self.pos, self.calls = data, sizes, 0, 0

    def recv(self, limit: int) -> bytes:
        size = min(limit, self.sizes[self.calls % len(self.sizes)])
        self.calls += 1
        piece = self.data[self.pos:self.pos + size]
        self.pos += len(piece)
        return piece

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        piece = self.recv(len(buffer))
        buffer[:len(piece)] = piece
        return len(piece)

    def makefile(self, mode: str):
        return io.BufferedReader(self)


def _read_rstkit(data: bytes, sizes: list[int]):
    """(status, body, reusable, bytes received past the response), or the
    ResponseError _Reader raises."""
    feed = _Feed(data, sizes)
    reader = _Reader(feed, feed.recv(8192))
    try:
        status, body, _, reusable = reader.response()
    except ResponseError as exc:
        return exc.args
    return status, body, reusable, len(reader.data) - reader.pos


def _read_stdlib(data: bytes, sizes: list[int]):
    """(status, body) as http.client reads them, or None when it fails."""
    response = http.client.HTTPResponse(_Feed(data, sizes), method="POST")
    try:
        response.begin()
        return response.status, response.read()
    except http.client.HTTPException:
        return None


@st.composite
def _responses(draw):
    """(response bytes, the status and body it means or None when it
    means nothing readable, whether it lets the connection be reused, the
    known divergence it carries or None)."""
    quirk = draw(st.sampled_from([None] * 7 + list(KNOWN_DIVERGENCES)))

    def eol() -> bytes:
        return draw(st.sampled_from([b"\r\n", b"\n"]))

    interim = draw(st.lists(st.just(100), max_size=2))
    if quirk == "interim 1xx other than 100":
        interim.insert(draw(st.integers(0, len(interim))), draw(st.sampled_from([102, 103])))
    head = b"".join(b"HTTP/1.1 %d Interim" % code + eol() + eol() for code in interim)
    minor = draw(st.sampled_from([0, 1]))
    if quirk == "chunked 204 or 304":
        status = draw(st.sampled_from([204, 304]))
    elif quirk == "+5, -1 or 0x5 length":
        status = 200  # no 204 or 304 reads its length
    else:
        status = draw(st.sampled_from([200, 201, 204, 304, 404, 429, 503, 799])
                      | st.integers(0, 99))
    reason = draw(st.sampled_from([b" OK", b"", b" ", b"  Two words"]))
    head += b"HTTP/1.%d %03d%s" % (minor, status, reason) + eol()

    framing = draw(st.sampled_from(["length", "chunked", "close"]))
    if quirk in ("gzip, chunked", "0x chunk size", "chunked 204 or 304"):
        framing = "chunked"
    elif quirk == "+5, -1 or 0x5 length":
        framing = "length"
    bodiless = status in (204, 304)
    if bodiless and framing == "chunked":
        quirk = "chunked 204 or 304"
    body = draw(st.binary(max_size=40))
    fields = draw(st.lists(st.sampled_from([
        b"Content-Type: application/json", b"Server:rstkit-test", b"X-Empty:",
        b"Retry-After: 5", b"X-Colon: a:b", b"X-Latin: caf\xe9 \xb2",
    ]), max_size=4))
    connection = draw(st.sampled_from([None, b"close", b"keep-alive", b"Close"]))
    if connection is not None:
        fields.append(b"Connection: " + connection)
    if framing == "length":
        length = b"%d" % len(body)
        if quirk == "+5, -1 or 0x5 length":
            length = draw(st.sampled_from([b"+" + length, b"-1", b"0x%x" % len(body)]))
        fields.append(b"Content-Length:" + draw(st.sampled_from([b" ", b"", b"  "])) + length)
        payload = body
    elif framing == "chunked":
        coding = b"gzip, chunked" if quirk == "gzip, chunked" else draw(
            st.sampled_from([b"chunked", b"Chunked"]))
        fields.append(b"Transfer-Encoding: " + coding)
        if draw(st.booleans()):  # chunked framing wins over a length
            fields.append(b"Content-Length: %d" % (len(body) + 3))
        payload, rest = b"", body
        while True:
            size = min(draw(st.integers(1, 16)), len(rest))
            spelled = draw(st.sampled_from([b"%x", b"%X", b"00%x"])) % size
            if quirk == "0x chunk size" and not payload:
                spelled = b"0x" + spelled
            extension = draw(st.sampled_from([b"", b";name=value", b" ; a"]))
            payload += spelled + extension + eol()
            if not size:
                break
            payload += rest[:size] + b"\r\n"
            rest = rest[size:]
        payload += b"".join(
            b"X-Trailer: %d" % i + eol() for i in range(draw(st.integers(0, 2)))
        ) + eol()
    else:
        payload = body
    fields = draw(st.permutations(fields))
    if quirk == "colon-less header line":
        fields.insert(draw(st.integers(0, len(fields))), b"no colon here")
    elif quirk == "obs-folded header line":
        fields.insert(draw(st.integers(0, len(fields))), b"X-Folded: first")
        fields.insert(fields.index(b"X-Folded: first") + 1, b"\t folded on")
    head += b"".join(field + eol() for field in fields) + eol()

    if status < 100:
        meant = None
    else:
        meant = (status, b"" if bodiless else body)
    keep_alive = (
        minor == 1 and b"close" not in (connection or b"").lower()
        and (bodiless or framing != "close")
    )
    # bytes past a framed response: the start of another one, or junk
    extra = draw(st.binary(max_size=6)) if framing != "close" else b""
    return head + payload + extra, meant, keep_alive, quirk


@given(_responses(), st.lists(st.integers(1, 64), min_size=1, max_size=8))
def test_http_reader_matches_http_client(response, sizes):
    data, meant, keep_alive, quirk = response
    # in random pieces, in one recv of the whole response, in 1-byte recvs
    reads = [_read_rstkit(data, pieces) for pieces in (sizes, [len(data)], [1])]
    if meant is None or quirk is not None and KNOWN_DIVERGENCES[quirk]:
        # the same ResponseError message each way
        assert len(reads[0]) == 1 and reads[0] == reads[1] == reads[2], reads
    else:
        for status, body, reusable, past in reads:
            assert (status, body) == meant
            # reusable only when the response ends where the bytes received do
            assert reusable == (keep_alive and not past)
        # 1-byte recvs never take a byte past the response
        assert reads[2][3] == 0
    if quirk is None:
        assert _read_stdlib(data, sizes) == meant


def _self_signed(where, name, subject_alt_name):
    """(certificate, key) files of a throwaway self-signed certificate."""
    cert, key = where / f"{name}.pem", where / f"{name}.key"
    subprocess.run(
        ["openssl", "req", "-x509", "-newkey", "ec", "-pkeyopt",
         "ec_paramgen_curve:prime256v1", "-nodes", "-days", "1",
         "-subj", "/CN=rstkit test", "-addext", f"subjectAltName={subject_alt_name}",
         "-keyout", str(key), "-out", str(cert)],
        check=True, capture_output=True, timeout=60,
    )
    return cert, key


@pytest.mark.skipif(shutil.which("openssl") is None, reason="needs the openssl CLI")
def test_http_over_tls(tmp_path, monkeypatch):
    """An https endpoint is verified against the default trust store, here
    through SSL_CERT_FILE, and its one connection is kept alive; a
    certificate for another name fails."""
    for name, alt_name in (("ours", "IP:127.0.0.1"), ("theirs", "DNS:other.example")):
        cert, key = _self_signed(tmp_path, name, alt_name)
        monkeypatch.setenv("SSL_CERT_FILE", str(cert))
        context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
        context.load_cert_chain(cert, key)
        with keep_alive_endpoint(tls=context) as (url, server):
            oracle = HttpOracle(url, model="m", retries=0, timeout=10.0)
            try:
                if name == "ours":
                    answers = [oracle.complete(_query(prompt=f"p{i}")) for i in range(3)]
                    assert answers == ["p0", "p1", "p2"]
                    assert server.opened == 1
                else:
                    with pytest.raises(OracleFailure, match="CERTIFICATE_VERIFY_FAILED"):
                        oracle.complete(_query())
                    assert server.prompts == []
            finally:
                oracle.close()


def test_http_connection_refused_is_oracle_failure():
    # 127.0.0.1:9 is the discard port; nothing listens there
    oracle = HttpOracle("http://127.0.0.1:9/v1/completions", model="m",
                        retries=0, timeout=2.0)
    with pytest.raises(OracleFailure, match="1 attempts"):
        oracle.complete(_query())


def test_http_negative_retries_rejected():
    with pytest.raises(ValueError):
        HttpOracle("http://x", model="m", retries=-1)


@pytest.mark.parametrize("endpoint, token, message", [
    ("http://x/v1/a b", None, "its path holds a space or a control character"),
    ("http://x/v1/a\x01b", None, "its path holds a space or a control character"),
    ("http://x/v1", "abc\r\nX-Injected: 1", "the API token holds a control character"),
], ids=["path-space", "path-control", "token"])
def test_http_request_head_that_cannot_be_sent_is_refused(endpoint, token, message):
    with pytest.raises(ValueError, match=message) as refused:
        HttpOracle(endpoint, model="m", api_token=token)
    assert "X-Injected" not in str(refused.value)


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

    return FunctionOracle(fn, fingerprint=fingerprint), calls


def _counts(cache) -> dict[str, int]:
    """The hits and misses a cache reports."""
    report = cache.report()
    return {"hits": report["hits"], "misses": report["misses"]}


def test_cache_miss_then_hit(tmp_path):
    inner, calls = _counting_inner()
    cache = CachedOracle(inner, tmp_path)
    q = _query(prompt="stable prompt")
    assert cache.complete(q) == "reduce"
    assert cache.complete(q) == "reduce"
    assert calls["n"] == 1
    assert _counts(cache) == {"hits": 1, "misses": 1}
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
    assert _counts(cache2) == {"hits": 1, "misses": 0}


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
    assert _counts(first) == {"hits": 1, "misses": 1}
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
    cache = CachedOracle(inner, tmp_path)
    assert cache.answer_many([_query(prompt="p"), _query(prompt="q")]) == [
        "shift", "shift"
    ]
    assert calls["n"] == 0
    assert cache.report()["conflicts"] == 1


def test_store_reads_only_segments(tmp_path):
    """Only ``*.jsonl`` segments are read: a stale run manifest, a config
    file and a ``<key>.json`` record, as versions before segments wrote
    one per answer, are left alone and answer nothing."""
    inner, calls = _counting_inner(answer="fetched")
    queries = [_query(prompt=f"p{i}") for i in range(2)]
    (tmp_path / "0.jsonl").write_bytes(b"".join(_segment(
        ("action", "inner-v1", "p0", "stored"),
    )))
    others = {
        "run_manifest.json": json.dumps({"status": "ok", "documents": []}),
        "config.json": "{not json at all",
        f"{CachedOracle(inner, None)._key(queries[1])}.json": json.dumps({
            "kind": "action", "fingerprint": "inner-v1", "prompt": "p1",
            "raw": "per-key",
        }),
    }
    for name, text in others.items():
        (tmp_path / name).write_text(text)
    cache = CachedOracle(inner, tmp_path)
    assert cache.answer_many(queries) == ["stored", "fetched"]
    assert calls["n"] == 1
    assert cache.report()["conflicts"] == 0
    for name, text in others.items():
        assert (tmp_path / name).read_text() == text


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

    cache = CachedOracle(FunctionOracle(answer), tmp_path)
    assert cache.complete(_query(prompt="cold")) == "x"
    assert threads == [threading.current_thread()]
    assert _counts(cache) == {"hits": 0, "misses": 1}
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
    stats = _counts(cache)
    assert stats["misses"] == 1
    assert stats["hits"] == 7


def test_cache_answer_many_fetches_each_key_once(tmp_path):
    # prompt -> the thread that asked it
    asked = {}
    lock = threading.Lock()

    def answer(query):
        with lock:
            assert query.prompt not in asked
            asked[query.prompt] = threading.current_thread()
        return query.prompt

    cache = CachedOracle(FunctionOracle(answer, fingerprint="rounds"), tmp_path)
    queries = [_query(prompt=f"p{i % 5}") for i in range(10)]
    assert cache.answer_many(queries) == [q.prompt for q in queries]
    # each miss of a round is asked once: the first on this thread, the
    # others on the cache's fetch threads
    assert sorted(asked) == ["p0", "p1", "p2", "p3", "p4"]
    assert asked.pop("p0") is threading.current_thread()
    assert all(t.name.startswith("rstkit-oracle") for t in asked.values())
    assert _counts(cache) == {"hits": 5, "misses": 5}
    assert cache.answer_many(queries[:5]) == [q.prompt for q in queries[:5]]
    assert cache.report()["by_kind"] == {"action": {"hits": 10, "misses": 5}}
    # one write per fetch, in query order
    assert [r["prompt"] for r in _records(tmp_path)] == ["p0", "p1", "p2", "p3", "p4"]
    assert cache.answer_many([]) == []
    assert len(asked) == 4
    cache.close()


def test_cache_without_store_keeps_answers_for_the_run():
    inner, calls = _counting_inner(answer="x")
    cache = CachedOracle(inner, None)
    assert cache.answer_many([_query(prompt="a"), _query(prompt="b")]) == ["x", "x"]
    assert cache.complete(_query(prompt="a")) == "x"
    assert cache.complete(_query(prompt="b")) == "x"
    cache.close()
    assert calls["n"] == 2
    assert _counts(cache) == {"hits": 2, "misses": 2}


def test_cache_inner_failure_reaches_the_caller(tmp_path):
    fail = {"now": True}

    def answer(_query):
        if fail["now"]:
            raise OracleFailure("down")
        return "up"

    cache = CachedOracle(FunctionOracle(answer), tmp_path)
    with pytest.raises(OracleFailure, match="down"):
        cache.answer_many([_query(prompt="a"), _query(prompt="b")])
    assert list(tmp_path.iterdir()) == []
    assert _counts(cache) == {"hits": 0, "misses": 0}
    # a failure is not kept: the next round asks again
    fail["now"] = False
    assert cache.complete(_query(prompt="a")) == "up"
    cache.close()
    assert [r["prompt"] for r in _records(tmp_path)] == ["a"]


def test_cache_round_runs_at_most_the_in_flight_limit():
    from rstkit.oracle import IN_FLIGHT_LIMIT

    lock = threading.Lock()
    running = {"now": 0, "max": 0}

    class SlowOracle(HttpOracle):
        # the cache asks each miss through complete, so a subclass that
        # overrides complete alone answers every query itself
        def complete(self, query):
            with lock:
                running["now"] += 1
                running["max"] = max(running["max"], running["now"])
            time.sleep(0.01)
            with lock:
                running["now"] -= 1
            return query.prompt

    cache = CachedOracle(SlowOracle("http://127.0.0.1:9/v1/completions", model="m"),
                         None)
    queries = [_query(prompt=f"p{i}") for i in range(3 * IN_FLIGHT_LIMIT)]
    assert cache.answer_many(queries) == [q.prompt for q in queries]
    assert cache.answer_many(queries[:1]) == ["p0"]
    assert cache.answer_many([_query(prompt="one more")]) == ["one more"]
    cache.close()
    assert 1 < running["max"] <= IN_FLIGHT_LIMIT
    assert not any(t.name.startswith("rstkit-oracle") for t in threading.enumerate())


def test_cache_round_raises_the_first_failure_after_every_request(tmp_path):
    finished = []

    class Flaky(HttpOracle):
        def complete(self, query):
            # the later a query, the sooner it ends: query 3 fails first
            time.sleep(0.02 * (5 - int(query.prompt)))
            finished.append(query.prompt)
            if query.prompt in ("1", "3"):
                raise OracleFailure(f"query {query.prompt}")
            return query.prompt

    cache = CachedOracle(Flaky("http://127.0.0.1:9/v1/completions", model="m"),
                         tmp_path)
    with pytest.raises(OracleFailure, match="query 1"):
        cache.answer_many([_query(prompt=str(i)) for i in range(5)])
    assert sorted(finished) == ["0", "1", "2", "3", "4"]
    # the answers that arrived
    assert [r["prompt"] for r in _records(tmp_path)] == ["0", "2", "4"]
    cache.close()


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
    assert _counts(again) == {"hits": 3, "misses": 2}

    # any inner oracle is asked concurrently; the answers that arrived
    # around a failure, before and after it, are kept
    def answer(query):
        if query.prompt == "c":
            raise OracleFailure("down")
        return query.prompt

    cache = CachedOracle(FunctionOracle(answer, fingerprint="plain"), tmp_path / "plain")
    with pytest.raises(OracleFailure, match="down"):
        cache.answer_many([_query(prompt=p) for p in "abcd"])
    cache.close()
    assert [r["prompt"] for r in _records(tmp_path / "plain")] == ["a", "b", "d"]


def test_cache_keeps_what_arrived_before_an_interrupted_wait(tmp_path, monkeypatch):
    import rstkit.oracle

    real_wait = rstkit.oracle.wait

    def interrupted(futures):
        # Ctrl-C once the first two requests are answered: the first was
        # asked on this thread, the second is the first on the pool
        real_wait(list(futures)[:1])
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
