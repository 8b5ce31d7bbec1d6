"""Decision oracles: where completions come from.

The engines only ever see the Oracle protocol, so a parse can be driven by
a gold tree, a scripted list, or a live completion endpoint without the
state machines knowing the difference.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import logging
import os
import queue
import re
import socket
import ssl
import threading
import time
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Protocol, Sequence
from urllib.parse import urlsplit

from .core import MAX_DIGITS, RstTree, internal_nodes, json_string, slot_setters
from .prompts import (
    ACTION,
    NUCLEARITY,
    PROMPT_KINDS,
    REDUCE,
    SHIFT,
    SPLIT,
    PromptKind,
)

logger = logging.getLogger(__name__)

TOKEN_ENV_VAR = "RSTKIT_API_TOKEN"

# Most requests one round of CachedOracle misses sends at once: the first on
# the calling thread, the rest on the cache's own threads.
IN_FLIGHT_LIMIT = 16

# Endpoint URL scheme -> the port it defaults to.
_DEFAULT_PORTS = {"http": 80, "https": 443}

# What a kept-alive connection raises when the server has closed it.
_STALE_CONNECTION = (BrokenPipeError, ConnectionResetError, ConnectionAbortedError)

# Most bytes one recv asks for: a completions response fits many times
# over, and each fetch thread's buffer stays as small as http.client's.
_RECV_SIZE = 8192

# Most bytes of a response head, or of a chunk line, before giving up on it.
_MAX_HEAD = 65536

# The blank line that ends a response head; a bare LF ends a line too.
_HEAD_END = re.compile(rb"\r?\n\r?\n")

# HTTP/1.<minor> <status> [reason]; a status starts with its class, 1 to 9
_STATUS_LINE = re.compile(r"HTTP/1\.([01]) +([1-9][0-9]{2})(?: .*)?")

# A chunk's size, in hex digits.
_CHUNK_SIZE = re.compile(rb"[0-9A-Fa-f]+")

# A Content-Length, or a Retry-After in seconds.
_DIGITS = re.compile(r"[0-9]+")

# What no request target or header value may hold.
_CONTROL = re.compile(r"[\x00-\x1f\x7f]")

# HttpOracle decodes greedily; payloads and fingerprints carry this value.
_TEMPERATURE = 0.0


class OracleFailure(RuntimeError):
    """Transport-level failure after retries are exhausted."""


class ReplayExhausted(RuntimeError):
    """A scripted oracle ran out of answers."""


class KindMismatch(RuntimeError):
    """A replay left its gold tree: the engine asked for the split or labels
    of a span the tree has no node over, or corrected a gold answer (see
    ``training.gold_walk``)."""


class StoreCorrupt(RuntimeError):
    """A cache record exists but cannot be decoded."""


@dataclass(frozen=True, slots=True)
class OracleQuery:
    """One decision put to an oracle.

    ``valid_labels`` is the closed answer set, in canonical form and prompt
    order; oracles may use it, but the engine does the resolution and
    correction itself. ``span`` is the EDU span the decision is about: the
    node a reduce would build (None with fewer than two items stacked), the
    span a split divides, or the node being labeled. It takes no part in
    equality or hashing. ``__init__`` checks the kind and the label set and
    stores each field through its slot, as ``core.Edu`` does.
    """

    kind: PromptKind
    prompt: str
    valid_labels: tuple[str, ...]
    span: tuple[int, int] | None = field(default=None, compare=False)

    def __init__(
        self,
        kind: PromptKind,
        prompt: str,
        valid_labels: tuple[str, ...],
        span: tuple[int, int] | None = None,
    ) -> None:
        if kind not in PROMPT_KINDS:
            raise ValueError(f"unknown prompt kind {kind!r}")
        if not valid_labels:
            raise ValueError("query needs a non-empty label set")
        _set_query_kind(self, kind)
        _set_query_prompt(self, prompt)
        _set_query_valid_labels(self, valid_labels)
        _set_query_span(self, span)


_set_query_kind, _set_query_prompt, _set_query_valid_labels, _set_query_span = (
    slot_setters(OracleQuery, "kind", "prompt", "valid_labels", "span")
)


class Oracle(Protocol):
    """Answer source for decision queries.

    ``fingerprint`` identifies the model and decoding configuration well
    enough to key a cache; it must change whenever answers could. Caches
    key on the prompt, so a model-backed oracle must answer from the prompt
    alone, never from ``query.span``, which only a gold replay reads. An
    oracle whose answers depend only on the query may also offer
    ``answer_many(queries)``, which returns their answers in order; the
    engines then hand it every query that is ready at once (see
    ``engine.run_decisions``). One without it sees the serial order, one
    query at a time.
    """

    fingerprint: str

    def complete(self, query: OracleQuery) -> str: ...


class ReplayOracle:
    """Answers each query from a gold tree, by the span it is about.

    An action is a reduce when the gold tree has a node over the span the
    reduce would build, else a shift; a split or label query gets the
    answer of the gold node over its span. Gold constituents nest and never
    cross, so these answers drive either engine along the derivation that
    rebuilds the tree, whatever order the questions come in. A split or
    label query over a span the tree lacks, as when the tree is not the
    parsed document's, raises KindMismatch.
    """

    fingerprint = "replay"

    def __init__(self, tree: RstTree):
        self._nodes = {node.span: node for node in internal_nodes(tree)}

    def complete(self, query: OracleQuery) -> str:
        if query.kind == ACTION:
            return REDUCE if query.span in self._nodes else SHIFT
        node = self._nodes.get(query.span)
        if node is None:
            raise KindMismatch(
                f"the gold tree has no node over {query.span} "
                f"to answer a {query.kind} query"
            )
        if query.kind == SPLIT:
            return str(node.left.span[1] - node.span[0])
        if query.kind == NUCLEARITY:
            return node.nuclearity
        return node.relation


class ScriptedOracle:
    """Returns raw strings in order, ignoring what is asked.

    Useful for stress tests and for driving parses from a plain answers
    file. With ``cycle`` the sequence repeats forever.
    """

    fingerprint = "scripted"

    def __init__(self, answers: Iterable[str], cycle: bool = False):
        self._answers = itertools.cycle(answers) if cycle else iter(answers)
        self._lock = threading.Lock()

    def complete(self, query: OracleQuery) -> str:
        with self._lock:
            answer = next(self._answers, None)
        if answer is None:
            raise ReplayExhausted(f"no answer left for {query.kind} query")
        return answer


class ResponseError(Exception):
    """A response that does not read as HTTP/1.x, or that stops short of
    the end its framing gives."""


class HttpOracle:
    """Client for a text-completion endpoint.

    Speaks the common completions wire shape: POST JSON with model, prompt,
    max_tokens, temperature, and stop; the answer text comes back under
    choices[0].text. Decoding is greedy (temperature 0) and stops at the
    first newline, since every valid answer is a single line.

    The client speaks HTTP/1.1 itself, as ``_post`` describes: one write
    per request, the response read from one buffer, its body framed by
    ``Content-Length``, by chunked coding or by the server closing the
    connection. An ``https`` endpoint is reached over TLS, verified against
    the default trust store (which honours ``SSL_CERT_FILE``).

    ``complete`` blocks until its answer is in, and many threads may call
    it at once. A request takes a kept-alive connection from one idle pool,
    or opens one, and puts it back when it ends: no more are opened than
    requests were ever in flight at once. ``close`` closes the idle
    connections. Transport errors, malformed responses, 429 and 5xx
    are retried with exponential backoff, or after a ``Retry-After`` in
    seconds; a Retry-After longer than ``timeout`` (or than any wait can
    be, ``threading.TIMEOUT_MAX``) fails the query at once, unslept, and
    one that is not ASCII digits, such as an HTTP-date, is not read. Any
    other status, or a 200 whose body has no string answer, fails at once.
    Proxy environment variables are not read.
    """

    def __init__(
        self,
        endpoint: str,
        model: str,
        max_tokens: int = 16,
        timeout: float = 60.0,
        retries: int = 3,
        backoff: float = 1.0,
        api_token: str | None = None,
    ):
        if retries < 0:
            raise ValueError("retries must be >= 0")
        url = urlsplit(endpoint)
        if "@" in url.netloc:  # not echoed: it may hold a password
            raise ValueError(
                f"endpoint must not hold a user or password; use {TOKEN_ENV_VAR}"
            )
        if url.scheme not in _DEFAULT_PORTS:
            raise ValueError(
                f"endpoint must be an http:// or https:// URL, not {endpoint!r}"
            )
        try:
            if not url.hostname:
                raise ValueError("no host")
            # raises when the port is not a number in 0-65535
            port = url.port if url.port is not None else _DEFAULT_PORTS[url.scheme]
            target = (url.path or "/") + (f"?{url.query}" if url.query else "")
            if " " in target or _CONTROL.search(target):
                raise ValueError("its path holds a space or a control character")
            head = (
                f"POST {target} HTTP/1.1\r\n".encode("ascii")
                + b"Host: " + url.netloc.encode("idna") + b"\r\n"
            )
        except ValueError as exc:
            raise ValueError(f"endpoint {endpoint!r} is unusable: {exc}") from None
        self.endpoint = endpoint
        self.model = model
        self.max_tokens = max_tokens
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.api_token = api_token or os.environ.get(TOKEN_ENV_VAR)
        self.fingerprint = (
            f"{model}|temperature={_TEMPERATURE}|max_tokens={max_tokens}|stop=nl"
        )
        head += b"Content-Type: application/json\r\nAccept-Encoding: identity\r\n"
        if self.api_token:
            if _CONTROL.search(self.api_token):
                raise ValueError("the API token holds a control character")
            head += f"Authorization: Bearer {self.api_token}\r\n".encode("latin-1")
        # every request: this, its body's length, a blank line and the body
        self._head = head + b"Content-Length: "
        self._address = (url.hostname, port)
        self._tls = None
        if url.scheme == "https":
            self._tls = ssl.create_default_context()
            self._tls.set_alpn_protocols(["http/1.1"])
        self._idle: queue.SimpleQueue[socket.socket] = queue.SimpleQueue()

    def _connect(self) -> socket.socket:
        """A new connection to the endpoint: no Nagle delay, TLS for https."""
        sock = socket.create_connection(self._address, self.timeout)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if self._tls is not None:
                sock = self._tls.wrap_socket(sock, server_hostname=self._address[0])
        except BaseException:
            sock.close()
            raise
        return sock

    def _post(self, body: bytes) -> tuple[int, bytes, str | None]:
        """(status, body, Retry-After) of one POST of ``body``, sent with
        one write on an idle connection or a new one.

        The connection goes back to the idle pool after, unless the request
        failed or the response ends the connection: an HTTP/1.0 response,
        ``Connection: close``, a body that only the server closing the
        connection ends, or bytes past the response. A kept-alive
        connection that the server has closed fails on send, or gives EOF
        or a reset before the first response byte; it is opened again and
        the request sent once more. Any later failure raises: OSError from
        the socket, or ResponseError.
        """
        request = b"%s%d\r\n\r\n%s" % (self._head, len(body), body)
        try:
            sock = self._idle.get_nowait()
        except queue.Empty:
            pass
        else:
            response = self._exchange(sock, request, reused=True)
            if response is not None:
                return response
        return self._exchange(self._connect(), request, reused=False)

    def _exchange(
        self, sock: socket.socket, request: bytes, reused: bool
    ) -> tuple[int, bytes, str | None] | None:
        """``request`` and its response on ``sock``, which is then put back
        in the idle pool or closed; None when ``reused`` and the server had
        closed the connection before it answered."""
        reusable = False
        try:
            try:
                sock.sendall(request)
                first = sock.recv(_RECV_SIZE)
                if not first:
                    raise ConnectionResetError(
                        "the server closed the connection without a response"
                    )
            except _STALE_CONNECTION:
                if reused:
                    return None
                raise
            status, data, retry_after, reusable = _Reader(sock, first).response()
            return status, data, retry_after
        finally:
            if reusable:
                self._idle.put(sock)
            else:
                sock.close()

    def complete(self, query: OracleQuery) -> str:
        payload = {
            "model": self.model,
            "prompt": query.prompt,
            "max_tokens": self.max_tokens,
            "temperature": _TEMPERATURE,
            "stop": ["\n"],
        }
        body = json.dumps(payload).encode("utf-8")
        last_error = "no attempt made"
        attempts = 0
        delay = self.backoff
        while attempts <= self.retries:
            if attempts:
                logger.info("retrying %s query in %.2fs", query.kind, delay)
                time.sleep(delay)
                delay = self.backoff * (2 ** attempts)
            attempts += 1
            try:
                status, data, retry_after = self._post(body)
            except (OSError, ResponseError) as exc:
                last_error = f"request failed: {exc!r}"
                continue
            if status == 200:
                try:
                    answer = json.loads(data)["choices"][0]["text"]
                    if not isinstance(answer, str):
                        raise TypeError(f"choices[0].text is {answer!r}, not a string")
                    return answer
                except (ValueError, LookupError, TypeError) as exc:
                    last_error = f"malformed response body: {exc}"
                    break
            last_error = f"HTTP {status}: {data[:200].decode('utf-8', 'replace')}"
            if status != 429 and status < 500:
                break  # cannot succeed on retry
            if retry_after is not None and _DIGITS.fullmatch(retry_after):
                # float() reads any number of digits; too many read as inf
                delay = float(retry_after)
                if delay > min(self.timeout, threading.TIMEOUT_MAX):
                    last_error += f"; cannot wait Retry-After {retry_after[:80]!r} s"
                    break
        raise OracleFailure(
            f"{query.kind} query failed after {attempts} attempts: {last_error}"
        )

    def close(self) -> None:
        """Close every idle connection."""
        while not self._idle.empty():
            self._idle.get().close()


class _Reader:
    """One HTTP/1.x response as it arrives on a socket: the bytes received
    so far, in one buffer, and how far they have been read."""

    def __init__(self, sock: socket.socket, data: bytes):
        self.sock = sock
        self.data = bytearray(data)
        self.pos = 0

    def _receive(self) -> None:
        more = self.sock.recv(_RECV_SIZE)
        if not more:
            raise ResponseError("the connection closed inside the response")
        self.data += more

    def response(self) -> tuple[int, bytes, str | None, bool]:
        """(status, body, Retry-After, whether the connection can carry
        another request) of the response: its head read up to the blank
        line that ends it, then its body as the head frames it. Interim
        1xx heads before it, such as ``100 Continue``, are skipped, and
        count towards the head's size limit; a ``101`` answers no request
        this client sends."""
        while True:
            while (end := _HEAD_END.search(self.data, self.pos)) is None:
                if len(self.data) > _MAX_HEAD:
                    raise ResponseError("response head too long")
                self._receive()
            head = self.data[self.pos:end.start()].decode("latin-1")
            status_line, *lines = head.split("\n")
            status_line = status_line.rstrip("\r")
            self.pos = end.end()
            match = _STATUS_LINE.fullmatch(status_line)
            if match is None:
                raise ResponseError(f"bad status line {status_line[:80]!r}")
            status = int(match[2])
            if status == 101:
                raise ResponseError("switching protocols, though no request asks to")
            if not 100 <= status < 200:
                break
            # an interim response, such as 100 Continue: the final one follows
        fields: dict[str, str] = {}
        for line in lines:
            name, colon, value = line.partition(":")
            if not colon:
                raise ResponseError(f"bad header line {line[:80]!r}")
            fields.setdefault(name.strip().lower(), value.strip())
        # HTTP/1.1 keeps a connection open unless the response says otherwise
        connection = fields.get("connection", "").lower()
        reusable = match[1] == "1" and "close" not in connection
        coding = fields.get("transfer-encoding")
        length = fields.get("content-length")
        if status in (204, 304):
            body = b""
        elif coding is not None and coding.lower().endswith("chunked"):
            body = self.chunked()
        elif coding is None and length is not None:
            if not _DIGITS.fullmatch(length) or len(length) > MAX_DIGITS:
                raise ResponseError(f"bad Content-Length {length[:80]!r}")
            body = self.take(int(length))
        else:
            # framed by the server closing the connection
            body, reusable = self.rest(), False
        # bytes past the response mean the server does not frame as it says
        reusable = reusable and self.pos == len(self.data)
        return status, body, fields.get("retry-after"), reusable

    def line(self) -> bytes:
        """The next line, without its line end."""
        while (end := self.data.find(b"\n", self.pos)) < 0:
            if len(self.data) - self.pos > _MAX_HEAD:
                raise ResponseError("response line too long")
            self._receive()
        line = bytes(self.data[self.pos:end]).rstrip(b"\r")
        self.pos = end + 1
        return line

    def take(self, size: int) -> bytes:
        """The next ``size`` bytes."""
        while len(self.data) - self.pos < size:
            self._receive()
        taken = bytes(self.data[self.pos:self.pos + size])
        self.pos += size
        return taken

    def chunked(self) -> bytes:
        """A chunked body, without chunk extensions or trailer fields."""
        body = bytearray()
        while True:
            line = self.line()
            size = line.partition(b";")[0].strip()
            if not _CHUNK_SIZE.fullmatch(size):
                raise ResponseError(f"bad chunk size line {line[:80]!r}")
            if not int(size, 16):
                break
            body += self.take(int(size, 16))
            if self.line():
                raise ResponseError("chunk longer than its size")
        while self.line():  # trailer fields, up to a blank line
            pass
        return bytes(body)

    def rest(self) -> bytes:
        """Everything up to the server closing the connection."""
        while more := self.sock.recv(_RECV_SIZE):
            self.data += more
        rest = bytes(self.data[self.pos:])
        self.pos = len(self.data)
        return rest


class CachedOracle:
    """Read-through cache in front of another oracle.

    Answers are kept in one table for the life of the instance, keyed by a
    hash of the question and the inner oracle's fingerprint, so changing
    the model or decoding setup never serves stale answers. ``complete``
    answers one query from the table, asking the inner oracle first on a
    miss. ``answer_many`` answers each query with ``complete``, the first of
    which fetches the misses of the whole round, each distinct query once.
    A fetch asks the inner oracle's ``complete``: the first miss on the
    calling thread, the others at once on the instance's own
    IN_FLIGHT_LIMIT - 1 threads, which start when first needed. The inner
    oracle is called outside the lock, so threads that share an instance
    fetch different queries at once; a thread that needs an answer another
    thread is fetching waits for it, so no query is fetched twice at once.
    A fetch waits for every request it sent, keeps the answers that did
    arrive, also when a request fails or the wait is cut short, and then
    raises the first failure in query order. ``close`` stops the threads
    and closes the inner oracle.

    With a ``store_dir`` the table is also kept on disk, as append-only
    segment files (``*.jsonl``) of one JSON record per line. Every segment
    is read once, when the instance is made; any other file in the
    directory is ignored. An instance appends what it fetches to its own
    segment, opened only for the write; another instance sees it once it is
    made again. Where two records of one key disagree, the first segment in
    name order wins. A segment whose writer was killed may end in a torn
    line, which is skipped; any other line that cannot be read raises
    StoreCorrupt.
    """

    def __init__(self, inner: Oracle, store_dir: str | Path | None):
        self.inner = inner
        self.store_dir = None if store_dir is None else Path(store_dir)
        # kind -> [hits, misses]
        self.by_kind: dict[str, list[int]] = {}
        self.torn_lines_skipped = 0
        self.conflicts = 0
        # guards everything below
        self._lock = threading.Lock()
        # notified when a fetch ends
        self._fetched = threading.Condition(self._lock)
        # key -> answer
        self._table: dict[str, str] = {}
        # keys some thread is fetching
        self._fetching: set[str] = set()
        # keys fetched and not yet answered: the first answer is the miss
        self._fresh: set[str] = set()
        # asks a fetch's misses after the first
        self._pool = ThreadPoolExecutor(
            IN_FLIGHT_LIMIT - 1, thread_name_prefix="rstkit-oracle"
        )
        if self.store_dir is not None:
            self.store_dir.mkdir(parents=True, exist_ok=True)
            # named by start time first, so name order is age order
            self._segment = self.store_dir / (
                f"{time.time_ns():020d}-{os.getpid()}-{id(self):x}.jsonl"
            )
            self._read_store()

    @property
    def fingerprint(self) -> str:
        return self.inner.fingerprint

    def _key(self, query: OracleQuery) -> str:
        return _record_key(query.kind, self.inner.fingerprint, query.prompt)

    def _read_store(self) -> None:
        for path in sorted(self.store_dir.glob("*.jsonl")):
            *lines, tail = path.read_bytes().split(b"\n")
            if tail:
                # a write cut short: no line of a complete record ends here
                self.torn_lines_skipped += 1
            for number, line in enumerate(lines, 1):
                try:
                    # UnicodeDecodeError is a ValueError too
                    record = json.loads(line.decode("utf-8"))
                    raw = record["raw"]
                    if not isinstance(raw, str):
                        raise TypeError(f"raw is {type(raw).__name__}, not str")
                    key = _record_key(
                        record["kind"], record["fingerprint"], record["prompt"]
                    )
                except (ValueError, KeyError, TypeError) as exc:
                    raise StoreCorrupt(
                        f"unreadable cache record {path} line {number}: {exc!r}"
                    ) from None
                # the first record of a key wins
                if self._table.setdefault(key, raw) != raw:
                    self.conflicts += 1

    def _fill(self, queries: Sequence[OracleQuery]) -> None:
        """Put the answer to every one of ``queries`` in the table: fetch
        those that no thread has or is fetching, then wait for the rest."""
        wanted: dict[str, OracleQuery] = {}
        for query in queries:
            wanted.setdefault(self._key(query), query)
        table = self._table
        while True:
            with self._lock:
                missing = [key for key in wanted if key not in table]
                if not missing:
                    return
                mine = {
                    key: wanted[key] for key in missing if key not in self._fetching
                }
                if not mine:
                    # other threads are fetching the rest
                    self._fetched.wait()
                    continue
                self._fetching.update(mine)
            answered: dict[str, str] = {}
            try:
                self._fetch(mine, answered)
            finally:
                with self._lock:
                    try:
                        table.update(answered)
                        self._fresh.update(answered)
                        if self.store_dir is not None and answered:
                            self._append(mine, answered)
                    finally:
                        self._fetching.difference_update(mine)
                        self._fetched.notify_all()

    def _fetch(self, asked: dict[str, OracleQuery], answered: dict[str, str]) -> None:
        """Ask the inner oracle, the first query on this thread and the rest
        on the pool; put each answer in ``answered`` by key, as many as
        arrived when a request fails or the wait is cut short."""
        (first_key, first), *rest = asked.items()
        futures = {
            key: self._pool.submit(self.inner.complete, query) for key, query in rest
        }
        try:
            answered[first_key] = self.inner.complete(first)
        finally:
            try:
                wait(futures.values())
            finally:
                answered.update(
                    (key, future.result())
                    for key, future in futures.items()
                    if future.done() and not future.cancelled()
                    and future.exception() is None
                )
        for future in futures.values():
            future.result()  # raises the first failure in query order

    def _append(self, asked: dict[str, OracleQuery], answered: dict[str, str]) -> None:
        fingerprint = self.inner.fingerprint
        lines = "".join(
            _segment_line(query.kind, fingerprint, query.prompt, answered[key])
            for key, query in asked.items()
            if key in answered
        )
        # one write per fetch: a kill leaves at most its last line torn
        with open(self._segment, "ab") as segment:
            segment.write(lines.encode("utf-8"))

    def answer_many(self, queries: Sequence[OracleQuery]) -> list[str]:
        if not queries:
            return []
        first, *rest = queries
        # the first complete fetches the round's misses, so the request asked
        # on this thread runs inside a complete call (perfbench/tracer.py
        # books the inner oracle's calls by the call they run in)
        return [self.complete(first, rest), *map(self.complete, rest)]

    def complete(self, query: OracleQuery, others: Sequence[OracleQuery] = ()) -> str:
        """The answer to ``query``; the misses among ``others``, the rest
        of its round, are fetched at the same time as its own."""
        key = self._key(query)
        # a plain read of the table is safe; _fill takes the lock
        if others or key not in self._table:
            self._fill([query, *others])
        with self._lock:
            raw = self._table[key]
            miss = key in self._fresh
            if miss:
                self._fresh.remove(key)
            self.by_kind.setdefault(query.kind, [0, 0])[miss] += 1
        return raw

    def report(self) -> dict:
        """What a run manifest records: hits and misses, in all and per
        kind, and what reading the store skipped or resolved."""
        with self._lock:
            return {
                "hits": sum(hits for hits, _ in self.by_kind.values()),
                "misses": sum(misses for _, misses in self.by_kind.values()),
                "by_kind": {
                    kind: {"hits": hits, "misses": misses}
                    for kind, (hits, misses) in sorted(self.by_kind.items())
                },
                "torn_lines_skipped": self.torn_lines_skipped,
                "conflicts": self.conflicts,
            }

    def close(self) -> None:
        """Stop the fetch threads, dropping requests not yet sent, then close
        the inner oracle if it can be closed."""
        self._pool.shutdown(wait=True, cancel_futures=True)
        close = getattr(self.inner, "close", None)
        if close is not None:
            close()


def _segment_line(kind: str, fingerprint: str, prompt: str, raw: str) -> str:
    """One cache segment line: the record ``{"kind", "fingerprint",
    "prompt", "raw"}`` as ``json.dumps(record, ensure_ascii=False)`` writes
    it, then a newline."""
    q = json_string
    return (
        f'{{"kind": {q(kind)}, "fingerprint": {q(fingerprint)}, '
        f'"prompt": {q(prompt)}, "raw": {q(raw)}}}\n'
    )


def _record_key(kind: str, fingerprint: str, prompt: str) -> str:
    material = "\x1f".join((kind, fingerprint, prompt))
    return hashlib.sha256(material.encode("utf-8")).hexdigest()
