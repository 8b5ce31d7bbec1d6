"""Decision oracles: where completions come from.

The engines only ever see the Oracle protocol, so a parse can be driven by
a gold tree, a scripted list, or a live completion endpoint without the
state machines knowing the difference.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import logging
import os
import re
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Protocol, runtime_checkable
from urllib.parse import urlsplit

from .core import RstTree, internal_nodes
from .prompts import (
    ACTION,
    ACTION_LABELS,
    NUCLEARITY,
    PROMPT_KINDS,
    SPLIT,
    PromptKind,
)

logger = logging.getLogger(__name__)

TOKEN_ENV_VAR = "RSTKIT_API_TOKEN"

# Most inner-oracle calls one CachedOracle runs at once, over all the
# documents that share it.
IN_FLIGHT_LIMIT = 16

# Endpoint URL scheme -> the connection that speaks it.
_CONNECTIONS = {
    "http": http.client.HTTPConnection,
    "https": http.client.HTTPSConnection,
}

# What a kept-alive connection raises when the server has closed it.
_STALE_CONNECTION = (BrokenPipeError, ConnectionResetError, ConnectionAbortedError)

_INT_RE = re.compile(r"\d+")

_SHIFT, _REDUCE = ACTION_LABELS

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


@dataclass(frozen=True)
class OracleQuery:
    """One decision put to an oracle.

    ``valid_labels`` is the closed answer set, in canonical form and prompt
    order; oracles may use it, but the engine does the resolution and
    correction itself. ``span`` is the EDU span the decision is about: the
    node a reduce would build (None with fewer than two items stacked), the
    span a split divides, or the node being labeled. It takes no part in
    equality or hashing.
    """

    kind: PromptKind
    prompt: str
    valid_labels: tuple[str, ...]
    span: tuple[int, int] | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in PROMPT_KINDS:
            raise ValueError(f"unknown prompt kind {self.kind!r}")
        if not self.valid_labels:
            raise ValueError("query needs a non-empty label set")


def resolve_label(raw: str, valid_labels: Iterable[str]) -> str | None:
    """Map raw completion text onto a member of the valid set, or None.

    Only the first line counts; matching is case-insensitive after trimming,
    and purely numeric answers tolerate leading zeros ("02" matches "2").
    Returns the canonical member, never the raw spelling.
    """
    first = raw.split("\n", 1)[0].strip()
    if _INT_RE.fullmatch(first):
        first = str(int(first))
    folded = first.casefold()
    for label in valid_labels:
        if folded == label.casefold():
            return label
    return None


@runtime_checkable
class Oracle(Protocol):
    """Answer source for decision queries.

    ``fingerprint`` identifies the model and decoding configuration well
    enough to key a cache; it must change whenever answers could. Caches
    key on the prompt, so a model-backed oracle must answer from the prompt
    alone, never from ``query.span``, which only a gold replay reads. An
    oracle whose answers depend only on the query may also offer
    ``prefetch(queries)``, a hint that those queries will be asked next;
    the engines then hand it every query that is ready at once (see
    ``engine.run_decisions``). One without it sees the serial order.
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
            return _REDUCE if query.span in self._nodes else _SHIFT
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
        self._answers = list(answers)
        self._cycle = cycle
        self._next = 0
        self._lock = threading.Lock()

    def complete(self, query: OracleQuery) -> str:
        with self._lock:
            if self._next >= len(self._answers):
                if not self._cycle or not self._answers:
                    raise ReplayExhausted(f"no answer left for {query.kind} query")
                self._next = 0
            answer = self._answers[self._next]
            self._next += 1
            return answer


class CallableOracle:
    """Adapts a plain function (query -> raw text) to the protocol."""

    def __init__(self, fn, fingerprint: str = "callable"):
        self._fn = fn
        self.fingerprint = fingerprint

    def complete(self, query: OracleQuery) -> str:
        return self._fn(query)


class HttpOracle:
    """Client for a text-completion endpoint.

    Speaks the common completions wire shape: POST JSON with model, prompt,
    max_tokens, temperature, and stop; the answer text comes back under
    choices[0].text. Decoding is greedy (temperature 0) and stops at the
    first newline, since every valid answer is a single line.

    Each thread keeps one connection alive across its requests; ``close``
    closes them all. Transport errors, 429 and 5xx are retried with
    exponential backoff, or after an integer ``Retry-After``; any other
    status, or a 200 whose body has no answer, fails at once. Proxy
    environment variables are not read.
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
        if url.scheme not in _CONNECTIONS:
            raise ValueError(
                f"endpoint must be an http:// or https:// URL, not {endpoint!r}"
            )
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
        self._connection_class = _CONNECTIONS[url.scheme]
        self._netloc = url.netloc
        self._target = (url.path or "/") + (f"?{url.query}" if url.query else "")
        self._local = threading.local()
        self._lock = threading.Lock()
        self._connections: list[http.client.HTTPConnection] = []

    def _connection(self) -> http.client.HTTPConnection:
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = self._connection_class(self._netloc, timeout=self.timeout)
            with self._lock:
                self._connections.append(conn)
            self._local.conn = conn
        return conn

    def _post(self, body: bytes, headers: dict) -> tuple[int, bytes, str | None]:
        """(status, body, Retry-After) of one request on this thread's
        connection.

        A kept-alive connection that the server has closed fails on first
        use; it is opened again and the request sent once more.
        """
        conn = self._connection()
        reused = conn.sock is not None
        try:
            try:
                conn.request("POST", self._target, body, headers)
                response = conn.getresponse()
            except _STALE_CONNECTION:
                if not reused:
                    raise
                conn.close()
                conn.request("POST", self._target, body, headers)
                response = conn.getresponse()
            data = response.read()
        except (OSError, http.client.HTTPException):
            conn.close()
            raise
        return response.status, data, response.getheader("Retry-After")

    def complete(self, query: OracleQuery) -> str:
        payload = {
            "model": self.model,
            "prompt": query.prompt,
            "max_tokens": self.max_tokens,
            "temperature": _TEMPERATURE,
            "stop": ["\n"],
        }
        body = json.dumps(payload).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        if self.api_token:
            headers["Authorization"] = f"Bearer {self.api_token}"
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
                status, data, retry_after = self._post(body, headers)
            except (OSError, http.client.HTTPException) as exc:
                last_error = f"request failed: {exc!r}"
                continue
            if status == 200:
                try:
                    return str(json.loads(data)["choices"][0]["text"])
                except (ValueError, LookupError, TypeError) as exc:
                    last_error = f"malformed response body: {exc}"
                    break
            last_error = f"HTTP {status}: {data[:200].decode('utf-8', 'replace')}"
            if status != 429 and status < 500:
                break  # cannot succeed on retry
            if retry_after is not None and retry_after.strip().isdigit():
                delay = int(retry_after)
        raise OracleFailure(
            f"{query.kind} query failed after {attempts} attempts: {last_error}"
        )

    def close(self) -> None:
        """Close every thread's connection; a later request opens a new one."""
        with self._lock:
            connections, self._connections = self._connections, []
            self._local = threading.local()
        for conn in connections:
            conn.close()


class CachedOracle:
    """Read-through cache in front of another oracle, which it can query
    concurrently.

    Keys hash the question and the inner oracle's fingerprint, so changing
    the model or decoding setup never serves stale answers. Records are
    one JSON file per key under ``store_dir``, written atomically; with
    ``store_dir`` None nothing is stored, and an answer is kept only until
    it is taken.

    Each query's pending answer is kept in one map until the first
    ``complete`` takes it: a stored answer, read on the calling thread, or
    a fetch on a pool of at most IN_FLIGHT_LIMIT threads that call nothing
    but the inner oracle's ``complete``. A ``complete`` with no
    ``prefetch`` before it fetches on the pool too, and waits. Concurrent
    misses on one query make one inner call and store one record.
    ``close`` stops the pool and closes the inner oracle.
    """

    def __init__(self, inner: Oracle, store_dir: str | Path | None):
        self.inner = inner
        self.store_dir = None if store_dir is None else Path(store_dir)
        if self.store_dir is not None:
            self.store_dir.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self._guard = threading.Lock()
        # query -> (stored answer, False) or the fetch of its (answer,
        # whether the inner oracle was asked), until the first take
        self._pending: dict[OracleQuery, tuple[str, bool] | Future] = {}
        self._pool: ThreadPoolExecutor | None = None

    @property
    def fingerprint(self) -> str:
        return self.inner.fingerprint

    def _key(self, query: OracleQuery) -> str:
        material = "\x1f".join((query.kind, self.inner.fingerprint, query.prompt))
        return hashlib.sha256(material.encode("utf-8")).hexdigest()

    def _record_path(self, key: str) -> Path:
        return self.store_dir / f"{key}.json"

    def _load(self, key: str) -> str | None:
        if self.store_dir is None:
            return None
        path = self._record_path(key)
        try:
            # text that is not UTF-8 raises UnicodeDecodeError, a ValueError
            record = json.loads(path.read_text(encoding="utf-8"))
            return str(record["raw"])
        except FileNotFoundError:
            return None
        except (ValueError, KeyError, TypeError) as exc:
            raise StoreCorrupt(f"unreadable cache record {path}: {exc}") from None

    def _fetch(self, key: str, query: OracleQuery) -> tuple[str, bool]:
        """(answer, whether the inner oracle was asked) for a query that
        missed the store; its record may have been written since."""
        cached = self._load(key)
        if cached is not None:
            return cached, False
        raw = self.inner.complete(query)
        if self.store_dir is not None:
            record = {
                "kind": query.kind,
                "fingerprint": self.inner.fingerprint,
                "prompt": query.prompt,
                "raw": raw,
            }
            path = self._record_path(key)
            # unique temp name: concurrent processes may miss the same key
            tmp = path.with_name(
                f".{key}.{os.getpid()}.{threading.get_ident()}.tmp"
            )
            tmp.write_text(json.dumps(record, ensure_ascii=False), encoding="utf-8")
            os.replace(tmp, path)
        return raw, True

    def _entry(self, query: OracleQuery) -> tuple[str, bool] | Future:
        """The query's pending answer, started if there is none. The store
        is read first, so a corrupt record leaves no entry to wait on."""
        entry = self._pending.get(query)
        if entry is not None:
            return entry
        key = self._key(query)
        cached = self._load(key)
        with self._guard:
            entry = self._pending.get(query)
            if entry is None:
                if cached is not None:
                    entry = (cached, False)
                else:
                    if self._pool is None:
                        self._pool = ThreadPoolExecutor(
                            IN_FLIGHT_LIMIT, thread_name_prefix="rstkit-oracle"
                        )
                    entry = self._pool.submit(self._fetch, key, query)
                self._pending[query] = entry
        return entry

    def prefetch(self, queries: Iterable[OracleQuery]) -> None:
        """Read each stored query's answer on this thread and start fetching
        the others; a hint, as each answer is still taken with ``complete``."""
        for query in queries:
            self._entry(query)

    def complete(self, query: OracleQuery) -> str:
        entry = self._entry(query)
        try:
            raw, asked = entry.result() if isinstance(entry, Future) else entry
        finally:
            with self._guard:
                first = self._pending.get(query) is entry
                if first:
                    del self._pending[query]
        with self._guard:
            if first and asked:
                self.misses += 1
            else:
                self.hits += 1
        return raw

    def stats(self) -> dict[str, int]:
        with self._guard:
            return {"hits": self.hits, "misses": self.misses}

    def close(self) -> None:
        """Stop the fetch pool, dropping fetches not yet started, and close
        the inner oracle if it can be closed."""
        with self._guard:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)
        with self._guard:
            self._pending.clear()
        close = getattr(self.inner, "close", None)
        if close is not None:
            close()
