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
import threading
import time
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Protocol, Sequence, runtime_checkable
from urllib.parse import urlsplit

from .core import RstTree, internal_nodes
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

# Most requests one HttpOracle.answer_many sends at once, each on its own
# kept-alive connection.
IN_FLIGHT_LIMIT = 16

# Endpoint URL scheme -> the connection that speaks it.
_CONNECTIONS = {
    "http": http.client.HTTPConnection,
    "https": http.client.HTTPSConnection,
}

# What a kept-alive connection raises when the server has closed it.
_STALE_CONNECTION = (BrokenPipeError, ConnectionResetError, ConnectionAbortedError)

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


@runtime_checkable
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

    ``answer_many`` sends its queries with ``complete``, one prompt per
    request, on at most IN_FLIGHT_LIMIT threads at once. Each thread keeps
    one connection alive across its requests; ``close`` closes them all and
    stops the threads. Transport errors, 429 and 5xx are retried with
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
        self._pool: ThreadPoolExecutor | None = None

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

    def answer_many(self, queries: Sequence[OracleQuery]) -> list[str]:
        """The answers to ``queries``, in order, fetched concurrently.

        Every request ends before this returns, and the first failure, in
        query order, is raised. The exception raised, or one that cuts the
        wait short, carries in ``answered`` the answers that did arrive, by
        query index, so that a cache can keep them.
        """
        with self._lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    IN_FLIGHT_LIMIT, thread_name_prefix="rstkit-oracle"
                )
            pool = self._pool
        futures = [pool.submit(self.complete, query) for query in queries]
        try:
            wait(futures)
            for future in futures:
                if future.exception() is not None:
                    raise future.exception()
        except BaseException as exc:
            exc.answered = {
                index: future.result()
                for index, future in enumerate(futures)
                if future.done() and not future.cancelled()
                and future.exception() is None
            }
            raise
        return [future.result() for future in futures]

    def close(self) -> None:
        """Stop the fetch threads, dropping requests not yet sent, and close
        every thread's connection; a later request opens a new one."""
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)
        with self._lock:
            connections, self._connections = self._connections, []
            self._local = threading.local()
        for conn in connections:
            conn.close()


class CachedOracle:
    """Read-through cache in front of another oracle.

    Answers are kept in one table for the life of the instance, keyed by a
    hash of the question and the inner oracle's fingerprint, so changing
    the model or decoding setup never serves stale answers. ``complete``
    answers one query from the table, asking the inner oracle first on a
    miss. ``answer_many`` asks the inner oracle for a round's misses in one
    call (its ``answer_many`` when it has one), each distinct query once,
    then answers each query with ``complete``. The inner oracle is called
    outside the lock, so threads that share an instance fetch different
    queries at once; a thread that needs an answer another thread is
    fetching waits for it, so no query is fetched twice at once. When a
    fetch fails, the answers that did arrive (see ``HttpOracle.answer_many``)
    are kept before the failure is raised. ``close`` closes the inner
    oracle.

    With a ``store_dir`` the table is also kept on disk, as append-only
    segment files (``*.jsonl``) of one JSON record per line. Every segment
    is read once, when the instance is made, and so are per-key ``*.json``
    records from older versions. An instance appends what it fetches to its
    own segment, opened only for the write; another instance sees it once
    it is made again. Where two records of one key disagree, the first
    segment in name order wins, then the per-key records. A segment whose
    writer was killed may end in a torn line, which is skipped; any other
    line that cannot be read raises StoreCorrupt.
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

    def _keep(self, record, where: str) -> None:
        """Add one stored record to the table; the first of a key wins."""
        try:
            key = _record_key(record["kind"], record["fingerprint"], record["prompt"])
            raw = record["raw"]
            if not isinstance(raw, str):
                raise TypeError(f"raw is {type(raw).__name__}, not str")
        except (KeyError, TypeError) as exc:
            raise StoreCorrupt(f"unreadable cache record {where}: {exc!r}") from None
        kept = self._table.setdefault(key, raw)
        if kept != raw:
            self.conflicts += 1

    def _read_store(self) -> None:
        for path in sorted(self.store_dir.glob("*.jsonl")):
            *lines, tail = path.read_bytes().split(b"\n")
            if tail:
                # a write cut short: no line of a complete record ends here
                self.torn_lines_skipped += 1
            for number, line in enumerate(lines, 1):
                where = f"{path} line {number}"
                try:
                    record = json.loads(line.decode("utf-8"))
                except ValueError as exc:
                    # UnicodeDecodeError is a ValueError too
                    raise StoreCorrupt(
                        f"unreadable cache record {where}: {exc}"
                    ) from None
                self._keep(record, where)
        for path in sorted(self.store_dir.glob("*.json")):
            try:
                record = json.loads(path.read_text(encoding="utf-8"))
            except ValueError as exc:
                raise StoreCorrupt(f"unreadable cache record {path}: {exc}") from None
            self._keep(record, str(path))

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
        """Ask the inner oracle; put each answer in ``answered`` by key, as
        many as arrived when it fails."""
        answer_many = getattr(self.inner, "answer_many", None)
        if answer_many is None:
            for key, query in asked.items():
                answered[key] = self.inner.complete(query)
            return
        keys = list(asked)
        try:
            answers = answer_many(list(asked.values()))
        except BaseException as exc:
            for index, raw in getattr(exc, "answered", {}).items():
                answered[keys[index]] = raw
            raise
        answered.update(zip(keys, answers))

    def _append(self, asked: dict[str, OracleQuery], answered: dict[str, str]) -> None:
        fingerprint = self.inner.fingerprint
        lines = "".join(
            json.dumps(
                {
                    "kind": query.kind,
                    "fingerprint": fingerprint,
                    "prompt": query.prompt,
                    "raw": answered[key],
                },
                ensure_ascii=False,
            ) + "\n"
            for key, query in asked.items()
            if key in answered
        )
        # one write per fetch: a kill leaves at most its last line torn
        with open(self._segment, "ab") as segment:
            segment.write(lines.encode("utf-8"))

    def answer_many(self, queries: Sequence[OracleQuery]) -> list[str]:
        self._fill(queries)
        return [self.complete(query) for query in queries]

    def complete(self, query: OracleQuery) -> str:
        key = self._key(query)
        # a plain read of the table is safe; _fill takes the lock
        if key not in self._table:
            self._fill([query])
        with self._lock:
            raw = self._table[key]
            miss = key in self._fresh
            if miss:
                self._fresh.remove(key)
            self.by_kind.setdefault(query.kind, [0, 0])[miss] += 1
        return raw

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "hits": sum(hits for hits, _ in self.by_kind.values()),
                "misses": sum(misses for _, misses in self.by_kind.values()),
            }

    def report(self) -> dict:
        """What a run manifest records: ``stats``, the same per kind, and
        what reading the store skipped or resolved."""
        report = self.stats()
        with self._lock:
            report["by_kind"] = {
                kind: {"hits": hits, "misses": misses}
                for kind, (hits, misses) in sorted(self.by_kind.items())
            }
            report["torn_lines_skipped"] = self.torn_lines_skipped
            report["conflicts"] = self.conflicts
        return report

    def close(self) -> None:
        """Close the inner oracle if it can be closed."""
        close = getattr(self.inner, "close", None)
        if close is not None:
            close()


def _record_key(kind: str, fingerprint: str, prompt: str) -> str:
    material = "\x1f".join((kind, fingerprint, prompt))
    return hashlib.sha256(material.encode("utf-8")).hexdigest()
