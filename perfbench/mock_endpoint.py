"""Stand-in completions endpoint for the HTTP workloads.

Answers each prompt with its gold completion from a (prompt -> completion)
JSON table, DELAY_MS after the request's first line arrived, so a request
costs what a fast model would cost without any model. The endpoint's own
handling is done within that time, so how fast the machine runs it does
not change what the client waits. It runs as its own process, so its work
does not share the client's interpreter lock.

    python3 perfbench/mock_endpoint.py --table answers.json

The bound port is printed as the first line of standard output. `POST` to
any path takes the completions wire shape; `prompt` may be one string or a
list (a batched request counts once). A prompt missing from the table gets
a fixed unparseable answer, so prompt drift fails the parse's correctness
check instead of hanging it. `GET /stats` returns the counters as JSON
and zeroes them.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

UNKNOWN_ANSWER = "?? prompt not in the answer table ??"
DELAY_MS = 5.0


class Counters:
    """Everything the endpoint observed since the last reset."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        self.requests = 0
        self.connections = 0
        self.prompts = 0
        self.prompt_bytes = 0
        self.unknown_prompts = 0
        self.repeated_prompts = 0
        self.non_200 = 0
        self.in_flight = 0
        self.concurrency_max = 0
        self.service_ms: list[float] = []
        self.seen: set[str] = set()

    def snapshot(self) -> dict:
        return {
            "requests": self.requests,
            "connections": self.connections,
            "prompts": self.prompts,
            "prompt_bytes": self.prompt_bytes,
            "unknown_prompts": self.unknown_prompts,
            "repeated_prompts": self.repeated_prompts,
            "non_200": self.non_200,
            "concurrency_max": self.concurrency_max,
            "service_ms": self.service_ms,
        }


class Handler(BaseHTTPRequestHandler):
    # keep-alive capable, and no Nagle: without it a kept-alive connection
    # stalls on delayed ACKs for tens of milliseconds per response
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True

    def setup(self) -> None:
        super().setup()
        self.counted = False

    def parse_request(self) -> bool:
        # called as soon as the request line has been read
        self.arrived = time.perf_counter()
        return super().parse_request()

    def _reply(self, status: int, payload: dict) -> None:
        data = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def do_GET(self) -> None:
        counters: Counters = self.server.counters
        if not self.path.startswith("/stats"):
            self._reply(404, {"error": "unknown path"})
            return
        with counters.lock:
            payload = counters.snapshot()
            counters.reset()
        self._reply(200, payload)

    def do_POST(self) -> None:
        counters: Counters = self.server.counters
        with counters.lock:
            counters.requests += 1
            if not self.counted:
                counters.connections += 1
                self.counted = True
            counters.in_flight += 1
            counters.concurrency_max = max(
                counters.concurrency_max, counters.in_flight
            )
        status, payload = self._answer(counters)
        time.sleep(max(0.0, self.arrived + DELAY_MS / 1000.0 - time.perf_counter()))
        # the request leaves the endpoint's books before its reply is sent,
        # so a client that sends its next request at once is not counted
        # as concurrent with it
        elapsed = (time.perf_counter() - self.arrived) * 1000.0
        with counters.lock:
            counters.in_flight -= 1
            counters.service_ms.append(elapsed)
        self._reply(status, payload)

    def _answer(self, counters: Counters) -> tuple[int, dict]:
        length = int(self.headers.get("Content-Length", 0))
        try:
            prompt = json.loads(self.rfile.read(length))["prompt"]
        except (ValueError, KeyError, TypeError):
            with counters.lock:
                counters.non_200 += 1
            return 400, {"error": "body needs a prompt"}
        prompts = prompt if isinstance(prompt, list) else [prompt]
        table: dict = self.server.table
        answers = [table.get(text, UNKNOWN_ANSWER) for text in prompts]
        with counters.lock:
            counters.prompts += len(prompts)
            for text, answer in zip(prompts, answers):
                counters.prompt_bytes += len(text.encode("utf-8"))
                counters.unknown_prompts += answer is UNKNOWN_ANSWER
                counters.repeated_prompts += text in counters.seen
                counters.seen.add(text)
        return 200, {
            "choices": [{"index": i, "text": a} for i, a in enumerate(answers)]
        }

    def log_message(self, *_args) -> None:
        pass


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--table", required=True, help="JSON prompt -> completion")
    args = parser.parse_args()
    with open(args.table, encoding="utf-8") as handle:
        table = json.load(handle)
    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    server.daemon_threads = True
    server.table = table
    server.counters = Counters()
    print(server.server_port, flush=True)
    # the parent closes our stdin to stop us; serve until then
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    sys.stdin.read()
    server.shutdown()
    server.server_close()


if __name__ == "__main__":
    main()
