"""rstkit benchmark: three workloads through the public CLI entry point.

    python3 perfbench/run.py --workload http-cold --seed 1 --seconds 40 --trace 0

Run it from the root of a source checkout; it imports the package from
`src/` there and works under `.bench_work/`. The workloads, and why each is
there, are listed in BENCHMARK.json; `perfbench/BASELINE.md` holds what they
measured at the commit that added the benchmark.

- longdoc-replay: seeded synthetic documents of 250 to 2000 EDUs, half
  right-branching chains and half random trees. A pass runs `parse` with the
  replay oracle under both strategies, then `eval` and `export-training`.
- http-cold: the bundled minicorpus, parsed by `--oracle http` against a
  mock endpoint in its own process (5 ms per request), each strategy with
  its own cache directory, emptied before every pass. Then `eval`.
- http-warm: the same with both caches filled during set-up. The endpoint
  must receive no request.

A run repeats passes for about `--seconds`. The speed of the shared
virtual CPU drifts, so every timed interval is timed by a `Speedometer`
(speed.py), which samples the machine's speed all through it and gives
its time in reference seconds: the interval's CPU time scaled to the
reference speed, plus its time spent waiting as measured. `wall_s` is the
mean of the run's passes, each the sum of its CLI calls so timed: the
speed switches many times within a run, and the mean over the whole run
averages over them, where the median of a few passes picks one. Between
passes the workload is set up again, until set-up has taken SETUP_SHARE
of the time so far (and at least MIN_SETUPS times in all), and `setup_s`
is the median of those set-up times, timed the same way.

Every pass must pass the correctness gate: each CLI call exits 0, each
written `.tree` equals the gold tree byte for byte, no trace entry is
corrected, `eval` reports full F1 = 100, the endpoint never saw an unknown
prompt, and http-warm sends no request. The generated inputs depend on
`--seed`; the HTTP workloads run the fixed bundled corpus whatever the seed.

With `--trace 0` the last line of standard output is a JSON object with the
end-to-end metrics; with `--trace 1` it holds the per-layer metrics, from a
run that alternates untraced and traced passes. Human-readable lines, one
metric each with its unit, come first. Exit status: 0 when every pass
passed the gate, 1 when one did not (the result is still printed, with
`"correct": false`), 2 when the benchmark cannot run at all.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import longdoc
from mock_endpoint import UNKNOWN_ANSWER
from speed import Speedometer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
WORK = ROOT / ".bench_work"

SETUP_SHARE = 0.05
MIN_SETUPS = 9
STRATEGIES = ("bottom-up", "top-down")
RELATION_MAP = "rst-dt-coarse"
INVENTORY = "rst-dt"
LONGDOC_TRUNCATE = "200"
HTTP_WORKERS = "2"


class BenchError(Exception):
    """The benchmark cannot run here."""


def load_package() -> None:
    """Import rstkit from this checkout's source tree, and nothing else."""
    if not (SRC / "rstkit" / "__init__.py").is_file():
        raise BenchError(f"no package source at {SRC / 'rstkit'}")
    if not SPEC.is_file():
        raise BenchError(f"no {SPEC.name} at {ROOT}")
    sys.path.insert(0, str(SRC))
    import rstkit

    if Path(rstkit.__file__).resolve().parent != (SRC / "rstkit").resolve():
        raise BenchError(f"imported rstkit from {rstkit.__file__}, not {SRC}")


@dataclass
class Outcome:
    """What one pass did, and what the correctness gate found wrong."""

    # time of the pass's CLI calls, in reference seconds and as measured
    wall_s: float = 0.0
    measured_s: float = 0.0
    queries: int = 0
    prompt_bytes: int = 0
    attempted: int = 0
    failed: int = 0
    cache_bytes_written: int = 0
    endpoint: dict = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)


class Cli:
    """Calls `rstkit.cli.main` in this process; with a speedometer, adds the
    call's time to the pass."""

    def __init__(self, speed: Speedometer | None = None, tracer=None):
        self.speed = speed
        self.tracer = tracer

    def __call__(self, outcome: Outcome, argv: list[str]) -> bool:
        from rstkit import cli

        sink = io.StringIO()

        def call():
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                try:
                    if self.tracer is None:
                        return cli.main(argv)
                    name = "cli." + argv[0].replace("-", "_")
                    return self.tracer.call(name, cli.main, (argv,), {}, top=True)
                except (Exception, SystemExit) as exc:
                    return f"an exception, {exc!r}"

        if self.speed is None:
            code = call()
        else:
            code, scaled, measured = self.speed.timed(call)
            outcome.wall_s += scaled
            outcome.measured_s += measured
        if code != 0:
            tail = sink.getvalue().strip()[-300:]
            outcome.problems.append(f"rstkit {argv[0]} exited with {code}: {tail}")
        return code == 0


def reset_dir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)


def dir_bytes(path: Path) -> int:
    if not path.is_dir():
        return 0
    return sum(entry.stat().st_size for entry in os.scandir(path) if entry.is_file())


def check_trees(out_dir: Path, expected: dict[str, str], problems: list[str]) -> None:
    """Each written tree must equal the gold tree's bracket form exactly.

    Serialized trees are compared, not tree objects: the dataclass equality
    of a deep tree recurses past the interpreter's limit.
    """
    for doc_id, tree in expected.items():
        path = out_dir / f"{doc_id}.tree"
        if not path.is_file():
            problems.append(f"{path} was not written")
        elif path.read_text(encoding="utf-8") != tree + "\n":
            problems.append(f"{path} differs from the gold tree")


def trace_queries(out_dir: Path, doc_ids, problems: list[str]) -> dict:
    """Prompt id of each oracle query in the written traces, keyed by
    (document, step); flags corrected decisions."""
    queries = {}
    corrected = 0
    for doc_id in doc_ids:
        with open(out_dir / f"{doc_id}.trace.jsonl", encoding="utf-8") as handle:
            for line in handle:
                entry = json.loads(line)
                corrected += entry["corrected"]
                if not entry["forced"]:
                    queries[(doc_id, entry["step"])] = entry["prompt_id"]
    if corrected:
        problems.append(f"{out_dir}: {corrected} trace entries were corrected")
    return queries


def prompt_id(kind: str, prompt: str) -> str:
    """The id a trace records for a prompt: kind plus a short SHA-1."""
    return f"{kind}:{hashlib.sha1(prompt.encode('utf-8')).hexdigest()[:10]}"


def check_scores(path: Path, problems: list[str]) -> None:
    f1 = json.loads(path.read_text())["scores"]["full"]["f1"]
    if f1 != 100.0:
        problems.append(f"{path}: full F1 is {f1}, not 100.0")


def verify(outcome: Outcome, check) -> None:
    """Run a pass's output checks; unreadable output fails the gate too."""
    try:
        check(outcome)
    except (OSError, ValueError, KeyError) as exc:
        outcome.problems.append(f"outputs could not be checked: {exc!r}")


def eval_argv(corpus: Path, pred: Path, scores: Path) -> list[str]:
    return [
        "eval", "--gold-dir", str(corpus), "--pred-dir", str(pred),
        "--relation-map", RELATION_MAP, "--out", str(scores),
    ]


# ---------------------------------------------------------------------------
# longdoc-replay


class LongdocReplay:
    # every prompt the engines put to the oracle is also exported
    sends_every_prompt = True

    def __init__(self, seed: int):
        self.seed = seed
        self.chain_sizes = tuple(n for shape, n in longdoc.DOCUMENTS if shape == "chain")
        self.digest = None
        self.prompt_bytes = 0

    def setup(self, where: Path) -> None:
        self.corpus = where / "corpus"
        self.out = where / "out"
        self.expected = longdoc.generate(self.seed, self.corpus)

    def teardown(self) -> None:
        pass

    def run_pass(self, cli: Cli) -> Outcome:
        outcome = Outcome()
        reset_dir(self.out)
        corpus = ["--corpus-dir", str(self.corpus), "--relation-map", RELATION_MAP]
        parsed = {
            strategy: cli(outcome, [
                "parse", *corpus, "--strategy", strategy, "--oracle", "replay",
                "--truncate", LONGDOC_TRUNCATE, "--workers", "1",
                "--out", str(self.out / strategy),
            ])
            for strategy in STRATEGIES
        }
        for strategy in STRATEGIES:
            cli(outcome, eval_argv(
                self.corpus, self.out / strategy, self.out / f"{strategy}.scores.json"
            ))
        for strategy in STRATEGIES:
            cli(outcome, [
                "export-training", *corpus, "--strategy", strategy,
                "--truncate", LONGDOC_TRUNCATE,
                "--out", str(self.out / f"export-{strategy}"),
            ])
        outcome.attempted = len(STRATEGIES) * len(self.expected)
        outcome.failed = sum(len(self.expected) for ok in parsed.values() if not ok)
        if not outcome.problems:
            verify(outcome, self._verify)
        return outcome

    def _verify(self, outcome: Outcome) -> None:
        """Trees, traces and scores every pass. The first pass also checks
        that the exported pairs are exactly the prompts the parse put to
        the oracle; later passes must reproduce its traces and exports."""
        problems = outcome.problems
        digest = hashlib.sha256()
        first = self.digest is None
        for strategy in STRATEGIES:
            out = self.out / strategy
            check_trees(out, self.expected, problems)
            queries = trace_queries(out, self.expected, problems)
            outcome.queries += len(queries)
            check_scores(self.out / f"{strategy}.scores.json", problems)
            for doc_id in self.expected:
                digest.update((out / f"{doc_id}.trace.jsonl").read_bytes())
            exported = {}
            for path in sorted((self.out / f"export-{strategy}").glob("*.jsonl")):
                data = path.read_bytes()
                digest.update(data)
                for line in data.splitlines() if first else ():
                    record = json.loads(line)
                    key = (record["document_id"], record["step"])
                    exported[key] = prompt_id(record["kind"], record["prompt"])
                    self.prompt_bytes += len(record["prompt"].encode("utf-8"))
            if first and exported != queries:
                problems.append(
                    f"{strategy}: the exported prompts are not those the parse "
                    "put to the oracle"
                )
        if first:
            self.digest = digest.hexdigest()
        elif digest.hexdigest() != self.digest:
            problems.append("traces or training export differ from the first pass")
        outcome.prompt_bytes = self.prompt_bytes


# ---------------------------------------------------------------------------
# http-cold and http-warm


class MockEndpoint:
    """The stand-in completions endpoint, in a child process."""

    def __init__(self, table: Path):
        self.process = subprocess.Popen(
            [sys.executable, str(HERE / "mock_endpoint.py"), "--table", str(table)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        port = self.process.stdout.readline().strip()
        if not port.isdigit():
            self.stop()
            raise BenchError("the mock endpoint did not start")
        self.url = f"http://127.0.0.1:{port}"
        self._opener = urllib.request.build_opener(urllib.request.ProxyHandler({}))

    def stats(self) -> dict:
        """Counters since the last call, which zeroes them."""
        try:
            with self._opener.open(f"{self.url}/stats", timeout=30) as response:
                return json.load(response)
        except OSError as exc:
            raise BenchError(f"the mock endpoint stopped answering: {exc}") from None

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.stdin.close()
            try:
                self.process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()


def merge_endpoint_stats(total: dict, stats: dict) -> None:
    for key, value in stats.items():
        if key == "service_ms":
            total.setdefault(key, []).extend(value)
        elif key == "concurrency_max":
            total[key] = max(total.get(key, 0), value)
        else:
            total[key] = total.get(key, 0) + value


class HttpWorkload:
    chain_sizes: tuple[int, ...] = ()
    warm = False
    # with empty caches every prompt reaches the endpoint
    sends_every_prompt = True

    def __init__(self, seed: int):
        # the bundled corpus is fixed, so the seed changes nothing here
        self.endpoint: MockEndpoint | None = None

    def setup(self, where: Path) -> None:
        from rstkit import (
            builtin_inventory, builtin_relation_map, minicorpus_dir, read_dis, write_tree,
        )
        from rstkit.training import gold_walk

        self.corpus = where / "corpus"
        self.out = where / "out"
        self.caches = {s: where / f"cache-{s}" for s in STRATEGIES}
        shutil.copytree(minicorpus_dir(), self.corpus)
        relations = builtin_relation_map(RELATION_MAP)
        inventory = builtin_inventory(INVENTORY)
        self.expected: dict[str, str] = {}
        table: dict[str, str] = {}
        for path in sorted(self.corpus.glob("*.dis")):
            doc = read_dis(path, relations)
            self.expected[doc.doc_id] = write_tree(doc.tree)
            for strategy in STRATEGIES:
                for example in gold_walk(doc, inventory, strategy):
                    if table.setdefault(example.prompt, example.completion) != example.completion:
                        raise BenchError(f"a {example.kind} prompt has two gold answers")
        (where / "answers.json").write_text(json.dumps(table), encoding="utf-8")
        self.endpoint = MockEndpoint(where / "answers.json")
        if self.warm:
            self._prefill(table, where / "prefill")

    def _parse_argv(self, strategy: str, out: Path) -> list[str]:
        return [
            "parse", "--corpus-dir", str(self.corpus), "--relation-map", RELATION_MAP,
            "--strategy", strategy, "--oracle", "http",
            "--endpoint", f"{self.endpoint.url}/v1/completions", "--model", "gold-table",
            "--workers", HTTP_WORKERS, "--cache-dir", str(self.caches[strategy]),
            "--out", str(out),
        ]

    def _prefill(self, table: dict[str, str], out: Path) -> None:
        """Fill both caches through the CLI, answering from the table.

        `rstkit.cli` builds its `HttpOracle` from the name in its own module;
        for the fill that name points at a subclass that answers without a
        request, so the records carry the real oracle's fingerprint.
        """
        from rstkit import cli

        class TableOracle(cli.HttpOracle):
            def complete(self, query):
                return table.get(query.prompt, UNKNOWN_ANSWER)

        outcome = Outcome()
        original = cli.HttpOracle
        cli.HttpOracle = TableOracle
        try:
            for strategy in STRATEGIES:
                Cli()(outcome, self._parse_argv(strategy, out / strategy))
        finally:
            cli.HttpOracle = original
        if outcome.problems:
            raise BenchError(f"filling the caches failed: {outcome.problems}")

    def teardown(self) -> None:
        if self.endpoint is not None:
            self.endpoint.stop()
            self.endpoint = None

    def run_pass(self, cli: Cli) -> Outcome:
        outcome = Outcome()
        reset_dir(self.out)
        if not self.warm:
            for cache in self.caches.values():
                shutil.rmtree(cache, ignore_errors=True)
        cache_before = sum(dir_bytes(cache) for cache in self.caches.values())
        self.endpoint.stats()
        parsed = {}
        for strategy in STRATEGIES:
            parsed[strategy] = cli(outcome, self._parse_argv(strategy, self.out / strategy))
            merge_endpoint_stats(outcome.endpoint, self.endpoint.stats())
        for strategy in STRATEGIES:
            cli(outcome, eval_argv(
                self.corpus, self.out / strategy, self.out / f"{strategy}.scores.json"
            ))
        seen = outcome.endpoint
        outcome.cache_bytes_written = (
            sum(dir_bytes(cache) for cache in self.caches.values()) - cache_before
        )
        outcome.prompt_bytes = seen["prompt_bytes"]
        outcome.attempted = len(STRATEGIES) * len(self.expected) + seen["requests"]
        outcome.failed = (
            sum(len(self.expected) for ok in parsed.values() if not ok)
            + seen["non_200"] + seen["repeated_prompts"]
        )
        if seen["unknown_prompts"]:
            outcome.problems.append(
                f"the endpoint got {seen['unknown_prompts']} prompts it has no answer for"
            )
        if self.warm and seen["requests"]:
            outcome.problems.append(
                f"warm caches, yet the endpoint got {seen['requests']} requests"
            )
        if not outcome.problems:
            verify(outcome, self._verify)
        return outcome

    def _verify(self, outcome: Outcome) -> None:
        for strategy in STRATEGIES:
            check_trees(self.out / strategy, self.expected, outcome.problems)
            queries = trace_queries(self.out / strategy, self.expected, outcome.problems)
            outcome.queries += len(queries)
            check_scores(self.out / f"{strategy}.scores.json", outcome.problems)


class HttpWarm(HttpWorkload):
    warm = True
    sends_every_prompt = False


WORKLOADS = {
    "longdoc-replay": LongdocReplay,
    "http-cold": HttpWorkload,
    "http-warm": HttpWarm,
}


# ---------------------------------------------------------------------------
# measuring


def write_spans(path: Path, spans) -> None:
    """Spans of one traced pass as columns; times in ns from the first start."""
    names = sorted({s.name for s in spans})
    index = {name: i for i, name in enumerate(names)}
    origin = min((s.start for s in spans), default=0.0)
    columns = {
        "id": [s.sid for s in spans],
        "name": [index[s.name] for s in spans],
        "parent": [s.parent for s in spans],
        "start_ns": [round((s.start - origin) * 1e9) for s in spans],
        "end_ns": [round((s.end - origin) * 1e9) for s in spans],
        "count": [s.count for s in spans],
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"names": names, "columns": columns}))


def timed_setup(speed: Speedometer, workload, where: Path) -> float:
    return speed.timed(lambda: workload.setup(where))[1]


def measure(workload, speed: Speedometer, seconds: float, trace: bool, work: Path,
            setup_s: list[float], spare_setup):
    """Passes for about ``seconds``: none starts that would, at the median
    pass length so far, end more than half a pass late. With ``trace``
    every other pass is traced, and at least one of each kind runs.

    After each pass, ``spare_setup`` sets the workload up again until the
    set-ups have taken SETUP_SHARE of the time so far and number at least
    MIN_SETUPS in proportion to it, so set-up times are drawn from the whole
    run rather than from its first seconds."""
    tracer = layers = None
    if trace:
        from layers import LayerStats
        from tracer import Tracer

        tracer, layers = Tracer(), LayerStats(workload.chain_sizes)
    runs: list[tuple[bool, Outcome]] = []
    lengths: list[float] = []
    start = perf_counter()
    while True:
        began = perf_counter()
        traced = trace and len(runs) % 2 == 1
        if traced:
            tracer.install()
            if tracer.missing and len(runs) == 1:
                print("not traced, no such name: " + ", ".join(tracer.missing),
                      file=sys.stderr)
            try:
                outcome = workload.run_pass(Cli(speed, tracer))
            finally:
                tracer.uninstall()
            spans = tracer.collect()
            layers.add(spans, outcome)
            write_spans(work / "spans" / f"pass-{len(runs)}.json", spans)
        else:
            outcome = workload.run_pass(Cli(speed))
        runs.append((traced, outcome))
        lengths.append(perf_counter() - began)
        if outcome.problems:
            break
        elapsed = perf_counter() - start
        while (sum(setup_s) < SETUP_SHARE * elapsed
               or len(setup_s) < MIN_SETUPS * min(1.0, elapsed / seconds)):
            setup_s.append(spare_setup())
            elapsed = perf_counter() - start
        if elapsed + statistics.median(lengths) / 2 >= seconds and (not trace or len(runs) >= 2):
            break
    while len(setup_s) < MIN_SETUPS:
        setup_s.append(spare_setup())
    return runs, layers


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        load_package()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    # the HTTP client must reach the local endpoint directly
    os.environ["NO_PROXY"] = os.environ["no_proxy"] = "127.0.0.1,localhost"

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    setup_s: list[float] = []
    speed = Speedometer()

    def spare_setup() -> float:
        spare = WORKLOADS[args.workload](args.seed)
        where = work / "setup-spare"
        try:
            return timed_setup(speed, spare, where)
        finally:
            spare.teardown()
            shutil.rmtree(where, ignore_errors=True)

    workload = WORKLOADS[args.workload](args.seed)
    try:
        setup_s.append(timed_setup(speed, workload, work / "setup-0"))
        runs, layers = measure(
            workload, speed, args.seconds, bool(args.trace), work, setup_s, spare_setup
        )
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        workload.teardown()

    outcomes = [outcome for _, outcome in runs]
    untraced = [o for traced, o in runs if not traced]
    problems = [p for o in outcomes for p in o.problems]
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    if args.trace and not layers.passes:
        # the gate stopped the run before its first traced pass; the result
        # says so, with no figures
        metrics, wanted = {}, []
    elif args.trace:
        traced = [o for t, o in runs if t]
        metrics = layers.metrics(
            statistics.mean(o.wall_s for o in traced),
            statistics.mean(o.wall_s for o in untraced),
        )
        if workload.sends_every_prompt and metrics["prompts.bytes"] != metrics["prompt_bytes"]:
            problems.append(
                f"prompts put to the oracle ({metrics['prompts.bytes']} bytes a pass) "
                f"differ from those counted outside ({metrics['prompt_bytes']} bytes)"
            )
        wanted = [m["name"] for m in spec["per_layer"]]
    else:
        metrics = {
            "setup_s": statistics.median(setup_s),
            "wall_s": statistics.mean(o.wall_s for o in untraced),
            "oracle_queries": statistics.median_low(o.queries for o in outcomes),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        wanted = [m["name"] for m in spec["end_to_end"]]
    if sorted(metrics) != sorted(wanted):
        print(f"error: computed metrics {sorted(metrics)} are not those in "
              f"{SPEC.name} {sorted(wanted)}", file=sys.stderr)
        return 2

    print(f"{args.workload} seed={args.seed} trace={args.trace}: {len(runs)} passes, "
          f"{len(setup_s)} set-ups; untraced passes, reference (measured) s: "
          + " ".join(f"{o.wall_s:.3f} ({o.measured_s:.3f})" for o in untraced))
    shown = dict(metrics)
    if not args.trace:
        # counted every pass, but zero on some workloads, so not gated
        last = outcomes[-1]
        shown["http_requests"] = last.endpoint.get("requests", 0)
        shown["prompt_bytes"] = last.prompt_bytes
        shown["failed_share"] = failed / attempted if attempted else 0.0
    for name, value in shown.items():
        print(f"  {name:<44} {value:>16.6g} {units[name]}")
    for problem in problems:
        print(f"gate: {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
