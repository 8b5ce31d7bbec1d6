"""Command-line entry points.

Subcommands: parse, eval, export-training, derive-actions, report-relations.
A JSON config file sets any option the command line leaves unset; `parse`
leaves a run manifest next to its outputs so a run can be audited and
reproduced.

Exit codes: 0 success, 2 configuration or I/O problems (an unreadable
cache record among them), 3 oracle transport failure, 4 validation failure
(malformed input, missing predictions, replay divergence).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import gc
import hashlib
import json
import math
import os
import shutil
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from .bottomup import parse_bottom_up
from .core import LabelInventory, MalformedTree
from .corpus import (
    ConfigError,
    DisSyntaxError,
    Document,
    MissingDocument,
    UnknownRelation,
    builtin_inventory,
    builtin_relation_map,
    load_documents,
    load_inventory,
    load_relation_map,
    read_dis,
    read_tree,
    read_utf8,
    write_tree,
)
from .engine import EmptyDocument, ParsePolicy, trace_to_jsonl
from .metrics import (
    EmptyCorpus,
    ParsevalCounts,
    SegmentationMismatch,
    micro_scores,
    per_relation_rows,
    score_document,
)
from .oracle import (
    CachedOracle,
    HttpOracle,
    KindMismatch,
    OracleFailure,
    ReplayExhausted,
    ReplayOracle,
    ScriptedOracle,
    StoreCorrupt,
)
from .prompts import ACTION, SPLIT, SplitPrompts
from .topdown import parse_top_down, split_span
from .training import (
    BOTTOM_UP,
    ENGINES,
    KINDS,
    STRATEGIES,
    TOP_DOWN,
    describe_corrections,
    example_to_json,
    export_metadata,
    gold_walk,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ORACLE = 3
EXIT_VALIDATION = 4

# The collector's generation-0 threshold while a command runs. A command
# makes many short-lived objects and few cycles, so the default (700)
# collects hundreds of times a run for little; main puts the caller's
# thresholds back when the command ends.
GC_THRESHOLD = 10_000

_VALIDATION_ERRORS = (
    MalformedTree,
    DisSyntaxError,
    SegmentationMismatch,
    EmptyCorpus,
    EmptyDocument,
    ReplayExhausted,
    KindMismatch,
    MissingDocument,
)


@contextlib.contextmanager
def _replacing(path: Path):
    """A UTF-8 text file that replaces ``path`` when the block ends without error."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            yield handle
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


@contextlib.contextmanager
def _made_dir(path: Path):
    """Directory ``path``, made with its parents if missing; when the block
    fails, what this made is removed again."""
    made = next((p for p in reversed((path, *path.parents)) if not p.exists()), None)
    path.mkdir(parents=True, exist_ok=True)
    try:
        yield path
    except BaseException:
        if made is not None:
            shutil.rmtree(made, ignore_errors=True)
        raise


def write_text_atomic(path: Path, text: str) -> None:
    with _replacing(path) as handle:
        handle.write(text)


def _echo(line: str) -> None:
    """Print a line to stdout, as every command does; what stdout's encoding
    cannot hold prints as backslash escapes."""
    encoding = getattr(sys.stdout, "encoding", None) or "utf-8"
    print(line.encode(encoding, "backslashreplace").decode(encoding))


# ---------------------------------------------------------------------------
# Shared option handling


def _add_corpus_options(sub: argparse.ArgumentParser, **pred_dir) -> None:
    """The options that choose a corpus's documents: from --corpus-dir, or
    given ``pred_dir`` (the keywords of a --pred-dir), from --gold-dir."""
    if pred_dir:
        sub.add_argument("--gold-dir", required=True, help="directory of gold .dis files")
        sub.add_argument("--pred-dir", **pred_dir)
    else:
        sub.add_argument("--corpus-dir", required=True, help="directory of .dis files")
    sub.add_argument("--manifest", help="split manifest (split<TAB>doc_id rows)")
    sub.add_argument("--split", help="only this split from the manifest")
    sub.add_argument(
        "--relation-map",
        help="relation map: bundled name (rst-dt-coarse, gum-rstdt) or file path",
    )


def _add_policy_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--inventory",
        default="rst-dt",
        help="label inventory: bundled name (rst-dt, instr-dt) or file path",
    )
    sub.add_argument(
        "--query-forced",
        action="store_true",
        help="consult the oracle even on forced moves",
    )
    sub.add_argument(
        "--truncate",
        type=int,
        default=None,
        metavar="CHARS",
        help="center-elide span texts beyond this many characters",
    )
    sub.add_argument("--strategy", choices=STRATEGIES, default=BOTTOM_UP)


# fixture kind -> (loader of a file, loader of a bundled name)
_FIXTURES = {
    "inventory": (load_inventory, builtin_inventory),
    "relation map": (load_relation_map, builtin_relation_map),
}


def _fixture(kind: str, spec: str | None):
    """The inventory or relation map that spec names: a file path first,
    then a bundled name. No spec, no fixture."""
    if spec is None:
        return None
    from_file, bundled = _FIXTURES[kind]
    if Path(spec).is_file():
        return from_file(spec)
    try:
        return bundled(spec)
    except FileNotFoundError:
        raise ConfigError(f"no bundled {kind} or file named {spec!r}") from None


# The bounds argparse cannot declare: dest -> (test, what the flag takes).
_BOUNDS = {
    "truncate": (lambda v: v >= 0, "a character count of 0 or more"),
    "workers": (lambda v: v >= 1, "an integer of 1 or more"),
    "retries": (lambda v: v >= 0, "an integer of 0 or more"),
    "max_tokens": (lambda v: v >= 1, "an integer of 1 or more"),
    "timeout": (lambda v: 0 < v < math.inf, "a number above 0"),
    "backoff": (lambda v: 0 <= v < math.inf, "a number of 0 or more"),
}


def _settle_options(
    sub: argparse.ArgumentParser, declared: dict, config: dict, args: argparse.Namespace
) -> None:
    """Set each option of command ``sub`` that no flag gave: from ``config``,
    a string read by the flag's type as argparse reads the flag's text, else
    the flag's ``declared`` default. Then check each option by the rule its
    flag declares; None passes where the declared default is None, and ""
    nowhere: commands would read it as unset or as the working directory."""
    for action in sub._actions:
        if declared[action.dest] is argparse.SUPPRESS:
            continue  # --help
        if not hasattr(args, action.dest):
            value = config.get(action.dest, declared[action.dest])
            if action.type is not None and isinstance(value, str):
                # a string the type cannot read stays one, and is refused below
                with contextlib.suppress(TypeError, ValueError):
                    value = action.type(value)
            setattr(args, action.dest, value)
        value = getattr(args, action.dest)
        if value is None and declared[action.dest] is None:
            continue
        if action.nargs == 0:
            ok, takes = type(value) is bool, "true or false"
        elif action.choices:
            ok, takes = value in action.choices, "one of " + ", ".join(action.choices)
        elif action.type is int:
            ok, takes = type(value) is int, "an integer"  # a bool is an int too
        elif action.type is float:
            ok, takes = type(value) in (int, float), "a number"
        elif value == "":
            ok, takes = False, "a non-empty string"
        else:
            ok, takes = type(value) is str, "a string"
        if action.dest in _BOUNDS:
            test, takes = _BOUNDS[action.dest]
            ok = ok and test(value)
        if not ok:
            raise ConfigError(f"{action.option_strings[0]} takes {takes}, not {value!r}")


def _documents(args: argparse.Namespace, corpus_dir: str) -> list[Document]:
    """The documents a command works on, relations mapped as they load."""
    relation_map = _fixture("relation map", args.relation_map)
    return load_documents(corpus_dir, args.manifest, args.split, relation_map)


def _policy(args: argparse.Namespace) -> ParsePolicy:
    return ParsePolicy(skip_forced=not args.query_forced, truncate_chars=args.truncate)


def _predictions(pred_dir: str, documents: list[Document]):
    """Yield (document, predicted node table) from ``pred_dir/<doc_id>.tree``
    files; a prediction that does not cover the document's EDUs raises
    SegmentationMismatch as it is read."""
    for doc in documents:
        pred_path = Path(pred_dir) / f"{doc.doc_id}.tree"
        if not pred_path.is_file():
            raise MissingDocument(f"no prediction {pred_path}")
        line = read_utf8(pred_path, DisSyntaxError)
        yield doc, read_tree(line.strip(), doc.edus)


# ---------------------------------------------------------------------------
# parse


def _make_shared_oracle(args: argparse.Namespace):
    """Oracle shared across documents, or None when replay (per-document).
    An HTTP client is wrapped in its cache by ``cmd_parse``, which reads the
    store once the run has a manifest."""
    if args.cache_dir and args.oracle != "http":
        raise ConfigError("--cache-dir needs --oracle http")
    if args.oracle == "replay":
        return None
    if args.oracle == "scripted":
        if not args.script:
            raise ConfigError("--oracle scripted needs --script FILE")
        answers = read_utf8(args.script).splitlines()
        return ScriptedOracle(answers, cycle=args.cycle_script)
    if not args.endpoint or not args.model:
        raise ConfigError("--oracle http needs --endpoint and --model")
    try:
        return HttpOracle(
            endpoint=args.endpoint,
            model=args.model,
            max_tokens=args.max_tokens,
            timeout=args.timeout,
            retries=args.retries,
            backoff=args.backoff,
        )
    except ValueError as exc:  # an endpoint no request can reach
        raise ConfigError(str(exc)) from None


def cmd_parse(args: argparse.Namespace) -> int:
    """Parse every document. Replay and scripted answers are asked one at a
    time, a document at a time, on this thread. HTTP answers go through one
    cache, which keeps them for the run, with or without ``--cache-dir``;
    up to ``--workers`` documents are parsed at once, each on its own
    thread, and each puts every round of ready queries to the cache in one
    call.
    """
    started = time.time()
    inventory = _fixture("inventory", args.inventory)
    policy = _policy(args)
    documents = _documents(args, args.corpus_dir)
    # these globals, not training.ENGINES: perfbench/tracer.py wraps them here
    engine = parse_bottom_up if args.strategy == BOTTOM_UP else parse_top_down
    shared = _make_shared_oracle(args)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    config = {
        key: value
        for key, value in sorted(vars(args).items())
        if key not in ("func", "config")
    }
    config_hash = hashlib.sha256(json.dumps(config, sort_keys=True).encode()).hexdigest()

    # manifest rows of the documents finished so far, by document index
    rows: dict[int, dict] = {}
    # what each replay that corrected an answer corrected, in document
    # order; with a gold replay, a correction means the inventory lacks a
    # gold label
    corrections: list[str] = []
    cache: CachedOracle | None = None

    def write_manifest(status: str, error: Exception | None = None) -> dict:
        doc_rows = [rows[index] for index in sorted(rows)]
        manifest = {
            "status": status,
            "error": None if error is None else f"{type(error).__name__}: {error}",
            "config": config,
            "config_hash": config_hash,
            "documents": doc_rows,
            "totals": {
                "documents": len(doc_rows),
                "queries": sum(row["queries"] for row in doc_rows),
                "corrected": sum(row["corrected"] for row in doc_rows),
            },
            "cache": cache.report() if cache is not None and args.cache_dir else None,
            "elapsed_seconds": round(time.time() - started, 3),
        }
        write_text_atomic(
            out_dir / "run_manifest.json", json.dumps(manifest, indent=2) + "\n"
        )
        return manifest

    def run_one(index: int) -> None:
        """Parse and write one document; record its row of the run manifest."""
        doc = documents[index]
        oracle = ReplayOracle(doc.nodes) if shared is None else shared
        result = engine(doc.edus, oracle, inventory, policy)
        if shared is None and result.corrected_count:
            corrections.append(
                describe_corrections(args.strategy, doc.doc_id, result, inventory)
            )
        # the trace first, so that a .tree on disk always has its trace
        write_text_atomic(out_dir / f"{doc.doc_id}.trace.jsonl", trace_to_jsonl(result.trace))
        write_text_atomic(out_dir / f"{doc.doc_id}.tree", write_tree(result.nodes) + "\n")
        # the trace, with every prompt, is dropped here, not held to the end
        rows[index] = {
            "doc_id": doc.doc_id,
            "edus": len(doc.edus),
            "decisions": len(result.trace),
            "queries": result.query_count,
            "corrected": result.corrected_count,
        }

    # a run killed before it ends leaves this manifest behind
    write_manifest("running")
    error = None
    try:
        if args.oracle == "http":
            shared = cache = CachedOracle(shared, args.cache_dir)
        if cache is not None and args.workers > 1:
            with ThreadPoolExecutor(max_workers=args.workers) as pool:
                list(pool.map(run_one, range(len(documents))))
        else:
            for index in range(len(documents)):
                run_one(index)
    except Exception as exc:
        # the manifest below records the failure; main maps it to an exit code
        error = exc
    finally:
        # no connection or fetch thread outlives the command
        if hasattr(shared, "close"):
            shared.close()

    totals = write_manifest("ok" if error is None else "failed", error)["totals"]
    if error is not None:
        raise error
    _echo(
        f"parsed {totals['documents']} documents with {args.strategy}: "
        f"{totals['queries']} queries, {totals['corrected']} corrected -> {out_dir}"
    )
    if corrections:
        print(f"warning: {corrections[0]}", file=sys.stderr)
    return EXIT_OK


# ---------------------------------------------------------------------------
# eval


def cmd_eval(args: argparse.Namespace) -> int:
    documents = _documents(args, args.gold_dir)
    pairs = list(_predictions(args.pred_dir, documents))
    total = sum(
        (score_document(nodes, doc.nodes, not args.exclude_root) for doc, nodes in pairs),
        ParsevalCounts(),
    )
    scores = micro_scores(total)
    _echo("level\tprecision\trecall\tf1")
    for level, score in scores.items():
        _echo("\t".join(map(str, (level, *dataclasses.astuple(score)))))
    if args.out:
        payload = {
            "documents": len(documents),
            "counts": dataclasses.asdict(total),
            "scores": {
                level: dataclasses.asdict(score) for level, score in scores.items()
            },
        }
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        write_text_atomic(out, json.dumps(payload, indent=2) + "\n")
    if total.matched_span and not total.matched_relation:
        gold = {relation for doc, _ in pairs for _, _, relation in doc.nodes.values()}
        predicted = {relation for _, nodes in pairs for _, _, relation in nodes.values()}
        if not gold & predicted:
            print(
                f"warning: the gold and predicted trees share no relation"
                f" (gold {min(gold)!r}, predicted {min(predicted)!r}); parse"
                f" and eval the corpus with the same --relation-map",
                file=sys.stderr,
            )
    return EXIT_OK


# ---------------------------------------------------------------------------
# export-training


def cmd_export_training(args: argparse.Namespace) -> int:
    inventory = _fixture("inventory", args.inventory)
    policy = _policy(args)
    documents = _documents(args, args.corpus_dir)
    with _made_dir(Path(args.out)) as out_dir:
        counts = dict.fromkeys(KINDS[args.strategy], 0)
        # each pair is written as it comes, to a temporary file per kind; the
        # files replace their targets only once every document has been walked
        with contextlib.ExitStack() as stack:
            files = {}
            for kind in counts:
                path = out_dir / f"{args.strategy}.{kind}.jsonl"
                files[kind] = stack.enter_context(_replacing(path))
            for doc in documents:
                # a split prompt shows every EDU of its span, so its lines
                # are escaped once per document, not once per prompt, and the
                # walk renders each split prompt once, escaped
                split_prompts = None
                if args.strategy == TOP_DOWN:
                    texts = [edu.text for edu in doc.edus]
                    split_prompts = SplitPrompts(texts, policy.truncate_chars).escaped()
                walk = gold_walk(doc, inventory, args.strategy, policy, split_prompts)
                for example in walk:
                    escaped = example.prompt if example.kind == SPLIT else None
                    # the record and its newline in one call, not joined first
                    record = example_to_json(example, escaped)
                    files[example.kind].writelines((record, "\n"))
                    counts[example.kind] += 1
        meta = export_metadata(inventory, args.strategy, policy, counts)
        meta["documents"] = len(documents)
        write_text_atomic(
            out_dir / f"{args.strategy}.meta.json", json.dumps(meta, indent=2) + "\n"
        )
    summary = ", ".join(f"{kind}={count}" for kind, count in counts.items())
    _echo(f"exported {summary} from {len(documents)} documents -> {out_dir}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# derive-actions


def cmd_derive_actions(args: argparse.Namespace) -> int:
    """Print the gold derivation, a replay parse that asks every decision: a
    row per action, or per split as its span's first and last EDU and its k,
    then the node's nuclearity and relation, each as the gold tree spells it
    (``entry.raw``), whatever the one-label placeholder inventory offers."""
    doc = read_dis(args.file, _fixture("relation map", args.relation_map))
    inventory = LabelInventory(doc.doc_id, ("none",), "none")
    policy = ParsePolicy(skip_forced=False)
    result = ENGINES[args.strategy](doc.edus, ReplayOracle(doc.nodes), inventory, policy)
    rows: list[str] = []
    for entry in result.trace:
        if entry.kind == ACTION:
            rows.append(entry.raw)
        elif entry.kind == SPLIT:
            first, last = split_span(entry.state)
            rows.append(f"{first}\t{last}\t{entry.raw}")
        else:
            rows[-1] += "\t" + entry.raw
    for row in rows:
        _echo(row)
    return EXIT_OK


# ---------------------------------------------------------------------------
# report-relations


def cmd_report_relations(args: argparse.Namespace) -> int:
    documents = _documents(args, args.gold_dir)
    inventory = _fixture("inventory", args.inventory)
    seed = inventory.relations if inventory else ()

    if args.pred_dir:
        pairs = [(pred, doc.nodes) for doc, pred in _predictions(args.pred_dir, documents)]
        header = ("relation", "predicted", "gold", "matched", "f1")
    else:
        # the gold tables scored against themselves: the gold column alone
        pairs = [(doc.nodes, doc.nodes) for doc in documents]
        header = ("relation", "gold")
    rows = per_relation_rows(pairs, seed, not args.exclude_root)
    table = [tuple(getattr(row, name) for name in header) for row in rows]
    widths = [max(len(str(cell)) for cell in column) for column in zip(header, *table)]
    if args.csv:
        Path(args.csv).parent.mkdir(parents=True, exist_ok=True)
        with open(args.csv, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(header)
            writer.writerows(table)
    for row in (header, *table):
        _echo("  ".join(str(c).ljust(w) for c, w in zip(row, widths)).rstrip())
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser wiring


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rstkit",
        description="RST discourse parsing over a pluggable decision oracle",
    )
    parser.add_argument(
        "--config", help="JSON file preloading any flag (flags still win)"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser("parse", help="parse documents to trees and traces")
    _add_corpus_options(sub)
    _add_policy_options(sub)
    sub.add_argument("--oracle", choices=("replay", "scripted", "http"), default="replay")
    sub.add_argument("--script", help="answers file for --oracle scripted")
    sub.add_argument(
        "--cycle-script", action="store_true",
        help="repeat the scripted answers instead of failing at the end",
    )
    sub.add_argument("--endpoint", help="completion endpoint URL for --oracle http")
    sub.add_argument("--model", help="model id for --oracle http")
    sub.add_argument("--max-tokens", type=int, default=16)
    sub.add_argument("--timeout", type=float, default=60.0)
    sub.add_argument("--retries", type=int, default=3)
    sub.add_argument("--backoff", type=float, default=1.0)
    sub.add_argument("--cache-dir", help="persistent answer cache directory")
    sub.add_argument("--workers", type=int, default=1)
    sub.add_argument("--out", required=True, help="output directory")
    sub.set_defaults(func=cmd_parse)

    sub = commands.add_parser("eval", help="score predictions against gold trees")
    _add_corpus_options(sub, required=True, help="directory of .tree files")
    sub.add_argument(
        "--exclude-root", action="store_true",
        help="drop the whole-document tuple from both sides",
    )
    sub.add_argument("--out", help="also write scores as JSON here")
    sub.set_defaults(func=cmd_eval)

    sub = commands.add_parser(
        "export-training", help="emit prompt/completion training pairs"
    )
    _add_corpus_options(sub)
    _add_policy_options(sub)
    sub.add_argument("--out", required=True, help="output directory")
    sub.set_defaults(func=cmd_export_training)

    sub = commands.add_parser(
        "derive-actions", help="print the gold derivation of one document"
    )
    sub.add_argument("--file", required=True, help="a .dis file")
    sub.add_argument("--strategy", choices=STRATEGIES, default=BOTTOM_UP)
    sub.add_argument("--relation-map")
    sub.set_defaults(func=cmd_derive_actions)

    sub = commands.add_parser(
        "report-relations", help="per-relation frequencies and F1"
    )
    _add_corpus_options(sub, help="directory of .tree files (optional)")
    sub.add_argument("--inventory", default=None)
    sub.add_argument("--exclude-root", action="store_true")
    sub.add_argument("--csv", help="also write the table as CSV here")
    sub.set_defaults(func=cmd_report_relations)

    return parser


def _config_file(path: str | None, commands: dict) -> dict:
    """The options of the --config file, each a key some command takes."""
    if path is None:
        return {}
    path = Path(path)
    try:
        config = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"config file {path} does not exist") from None
    except ValueError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(config, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    taken = {action.dest for sub in commands.values() for action in sub._actions}
    unknown = set(config) - (taken - {"help"})
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return config


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """``argv`` read by a parser made for it, then the --config file, each
    option checked.

    argparse reads the command line alone, with every option of a command
    unset unless a flag gives it; --config is checked, and its file fills
    only the options left unset, so a fault on the command line is
    reported before any fault in the config file.

    A parser's objects refer to each other, so only the cyclic collector
    frees one. Neither the parser nor a subparser outlives this call, so
    they are still young when dropped and go at the next young-generation
    collection. One held through a command would be promoted, and would
    then wait for a full collection, which a raised ``GC_THRESHOLD`` makes
    rare.
    """
    parser = build_parser()
    (commands,) = [
        action.choices for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    declared = {}
    for name, sub in commands.items():
        declared[name] = {action.dest: action.default for action in sub._actions}
        for action in sub._actions:
            action.default = argparse.SUPPRESS
    args = parser.parse_args(argv)
    _settle_options(parser, {a.dest: a.default for a in parser._actions}, {}, args)
    config = _config_file(args.config, commands)
    _settle_options(commands[args.command], declared[args.command], config, args)
    return args


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    thresholds = gc.get_threshold()
    gc.set_threshold(GC_THRESHOLD, *thresholds[1:])
    try:
        args = _parse_args(argv)
        return args.func(args)
    except UnknownRelation as exc:
        # only a command given a relation map can meet an unknown relation
        print(f"error: {exc} (--relation-map {args.relation_map})", file=sys.stderr)
        return EXIT_VALIDATION
    except _VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OracleFailure as exc:
        print(f"oracle failure: {exc}", file=sys.stderr)
        return EXIT_ORACLE
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except StoreCorrupt as exc:
        print(f"cache error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    finally:
        gc.set_threshold(*thresholds)


if __name__ == "__main__":
    sys.exit(main())
