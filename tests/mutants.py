"""Plant each mutant of a table in a copy of the repository; fail on one that
no test kills.

    python tests/mutants.py [REV]

A mutant is a hand-made fault that some tests were written to catch. Each
row of ``MUTANTS`` names a file, text it holds exactly once, the text that
replaces it, and the test ids that must fail once it is replaced. A test id
is a pytest node id, of one test or of a parametrized test's every case.

The copy is ``git archive REV`` (default HEAD) unpacked into a temporary
directory. First every listed id must select a test there. Then each row's
mutant is planted on its own and only its tests run, under pytest in a
subprocess. An id is killed when a test it selects fails, or when its file
fails to import. The exit status is 1 when an id selects no test, a row's
old text does not occur exactly once, or a mutant leaves an id unkilled;
else 0. Rows and their ids only ever grow: a test is not weakened to kill a
mutant, and a row is not dropped because its mutant survives.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

REPO = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = (
    Mutant(
        "split prompt twin keeps its EDU lines unescaped",
        "src/rstkit/prompts.py",
        "twin._lines = list(map(body, self._lines))",
        "twin._lines = list(self._lines)",
        (
            "tests/test_records.py::test_escaped_split_prompts_are_json_strings",
            "tests/test_training.py::test_top_down_export_is_json_dumps_of_each_pair[None]",
            "tests/test_training.py::test_top_down_export_is_json_dumps_of_each_pair[3]",
            "tests/test_training.py::test_top_down_export_is_json_dumps_of_each_pair[30]",
        ),
    ),
    Mutant(
        "split prompt twin escapes to ASCII",
        "src/rstkit/prompts.py",
        "return json_string(text)[1:-1]",
        'return __import__("json").encoder.encode_basestring_ascii(text)[1:-1]',
        (
            "tests/test_records.py::test_escaped_split_prompts_are_json_strings",
            "tests/test_training.py::test_top_down_export_is_json_dumps_of_each_pair[None]",
            "tests/test_training.py::test_top_down_export_is_json_dumps_of_each_pair[30]",
        ),
    ),
    Mutant(
        "bottom-up keeps its decision closure's name",
        "src/rstkit/bottomup.py",
        "        action = None\n",
        "        pass\n",
        ("tests/test_core.py::test_parses_leave_no_garbage_cycles",),
    ),
    Mutant(
        "top-down keeps its decision closure's name",
        "src/rstkit/topdown.py",
        "        split = None\n",
        "        pass\n",
        ("tests/test_core.py::test_parses_leave_no_garbage_cycles",),
    ),
    Mutant(
        "bottom-up drops its decision closure's name only on success",
        "src/rstkit/bottomup.py",
        "        trace = run_decisions(oracle, action())\n    finally:\n",
        "        trace = run_decisions(oracle, action())\n"
        "    except BaseException:\n        raise\n    else:\n",
        ("tests/test_core.py::test_parses_leave_no_garbage_cycles",),
    ),
    Mutant(
        "top-down drops its decision closure's name only on success",
        "src/rstkit/topdown.py",
        "        trace = run_decisions(oracle, split(1, n))\n    finally:\n",
        "        trace = run_decisions(oracle, split(1, n))\n"
        "    except BaseException:\n        raise\n    else:\n",
        ("tests/test_core.py::test_parses_leave_no_garbage_cycles",),
    ),
    Mutant(
        "main puts the caller's collector thresholds back only on success",
        "src/rstkit/cli.py",
        "        args = _parse_args(argv)\n        return args.func(args)\n",
        "        caller, thresholds = thresholds, gc.get_threshold()\n"
        "        args = _parse_args(argv)\n        code = args.func(args)\n"
        "        thresholds = caller\n        return code\n",
        tuple(
            f"tests/test_cli.py::test_main_puts_back_the_callers_gc_thresholds[{case}]"
            for case in ("bad-strategy-flag", "bad-strategy-config", "malformed-dis", "raises")
        ),
    ),
    Mutant(
        "main holds a parser while the command runs",
        "src/rstkit/cli.py",
        "        args = _parse_args(argv)\n",
        "        parser = build_parser()\n        args = _parse_args(argv)\n",
        ("tests/test_cli.py::test_main_holds_no_parser_while_the_command_runs",),
    ),
    Mutant(
        "an answer legal as written is taken as written",
        "src/rstkit/engine.py",
        "    labels = decision.query.valid_labels\n    label = None\n",
        '    if raw in decision.legal:\n        return raw, ""\n'
        "    labels = decision.query.valid_labels\n    label = None\n",
        (
            "tests/test_oracle.py::test_answer_rule_by_lookup_equals_resolve_label",
            "tests/test_oracle.py::"
            "test_an_answer_spelled_as_a_label_resolves_to_its_canonical_label[List-labels0-list]",
            "tests/test_oracle.py::"
            "test_an_answer_spelled_as_a_label_resolves_to_its_canonical_label[02-labels2-2]",
        ),
    ),
    Mutant(
        "a zero-padded split answer is read as its label",
        "src/rstkit/engine.py",
        '            and (raw[0] != "0" or len(raw) == 1)\n',
        "",
        ("tests/test_oracle.py::test_answer_rule_by_lookup_equals_resolve_label",),
    ),
    Mutant(
        "split answers resolve through the label tables",
        "src/rstkit/engine.py",
        "    if decision.kind == SPLIT:\n",
        "    if False:\n",
        (
            "tests/test_oracle.py::"
            "test_gold_replay_resolves_every_answer_without_the_scan[left-chain-top-down]",
            "tests/test_oracle.py::"
            "test_gold_replay_resolves_every_answer_without_the_scan[right-chain-top-down]",
        ),
    ),
    Mutant(
        "an inventory admits labels the answer rule reads alike",
        "src/rstkit/core.py",
        "        for label in self.relations:\n",
        "        for label in ():\n",
        (
            "tests/test_core.py::"
            "test_inventory_whose_labels_read_alike_is_refused_where_it_is_made",
            "tests/test_cli.py::test_inventory_whose_labels_read_alike_exits_two",
            "tests/test_corpus.py::test_load_inventory_errors",
        ),
    ),
    Mutant(
        "a string option takes the empty string",
        "src/rstkit/cli.py",
        '        elif value == "":\n            ok, takes = False, "a non-empty string"\n',
        "",
        (
            "tests/test_cli.py::test_an_empty_string_option_exits_two",
            "tests/test_cli.py::test_an_empty_config_path_exits_two",
        ),
    ),
)

# Runs pytest on the arguments after the report path, and writes there the
# node ids it collected and those whose collection, set-up, call or
# teardown failed.
_RUNNER = """
import json, sys
import pytest

class Report:
    def __init__(self):
        self.collected, self.failed = [], []

    def pytest_collection_finish(self, session):
        self.collected.extend(item.nodeid for item in session.items)

    def pytest_collectreport(self, report):
        if report.failed:
            self.failed.append(report.nodeid)

    def pytest_runtest_logreport(self, report):
        if report.failed:
            self.failed.append(report.nodeid)

report = Report()
pytest.main(sys.argv[2:], plugins=[report])
with open(sys.argv[1], "w") as handle:
    json.dump(vars(report), handle)
"""


def selects(test_id: str, node_id: str) -> bool:
    """Whether ``test_id`` names the test ``node_id`` or the file or test
    it belongs to."""
    return node_id == test_id or node_id.startswith((test_id + "[", test_id + "::"))


def run_tests(copy: Path, tests: tuple[str, ...], *flags: str) -> dict:
    """Collected and failed node ids of pytest run on ``tests`` in ``copy``."""
    report = copy / ".mutant-report.json"
    env = dict(os.environ, PYTHONPATH="src")
    subprocess.run(
        [sys.executable, "-c", _RUNNER, str(report), "-q", "-p", "no:cacheprovider",
         *flags, *tests],
        cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    result = json.loads(report.read_text())
    report.unlink()
    return result


def main(argv: list[str]) -> int:
    rev = argv[0] if argv else "HEAD"
    archive = subprocess.run(
        ["git", "archive", rev], cwd=REPO, check=True, capture_output=True
    ).stdout
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        every = tuple(dict.fromkeys(t for mutant in MUTANTS for t in mutant.tests))
        collected = run_tests(copy, every, "--collect-only")["collected"]
        for test_id in every:
            if not any(selects(test_id, node) for node in collected):
                print(f"no such test: {test_id}")
                failures += 1
        for mutant in MUTANTS:
            path = copy / mutant.path
            source = path.read_text(encoding="utf-8")
            count = source.count(mutant.old)
            if count != 1:
                print(f"stale: {mutant.name}: its old text occurs {count} times in {mutant.path}")
                failures += 1
                continue
            path.write_text(source.replace(mutant.old, mutant.new), encoding="utf-8")
            try:
                failed = run_tests(copy, mutant.tests)["failed"]
            finally:
                path.write_text(source, encoding="utf-8")
            survived = [
                test_id for test_id in mutant.tests
                if not any(
                    selects(test_id, node) or selects(node, test_id) for node in failed
                )
            ]
            if survived:
                print(f"SURVIVED: {mutant.name} ({mutant.path})")
                for test_id in survived:
                    print(f"  passes: {test_id}")
                failures += 1
            else:
                print(f"killed: {mutant.name}")
    print(f"{len(MUTANTS)} mutants, {failures} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
