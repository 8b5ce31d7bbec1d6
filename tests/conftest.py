"""Shared fixtures: corpus paths, random tree builders, a tree validity
check, an oracle over a plain function, hypothesis profiles and the deep
switch."""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest
from hypothesis import settings, strategies as st

from rstkit import (
    NUCLEARITY_PATTERNS,
    Document,
    Edu,
    Leaf,
    MalformedTree,
    Node,
    builtin_inventory,
    builtin_relation_map,
    leaves,
    load_documents,
    minicorpus_dir,
    node_table,
)

# deterministic property tests: same examples on every run; pytest's
# --hypothesis-profile=deep selects the longer run
settings.register_profile("ci", derandomize=True, max_examples=60)
settings.register_profile("deep", derandomize=True, max_examples=2000)
settings.load_profile("ci")


def deep() -> bool:
    """Whether pytest runs with --hypothesis-profile=deep, which also takes
    the bounded-exhaustive checks to their larger bounds. pytest loads the
    profile after this file is imported, so a test module asks this when
    it is imported itself."""
    return settings.get_current_profile_name() == "deep"


TESTS_DIR = Path(__file__).resolve().parent
DATA_DIR = TESTS_DIR / "data"
GOLDEN_DIR = TESTS_DIR / "goldens"

_WORDS = (
    "plant", "survey", "board", "filing", "route", "quarter", "audit",
    "notice", "crew", "permit", "budget", "draft", "hearing", "market",
)


class FunctionOracle:
    """An oracle that answers each query with ``fn(query)``."""

    def __init__(self, fn, fingerprint: str = "callable"):
        self.complete = fn
        self.fingerprint = fingerprint


def make_edus(n: int, rng: random.Random | None = None) -> tuple[Edu, ...]:
    """n synthetic EDUs with short deterministic texts."""
    rng = rng or random.Random(99)
    return tuple(
        Edu(i, f"{rng.choice(_WORDS)} {rng.choice(_WORDS)} {i}.")
        for i in range(1, n + 1)
    )


def random_tree(
    rng: random.Random,
    edus,
    relations=None,
    lo: int | None = None,
    hi: int | None = None,
):
    """Random binary gold tree over edus[lo-1..hi-1]; labels drawn seeded."""
    relations = relations or builtin_inventory("rst-dt").relations
    lo = 1 if lo is None else lo
    hi = len(edus) if hi is None else hi
    if lo == hi:
        return Leaf(edus[lo - 1])
    mid = rng.randint(lo, hi - 1)
    return Node(
        random_tree(rng, edus, relations, lo, mid),
        random_tree(rng, edus, relations, mid + 1, hi),
        rng.choice(NUCLEARITY_PATTERNS),
        rng.choice(relations),
    )


def check_tree(tree, n_edus: int) -> None:
    """Validate that a tree covers EDUs 1..n_edus exactly once, in order.

    Node construction already enforces adjacency and label sanity; this
    checks the global leaf sequence so engine outputs can be asserted valid.
    """
    got = [leaf.edu.index for leaf in leaves(tree)]
    if got != list(range(1, n_edus + 1)):
        raise MalformedTree(f"leaves cover {got}, expected 1..{n_edus}")


def random_document(rng: random.Random, n: int, doc_id: str = "rand") -> Document:
    edus = make_edus(n, rng)
    return Document(doc_id, edus, node_table(random_tree(rng, edus)))


def chain_tree(edus, right_heavy: bool = True):
    """Fully right- or left-branching tree, built without recursion."""
    leels = [Leaf(e) for e in edus]
    if right_heavy:
        tree = leels[-1]
        for leaf in reversed(leels[:-1]):
            tree = Node(leaf, tree, "nucleus-satellite", "Elaboration")
    else:
        tree = leels[0]
        for leaf in leels[1:]:
            tree = Node(tree, leaf, "nucleus-satellite", "Elaboration")
    return tree


# digits of a number that int() refuses under the interpreter's default
# limit (sys.get_int_max_str_digits, 4300 since Python 3.10.7)
LONG_DIGITS = 5000


@pytest.fixture(params=["default", "unlimited", "least"])
def int_digit_limit(request):
    """Runs the test under each digit limit int() can have: the default,
    none at all, and the least the interpreter allows. An interpreter older
    than the limit runs it once, as it is."""
    if not hasattr(sys, "set_int_max_str_digits"):
        if request.param != "default":
            pytest.skip("this interpreter sets int() no digit limit")
        yield None
        return
    before = sys.get_int_max_str_digits()
    limit = {
        "default": sys.int_info.default_max_str_digits,
        "unlimited": 0,
        "least": sys.int_info.str_digits_check_threshold,
    }[request.param]
    assert LONG_DIGITS > sys.int_info.default_max_str_digits
    sys.set_int_max_str_digits(limit)
    try:
        yield limit
    finally:
        sys.set_int_max_str_digits(before)


@pytest.fixture(scope="session", autouse=True)
def unicode_tables():
    """Hypothesis builds its Unicode tables when a strategy first needs them
    and keeps them under .hypothesis/. In a checkout without that directory
    the build (about 2 s for the UTF-8 codec) would fall in a test's first
    draws and fail its too_slow health check, so it is done here, once a
    session, before the first test."""
    st.characters(codec="utf-8").validate()


@pytest.fixture(scope="session")
def inventory():
    return builtin_inventory("rst-dt")


@pytest.fixture(scope="session")
def relmap():
    return builtin_relation_map("rst-dt-coarse")


@pytest.fixture(scope="session")
def press_release_path() -> Path:
    return DATA_DIR / "press_release.dis"


@pytest.fixture(scope="session")
def minicorpus(relmap) -> list[Document]:
    """All 22 bundled documents, relations mapped, in manifest order."""
    corpus = minicorpus_dir()
    return load_documents(corpus, corpus / "splits.tsv", relation_map=relmap)
