"""RST discourse parsing as deterministic state machines over an oracle.

Two parsing strategies share one pluggable decision source: a bottom-up
shift-reduce transition system and a top-down span splitter. Everything
else supports them: treebank I/O, prompt rendering, training export, and
Standard-Parseval evaluation.
"""

from .bottomup import parse_bottom_up
from .core import (
    NN,
    NS,
    NUCLEARITY_PATTERNS,
    SN,
    DocumentText,
    Edu,
    LabelInventory,
    Leaf,
    MalformedTree,
    Node,
    NodeTable,
    RstTree,
    build_tree,
    internal_nodes,
    leaves,
    node_table,
    resolve_label,
)
from .corpus import (
    ConfigError,
    DisSyntaxError,
    Document,
    MissingDocument,
    RelationMap,
    UnknownRelation,
    builtin_inventory,
    builtin_relation_map,
    load_documents,
    load_inventory,
    load_relation_map,
    minicorpus_dir,
    normalize_edu_text,
    parse_dis,
    read_dis,
    read_tree,
    write_tree,
)
from .engine import (
    EmptyDocument,
    ParsePolicy,
    ParseResult,
    TraceEntry,
    trace_to_jsonl,
)
from .metrics import (
    EmptyCorpus,
    LevelScore,
    ParsevalCounts,
    SegmentationMismatch,
    micro_f1,
    micro_scores,
    per_relation_rows,
    score_document,
)
from .oracle import (
    CachedOracle,
    HttpOracle,
    KindMismatch,
    Oracle,
    OracleFailure,
    OracleQuery,
    ReplayExhausted,
    ReplayOracle,
    ScriptedOracle,
    StoreCorrupt,
)
from .prompts import (
    ACTION,
    ACTION_LABELS,
    EMPTY_SLOT,
    NUCLEARITY,
    RELATION,
    SPLIT,
    SplitPrompts,
    action_prompt,
    nuclearity_prompt,
    relation_prompt,
    span_slot,
    truncate_text,
)
from .topdown import parse_top_down
from .training import (
    BOTTOM_UP,
    FINE_TUNING_DEFAULTS,
    STRATEGIES,
    TOP_DOWN,
    TrainingExample,
    example_to_json,
    export_metadata,
    gold_walk,
)

__version__ = "0.1.0"
