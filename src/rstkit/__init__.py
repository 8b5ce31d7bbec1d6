"""RST discourse parsing as deterministic state machines over an oracle.

Two parsing strategies share one pluggable decision source: a bottom-up
shift-reduce transition system and a top-down span splitter. Everything
else supports them: treebank I/O, binarization, prompt rendering, training
export, and Standard-Parseval evaluation.
"""

from .bottomup import parse_bottom_up
from .core import (
    NN,
    NS,
    NUCLEARITY_PATTERNS,
    SN,
    Action,
    DocumentText,
    Edu,
    LabelInventory,
    Leaf,
    MalformedTree,
    NaryNode,
    Node,
    Reduce,
    RstTree,
    Shift,
    SplitStep,
    binarize,
    check_tree,
    derive_shift_reduce_sequence,
    derive_split_sequence,
    edu_count,
    internal_nodes,
    leaves,
    span_text,
    tree_text,
    validate_nary,
)
from .corpus import (
    ConfigError,
    DisSyntaxError,
    Document,
    MissingDocument,
    OverlappingSplits,
    RelationMap,
    UnknownRelation,
    builtin_inventory,
    builtin_relation_map,
    load_documents,
    load_inventory,
    load_relation_map,
    load_split_manifest,
    minicorpus_dir,
    normalize_relation,
    normalize_edu_text,
    parse_dis,
    read_dis,
    read_tree,
    resolve_document_path,
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
    LEVELS,
    EmptyCorpus,
    LevelScore,
    ParsevalCounts,
    RelationRow,
    SegmentationMismatch,
    extract_tuples,
    gold_relation_frequencies,
    micro_f1,
    micro_scores,
    per_relation_rows,
    round1,
    score_corpus,
    score_document,
)
from .oracle import (
    CachedOracle,
    CallableOracle,
    HttpOracle,
    KindMismatch,
    Oracle,
    OracleFailure,
    OracleQuery,
    ReplayExhausted,
    ReplayOracle,
    ScriptedOracle,
    StoreCorrupt,
    resolve_label,
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
    render_action_prompt,
    render_nuclearity_prompt,
    render_relation_prompt,
    render_split_prompt,
    span_slot,
    split_labels,
    truncate_span,
    truncate_text,
)
from .topdown import parse_top_down, relative_index_bounds
from .training import (
    BOTTOM_UP,
    FINE_TUNING_DEFAULTS,
    STRATEGIES,
    TOP_DOWN,
    TrainingExample,
    example_to_json,
    export_metadata,
    export_training_pairs,
    gold_walk,
    replay_oracle,
)

__version__ = "0.1.0"
