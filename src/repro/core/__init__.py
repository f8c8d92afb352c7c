"""Core library: summary explanations for graph recommenders.

This package implements the paper's contribution — aggregating sets of
path-based explanations into small connected subgraphs — for the four
scenarios (user-centric, item-centric, user-group, item-group) with the
Steiner-Tree and Prize-Collecting-Steiner-Tree methods.
"""

from repro.core.scenarios import (
    Scenario,
    SummaryTask,
    item_centric_task,
    item_group_task,
    user_centric_task,
    user_group_task,
)
from repro.core.explanation import (
    Explanation,
    PathSetExplanation,
    SubgraphExplanation,
)
from repro.core.weighting import ExplanationWeighting
from repro.core.batch import (
    BatchReport,
    BatchResult,
    TerminalClosureCache,
    dump_tasks_jsonl,
    load_tasks_jsonl,
)
from repro.core.steiner_summary import SteinerSummarizer
from repro.core.pcst_summary import PCSTSummarizer, PrizePolicy
from repro.core.union_summary import UnionSummarizer
from repro.core.summarizer import Summarizer, summarize
from repro.core.verbalize import verbalize_path, verbalize_summary

__all__ = [
    "BatchReport",
    "BatchResult",
    "Explanation",
    "ExplanationWeighting",
    "PCSTSummarizer",
    "PathSetExplanation",
    "PrizePolicy",
    "Scenario",
    "SteinerSummarizer",
    "SubgraphExplanation",
    "Summarizer",
    "SummaryTask",
    "TerminalClosureCache",
    "UnionSummarizer",
    "dump_tasks_jsonl",
    "item_centric_task",
    "item_group_task",
    "load_tasks_jsonl",
    "summarize",
    "user_centric_task",
    "user_group_task",
    "verbalize_path",
    "verbalize_summary",
]
