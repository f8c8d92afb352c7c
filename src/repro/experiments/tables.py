"""Table reproductions: the worked example (Table I), the ML1M graph
statistics (Table II) and the synthetic graph statistics (Table III).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.explanation import PathSetExplanation
from repro.core.scenarios import Scenario, SummaryTask
from repro.core.steiner_summary import SteinerSummarizer
from repro.core.verbalize import verbalize_path, verbalize_summary
from repro.experiments.config import ExperimentConfig
from repro.experiments.workbench import Workbench
from repro.graph.generators import SyntheticSpec, generate_random_kg, table3_specs
from repro.graph.knowledge_graph import KnowledgeGraph
from repro.graph.paths import Path
from repro.graph.types import GraphStats


@dataclass(frozen=True, slots=True)
class Table1Result:
    """The worked example: individual paths vs their summary."""

    path_sentences: tuple[str, ...]
    summary_sentence: str
    total_path_edges: int
    summary_edges: int


def table1_example() -> Table1Result:
    """Reproduce the paper's Table I / Fig 1 Angelopoulos example.

    Builds the small movie graph from the figure, the three explanation
    paths for User 1, and the ST summary; the paper reports the total
    explanation length dropping from 13 edges to 6.
    """
    graph, paths = angelopoulos_example()
    user = "u:1"
    items = tuple(p.item for p in paths)
    task = SummaryTask(
        scenario=Scenario.USER_CENTRIC,
        terminals=(user, *items),
        paths=tuple(paths),
        anchors=items,
        focus=(user,),
        k=len(items),
    )
    summary = SteinerSummarizer(graph, lam=100.0).summarize(task)
    return Table1Result(
        path_sentences=tuple(verbalize_path(p, graph) for p in paths),
        summary_sentence=verbalize_summary(summary, graph),
        total_path_edges=PathSetExplanation(paths=tuple(paths)).size_in_edges,
        summary_edges=summary.subgraph.num_edges,
    )


def angelopoulos_example() -> tuple[KnowledgeGraph, list[Path]]:
    """The Fig 1 toy graph: User 1, six Angelopoulos films, two key
    entities (Theo Angelopoulos, Drama) plus the clutter nodes the
    individual paths wander through."""
    graph = KnowledgeGraph()
    names = {
        "u:1": "User 1",
        "u:2": "User 2",
        "i:1": "Eternity and a Day",
        "i:2": "The Beekeeper",
        "i:3": "The Suspended Step of the Stork",
        "i:4": "Landscape in the Mist",
        "i:5": "The Travelling Players",
        "i:6": "Ulysses' Gaze",
        "i:7": "The Weeping Meadow",
        "i:8": "The Dust of Time",
        "e:director:0": "Theo Angelopoulos",
        "e:genre:0": "Drama",
    }
    interactions = [
        ("u:1", "i:4", 4.0),
        ("u:1", "i:6", 5.0),
        ("u:1", "i:7", 4.0),
        ("u:2", "i:4", 4.0),
        ("u:2", "i:5", 5.0),
    ]
    knowledge = [
        ("i:5", "e:genre:0", "genre"),
        ("i:1", "e:genre:0", "genre"),
        ("i:8", "e:genre:0", "genre"),
        ("i:3", "e:genre:0", "genre"),
        ("i:6", "e:genre:0", "genre"),
        ("i:7", "e:genre:0", "genre"),
        ("i:6", "e:director:0", "director"),
        ("i:2", "e:director:0", "director"),
        ("i:7", "e:director:0", "director"),
        ("i:8", "e:director:0", "director"),
    ]
    for u, i, r in interactions:
        graph.add_edge(u, i, r)
    for i, e, rel in knowledge:
        graph.add_edge(i, e, 0.0, rel)
    for node, name in names.items():
        graph.set_name(node, name)

    paths = [
        # P1,A: User 1 - Landscape in the Mist - User 2 - The Travelling
        # Players - Drama - Eternity and a Day
        Path(nodes=("u:1", "i:4", "u:2", "i:5", "e:genre:0", "i:1")),
        # P1,B: User 1 - Ulysses' Gaze - Theo Angelopoulos - The Beekeeper
        Path(nodes=("u:1", "i:6", "e:director:0", "i:2")),
        # P1,C: User 1 - The Weeping Meadow - Theo Angelopoulos - The Dust
        # of Time - Drama - The Suspended Step of the Stork
        Path(nodes=("u:1", "i:7", "e:director:0", "i:8", "e:genre:0", "i:3")),
    ]
    return graph, paths


def table2(config: ExperimentConfig | None = None, approx_pairs: int = 64) -> GraphStats:
    """Knowledge-graph statistics in the shape of the paper's Table II."""
    bench = Workbench.get(config or ExperimentConfig.ci_scale())
    rng = np.random.default_rng(bench.config.seed + 9)
    return bench.graph.stats(approx_pairs=approx_pairs, rng=rng)


def table3(
    scale: float = 0.05, seed: int = 5
) -> list[tuple[SyntheticSpec, GraphStats]]:
    """Synthetic graph statistics (Table III): spec vs realized stats."""
    rng = np.random.default_rng(seed)
    rows = []
    for spec in table3_specs(scale):
        graph = generate_random_kg(spec, rng)
        stats = graph.stats(approx_pairs=16, rng=rng)
        rows.append((spec, stats))
    return rows
