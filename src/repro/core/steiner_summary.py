"""ST summary explanations (§IV-A).

Applies the Eq. (1) explanation-aware weighting and extracts the Steiner
tree over the scenario's terminal set. The λ knob interpolates between
"invent a fresh connecting explanation" (λ=0) and "stitch together the
given explanation paths" (λ→∞).
"""

from __future__ import annotations

from repro.core.explanation import SubgraphExplanation
from repro.core.scenarios import SummaryTask
from repro.core.weighting import ExplanationWeighting
from repro.graph.knowledge_graph import KnowledgeGraph
from repro.graph.mehlhorn import mehlhorn_steiner_tree
from repro.graph.steiner import steiner_tree

ALGORITHMS = ("kmb", "mehlhorn")


class SteinerSummarizer:
    """Steiner-Tree summarizer bound to one knowledge graph.

    Parameters
    ----------
    graph:
        The knowledge-based graph recommendations were drawn from.
    lam:
        λ of Eq. (1); the paper sweeps {0.01, 1, 100}.
    weight_influence:
        ρ of the cost transform (see :mod:`repro.core.weighting`).
    algorithm:
        "kmb" — the paper's Algorithm 1 (Kou-Markowsky-Berman,
        O(|T|·(|E| + |V| log |V|))) — or "mehlhorn", the single-sweep
        2-approximation offered as the §VII "refinement" ablation.
    engine:
        "frozen" (default) runs the traversal hot loops on the graph's
        cached CSR view (see :meth:`KnowledgeGraph.freeze`),
        re-freezing automatically when the graph has been mutated — the
        KMB metric closure for "kmb", the single multi-source Voronoi
        sweep for "mehlhorn". "dict" forces the original dict-of-dicts
        traversal. Both engines produce identical trees (tie-breaking
        included); "dict" exists as the parity oracle and escape
        hatch.
    closure_cache:
        Optional terminal-closure memoizer (duck-typed; see
        :class:`repro.core.batch.TerminalClosureCache`). Shared across
        tasks by the batch engine; None (default) computes every
        closure fresh. Only canonical "kmb" runs read it: its closures
        come from the numpy kernel, whose predecessor trees do not
        follow heap order.
    canonical:
        Canonical-SPT tie-breaking for the "kmb" closure paths (see
        :func:`repro.graph.steiner.canonical_shortest_path`): among
        equal-cost shortest paths, pick predecessors by smallest node
        id from the final distances instead of by heap pop order.
        Default on — Eq. (1) costs are strictly positive, which the
        canonical walk requires, and the deterministic choice makes the
        summary depend only on the closure distances, not on heap
        tie-breaking or adjacency insertion order ("mehlhorn" runs
        ignore the flag; its unfold follows the Voronoi tree, which has
        no per-pair reconstruction step).
    """

    method = "ST"

    ENGINES = ("frozen", "dict")

    def __init__(
        self,
        graph: KnowledgeGraph,
        lam: float = 1.0,
        weight_influence: float = 0.7,
        algorithm: str = "kmb",
        engine: str = "frozen",
        closure_cache=None,
        canonical: bool = True,
    ) -> None:
        if algorithm not in ALGORITHMS:
            raise ValueError(
                f"unknown algorithm {algorithm!r}; expected {ALGORITHMS}"
            )
        if engine not in self.ENGINES:
            raise ValueError(
                f"unknown engine {engine!r}; expected {self.ENGINES}"
            )
        self.graph = graph
        self.lam = lam
        self.weight_influence = weight_influence
        self.algorithm = algorithm
        self.engine = engine
        self.closure_cache = closure_cache
        self.canonical = canonical

    def summarize(self, task: SummaryTask) -> SubgraphExplanation:
        """Compute the ST summary for one task.

        Terminals missing from the graph (e.g. synthetic users filtered
        out upstream) raise ``KeyError``; disconnected terminals raise
        ``ValueError`` — the user-facing :class:`repro.core.summarizer.
        Summarizer` narrows to the largest connected terminal subset
        first.
        """
        weighting = ExplanationWeighting(
            graph=self.graph,
            task=task,
            lam=self.lam,
            weight_influence=self.weight_influence,
        )
        if self.algorithm == "mehlhorn":
            if self.engine == "frozen":
                frozen = self.graph.freeze()
                tree = mehlhorn_steiner_tree(
                    self.graph,
                    list(task.terminals),
                    cost_fn=weighting.cost_fn(),
                    frozen=frozen,
                    slot_costs=weighting.slot_costs(frozen),
                )
            else:
                tree = mehlhorn_steiner_tree(
                    self.graph,
                    list(task.terminals),
                    cost_fn=weighting.cost_fn(),
                )
        elif self.engine == "frozen":
            frozen = self.graph.freeze()
            slot_costs = weighting.slot_costs(frozen)
            pair_fn = None
            # The cache's runs carry an arbitrary tie-breaking
            # predecessor tree; heap-order reconstruction must not
            # read them.
            if self.closure_cache is not None and self.canonical:
                pair_fn = self.closure_cache.pair_fn(frozen, slot_costs)
            tree = steiner_tree(
                self.graph,
                list(task.terminals),
                cost_fn=weighting.cost_fn(),
                frozen=frozen,
                slot_costs=slot_costs,
                pair_fn=pair_fn,
                canonical=self.canonical,
            )
        else:
            tree = steiner_tree(
                self.graph,
                list(task.terminals),
                cost_fn=weighting.cost_fn(),
                canonical=self.canonical,
            )
        return SubgraphExplanation(
            subgraph=tree,
            task=task,
            method=self.method,
            params={
                "lam": self.lam,
                "weight_influence": self.weight_influence,
                "algorithm": self.algorithm,
            },
        )
