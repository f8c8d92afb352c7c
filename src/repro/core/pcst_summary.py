"""PCST summary explanations (§IV-B).

The experiments' default follows the paper's simplification: node prizes
``p(v) = 1`` for terminals and ``0`` otherwise, edge weights ignored
(unit costs) — "we found that using edge weights in the PCST
summarization led to excessively large summaries ... as a result, we
opted to ignore the edge weights".

The future-work prize policies (§VII: "testing additional PCST prize
assignment policies and considering incorporating node centrality
measures") are implemented as :class:`PrizePolicy` variants.
"""

from __future__ import annotations

from enum import Enum

from repro.core.explanation import SubgraphExplanation
from repro.core.scenarios import SummaryTask
from repro.graph.knowledge_graph import KnowledgeGraph
from repro.graph.pcst import grow_prune_pcst, paper_pcst
from repro.graph.types import NodeType


class PrizePolicy(Enum):
    """How node prizes are assigned.

    - ``BINARY``: the paper's experimental setting (1 / 0).
    - ``WEIGHT_RANGE``: §IV-B's formal setting — α = max w(e) for
      terminals, β = min w(e) for the rest.
    - ``DEGREE_CENTRALITY``: terminals get 1; non-terminals earn a small
      prize proportional to normalized degree (future-work policy).
    - ``ITEM_BOOSTED``: terminals get 1; non-terminal *items* get a small
      prize, addressing the paper's observation that PCST actionability
      "could improve with a node-prize assignment that prioritizes
      items".
    - ``PAGERANK``: like ``DEGREE_CENTRALITY`` but with PageRank scores
      (a smoother centrality; §VII future-work policy).
    """

    BINARY = "binary"
    WEIGHT_RANGE = "weight-range"
    DEGREE_CENTRALITY = "degree-centrality"
    ITEM_BOOSTED = "item-boosted"
    PAGERANK = "pagerank"


class PCSTSummarizer:
    """Prize-Collecting Steiner Tree summarizer bound to one graph.

    Parameters
    ----------
    graph:
        The knowledge-based graph.
    prize_policy:
        Prize assignment (default: the paper's binary policy).
    use_edge_weights:
        If True, edge costs follow stored weights (the configuration the
        paper tried and rejected); default False = unit costs.
    strong_pruning:
        If True, apply Goemans-Williamson strong pruning after growth
        (ablation; collapses summaries under the binary policy).
    prune_leaves:
        If True (default), strip zero-prize leaves after growth so the
        summary is the grown forest's minimal subtree spanning the
        terminals. Disabling keeps the full growth wavefront — orders of
        magnitude larger summaries (the "excessively large" regime the
        paper reports for weighted PCST).
    side_prize:
        Magnitude of the non-terminal prize for the centrality/item
        policies (must stay < 1 so terminals dominate).
    engine:
        "frozen" (default) runs the Algorithm 2
        growth pass on the graph's cached CSR view with an indexed heap
        and array-backed disjoint set; "dict" forces the original
        adjacency walk. Both produce bit-identical forests ("dict" is
        the parity oracle and escape hatch).
    """

    method = "PCST"

    ENGINES = ("frozen", "dict")

    def __init__(
        self,
        graph: KnowledgeGraph,
        prize_policy: PrizePolicy = PrizePolicy.BINARY,
        use_edge_weights: bool = False,
        strong_pruning: bool = False,
        prune_leaves: bool = True,
        side_prize: float = 0.2,
        engine: str = "frozen",
    ) -> None:
        if not 0.0 <= side_prize < 1.0:
            raise ValueError("side_prize must be in [0, 1)")
        if engine not in self.ENGINES:
            raise ValueError(
                f"unknown engine {engine!r}; expected {self.ENGINES}"
            )
        self.graph = graph
        self.prize_policy = prize_policy
        self.use_edge_weights = use_edge_weights
        self.strong_pruning = strong_pruning
        self.prune_leaves = prune_leaves
        self.side_prize = side_prize
        self.engine = engine
        # Version-keyed derived state: recomputed if the graph mutates.
        self._max_degree_cache: tuple[int, int] | None = None
        self._pagerank_cache: tuple[int, dict[str, float]] | None = None
        self._weighted_costs_cache = None

    @property
    def _max_degree(self) -> int:
        version = self.graph.version
        if self._max_degree_cache is None or (
            self._max_degree_cache[0] != version
        ):
            value = max(
                (self.graph.degree(n) for n in self.graph.nodes()), default=1
            )
            self._max_degree_cache = (version, value)
        return self._max_degree_cache[1]

    def summarize(self, task: SummaryTask) -> SubgraphExplanation:
        """Compute the PCST summary for one task."""
        prizes = self._prizes(task)
        cost_fn = None
        if self.use_edge_weights:
            weight_max = max(
                (edge.weight for edge in self.graph.edges()), default=1.0
            )
            scale = weight_max if weight_max > 0 else 1.0

            def cost_fn(_u, _v, stored, _scale=scale):  # noqa: E306
                """Edge-weighted PCST cost (the rejected configuration)."""
                return 1.0 - 0.7 * (stored / _scale)

        frozen = None
        slot_costs = None
        if self.engine == "frozen":
            frozen = self.graph.freeze()
            if cost_fn is not None:
                slot_costs = self._weighted_slot_costs(frozen, cost_fn)
            # cost_fn None -> slot_costs None -> unit costs, the dict
            # default, shared from the frozen view without a copy.

        if self.strong_pruning:
            forest = grow_prune_pcst(
                self.graph, prizes, cost_fn=cost_fn,
                seeds=list(task.terminals),
                frozen=frozen, slot_costs=slot_costs,
            )
        else:
            forest = paper_pcst(
                self.graph,
                prizes,
                cost_fn=cost_fn,
                prune_zero_prize_leaves=self.prune_leaves,
                seeds=list(task.terminals),
                frozen=frozen,
                slot_costs=slot_costs,
            )
        return SubgraphExplanation(
            subgraph=forest,
            task=task,
            method=self.method,
            params={
                "prize_policy": self.prize_policy.value,
                "use_edge_weights": self.use_edge_weights,
                "strong_pruning": self.strong_pruning,
            },
        )

    # ------------------------------------------------------------------
    def _weighted_slot_costs(self, frozen, cost_fn):
        """Per-slot costs for the edge-weighted configuration.

        The cost function depends only on the graph's stored weights, so
        the materialized table is cached per graph version (one O(|E|)
        pass instead of one per task).
        """
        version = self.graph.version
        if (
            self._weighted_costs_cache is None
            or self._weighted_costs_cache[0] != version
        ):
            costs = frozen.costs_from(
                cost_fn, signature=("pcst-weighted", version)
            )
            self._weighted_costs_cache = (version, costs)
        return self._weighted_costs_cache[1]

    def _prizes(self, task: SummaryTask) -> dict[str, float]:
        terminals = set(task.terminals)
        if self.prize_policy is PrizePolicy.BINARY:
            return {t: 1.0 for t in terminals}
        if self.prize_policy is PrizePolicy.WEIGHT_RANGE:
            # §IV-B formal policy: α = max w(e), β = min w(e). Knowledge
            # edges carry w_A = 0, so the meaningful β is the smallest
            # *positive* weight; every non-terminal then holds a small
            # prize — the configuration whose growth keeps far more of
            # the wavefront (the paper's "excessively large" regime when
            # combined with edge weights).
            weights = [edge.weight for edge in self.graph.edges()]
            alpha = max(weights, default=1.0)
            positive = [w for w in weights if w > 0]
            beta = min(positive, default=0.0)
            prizes = {t: alpha for t in terminals}
            if beta > 0:
                for node in self.graph.nodes():
                    if node not in terminals:
                        prizes[node] = beta
            return prizes
        if self.prize_policy is PrizePolicy.DEGREE_CENTRALITY:
            prizes = {t: 1.0 for t in terminals}
            for node in self.graph.nodes():
                if node not in terminals:
                    centrality = self.graph.degree(node) / self._max_degree
                    prizes[node] = self.side_prize * centrality
            return prizes
        if self.prize_policy is PrizePolicy.ITEM_BOOSTED:
            prizes = {t: 1.0 for t in terminals}
            for node in self.graph.nodes_of_type(NodeType.ITEM):
                if node not in terminals:
                    prizes[node] = self.side_prize
            return prizes
        if self.prize_policy is PrizePolicy.PAGERANK:
            scores = self._pagerank_scores()
            prizes = {t: 1.0 for t in terminals}
            for node, score in scores.items():
                if node not in terminals:
                    prizes[node] = self.side_prize * score
            return prizes
        raise ValueError(f"unhandled prize policy {self.prize_policy}")

    def _pagerank_scores(self) -> dict[str, float]:
        """PageRank centrality, computed once per graph version."""
        version = self.graph.version
        if self._pagerank_cache is None or self._pagerank_cache[0] != version:
            from repro.graph.centrality import pagerank

            self._pagerank_cache = (version, pagerank(self.graph))
        return self._pagerank_cache[1]
