"""High-level summarization facade.

:class:`Summarizer` is the public entry point: construct it over a
knowledge graph, then call :meth:`summarize` with a
:class:`~repro.core.scenarios.SummaryTask` (or use the scenario helpers
via :func:`summarize`). It handles terminal-connectivity fallback — if
some terminals are unreachable, the ST method summarizes the largest
connected terminal subset instead of failing, mirroring PCST's built-in
prize-forfeiting relaxation.
"""

from __future__ import annotations

from repro.core.explanation import SubgraphExplanation
from repro.core.pcst_summary import PCSTSummarizer, PrizePolicy
from repro.core.scenarios import SummaryTask
from repro.core.steiner_summary import SteinerSummarizer
from repro.core.union_summary import UnionSummarizer
from repro.graph.knowledge_graph import KnowledgeGraph

METHODS = ("ST", "ST-fast", "PCST", "Union")

ENGINES = ("frozen", "dict")


class Summarizer:
    """Method-dispatching summarizer over one knowledge graph.

    Parameters
    ----------
    graph:
        The knowledge-based graph.
    method:
        "ST", "PCST" or "Union".
    lam, weight_influence:
        ST parameters (Eq. 1 λ and cost transform ρ).
    prize_policy, use_edge_weights, strong_pruning:
        PCST parameters.
    engine:
        Traversal backend for the graph-algorithm methods (ST, ST-fast,
        PCST): "frozen" (CSR fast path, default) or "dict" (the
        original adjacency walk). Identical outputs; see
        :class:`~repro.core.steiner_summary.SteinerSummarizer` and
        :class:`~repro.core.pcst_summary.PCSTSummarizer`. Union builds
        straight from the task's paths and has no traversal to switch.
    closure_cache:
        Optional shared terminal-closure memoizer for ST (the
        :class:`~repro.api.ExplanationSession` passes its own).
    canonical:
        ST only: canonical-SPT tie-breaking (deterministic min-id
        predecessor choice from final distances; default on). See
        :class:`~repro.core.steiner_summary.SteinerSummarizer`.
    """

    def __init__(
        self,
        graph: KnowledgeGraph,
        method: str = "ST",
        lam: float = 1.0,
        weight_influence: float = 0.7,
        prize_policy: PrizePolicy = PrizePolicy.BINARY,
        use_edge_weights: bool = False,
        strong_pruning: bool = False,
        engine: str = "frozen",
        closure_cache=None,
        canonical: bool = True,
    ) -> None:
        if engine not in ENGINES:
            # Validated here, not only in the impls, so a typo fails the
            # same way for every method — Union never sees the kwarg.
            raise ValueError(
                f"unknown engine {engine!r}; expected {ENGINES}"
            )
        self.graph = graph
        self.method = method
        if method == "ST":
            self._impl = SteinerSummarizer(
                graph,
                lam=lam,
                weight_influence=weight_influence,
                engine=engine,
                closure_cache=closure_cache,
                canonical=canonical,
            )
        elif method == "ST-fast":
            self._impl = SteinerSummarizer(
                graph,
                lam=lam,
                weight_influence=weight_influence,
                algorithm="mehlhorn",
                engine=engine,
            )
        elif method == "PCST":
            self._impl = PCSTSummarizer(
                graph,
                prize_policy=prize_policy,
                use_edge_weights=use_edge_weights,
                strong_pruning=strong_pruning,
                engine=engine,
            )
        elif method == "Union":
            self._impl = UnionSummarizer(graph)
        else:
            raise ValueError(
                f"unknown method {method!r}; expected one of {METHODS}"
            )

    def summarize(self, task: SummaryTask) -> SubgraphExplanation:
        """Summarize one task, narrowing to connected terminals if needed."""
        try:
            return self._impl.summarize(task)
        except ValueError:
            narrowed = self._narrow_to_connected(task)
            if narrowed is task:
                raise
            return self._impl.summarize(narrowed)

    # ------------------------------------------------------------------
    def _narrow_to_connected(self, task: SummaryTask) -> SummaryTask:
        """Restrict a task to its largest mutually-connected terminal set.

        Keeps the component containing the focus node(s) when possible so
        the summary still answers "why did *this* user/item ...".
        """
        present = [t for t in task.terminals if t in self.graph]
        if len(present) < 2:
            return task
        components = self._terminal_components(present)
        focus_set = set(task.focus)
        components.sort(
            key=lambda c: (len(c & focus_set), len(c)), reverse=True
        )
        keep = components[0]
        if len(keep) == len(present) == len(task.terminals):
            return task
        terminals = tuple(t for t in task.terminals if t in keep)
        anchors = tuple(a for a in task.anchors if a in keep)
        focus = tuple(f for f in task.focus if f in keep)
        if not terminals or not focus:
            return task
        paths = tuple(
            p
            for p in task.paths
            if p.nodes[0] in keep or p.nodes[-1] in keep
        )
        return SummaryTask(
            scenario=task.scenario,
            terminals=terminals,
            paths=paths,
            anchors=anchors,
            focus=focus,
            k=task.k,
        )

    def _terminal_components(self, terminals: list[str]) -> list[set[str]]:
        """Group terminals by graph connected component (BFS per group)."""
        remaining = set(terminals)
        groups: list[set[str]] = []
        while remaining:
            # Deterministic start: input order, not set (hash) order, so
            # the group list — and stable-sort tie-breaks over it — are
            # identical across processes.
            start = next(t for t in terminals if t in remaining)
            component = {start}
            frontier = [start]
            seen = {start}
            while frontier:
                node = frontier.pop()
                for neighbor in self.graph.neighbors(node):
                    if neighbor in seen:
                        continue
                    seen.add(neighbor)
                    frontier.append(neighbor)
                    if neighbor in remaining:
                        component.add(neighbor)
            groups.append(component)
            remaining -= component
        return groups


def summarize(
    graph: KnowledgeGraph,
    task: SummaryTask,
    method: str = "ST",
    **kwargs,
) -> SubgraphExplanation:
    """One-shot convenience wrapper around :class:`Summarizer`."""
    return Summarizer(graph, method=method, **kwargs).summarize(task)
