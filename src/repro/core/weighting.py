"""Eq. (1) explanation-aware edge weighting and cost conversion.

The paper boosts each edge's weight by how often the individual
explanation paths use it::

    w(e) = w_M(e) * (1 + λ * Σ_{x∈S} 1_{e∈P} / |S|)

then feeds the Steiner machinery "multiplying all edge weights by -1" so
the minimizing tree maximizes weight while minimizing edge count. A
literal ``-w`` breaks Dijkstra, so :class:`ExplanationWeighting` performs
a positive-cost transform with the same preference structure::

    boost(e) = λ * (w_M(e) / w_max) * freq(e) / |S|     (the Eq. 1 term)
    cost(e)  = 1 - ρ * boost(e) / (1 + boost(e))        ∈ (1 - ρ, 1]

Every edge pays a base cost of 1 (the |E_S|-minimization term),
discounted by up to ``ρ`` as its explanation-path boost grows (the
Σw-maximization term). The saturating ``x/(1+x)`` keeps costs positive
for Dijkstra while reproducing the paper's reported λ behaviour:

- λ = 0 → uniform costs → the summarizer "creates a new explanation"
  (pure fewest-edges Steiner tree), exactly as §IV-A states;
- λ large → edges on the input explanation paths become far cheaper than
  anything else, so the summary stitches the given paths together and —
  because only rating-weighted interaction edges receive a boost
  (``w_A = 0`` kills it for knowledge edges) — pulls in "more user-item
  interactions which have larger weights", the paper's Fig 7 trend.

Stored weights therefore influence the summary *through* the boost term
(a 5-star path edge is cheaper than a 2-star one, and the β1/β2 recency
mix of Fig 16 propagates), not as a standalone discount.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

from repro.core.scenarios import SummaryTask
from repro.graph.knowledge_graph import KnowledgeGraph
from repro.graph.paths import paths_edge_frequency
from repro.graph.types import undirected_key

# Per-graph stored-weight maxima; summaries over the same graph are created
# thousands of times per experiment, so the O(|E|) max runs once per graph
# *version* — mutating the graph (e.g. reweighting an edge) invalidates the
# cached maximum along with every other frozen view.
_STORED_MAX_CACHE: (
    "weakref.WeakKeyDictionary[KnowledgeGraph, tuple[int, float]]"
) = weakref.WeakKeyDictionary()


def _stored_weight_max(graph: KnowledgeGraph) -> float:
    version = graph.version
    cached = _STORED_MAX_CACHE.get(graph)
    if cached is None or cached[0] != version:
        # The frozen view's slot table holds every stored weight (once
        # per direction), so no Edge objects are built; every engine
        # but "dict" needs the view for this version anyway.
        weights = graph.freeze().to_numpy()[2]
        value = float(weights.max()) if weights.size else 0.0
        _STORED_MAX_CACHE[graph] = (version, value)
        return value
    return cached[1]


@dataclass(frozen=True)
class ExplanationWeighting:
    """Eq. (1) weighting bound to one summary task.

    Parameters
    ----------
    lam:
        λ — explanation-path influence. 0 ignores the input paths
        entirely ("the algorithm creates a new explanation"); the paper
        sweeps {0.01, 1, 100}.
    weight_influence:
        ρ — how much of an edge's cost the (boosted, normalized) weight
        can discount. Must lie in [0, 1); at 0 costs are uniform and the
        Steiner objective degenerates to pure edge-count minimization.
    """

    graph: KnowledgeGraph
    task: SummaryTask
    lam: float = 1.0
    weight_influence: float = 0.7

    def __post_init__(self) -> None:
        if self.lam < 0:
            raise ValueError("λ must be non-negative")
        if not 0.0 <= self.weight_influence < 1.0:
            raise ValueError("weight_influence must be in [0, 1)")
        frequency = paths_edge_frequency(list(self.task.paths))
        anchor_count = max(1, len(self.task.anchors))
        object.__setattr__(self, "_frequency", frequency)
        object.__setattr__(self, "_anchor_count", anchor_count)
        object.__setattr__(self, "_max_weight", self._compute_max_weight())

    # ------------------------------------------------------------------
    def boosted_weight(self, u: str, v: str, stored: float) -> float:
        """``w(e)`` of Eq. (1) for one edge (reported for inspection)."""
        frequency = self._frequency.get(undirected_key(u, v), 0)
        if frequency == 0 or self.lam == 0:
            return stored
        return stored * (1.0 + self.lam * frequency / self._anchor_count)

    def boost(self, u: str, v: str, stored: float) -> float:
        """The normalized Eq. (1) boost term λ·(w_M/w_max)·freq/|S|."""
        frequency = self._frequency.get(undirected_key(u, v), 0)
        if frequency == 0 or self.lam == 0 or self._max_weight <= 0:
            return 0.0
        return (
            self.lam
            * (stored / self._max_weight)
            * (frequency / self._anchor_count)
        )

    def cost(self, u: str, v: str, stored: float) -> float:
        """Positive Steiner cost implementing the paper's ``-w`` trick."""
        boost = self.boost(u, v, stored)
        if boost <= 0.0:
            return 1.0
        return 1.0 - self.weight_influence * boost / (1.0 + boost)

    def cost_fn(self):
        """The ``(u, v, stored) -> cost`` callable the algorithms expect."""
        return self.cost

    def slot_costs(self, frozen):
        """Per-slot costs over a frozen CSR view of the graph.

        Exploits the cost structure: every edge off the explanation
        paths costs exactly 1.0, so the array is the unit base with a
        handful of patched entries (both directed slots per boosted
        edge). The returned :class:`~repro.graph.csr.FrozenCosts`
        signature is the sorted override list — tasks with identical
        boosts (notably every λ=0 task) share a signature, which is what
        lets the batch engine's closure cache cut across tasks.
        """
        from repro.graph.csr import FrozenCosts

        costs = frozen.unit_costs()
        overrides: list[tuple[int, float]] = []
        if self.lam > 0 and self._max_weight > 0:
            for u, v in self._frequency:
                for a, b in ((u, v), (v, u)):
                    slot = frozen.edge_slot(a, b)
                    if slot is None:
                        continue
                    value = self.cost(a, b, frozen.weights[slot])
                    if value < 0.0:
                        raise ValueError(
                            f"negative cost {value} on edge ({a!r}, {b!r});"
                            " cost() must stay non-negative"
                        )
                    if value != 1.0:  # zero-weight edges boost to no-op
                        costs[slot] = value
                        overrides.append((slot, value))
        overrides.sort()
        return FrozenCosts(costs, signature=tuple(overrides))

    # ------------------------------------------------------------------
    def _compute_max_weight(self) -> float:
        """Max stored weight (cached per graph; normalizes the boost)."""
        return _stored_weight_max(self.graph)
