"""The four summarization scenarios and their terminal/path sets (§III).

Each scenario reduces to the same optimization problem over different
inputs; :class:`SummaryTask` is that normal form:

=============  =======================  =====================  ============
scenario       terminals ``T``          input paths ``P``      anchors ``S``
=============  =======================  =====================  ============
user-centric   ``{u} ∪ R_u``            ``E_u``                ``R_u``
item-centric   ``{i} ∪ C_i``            ``E_i``                ``C_i``
user-group     ``D ∪ R_D``              ``E_D``                ``R_D``
item-group     ``F ∪ C_F``              ``E_F``                ``C_F``
=============  =======================  =====================  ============

``anchors`` is the set the paper calls ``S`` in Eq. (1) — the nodes whose
explanation paths weight the summarization; ``focus`` is the explained
side (the user(s) in user scenarios, the item(s) in item scenarios), used
by verbalization and the redundancy decomposition.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from enum import Enum

from repro.graph.paths import Path
from repro.recommenders.base import Recommendation, RecommendationList


class Scenario(Enum):
    """Summary granularity."""

    USER_CENTRIC = "user-centric"
    ITEM_CENTRIC = "item-centric"
    USER_GROUP = "user-group"
    ITEM_GROUP = "item-group"

    @property
    def is_group(self) -> bool:
        """True for the user-group / item-group granularities."""
        return self in (Scenario.USER_GROUP, Scenario.ITEM_GROUP)


@dataclass(frozen=True)
class SummaryTask:
    """Normal-form summarization input (see module docstring)."""

    scenario: Scenario
    terminals: tuple[str, ...]
    paths: tuple[Path, ...]
    anchors: tuple[str, ...]
    focus: tuple[str, ...]
    k: int = 0

    def __post_init__(self) -> None:
        if not self.terminals:
            raise ValueError("a summary task needs at least one terminal")
        terminal_set = set(self.terminals)
        for anchor in self.anchors:
            if anchor not in terminal_set:
                raise ValueError(
                    f"anchor {anchor!r} missing from terminals"
                )
        for node in self.focus:
            if node not in terminal_set:
                raise ValueError(f"focus {node!r} missing from terminals")


def _dedupe(values) -> tuple[str, ...]:
    return tuple(dict.fromkeys(values))


def user_centric_task(
    recommendations: RecommendationList, k: int
) -> SummaryTask:
    """``T = {u} ∪ R_u`` from one user's top-k list."""
    top = recommendations.top(k)
    if not top:
        raise ValueError(
            f"user {recommendations.user!r} has no recommendations"
        )
    items = _dedupe(rec.item for rec in top)
    return SummaryTask(
        scenario=Scenario.USER_CENTRIC,
        terminals=_dedupe((recommendations.user, *items)),
        paths=tuple(rec.path for rec in top),
        anchors=items,
        focus=(recommendations.user,),
        k=k,
    )


def item_centric_task(
    item: str, recommendations: Sequence[Recommendation]
) -> SummaryTask:
    """``T = {i} ∪ C_i`` from the recommendations pointing at ``item``."""
    relevant = [rec for rec in recommendations if rec.item == item]
    if not relevant:
        raise ValueError(f"item {item!r} was not recommended to anyone")
    users = _dedupe(rec.user for rec in relevant)
    return SummaryTask(
        scenario=Scenario.ITEM_CENTRIC,
        terminals=_dedupe((item, *users)),
        paths=tuple(rec.path for rec in relevant),
        anchors=users,
        focus=(item,),
    )


def user_group_task(
    group: Sequence[str],
    per_user: Mapping[str, RecommendationList],
    k: int,
) -> SummaryTask:
    """``T = D ∪ R_D`` for a user group ``D``."""
    users = _dedupe(group)
    if not users:
        raise ValueError("empty user group")
    paths: list[Path] = []
    items: list[str] = []
    for user in users:
        rec_list = per_user.get(user)
        if rec_list is None:
            raise KeyError(f"no recommendations for group member {user!r}")
        for rec in rec_list.top(k):
            paths.append(rec.path)
            items.append(rec.item)
    if not paths:
        raise ValueError("no recommendations across the group")
    item_terminals = _dedupe(items)
    return SummaryTask(
        scenario=Scenario.USER_GROUP,
        terminals=_dedupe((*users, *item_terminals)),
        paths=tuple(paths),
        anchors=item_terminals,
        focus=users,
        k=k,
    )


def item_group_task(
    group: Sequence[str],
    by_item: Mapping[str, Sequence[Recommendation]],
) -> SummaryTask:
    """``T = F ∪ C_F`` for an item group ``F``."""
    items = _dedupe(group)
    if not items:
        raise ValueError("empty item group")
    paths: list[Path] = []
    users: list[str] = []
    present_items: list[str] = []
    for item in items:
        for rec in by_item.get(item, ()):
            paths.append(rec.path)
            users.append(rec.user)
            present_items.append(item)
    if not paths:
        raise ValueError("no recommendations across the item group")
    user_terminals = _dedupe(users)
    return SummaryTask(
        scenario=Scenario.ITEM_GROUP,
        terminals=_dedupe((*_dedupe(present_items), *user_terminals)),
        paths=tuple(paths),
        anchors=user_terminals,
        focus=_dedupe(present_items),
    )
