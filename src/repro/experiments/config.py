"""Experiment configuration: scales, samples, sweeps and seeds.

``ExperimentConfig.ci_scale()`` (the default everywhere) shrinks the
paper's workload so the full bench suite runs in minutes of pure Python;
``paper_scale()`` reproduces the full sampling scheme (200 users, 100
items, ML1M-sized graph) for long runs. Both keep the same sweep *shape*
(k = 1..10, λ ∈ {0.01, 1, 100}, four scenarios, same samplers).
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class ExperimentConfig:
    """All knobs for one experimental run.

    Attributes mirror §V-A of the paper; see DESIGN.md for the mapping.
    """

    dataset: str = "ml1m"  # "ml1m" | "lfm1m"
    dataset_scale: float = 0.04
    users_per_gender: int = 8  # paper: 100
    items_per_bucket: int = 8  # paper: 50
    eval_users: int = 10  # users per user-centric panel
    eval_items: int = 10  # items per item-centric panel
    group_size: int = 6  # members per user/item group
    k_max: int = 10
    lambdas: tuple[float, ...] = (0.01, 1.0, 100.0)
    weight_influence: float = 0.7
    beta_rating: float = 1.0
    beta_recency: float = 0.0
    recency_gamma: float = 2e-8
    seed: int = 97
    scale_label: str = "ci"

    def __post_init__(self) -> None:
        if self.dataset not in ("ml1m", "lfm1m"):
            raise ValueError(f"unknown dataset {self.dataset!r}")
        if self.k_max < 1:
            raise ValueError("k_max must be >= 1")
        if not self.lambdas:
            raise ValueError("need at least one λ value")

    @property
    def k_values(self) -> range:
        """The paper's k sweep, 1..k_max."""
        return range(1, self.k_max + 1)

    @classmethod
    def ci_scale(cls, **overrides) -> "ExperimentConfig":
        """Minutes-scale configuration (default)."""
        return replace(cls(), **overrides)

    @classmethod
    def test_scale(cls, **overrides) -> "ExperimentConfig":
        """Seconds-scale configuration for the unit/integration tests."""
        base = cls(
            dataset_scale=0.02,
            users_per_gender=4,
            items_per_bucket=4,
            eval_users=4,
            eval_items=4,
            group_size=3,
            k_max=5,
            scale_label="test",
        )
        return replace(base, **overrides)

    @classmethod
    def paper_scale(cls, **overrides) -> "ExperimentConfig":
        """The paper's full sampling scheme (hours of pure Python)."""
        base = cls(
            dataset_scale=1.0,
            users_per_gender=100,
            items_per_bucket=50,
            eval_users=200,
            eval_items=100,
            group_size=100,
            scale_label="paper",
        )
        return replace(base, **overrides)

    def with_dataset(self, dataset: str) -> "ExperimentConfig":
        """Copy of this config targeting another dataset."""
        return replace(self, dataset=dataset)

    def with_recency(
        self, beta_rating: float, beta_recency: float
    ) -> "ExperimentConfig":
        """Fig 16 variant: change the β1/β2 mix."""
        return replace(
            self, beta_rating=beta_rating, beta_recency=beta_recency
        )

    def cache_key(self) -> tuple:
        """Hashable identity for workbench caching."""
        return (
            self.dataset,
            self.dataset_scale,
            self.users_per_gender,
            self.items_per_bucket,
            self.eval_users,
            self.eval_items,
            self.group_size,
            self.k_max,
            self.lambdas,
            self.weight_influence,
            self.beta_rating,
            self.beta_recency,
            self.recency_gamma,
            self.seed,
        )


# Fig 16's five (β1, β2) combinations, rating-dominant to recency-dominant.
RECENCY_COMBOS: tuple[tuple[float, float], ...] = (
    (1.0, 0.0),
    (0.75, 0.25),
    (0.5, 0.5),
    (0.25, 0.75),
    (0.0, 1.0),
)
