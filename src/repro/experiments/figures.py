"""Series builders: one function per figure of the paper.

Each returns plain ``{legend label: {x: y}}`` mappings (per panel) that
the benches print via :func:`repro.experiments.report.format_series_table`
— the same series the paper plots.
"""

from __future__ import annotations

from statistics import mean

from repro.core.scenarios import Scenario
from repro.experiments.config import RECENCY_COMBOS, ExperimentConfig
from repro.experiments.workbench import Workbench
from repro.graph.generators import (
    generate_random_kg,
    random_three_hop_paths,
    table3_specs,
)
from repro.metrics import (
    actionability,
    comprehensibility,
    diversity,
    measure,
    privacy,
    redundancy,
    relevance,
)

Series = dict[str, dict[object, float]]

_METRIC_FNS = {
    "comprehensibility": comprehensibility,
    "actionability": actionability,
    "diversity": diversity,
    "redundancy": redundancy,
    "privacy": privacy,
}

SCENARIOS = (
    Scenario.USER_CENTRIC,
    Scenario.ITEM_CENTRIC,
    Scenario.USER_GROUP,
    Scenario.ITEM_GROUP,
)
MAIN_RECOMMENDERS = ("PGPR", "CAFE")


def metric_series(
    bench: Workbench,
    scenario: Scenario,
    recommender: str,
    metric: str,
) -> Series:
    """Mean metric vs k, one series per method (baseline, ST·λ, PCST)."""
    series: Series = {}
    for label in bench.method_labels():
        points: dict[object, float] = {}
        for k in bench.config.k_values:
            values = [
                _metric_value(bench, metric, explanation)
                for explanation in bench.explanations(
                    label, scenario, recommender, k
                )
            ]
            if values:
                points[k] = mean(values)
        series[label] = points
    return series


def _metric_value(bench: Workbench, metric: str, explanation) -> float:
    if metric == "relevance":
        return relevance(explanation, bench.graph)
    return _METRIC_FNS[metric](explanation)


def consistency_series(
    bench: Workbench, scenario: Scenario, recommender: str
) -> Series:
    """Mean J(S_k, S_{k+1}) vs k (Fig 6's per-step consistency curves)."""
    from repro.metrics.consistency import jaccard_nodes

    series: Series = {}
    for label in bench.method_labels():
        points: dict[object, float] = {}
        for k in range(1, bench.config.k_max):
            values = []
            for subject in bench.tasks(scenario, recommender, k):
                current = bench.explanation(
                    label, scenario, recommender, k, subject
                )
                nxt = bench.explanation(
                    label, scenario, recommender, k + 1, subject
                )
                if current is not None and nxt is not None:
                    values.append(jaccard_nodes(current, nxt))
            if values:
                points[k] = mean(values)
        series[label] = points
    return series


def _panels(
    bench: Workbench, metric: str, recommenders=MAIN_RECOMMENDERS
) -> dict[str, Series]:
    """The 8-panel layout shared by Figs 2-5, 7, 8."""
    panels: dict[str, Series] = {}
    for scenario in SCENARIOS:
        for name in recommenders:
            panels[f"{scenario.value} {name}"] = metric_series(
                bench, scenario, name, metric
            )
    return panels


def figure2(bench: Workbench) -> dict[str, Series]:
    """Comprehensibility, 8 panels (scenario × PGPR/CAFE)."""
    return _panels(bench, "comprehensibility")


def figure3(bench: Workbench) -> dict[str, Series]:
    """Actionability, 8 panels."""
    return _panels(bench, "actionability")


def figure4(bench: Workbench) -> dict[str, Series]:
    """Diversity, 8 panels."""
    return _panels(bench, "diversity")


def figure5(bench: Workbench) -> dict[str, Series]:
    """Redundancy, 8 panels."""
    return _panels(bench, "redundancy")


def figure6(bench: Workbench) -> dict[str, Series]:
    """Consistency, 8 panels."""
    panels: dict[str, Series] = {}
    for scenario in SCENARIOS:
        for name in MAIN_RECOMMENDERS:
            panels[f"{scenario.value} {name}"] = consistency_series(
                bench, scenario, name
            )
    return panels


def figure7(bench: Workbench) -> dict[str, Series]:
    """Relevance, 8 panels."""
    return _panels(bench, "relevance")


def figure8(bench: Workbench) -> dict[str, Series]:
    """Privacy, 8 panels."""
    return _panels(bench, "privacy")


# ----------------------------------------------------------------------
# Performance figures
# ----------------------------------------------------------------------
def figure9(
    bench: Workbench,
    recommender: str = "PGPR",
    max_subjects: int = 3,
    k_stride: int = 2,
) -> dict[str, dict[str, Series]]:
    """Execution time and peak memory vs k, per scenario (8 panels).

    Summaries are recomputed (cache bypassed) so timings are honest;
    ``max_subjects`` tasks per cell and every ``k_stride``-th k keep the
    wall-clock of the bench reasonable without changing the trend.
    Returns ``{scenario: {"time": series, "memory": series}}`` with
    seconds and MiB values.
    """
    results: dict[str, dict[str, Series]] = {}
    method_labels = [
        label for label in bench.method_labels(include_baseline=False)
    ]
    k_points = [
        k
        for k in bench.config.k_values
        if k % k_stride == 0 or k == bench.config.k_max
    ]
    for scenario in SCENARIOS:
        time_series: Series = {label: {} for label in method_labels}
        mem_series: Series = {label: {} for label in method_labels}
        for k in k_points:
            tasks = list(bench.tasks(scenario, recommender, k).values())
            tasks = tasks[:max_subjects]
            for label in method_labels:
                summarizer = bench.summarizer(label)
                seconds, peaks = [], []
                for task in tasks:
                    measurement = measure(summarizer.summarize, task)
                    seconds.append(measurement.seconds)
                    peaks.append(measurement.peak_bytes)
                if seconds:
                    time_series[label][k] = mean(seconds)
                    mem_series[label][k] = mean(peaks) / (1024 * 1024)
        results[scenario.value] = {"time": time_series, "memory": mem_series}
    return results


def figure10(
    bench: Workbench,
    recommender: str = "PGPR",
    group_sizes: tuple[int, ...] = (2, 4, 8, 16),
) -> dict[str, Series]:
    """Execution time vs group size: ST vs PCST, user- and item-group."""
    from repro.core.scenarios import item_group_task, user_group_task

    per_user = bench.recommendations(recommender)
    by_item = bench.recommendations_by_item(
        recommender, bench.config.k_max
    )
    users = bench.sampled_users
    items = [i for i in by_item if by_item[i]]
    st = bench.summarizer(f"ST λ={bench.config.lambdas[-1]:g}")
    pcst = bench.summarizer("PCST")

    panels: dict[str, Series] = {
        "user-group": {"ST": {}, "PCST": {}},
        "item-group": {"ST": {}, "PCST": {}},
    }
    for size in group_sizes:
        if size <= len(users):
            task = user_group_task(users[:size], per_user, bench.config.k_max)
            panels["user-group"]["ST"][size] = measure(
                st.summarize, task, track_memory=False
            ).seconds
            panels["user-group"]["PCST"][size] = measure(
                pcst.summarize, task, track_memory=False
            ).seconds
        if size <= len(items):
            task = item_group_task(items[:size], by_item)
            panels["item-group"]["ST"][size] = measure(
                st.summarize, task, track_memory=False
            ).seconds
            panels["item-group"]["PCST"][size] = measure(
                pcst.summarize, task, track_memory=False
            ).seconds
    return panels


def figure11(
    scale: float = 0.05,
    k: int = 10,
    group_size: int = 20,
    seed: int = 5,
) -> dict[str, Series]:
    """Time and memory vs synthetic graph size (G1..G5, Table III).

    Random 3-hop paths play the baseline explanations, per §V-B.8.
    Returns four panels: user-centric/user-group × time/memory.
    """
    import numpy as np

    from repro.core.scenarios import (
        Scenario,
        SummaryTask,
    )
    from repro.core.summarizer import Summarizer

    panels: dict[str, Series] = {
        "user-centric time": {"ST": {}, "PCST": {}},
        "user-group time": {"ST": {}, "PCST": {}},
        "user-centric memory": {"ST": {}, "PCST": {}},
        "user-group memory": {"ST": {}, "PCST": {}},
    }
    rng = np.random.default_rng(seed)
    for index, spec in enumerate(table3_specs(scale), start=1):
        graph = generate_random_kg(spec, rng)
        graph_label = f"G{index}"
        users = [f"u:{i}" for i in range(group_size)]
        paths = random_three_hop_paths(graph, users, paths_per_user=k, rng=rng)
        if not paths:
            continue
        st = Summarizer(graph, method="ST", lam=1.0)
        pcst = Summarizer(graph, method="PCST")

        # User-centric: the first user's k paths.
        first_user_paths = [p for p in paths if p.user == users[0]][:k]
        if first_user_paths:
            task = _synthetic_task(
                Scenario.USER_CENTRIC, users[:1], first_user_paths
            )
            _record_perf(panels, "user-centric", graph_label, st, pcst, task)

        # User-group: everything.
        task = _synthetic_task(Scenario.USER_GROUP, users, paths)
        _record_perf(panels, "user-group", graph_label, st, pcst, task)
    return panels


def _synthetic_task(scenario, users, paths):
    from repro.core.scenarios import SummaryTask

    items = tuple(dict.fromkeys(p.item for p in paths))
    present_users = tuple(
        u for u in dict.fromkeys(users) if any(p.user == u for p in paths)
    )
    return SummaryTask(
        scenario=scenario,
        terminals=tuple(dict.fromkeys((*present_users, *items))),
        paths=tuple(paths),
        anchors=items,
        focus=present_users,
    )


def _record_perf(panels, prefix, graph_label, st, pcst, task) -> None:
    for name, summarizer in (("ST", st), ("PCST", pcst)):
        measurement = measure(summarizer.summarize, task)
        panels[f"{prefix} time"][name][graph_label] = measurement.seconds
        panels[f"{prefix} memory"][name][graph_label] = (
            measurement.peak_bytes / (1024 * 1024)
        )


# ----------------------------------------------------------------------
# Additional baselines / dataset / sensitivity figures
# ----------------------------------------------------------------------
def figure12(bench: Workbench) -> dict[str, Series]:
    """Comprehensibility with PLM and PEARLM baselines (2 panels)."""
    return {
        f"{scenario.value} {name}": metric_series(
            bench, scenario, name, "comprehensibility"
        )
        for scenario in (Scenario.USER_CENTRIC, Scenario.USER_GROUP)
        for name in ("PLM", "PEARLM")
    }


def figure13(bench: Workbench) -> dict[str, Series]:
    """Diversity with PLM and PEARLM baselines (2 panels)."""
    return {
        f"{scenario.value} {name}": metric_series(
            bench, scenario, name, "diversity"
        )
        for scenario in (Scenario.USER_CENTRIC, Scenario.USER_GROUP)
        for name in ("PLM", "PEARLM")
    }


def figure14(bench: Workbench) -> dict[str, Series]:
    """Comprehensibility on the LFM1M-shaped dataset (2 panels).

    ``bench`` must be built from an lfm1m config.
    """
    _require_dataset(bench, "lfm1m")
    return {
        f"{scenario.value} {name}": metric_series(
            bench, scenario, name, "comprehensibility"
        )
        for scenario in (Scenario.USER_CENTRIC, Scenario.USER_GROUP)
        for name in MAIN_RECOMMENDERS
    }


def figure15(bench: Workbench) -> dict[str, Series]:
    """Diversity on the LFM1M-shaped dataset (2 panels)."""
    _require_dataset(bench, "lfm1m")
    return {
        f"{scenario.value} {name}": metric_series(
            bench, scenario, name, "diversity"
        )
        for scenario in (Scenario.USER_CENTRIC, Scenario.USER_GROUP)
        for name in MAIN_RECOMMENDERS
    }


def figure16(
    base_config: ExperimentConfig, recommender: str = "PGPR"
) -> dict[str, Series]:
    """Comprehensibility and diversity across (β1, β2) mixes (Fig 16).

    Five rating/recency combinations, ST summaries at k = k_max over the
    recommender's paths; user-centric and user-group panels.
    """
    panels: dict[str, Series] = {
        "user-centric": {"comprehensibility": {}, "diversity": {}},
        "user-group": {"comprehensibility": {}, "diversity": {}},
    }
    for beta_rating, beta_recency in RECENCY_COMBOS:
        label = f"β1={beta_rating:g}/β2={beta_recency:g}"
        config = base_config.with_recency(beta_rating, beta_recency)
        bench = Workbench.get(config)
        st_label_ = f"ST λ={config.lambdas[-1]:g}"
        k = config.k_max
        for scenario, panel in (
            (Scenario.USER_CENTRIC, "user-centric"),
            (Scenario.USER_GROUP, "user-group"),
        ):
            explanations = bench.explanations(
                st_label_, scenario, recommender, k
            )
            if explanations:
                panels[panel]["comprehensibility"][label] = mean(
                    comprehensibility(e) for e in explanations
                )
                panels[panel]["diversity"][label] = mean(
                    diversity(e) for e in explanations
                )
    return panels


def figure17(
    bench: Workbench, recommender: str = "CAFE"
) -> dict[str, Series]:
    """Popularity bias: item-centric comprehensibility for popular vs
    unpopular items (Fig 17); ST/PCST should be roughly unaffected while
    the baseline degrades on unpopular items."""
    popular, unpopular = bench.sampled_items
    buckets = {"popular": set(popular), "unpopular": set(unpopular)}
    panels: dict[str, Series] = {}
    for bucket_name, bucket in buckets.items():
        series: Series = {}
        for label in bench.method_labels():
            points: dict[object, float] = {}
            for k in bench.config.k_values:
                values = [
                    comprehensibility(
                        bench.explanation(
                            label, Scenario.ITEM_CENTRIC, recommender, k, item
                        )
                    )
                    for item in bench.tasks(
                        Scenario.ITEM_CENTRIC, recommender, k
                    )
                    if item in bucket
                ]
                if values:
                    points[k] = mean(values)
            series[label] = points
        panels[bucket_name] = series
    return panels


def _require_dataset(bench: Workbench, dataset: str) -> None:
    if bench.config.dataset != dataset:
        raise ValueError(
            f"this figure needs a {dataset!r} workbench, got "
            f"{bench.config.dataset!r}"
        )
