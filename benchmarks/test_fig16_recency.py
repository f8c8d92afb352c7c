"""Fig 16: comprehensibility and diversity across (β1, β2) mixes.

Paper shape: rating-dominant weighting maximizes comprehensibility;
recency-dominant weighting maximizes diversity."""

from repro.experiments import figures


def test_fig16_recency(benchmark, ci_config, emit):
    panels = benchmark.pedantic(
        figures.figure16, args=(ci_config,), rounds=1, iterations=1
    )
    blocks = []
    from repro.experiments.report import format_series_table

    for panel, series in panels.items():
        blocks.append(
            format_series_table(
                f"Fig 16 [{panel}]", series, x_label="β1/β2"
            )
        )
    emit("fig16_recency", "\n\n".join(blocks))

    for panel, series in panels.items():
        comp = series["comprehensibility"]
        div = series["diversity"]
        assert comp and div, panel
        # All five combos produce valid metric values.
        assert all(v > 0 for v in comp.values())
        assert all(0 <= v <= 1 for v in div.values())
