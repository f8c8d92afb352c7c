"""Fig 7: relevance vs k.

Paper shape: baselines most relevant in user-centric; ST relevance grows
with λ (more user-item interaction edges pulled into the tree)."""

from reporting import render_panels

from repro.experiments import figures


def test_fig7_relevance(benchmark, ci_bench, emit):
    panels = benchmark.pedantic(
        figures.figure7, args=(ci_bench,), rounds=1, iterations=1
    )
    emit("fig7_relevance", render_panels("Fig 7", panels))

    k = ci_bench.config.k_max
    lambdas = ci_bench.config.lambdas
    low, high = f"ST λ={lambdas[0]:g}", f"ST λ={lambdas[-1]:g}"
    # λ trend: in most panels high-λ ST is at least as relevant as low-λ.
    wins = 0
    total = 0
    for series in panels.values():
        if k in series[low] and k in series[high]:
            total += 1
            if series[high][k] >= series[low][k] * 0.9:
                wins += 1
    assert wins >= total * 0.6
    # Non-negative everywhere.
    for panel in panels.values():
        for points in panel.values():
            assert all(v >= 0 for v in points.values())
