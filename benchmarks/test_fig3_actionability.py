"""Fig 3: actionability vs k.

Paper shape: ST λ=100 highest (prioritizes rated items), PCST least."""

from reporting import render_panels

from repro.experiments import figures


def test_fig3_actionability(benchmark, ci_bench, emit):
    panels = benchmark.pedantic(
        figures.figure3, args=(ci_bench,), rounds=1, iterations=1
    )
    emit("fig3_actionability", render_panels("Fig 3", panels))

    k = ci_bench.config.k_max
    st_high = f"ST λ={ci_bench.config.lambdas[-1]:g}"
    wins = 0
    total = 0
    for series in panels.values():
        if k in series[st_high] and k in series["PCST"]:
            total += 1
            if series[st_high][k] >= series["PCST"][k] - 0.02:
                wins += 1
    # ST λ=100 at or above PCST in at least half the panels (CI-scale
    # item panels have near-degenerate audiences and add noise; see
    # EXPERIMENTS.md).
    assert wins >= total * 0.5
