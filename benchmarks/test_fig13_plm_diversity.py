"""Fig 13: diversity with PLM / PEARLM baselines.

Paper shape: PLM-family baselines are more diverse than PGPR/CAFE, but
PCST still enhances diversity further."""

from reporting import render_panels

from repro.experiments import figures
from repro.experiments.workbench import BASELINE


def test_fig13_plm_diversity(benchmark, ci_bench, emit):
    panels = benchmark.pedantic(
        figures.figure13, args=(ci_bench,), rounds=1, iterations=1
    )
    emit("fig13_plm_diversity", render_panels("Fig 13", panels))

    k = ci_bench.config.k_max
    wins = 0
    total = 0
    for series in panels.values():
        if k in series["PCST"] and k in series[BASELINE]:
            total += 1
            if series["PCST"][k] >= series[BASELINE][k] - 0.02:
                wins += 1
    assert wins >= total * 0.5
