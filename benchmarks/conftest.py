"""Benchmark-suite fixtures.

All figure benches share one CI-scale workbench (summaries are cached in
it, so Figs 2-8 cost one summary pass total). Each bench prints the
series it regenerates and mirrors them into ``.perfbench-work/tier1/``
(git-ignored) so the output survives pytest's capture.
"""

from __future__ import annotations

import pytest

from reporting import artifact_path

from repro.experiments.config import ExperimentConfig
from repro.experiments.workbench import Workbench


@pytest.fixture(scope="session")
def ci_config() -> ExperimentConfig:
    return ExperimentConfig.ci_scale()

@pytest.fixture(scope="session")
def ci_bench(ci_config) -> Workbench:
    """The shared ML1M-like CI-scale workbench."""
    return Workbench.get(ci_config)


@pytest.fixture(scope="session")
def lfm_bench(ci_config) -> Workbench:
    """LFM1M-like workbench for Figs 14-15."""
    return Workbench.get(ci_config.with_dataset("lfm1m"))


@pytest.fixture(scope="session")
def emit():
    """Print a report and persist it under ``.perfbench-work/tier1/``."""

    def _emit(name: str, text: str) -> None:
        print()
        print(text)
        artifact_path(f"{name}.txt").write_text(text + "\n")

    return _emit


# render_panels moved to benchmarks/reporting.py — a bare
# `from conftest import ...` resolves against whichever conftest pytest
# loaded first, which breaks whole-repo collection runs.
