"""Benchmark report rendering helpers and the artifact directory.

Lives outside conftest.py on purpose: bare ``from conftest import ...``
resolves against whichever conftest module pytest loaded first, so the
benches import this uniquely-named module instead.
"""

from __future__ import annotations

from pathlib import Path

from repro.experiments.report import format_series_table

#: Where benchmark tests write their text reports and JSON artifacts:
#: a git-ignored work directory, so a test run leaves the tree clean.
ARTIFACT_DIR = (
    Path(__file__).resolve().parent.parent / ".perfbench-work" / "tier1"
)


def artifact_path(name: str) -> Path:
    """``ARTIFACT_DIR / name``, creating the directory on first use."""
    ARTIFACT_DIR.mkdir(parents=True, exist_ok=True)
    return ARTIFACT_DIR / name


def render_panels(title: str, panels) -> str:
    """Join per-panel series tables into one report."""
    blocks = [
        format_series_table(f"{title} [{panel}]", series)
        for panel, series in panels.items()
    ]
    return "\n\n".join(blocks)
