"""SchedulerConfig validation."""

import pytest

from repro.serving import SchedulerConfig


class TestSchedulerConfig:
    def test_defaults_are_work_stealing(self):
        config = SchedulerConfig()
        assert config.min_workers == 1
        assert config.max_workers == 0  # auto: max(initial, cpu count)

    def test_chunked_mode_is_gone(self):
        """The static-chunk scheduler was retired with its ``mode`` knob:
        the work-stealing pool is the one dispatch discipline left."""
        with pytest.raises(TypeError, match="mode"):
            SchedulerConfig(mode="chunked")

    def test_min_workers_validated(self):
        with pytest.raises(ValueError, match="min_workers"):
            SchedulerConfig(min_workers=0)

    def test_max_workers_validated(self):
        with pytest.raises(ValueError, match="max_workers"):
            SchedulerConfig(max_workers=-1)
        with pytest.raises(ValueError, match="max_workers"):
            SchedulerConfig(min_workers=4, max_workers=2)

    def test_grow_pressure_validated(self):
        with pytest.raises(ValueError, match="grow_pressure"):
            SchedulerConfig(grow_pressure=0.0)

    def test_shrink_idle_validated(self):
        with pytest.raises(ValueError, match="shrink_idle_seconds"):
            SchedulerConfig(shrink_idle_seconds=-1.0)
