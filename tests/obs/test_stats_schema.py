"""Pin the SessionStats schema and the shared stat-line renderer.

``SessionStats.to_dict()`` is the one schema every counter consumer
reads — the CLI footer, the experiment runner, the server ``stats``
op and the metrics exposition's per-session view. Adding a counter is
deliberate: it must show up here, in declaration order.
"""

from repro.api.session import SessionStats, _stat_line

EXPECTED_KEYS = (
    "freezes",
    "exports",
    "pool_starts",
    "invalidations",
    "runs",
    "tasks",
    "steals",
    "grows",
    "shrinks",
    "peak_queue_depth",
    "worker_deaths",
    "task_retries",
    "task_timeouts",
    "local_fallbacks",
    "store_hits",
    "store_misses",
    "store_evictions",
    "store_bytes",
)


class TestToDict:
    def test_key_set_and_order_are_pinned(self):
        assert tuple(SessionStats().to_dict()) == EXPECTED_KEYS

    def test_values_track_the_counters(self):
        stats = SessionStats()
        stats.runs = 3
        stats.store_hits = 7
        data = stats.to_dict()
        assert data["runs"] == 3
        assert data["store_hits"] == 7
        assert data["steals"] == 0


class TestStatLine:
    def test_shared_format(self):
        line = _stat_line("closures", {"hits": 3, "misses": 1})
        assert line == "  closures   hits=3 misses=1"


class TestReportLines:
    def test_quiet_stats_render_nothing(self):
        stats = SessionStats()
        assert stats.scheduler_line() is None
        assert stats.resilience_line() is None

    def test_scheduler_line(self):
        stats = SessionStats(steals=4, grows=1, peak_queue_depth=9)
        assert stats.scheduler_line() == (
            "  scheduler  steals=4 grows=1 shrinks=0 peak_queue_depth=9"
        )

    def test_resilience_line(self):
        stats = SessionStats(worker_deaths=1, task_retries=2)
        assert stats.resilience_line() == (
            "  resilience worker_deaths=1 task_retries=2 "
            "task_timeouts=0 local_fallbacks=0"
        )
