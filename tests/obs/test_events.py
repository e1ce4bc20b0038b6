"""Structured event logging: sinks, run-id stamping, JSONL round-trip."""

import pytest

from repro.obs.events import (
    EventLog,
    current_run_id,
    event_sink,
    install_sink,
    log_event,
    read_events,
    remove_sink,
)


class TestEventLog:
    def test_records_name_timestamp_and_fields(self):
        log = EventLog()
        record = log.log("campaign.start", policy="one_hop", device="fp")
        assert record["event"] == "campaign.start"
        assert record["ts"] > 0
        assert record["policy"] == "one_hop"
        assert record["device"] == "fp"

    def test_run_id_stamped_when_present(self):
        log = EventLog(run_id="abc")
        assert log.log("e")["run_id"] == "abc"
        assert "run_id" not in EventLog().log("e")

    def test_of_filters_by_name(self):
        log = EventLog()
        log.log("a")
        log.log("b")
        log.log("a", n=2)
        assert [e.get("n") for e in log.of("a")] == [None, 2]


class TestSinks:
    def test_log_event_noop_without_sink(self):
        log_event("nobody.listening", x=1)  # must not raise

    def test_log_event_reaches_installed_sink(self):
        with event_sink() as sink:
            log_event("hello", n=3)
        assert len(sink) == 1
        assert sink.events[0]["n"] == 3

    def test_stacked_sinks_both_receive(self):
        with event_sink() as outer:
            with event_sink() as inner:
                log_event("e")
        assert len(outer) == len(inner) == 1

    def test_events_stop_after_removal(self):
        with event_sink() as sink:
            log_event("in")
        log_event("out")
        assert [e["event"] for e in sink] == ["in"]


class TestSinkInstallRemoveEdgeCases:
    def test_duplicate_install_delivers_twice(self):
        sink = EventLog()
        install_sink(sink)
        install_sink(sink)
        try:
            log_event("e")
        finally:
            remove_sink(sink)
            remove_sink(sink)
        assert len(sink) == 2

    def test_remove_drops_one_instance_at_a_time(self):
        sink = EventLog()
        install_sink(sink)
        install_sink(sink)
        remove_sink(sink)
        try:
            log_event("e")
        finally:
            remove_sink(sink)
        assert len(sink) == 1

    def test_remove_never_installed_is_noop(self):
        remove_sink(EventLog())  # must not raise

    def test_remove_twice_is_safe(self):
        sink = EventLog()
        install_sink(sink)
        remove_sink(sink)
        remove_sink(sink)  # must not raise
        log_event("gone")
        assert len(sink) == 0

    def test_event_sink_accepts_provided_sink(self):
        mine = EventLog(run_id="mine")
        with event_sink(mine) as sink:
            assert sink is mine
            log_event("e")
        assert len(mine) == 1

    def test_sink_removed_on_exception(self):
        sink = EventLog()
        with pytest.raises(RuntimeError):
            with event_sink(sink):
                raise RuntimeError("boom")
        log_event("after")
        assert len(sink) == 0

    def test_current_run_id_prefers_innermost(self):
        assert current_run_id() is None
        with event_sink(EventLog(run_id="outer")):
            with event_sink(EventLog()):  # no run_id: skipped
                assert current_run_id() == "outer"
            with event_sink(EventLog(run_id="inner")):
                assert current_run_id() == "inner"
            assert current_run_id() == "outer"
        assert current_run_id() is None


class TestJsonlRoundTrip:
    def test_write_and_read_back(self, tmp_path):
        log = EventLog(run_id="r1")
        log.log("a", x=1)
        log.log("b", y=[1, 2])
        path = str(tmp_path / "events.jsonl")
        log.write(path)
        records = read_events(path)
        assert [r["event"] for r in records] == ["a", "b"]
        assert records[0]["run_id"] == "r1"
        assert records[1]["y"] == [1, 2]

    def test_empty_log_writes_empty_file(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        EventLog().write(path)
        assert read_events(path) == []


class TestCorruptLineTolerance:
    def _dirty_file(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text(
            '{"event": "a"}\n'
            "%% not json %%\n"
            "[1, 2, 3]\n"          # valid JSON, not an object
            '{"event": "b"}\n'
        )
        return str(path)

    def test_corrupt_lines_skipped_and_counted(self, tmp_path):
        from repro.obs.registry import MetricsRegistry, push_registry

        with push_registry(MetricsRegistry()) as registry:
            records = read_events(self._dirty_file(tmp_path))
            assert [r["event"] for r in records] == ["a", "b"]
            assert registry.counter("obs.events.corrupt_lines").value == 2

    def test_torn_tail_is_tolerated(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text('{"event": "a"}\n{"event": "b", "x"')
        from repro.obs.registry import MetricsRegistry, push_registry

        with push_registry(MetricsRegistry()) as registry:
            records = read_events(str(path))
            assert [r["event"] for r in records] == ["a"]
            assert registry.counter("obs.events.corrupt_lines").value == 1
