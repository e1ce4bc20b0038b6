"""Trace structures, the JSON export schema, and the collector hook."""

import json

from repro.obs.trace import (
    TRACE_COLLECTION_SCHEMA,
    TRACE_SCHEMA,
    PassSpan,
    PipelineTrace,
    SpanRecorder,
    TraceCollector,
)


def sample_trace():
    recorder = SpanRecorder("compile[test]")
    with recorder.span("routing") as span:
        span.counters["routing.swaps_inserted"] = 4.0
    with recorder.span("schedule[xtalk]") as span:
        span.counters.update({
            "schedule.serialized_pairs": 2.0,
            "smt.solve_seconds": 0.25,
        })
    return recorder.finish()


class TestPipelineTrace:
    def test_counters_aggregate_across_spans(self):
        trace = sample_trace()
        assert trace.counter("routing.swaps_inserted") == 4.0
        assert trace.counter("schedule.serialized_pairs") == 2.0
        assert trace.counter("missing", default=-1.0) == -1.0
        assert trace.total_seconds == sum(s.seconds for s in trace.spans)

    def test_span_lookup(self):
        trace = sample_trace()
        assert trace.span("routing").counters["routing.swaps_inserted"] == 4.0
        try:
            trace.span("nope")
        except KeyError:
            pass
        else:  # pragma: no cover
            raise AssertionError("expected KeyError")

    def test_format_lists_every_pass_and_counter(self):
        text = sample_trace().format()
        assert "compile[test]" in text
        assert "routing" in text and "schedule[xtalk]" in text
        assert "smt.solve_seconds" in text

    def test_span_add(self):
        span = PassSpan("s")
        span.add("n")
        span.add("n", 2.0)
        assert span.counters["n"] == 3.0


class TestTraceJsonSchema:
    def test_trace_document(self):
        doc = json.loads(sample_trace().to_json())
        assert doc["schema"] == TRACE_SCHEMA == "repro.obs.trace/v2"
        assert doc["name"] == "compile[test]"
        assert isinstance(doc["total_seconds"], float)
        assert doc["counters"]["routing.swaps_inserted"] == 4.0
        assert [s["name"] for s in doc["spans"]] == [
            "routing", "schedule[xtalk]",
        ]
        for s in doc["spans"]:
            assert {"name", "seconds", "counters"} <= set(s)
            assert s["seconds"] >= 0.0

    def test_collection_document(self):
        with TraceCollector() as collector:
            sample_trace()
            sample_trace()
        doc = json.loads(collector.to_json())
        assert doc["schema"] == TRACE_COLLECTION_SCHEMA
        assert doc["num_traces"] == len(collector) == 2
        assert doc["counters"]["routing.swaps_inserted"] == 8.0
        assert all(t["schema"] == TRACE_SCHEMA for t in doc["traces"])

    def test_round_trips_through_json(self):
        doc = sample_trace().to_dict()
        assert json.loads(json.dumps(doc)) == doc


class TestTraceCollector:
    def test_collects_only_while_active(self):
        sample_trace()                      # emitted before: not collected
        with TraceCollector() as collector:
            inner = sample_trace()
        sample_trace()                      # emitted after: not collected
        assert collector.traces == [inner]

    def test_nested_collectors_both_receive(self):
        with TraceCollector() as outer:
            with TraceCollector() as inner:
                trace = sample_trace()
        assert outer.traces == [trace]
        assert inner.traces == [trace]
