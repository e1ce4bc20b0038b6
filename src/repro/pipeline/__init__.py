"""Pass-pipeline compiler core with per-pass instrumentation.

The Figure 2 toolflow — layout, routing, basis decomposition,
crosstalk-adaptive scheduling, hardware timing — expressed as swappable
passes over a typed :class:`PassContext`, run by an instrumented
:class:`Pipeline` that records per-pass wall time and counters into a
JSON-exportable :class:`PipelineTrace`.  A content-keyed, size-bounded
:class:`ResultCache` backs expensive derived results such as
characterization campaign outcomes.

Quick tour::

    from repro.pipeline import PassContext, build_compile_pipeline

    pipe = build_compile_pipeline("xtalk")
    ctx = pipe.run(PassContext(device=dev, report=report, circuit=circ))
    print(ctx.duration, ctx.trace.format())
    print(ctx.trace.to_json(indent=2))
"""

from repro.pipeline.cache import (
    CacheStats,
    ResultCache,
    campaign_cache_key,
    device_fingerprint,
)
from repro.pipeline.context import PassContext
from repro.pipeline.passes import (
    DecomposePass,
    DisableSchedulePass,
    HardwareSchedulePass,
    LayoutPass,
    ParSchedulePass,
    Pass,
    RoutingPass,
    SCHEDULING_PASSES,
    SchedulingPass,
    SerialSchedulePass,
    XtalkSchedulePass,
    canonical_policy,
    compile_passes,
    scheduling_pass,
)
from repro.pipeline.runner import Pipeline, build_compile_pipeline
from repro.obs.trace import (
    PassSpan,
    PipelineTrace,
    SpanRecorder,
    TRACE_COLLECTION_SCHEMA,
    TRACE_SCHEMA,
    TraceCollector,
    emit_trace,
)

__all__ = [
    "CacheStats",
    "ResultCache",
    "campaign_cache_key",
    "device_fingerprint",
    "PassContext",
    "Pass",
    "LayoutPass",
    "RoutingPass",
    "DecomposePass",
    "SchedulingPass",
    "ParSchedulePass",
    "SerialSchedulePass",
    "DisableSchedulePass",
    "XtalkSchedulePass",
    "HardwareSchedulePass",
    "SCHEDULING_PASSES",
    "canonical_policy",
    "scheduling_pass",
    "compile_passes",
    "Pipeline",
    "build_compile_pipeline",
    "PassSpan",
    "PipelineTrace",
    "SpanRecorder",
    "TraceCollector",
    "TRACE_SCHEMA",
    "TRACE_COLLECTION_SCHEMA",
    "emit_trace",
]
