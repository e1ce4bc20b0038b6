"""The :class:`Pipeline` runner: ordered passes + built-in observability.

Running a pipeline threads one :class:`PassContext` through its passes in
order, timing each pass and collecting its counters into a
:class:`~repro.obs.trace.PipelineTrace` that is attached to the
context (and to the pipeline as ``last_trace``), then emitted to any active
:class:`~repro.obs.trace.TraceCollector`.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.obs.events import log_event
from repro.obs.registry import get_registry
from repro.pipeline.context import PassContext
from repro.pipeline.passes import Pass, compile_passes
from repro.obs.trace import PipelineTrace, SpanRecorder


class Pipeline:
    """An ordered, instrumented sequence of compiler passes."""

    def __init__(self, passes: Sequence[Pass], name: str = "pipeline"):
        self.passes: Tuple[Pass, ...] = tuple(passes)
        self.name = name
        self.last_trace: Optional[PipelineTrace] = None

    def __repr__(self) -> str:
        stages = ", ".join(p.name for p in self.passes)
        return f"Pipeline({self.name!r}: [{stages}])"

    @property
    def pass_names(self) -> Tuple[str, ...]:
        return tuple(p.name for p in self.passes)

    # ------------------------------------------------------------------
    def run(self, context: PassContext) -> PassContext:
        """Run every pass over ``context``; attach and emit the trace."""
        registry = get_registry()
        recorder = SpanRecorder(self.name)
        for stage in self.passes:
            with recorder.span(stage.name) as span:
                counters = stage.run(context)
                if counters:
                    span.counters.update(counters)
            registry.inc("pipeline.passes")
            registry.observe("pipeline.pass_seconds", span.seconds)
        context.trace = recorder.finish()
        self.last_trace = context.trace
        registry.inc("pipeline.runs")
        log_event(
            "pipeline.run",
            pipeline=self.name,
            passes=len(self.passes),
            seconds=context.trace.total_seconds,
        )
        return context


def build_compile_pipeline(scheduler: str = "xtalk",
                           select_region: bool = False,
                           scheduler_kwargs: Optional[dict] = None) -> Pipeline:
    """The Figure 2 toolflow as a pipeline: layout -> routing -> basis
    decomposition -> scheduling policy -> hardware timing.

    ``scheduler_kwargs`` is forwarded to the scheduling pass (e.g.
    ``max_solve_seconds`` / ``fallback`` for ``"xtalk"``)."""
    return Pipeline(
        compile_passes(scheduler, select_region=select_region,
                       scheduler_kwargs=scheduler_kwargs),
        name=f"compile[{scheduler}]",
    )
