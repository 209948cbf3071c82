"""The null tracer: the disabled fast path every application starts on.

Instrumentation sites never talk to the tracer on the hot path — they
check ``request.trace`` (a plain attribute, ``None`` unless a recording
tracer adopted the request at send time) and skip all span work when it
is ``None``.  That keeps the disabled-tracing overhead to one attribute
load per site and, because tracing schedules no simulation events,
guarantees byte-identical results with tracing on or off.

:data:`NULL_TRACER` is the module-wide disabled singleton.  The one
recording tracer is :class:`repro.obs.streaming.AdaptiveTracer`; full
tracing is that tracer at stride 1
(:data:`repro.obs.streaming.FULL_TRACE`).
"""

from __future__ import annotations

__all__ = ["NullTracer", "NULL_TRACER"]


class NullTracer:
    """The disabled tracer: adopts nothing, records nothing."""

    enabled = False

    def begin_trace(self, request) -> None:
        return None

    def finish(self, request) -> None:
        return None

    def dropped(self, request, tier: str) -> None:
        return None


#: Shared disabled-tracer singleton (the default everywhere).
NULL_TRACER = NullTracer()
