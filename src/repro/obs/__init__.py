"""Observability: request tracing, metrics, and kernel self-profiling.

The subsystem has three legs (see DESIGN.md "Observability"):

* **Span tracing** (:mod:`repro.obs.span`, :mod:`repro.obs.columnar`,
  :mod:`repro.obs.streaming`) — each client request optionally carries
  a typed span tree recording where its latency accrued: TCP
  retransmission waits, per-tier queue waits, processor-sharing service
  slices (with effective-speed annotations), and inter-tier network
  hops.
* **Metrics + event bus** (:mod:`repro.obs.metrics`,
  :mod:`repro.obs.bus`) — counters, gauges and histograms plus a
  pub/sub fabric for request lifecycle events.  Every histogram, window
  sketch and tail threshold is one estimator,
  :class:`~repro.obs.sketch.LogHistogram` (1% relative error by
  default, mergeable).
* **Kernel self-profiling** (:class:`~repro.obs.bus.KernelProfiler`)
  — events dispatched, heap depth, wall-time per sim-second via the
  simulator's hook slot.

:class:`LiveTelemetry` bundles all three with the streaming tail
pipeline; ``run_rubbos(..., telemetry=config)`` wires it into a run.
Full tracing is the same stack at :data:`FULL_TRACE`, which ``python
-m repro trace <scenario>`` exposes from the shell.  Everything is off
by default and adds only null-check overhead when disabled.
"""

from __future__ import annotations

from .bus import EventBus, KernelProfiler
from .columnar import SPAN_DTYPE, ColumnarTrace, SpanStore
from .metrics import Counter, Gauge, MetricsRegistry
from .sketch import LogHistogram
from .span import LEAF_KINDS, SPAN_KINDS, Span
from .streaming import (
    FULL_TRACE,
    AdaptiveTracer,
    LiveTelemetry,
    TailSloDetector,
    TelemetryConfig,
    TelemetryPipeline,
    WindowReport,
)
from .tracer import NULL_TRACER, NullTracer

__all__ = [
    "AdaptiveTracer",
    "ColumnarTrace",
    "Counter",
    "EventBus",
    "FULL_TRACE",
    "Gauge",
    "KernelProfiler",
    "LEAF_KINDS",
    "LiveTelemetry",
    "LogHistogram",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "SPAN_DTYPE",
    "SPAN_KINDS",
    "Span",
    "SpanStore",
    "TailSloDetector",
    "TelemetryConfig",
    "TelemetryPipeline",
    "WindowReport",
]
