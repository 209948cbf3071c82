"""Live telemetry: streaming tail quantiles, adaptive tracing, SLO alarms.

The paper's central measurement problem, turned into an online system:
millibottleneck damage is visible *only* in the latency tail (average-
based monitors see nothing), yet retaining a full trace of every
request at million-user scale is memory-infeasible.  This module closes
that gap with three cooperating pieces, all driven passively off the
:class:`~repro.obs.bus.EventBus` request-lifecycle topics — nothing
here schedules a simulation event or consumes an RNG stream, so
fixed-seed results with telemetry on are byte-identical to results
with it off (pinned in ``tests/test_determinism.py``):

* :class:`AdaptiveTracer` — records a span tree for *every* request
  (spans stage as cheap columnar rows) but *retains* only (a) a
  budget-controlled base sample, whose stride re-tunes itself each
  window to hit ``trace_budget_per_window`` retained traces, and
  (b) every request whose response time reaches the P99 of all
  completions so far, which is *promoted* to full-trace retention
  regardless of budget.  The threshold is read from the tracer's
  run-cumulative :class:`~repro.obs.sketch.LogHistogram` once per
  window, so it lags the stream by at most one window.  Promotion
  invariant: retained traces = base budget + promoted tail +
  in-flight, so memory stays bounded by budget and population while
  every tail request above the P99 keeps its full span tree.
* :class:`TelemetryPipeline` — tumbling-window quantile sketches
  (:class:`~repro.obs.sketch.LogHistogram`, O(1) memory per window,
  mergeable) for end-to-end and per-tier latency, exposing live
  P50/P99/P99.9 series plus run-cumulative estimates with guaranteed
  relative accuracy; emits a :class:`WindowReport` per closed window
  to registered callbacks (the CLI's live display, the detector).
* :class:`TailSloDetector` — watches the end-to-end windowed tail and
  publishes ``slo.violation`` (tail above the SLO for ``consecutive``
  windows) and ``millibottleneck.onset`` (tail jumping a factor above
  its rolling baseline) bus topics, which
  :class:`repro.cloud.defense.MillibottleneckDefense` consumes via
  ``attach_bus`` to trigger migration on *live traced tail latency*
  instead of post-hoc utilization episodes.

:class:`LiveTelemetry` bundles the three (plus the metrics registry
and kernel self-profiler) and is the one observability stack:
``run_rubbos(telemetry=...)`` wires it into a run, ``python -m repro
monitor <scenario>`` drives it from the shell, and full offline tracing
(``python -m repro trace``) is the same stack at :data:`FULL_TRACE` —
base stride 1, so every finished request keeps its span tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from .bus import EventBus, KernelProfiler
from .columnar import ColumnarTrace, SpanStore
from .metrics import MetricsRegistry
from .sketch import LogHistogram

__all__ = [
    "FULL_TRACE",
    "TelemetryConfig",
    "AdaptiveTracer",
    "WindowReport",
    "TelemetryPipeline",
    "TailSloDetector",
    "LiveTelemetry",
]

#: Pipeline key for the client-perceived end-to-end latency sketch.
E2E = "e2e"

#: Pipeline key for network chain-traversal latency (``net.*`` topics,
#: present only in runs with a routed inter-tier network).
NET = "net"


@dataclass(frozen=True)
class TelemetryConfig:
    """Everything the live pipeline needs, in one frozen record."""

    #: Tumbling window width (simulated seconds) for live series.
    window: float = 1.0
    #: Percentile series maintained per window and cumulatively.
    quantiles: Tuple[float, ...] = (50.0, 99.0, 99.9)
    #: Guaranteed relative accuracy of the log-bucketed sketches.
    accuracy: float = 0.01
    #: Initial base-sample stride (1/64 by default: trace every 64th).
    base_sample_every: int = 64
    #: Target base-retained traces per window; the controller re-tunes
    #: the stride each window to hit it.  None pins the stride at
    #: ``base_sample_every`` (the fixed 1/64 budget of the benchmark).
    trace_budget_per_window: Optional[int] = 8
    #: Quantile (percentile units) whose estimate, refreshed at each
    #: window rollover, is the promotion threshold: any completion
    #: at/above it keeps its trace.
    promote_quantile: float = 99.0
    #: Completions needed before the promotion threshold arms.
    min_promote_samples: int = 100
    #: End-to-end tail SLO in seconds (None disables the detector).
    slo: Optional[float] = None
    #: Percentile the SLO applies to (must be in ``quantiles``).
    slo_quantile: float = 99.0
    #: Violating windows in a row before ``slo.violation`` fires.
    consecutive_windows: int = 2
    #: Tail-jump factor over the rolling baseline for onset detection.
    onset_factor: float = 3.0
    #: Windows in the rolling baseline median.
    baseline_windows: int = 8
    #: Minimum seconds between ``millibottleneck.onset`` emissions.
    onset_cooldown: float = 2.0
    #: Kernel self-profiler stride.
    kernel_sample_every: int = 1024

    def __post_init__(self):
        if self.window <= 0:
            raise ValueError(f"window must be positive: {self.window}")
        if self.base_sample_every < 1:
            raise ValueError(
                f"base_sample_every must be >= 1: {self.base_sample_every}"
            )
        if (
            self.trace_budget_per_window is not None
            and self.trace_budget_per_window < 1
        ):
            raise ValueError(
                "trace_budget_per_window must be >= 1 or None: "
                f"{self.trace_budget_per_window}"
            )
        if self.slo is not None and self.slo_quantile not in self.quantiles:
            raise ValueError(
                f"slo_quantile {self.slo_quantile} must be one of the "
                f"tracked quantiles {self.quantiles}"
            )


#: Full tracing: base stride 1 and no budget retune, so every finished
#: request keeps its span tree (``python -m repro trace``).
FULL_TRACE = TelemetryConfig(
    base_sample_every=1, trace_budget_per_window=None
)


class AdaptiveTracer:
    """The recording tracer: budget-driven, with tail promotion.

    Every begun request gets a working span tree (recording costs a few
    list appends per span — the price of being *able* to keep any tail
    request), but at completion only two classes are retained:

    * **base sample** — every ``stride``-th finished request; when a
      ``trace_budget_per_window`` is set, the stride is re-tuned at
      each window boundary to ``round(finished / budget)``, so the
      retained base rate tracks the configured budget whatever the
      offered load does;
    * **promoted** — any request whose response time reaches the
      :attr:`threshold`, the ``promote_quantile`` of every completion
      up to the last window rollover (plus every failed request: the
      give-up path *is* the extreme tail).  Promotion ignores the
      budget by design — under attack the tail inflates and the
      retained trace rate rises with it, which is exactly the signal
      worth paying memory for.

    At :data:`FULL_TRACE` every finished request is retained.
    Discarded traces never enter the span store (see
    :meth:`repro.obs.columnar.SpanStore.adopt`), so their staged rows
    are garbage the moment the request record drops its reference.
    Every request also feeds the ``requests.*`` metrics and bus topics.
    """

    enabled = True

    def __init__(
        self,
        config: Optional[TelemetryConfig] = None,
        metrics: Optional[MetricsRegistry] = None,
        bus: Optional[EventBus] = None,
    ):
        config = config if config is not None else TelemetryConfig()
        self.config = config
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.bus = bus if bus is not None else EventBus()
        #: Retained traces, in finish order.
        self.store = SpanStore()
        self.stride = config.base_sample_every
        #: The promotion threshold: ``promote_quantile`` of completed
        #: response times as of the last window rollover, None until
        #: ``min_promote_samples`` completions have arrived.
        self.threshold: Optional[float] = None
        self.base_retained = 0
        self.promoted = 0
        self.discarded = 0
        self._finished = 0
        self._window_end = config.window
        self._finished_in_window = 0
        # Instruments resolved once — finish() runs per request.
        metrics = self.metrics
        self._c_started = metrics.counter("requests.started")
        self._c_completed = metrics.counter("requests.completed")
        self._c_failed = metrics.counter("requests.failed")
        self._c_dropped = metrics.counter("requests.dropped")
        self._c_retransmitted = metrics.counter("requests.retransmitted")
        self._c_tcp_retrans = metrics.counter("tcp.retransmissions")
        #: Completed response times; the ``response_time`` metric.
        self.response_times = metrics.histogram(
            "response_time", config.accuracy
        )
        self._c_base = metrics.counter("telemetry.base_retained")
        self._c_promoted = metrics.counter("telemetry.promoted")
        self._c_discarded = metrics.counter("telemetry.discarded")

    def begin_trace(self, request) -> ColumnarTrace:
        """Adopt *every* request; retention is decided at finish."""
        trace = ColumnarTrace(self.store, request.rid, register=False)
        request.trace = trace
        self._c_started.inc()
        self.bus.publish("request.started", request)
        return trace

    def dropped(self, request, tier: str) -> None:
        """An attempt hit a full accept queue (published before the
        TCP backoff, not one RTO later at completion)."""
        self._c_dropped.inc()
        self.bus.publish("request.dropped", request)

    def finish(self, request) -> None:
        """Decide retention, fold metrics, then publish."""
        now = request.t_done
        if now is not None and now >= self._window_end:
            self._retune(now)
        self._finished += 1
        self._finished_in_window += 1
        base = (self._finished - 1) % self.stride == 0
        rt = request.response_time
        threshold = self.threshold
        promoted = request.failed or (
            rt is not None and threshold is not None and rt >= threshold
        )
        if base or promoted:
            self.store.adopt(request.trace)
            if promoted:
                self.promoted += 1
                self._c_promoted.inc()
            else:
                self.base_retained += 1
                self._c_base.inc()
        else:
            request.trace = None
            self.discarded += 1
            self._c_discarded.inc()
        if request.failed:
            self._c_failed.inc()
            topic = "request.failed"
        else:
            self._c_completed.inc()
            topic = "request.completed"
            if rt is not None:
                self.response_times.observe(rt)
        if request.attempts > 1:
            self._c_retransmitted.inc()
            self._c_tcp_retrans.inc(request.attempts - 1)
        self.bus.publish(topic, request)

    def _retune(self, now: float) -> None:
        """Window rollover: adapt the base stride to the budget and
        refresh the promotion threshold."""
        config = self.config
        response_times = self.response_times
        if response_times.count >= config.min_promote_samples:
            self.threshold = response_times.quantile(
                config.promote_quantile
            )
        budget = config.trace_budget_per_window
        if budget is not None and self._finished_in_window:
            self.stride = max(
                1, round(self._finished_in_window / budget)
            )
        self._finished_in_window = 0
        window = config.window
        # Skip empty windows in one step (no completions, no budget
        # evidence to retune on).
        periods = int((now - self._window_end) / window) + 1
        self._window_end += periods * window

    @property
    def retained(self) -> int:
        """Traces kept so far (base sample + promoted tail)."""
        return self.base_retained + self.promoted


@dataclass
class WindowReport:
    """One closed telemetry window, ready for display or detection."""

    index: int
    start: float
    end: float
    #: Requests completed / failed / dropped-attempts in the window.
    completed: int = 0
    failed: int = 0
    dropped: int = 0
    #: Network messages discarded by a queue-chain stage in the window
    #: (0 unless the run routes RPCs through ``repro.net``).
    net_dropped: int = 0
    #: key -> quantile (percentile units) -> estimate; empty keys
    #: (no observations in the window) are absent.
    quantiles: Dict[str, Dict[float, float]] = field(default_factory=dict)
    #: key -> observations folded into this window's sketch.
    samples: Dict[str, int] = field(default_factory=dict)
    #: Traces retained by the adaptive tracer during the window.
    base_retained: int = 0
    promoted: int = 0
    #: Base-sample stride in effect when the window closed.
    stride: int = 0

    def quantile(self, q: float, key: str = E2E) -> Optional[float]:
        values = self.quantiles.get(key)
        return None if values is None else values.get(q)


class TelemetryPipeline:
    """Windowed + cumulative latency sketches over bus lifecycle topics.

    Subscribes to ``request.completed`` / ``request.failed`` /
    ``request.dropped`` and maintains one :class:`LogHistogram` per key
    (end-to-end plus each tier) per tumbling window, folding closed
    windows into run-cumulative sketches.  Windows close lazily when an
    observation lands past their end (plus a final :meth:`flush` at the
    horizon), so the pipeline never schedules simulation events — the
    live path costs one bucket increment per key per completion.
    """

    def __init__(
        self,
        config: Optional[TelemetryConfig] = None,
        bus: Optional[EventBus] = None,
        tracer: Optional[AdaptiveTracer] = None,
    ):
        self.config = config if config is not None else TelemetryConfig()
        self.bus = bus if bus is not None else EventBus()
        self.tracer = tracer
        self.tier_names: Tuple[str, ...] = ()
        #: Closed windows, oldest first.
        self.reports: List[WindowReport] = []
        #: key -> run-cumulative sketch (all closed + open windows).
        self.cumulative: Dict[str, LogHistogram] = {}
        self.on_window: List[Callable[[WindowReport], None]] = []
        self._window_index = 0
        self._window_hists: Dict[str, LogHistogram] = {}
        self._completed = 0
        self._failed = 0
        self._dropped = 0
        self._net_dropped = 0
        self._tracer_base_seen = 0
        self._tracer_promoted_seen = 0
        self._attached = False

    # -- wiring -----------------------------------------------------------

    def attach(self, app=None) -> "TelemetryPipeline":
        """Subscribe to the bus (and learn tier names from ``app``)."""
        if self._attached:
            return self
        self._attached = True
        if app is not None:
            self.tier_names = tuple(tier.name for tier in app.tiers)
        self.bus.subscribe("request.completed", self._on_completed)
        self.bus.subscribe("request.failed", self._on_failed)
        self.bus.subscribe("request.dropped", self._on_dropped)
        # The whole net.* family: delivered transfers feed the NET
        # latency sketch, stage drops are tallied per window.
        self.bus.subscribe("net.*", self._on_net)
        return self

    # -- window machinery -------------------------------------------------

    def _window_bounds(self, index: int) -> Tuple[float, float]:
        w = self.config.window
        return index * w, (index + 1) * w

    def _hist(self, key: str) -> LogHistogram:
        hist = self._window_hists.get(key)
        if hist is None:
            hist = self._window_hists[key] = LogHistogram(
                self.config.accuracy
            )
        return hist

    def _close_through(self, t: float) -> None:
        """Close every window whose end is at or before ``t``."""
        while True:
            start, end = self._window_bounds(self._window_index)
            if t < end:
                return
            self._close_window(start, end)

    def _close_window(self, start: float, end: float) -> None:
        report = WindowReport(
            index=self._window_index,
            start=start,
            end=end,
            completed=self._completed,
            failed=self._failed,
            dropped=self._dropped,
            net_dropped=self._net_dropped,
        )
        for key, hist in self._window_hists.items():
            if hist.count == 0:
                continue
            report.samples[key] = hist.count
            report.quantiles[key] = {
                q: hist.quantile(q) for q in self.config.quantiles
            }
            cumulative = self.cumulative.get(key)
            if cumulative is None:
                cumulative = self.cumulative[key] = LogHistogram(
                    self.config.accuracy
                )
            cumulative.merge(hist)
        tracer = self.tracer
        if tracer is not None:
            report.base_retained = (
                tracer.base_retained - self._tracer_base_seen
            )
            report.promoted = tracer.promoted - self._tracer_promoted_seen
            report.stride = tracer.stride
            self._tracer_base_seen = tracer.base_retained
            self._tracer_promoted_seen = tracer.promoted
        self.reports.append(report)
        self._window_hists = {}
        self._completed = self._failed = self._dropped = 0
        self._net_dropped = 0
        self._window_index += 1
        for callback in self.on_window:
            callback(report)

    def flush(self, until: float) -> None:
        """Close all windows ending at or before ``until`` (run end)."""
        self._close_through(until)

    # -- lifecycle consumers ----------------------------------------------

    def _on_completed(self, request) -> None:
        t = request.t_done
        self._close_through(t)
        self._completed += 1
        rt = request.response_time
        if rt is not None:
            self._hist(E2E).observe(rt)
        for tier in self.tier_names:
            tier_rt = request.tier_response_time(tier)
            if tier_rt is not None:
                self._hist(tier).observe(tier_rt)

    def _on_failed(self, request) -> None:
        self._close_through(request.t_done)
        self._failed += 1

    def _on_dropped(self, request) -> None:
        # Drops arrive mid-request (before any completion timestamp);
        # tally only — the window closes on the next completion.
        self._dropped += 1

    def _on_net(self, event) -> None:
        if event.kind == "delivered":
            self._close_through(event.t)
            self._hist(NET).observe(event.latency)
        elif event.kind == "dropped":
            self._net_dropped += 1

    # -- queries ----------------------------------------------------------

    def estimate(self, q: float, key: str = E2E) -> Optional[float]:
        """Cumulative quantile estimate over all *closed* windows."""
        hist = self.cumulative.get(key)
        if hist is None or hist.count == 0:
            return None
        return hist.quantile(q)

    def series(self, q: float, key: str = E2E) -> List[Tuple[float, float]]:
        """Live (window end, estimate) points for one quantile."""
        out = []
        for report in self.reports:
            value = report.quantile(q, key)
            if value is not None:
                out.append((report.end, value))
        return out

    def snapshot(self) -> dict:
        """Cumulative sketch snapshots per key."""
        return {
            key: hist.snapshot(self.config.quantiles)
            for key, hist in sorted(self.cumulative.items())
        }


class TailSloDetector:
    """Turns windowed tail estimates into defense-consumable topics.

    Registered as a :class:`TelemetryPipeline` window callback.  Two
    signals, both on the end-to-end tail:

    * ``slo.violation`` — the windowed ``slo_quantile`` estimate sits
      at/above ``slo`` for ``consecutive_windows`` windows in a row;
      emitted once per violating window from then on (each emission is
      one "episode" to :class:`repro.cloud.defense
      .MillibottleneckDefense`).
    * ``millibottleneck.onset`` — the windowed tail jumps to at least
      ``onset_factor`` times the rolling median of the previous
      ``baseline_windows`` windows: the transient-saturation signature,
      caught at window granularity instead of post-hoc.
    """

    def __init__(
        self, config: TelemetryConfig, bus: EventBus
    ):
        if config.slo is None:
            raise ValueError("TailSloDetector needs config.slo set")
        self.config = config
        self.bus = bus
        #: (window end, estimate) of every emitted violation.
        self.violations: List[Tuple[float, float]] = []
        #: (window end, estimate, baseline) of every emitted onset.
        self.onsets: List[Tuple[float, float, float]] = []
        self._streak = 0
        self._recent: List[float] = []
        self._last_onset = float("-inf")

    def on_window(self, report: WindowReport) -> None:
        config = self.config
        value = report.quantile(config.slo_quantile)
        if value is None:
            # An empty window carries no tail evidence either way.
            return
        baseline = self._baseline()
        if (
            baseline is not None
            and value >= config.onset_factor * baseline
            and report.end - self._last_onset >= config.onset_cooldown
        ):
            self._last_onset = report.end
            self.onsets.append((report.end, value, baseline))
            self.bus.publish(
                "millibottleneck.onset",
                {
                    "time": report.end,
                    "window": report.index,
                    "estimate": value,
                    "baseline": baseline,
                    "quantile": config.slo_quantile,
                },
            )
        if value >= config.slo:
            self._streak += 1
            if self._streak >= config.consecutive_windows:
                self.violations.append((report.end, value))
                self.bus.publish(
                    "slo.violation",
                    {
                        "time": report.end,
                        "window": report.index,
                        "estimate": value,
                        "slo": config.slo,
                        "quantile": config.slo_quantile,
                        "streak": self._streak,
                    },
                )
        else:
            self._streak = 0
        self._recent.append(value)
        if len(self._recent) > config.baseline_windows:
            del self._recent[0]

    def _baseline(self) -> Optional[float]:
        """Median windowed tail over the trailing baseline windows."""
        recent = self._recent
        if len(recent) < self.config.baseline_windows:
            return None
        ordered = sorted(recent)
        mid = len(ordered) // 2
        if len(ordered) % 2:
            return ordered[mid]
        return 0.5 * (ordered[mid - 1] + ordered[mid])


class LiveTelemetry:
    """The observability stack, bundled and wired into one run.

    One bus + metrics registry + adaptive tracer + streaming pipeline
    (+ tail-SLO detector when ``config.slo`` is set) + kernel
    self-profiler.  ``attach`` hooks it into a simulator/application
    pair; ``finalize`` flushes trailing windows at the horizon.
    """

    def __init__(self, config: Optional[TelemetryConfig] = None):
        self.config = config if config is not None else TelemetryConfig()
        self.bus = EventBus()
        self.metrics = MetricsRegistry()
        self.tracer = AdaptiveTracer(
            self.config, metrics=self.metrics, bus=self.bus
        )
        self.pipeline = TelemetryPipeline(
            self.config, bus=self.bus, tracer=self.tracer
        )
        self.detector: Optional[TailSloDetector] = None
        if self.config.slo is not None:
            self.detector = TailSloDetector(self.config, self.bus)
            self.pipeline.on_window.append(self.detector.on_window)
        self.kernel = KernelProfiler(
            sample_every=self.config.kernel_sample_every,
            metrics=self.metrics,
        )

    def attach(self, sim, app=None) -> "LiveTelemetry":
        sim.attach_hooks(self.kernel)
        if app is not None:
            app.tracer = self.tracer
        self.pipeline.attach(app)
        return self

    def finalize(self, until: float) -> "LiveTelemetry":
        """Close the windows still open at the simulation horizon."""
        self.pipeline.flush(until)
        return self

    def report(self) -> dict:
        tracer = self.tracer
        out = {
            "kernel": self.kernel.summary(),
            "sketches": self.pipeline.snapshot(),
            "windows": len(self.pipeline.reports),
            "traces": {
                "retained": tracer.retained,
                "base": tracer.base_retained,
                "promoted": tracer.promoted,
                "discarded": tracer.discarded,
                "stride": tracer.stride,
                "threshold": tracer.threshold,
            },
        }
        if self.detector is not None:
            out["slo"] = {
                "violations": len(self.detector.violations),
                "onsets": len(self.detector.onsets),
            }
        return out
