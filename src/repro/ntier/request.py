"""Request records flowing through the simulated n-tier system.

A :class:`Request` carries its per-tier service demands (sampled by the
workload generator) and accumulates the measurements the paper reports:
per-tier response-time spans (Fig 2), client-perceived response time
including TCP retransmissions (Fig 9d), and drop/retry accounting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..obs.columnar import ColumnarTrace

__all__ = ["Request"]


@dataclass
class Request:
    """One client request and everything that happened to it."""

    rid: int
    page: str
    #: Per-tier CPU demand in seconds at nominal speed, e.g.
    #: ``{"apache": 0.0003, "tomcat": 0.0008, "mysql": 0.0022}``.
    demands: Dict[str, float]
    #: Simulation time of the client's *first* transmission attempt.
    t_first_attempt: float = 0.0
    #: Completion time (response received by the client), if completed.
    t_done: Optional[float] = None
    #: Number of transmission attempts (1 = no retransmission).
    attempts: int = 0
    #: True once the client has given up after exhausting retries.
    failed: bool = False
    #: Per-tier (enter, leave) spans; one tuple per visit.
    tier_spans: Dict[str, List[Tuple[float, float]]] = field(
        default_factory=dict
    )
    #: Send time of every transmission attempt (Fig 9d offline replay).
    attempt_times: List[float] = field(default_factory=list)
    #: Tier that dropped each failed attempt, in drop order.
    drop_tiers: List[str] = field(default_factory=list)
    #: Population scale weight: how many real users this request's
    #: sender stands for (1.0 in full-DES runs; ``users / sampled`` in
    #: hybrid fluid/DES runs, where throughput-style aggregates must
    #: weight each sampled request accordingly).
    weight: float = 1.0
    #: Span tree, present only when a recording tracer adopted this
    #: request (``repro.obs``); ``None`` is the disabled fast path.
    trace: Optional["ColumnarTrace"] = field(
        default=None, repr=False, compare=False
    )

    def demand(self, tier: str) -> float:
        """CPU demand at ``tier`` (0.0 if the page skips the tier)."""
        return self.demands.get(tier, 0.0)

    def visits(self, tier: str) -> bool:
        """Whether this request's page touches ``tier`` at all."""
        return self.demands.get(tier, 0.0) > 0.0

    def record_span(self, tier: str, enter: float, leave: float) -> None:
        """Record one tier visit's (enter, leave) span."""
        self.tier_spans.setdefault(tier, []).append((enter, leave))

    def tier_response_time(self, tier: str) -> Optional[float]:
        """Time spent in ``tier`` (queueing + service + downstream)."""
        spans = self.tier_spans.get(tier)
        if not spans:
            return None
        return sum(leave - enter for enter, leave in spans)

    @property
    def completed(self) -> bool:
        return self.t_done is not None and not self.failed

    @property
    def response_time(self) -> Optional[float]:
        """Client-perceived response time, retransmissions included."""
        if self.t_done is None:
            return None
        return self.t_done - self.t_first_attempt

    @property
    def was_retransmitted(self) -> bool:
        return self.attempts > 1

    @property
    def drops(self) -> int:
        """Number of dropped transmission attempts."""
        return len(self.drop_tiers)
