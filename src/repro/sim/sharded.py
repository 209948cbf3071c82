"""Sharded parallel DES: conservative safe-window synchronization.

The kernel-side half of the multi-host datacenter runner
(:mod:`repro.experiments.datacenter`): each simulated host runs its own
:class:`~repro.sim.core.Simulator` — in a dedicated worker process when
sharded, or side by side in one simulator when not — and cross-host
RPCs travel as timestamped event messages over per-link ordered
channels.

One protocol, lock-step safe windows (DESIGN.md §12, proof sketch
there):

* Every cross-shard link guarantees a *lookahead* ``L``: a message
  sent at time ``s`` delivers no earlier than ``s + L`` (serialization
  through idle queues plus propagation; load only adds delay).
* All shards advance in lock-step windows of width
  ``W = min L over every cross-shard link``.  Window ``k`` covers the
  half-open interval ``(t_{k-1}, t_k]`` — ``run(until=h)`` executes
  events with timestamp ``<= h``, so an event at exactly ``t_{k-1}``
  ran in the previous window.
* Every send in window ``k`` happens at ``s > t_{k-1}``, hence delivers
  at ``>= s + L > t_{k-1} + W = t_k`` — strictly inside a *future*
  window.  Exchanging each link's buffered frame once per window
  boundary (an empty frame doubles as the null message) therefore
  injects every remote event before the window that must dispatch it.

Within one link, delivery timestamps are non-decreasing (the link's
serialization horizon is monotone), so per-link frames are ordered;
across links, received events are sorted by ``(delivery time, link
rank, intra-frame index)`` before injection.  Exchange is symmetric —
every shard sends on all its outgoing links, then receives on all its
incoming links, once per window — so the blocking reads cannot
deadlock as long as frames stay smaller than the pipe buffer.

**Wire** — a frame is the list of ``(delivery_time, payload)`` pairs
one link buffered in one window.  :class:`PipeTransport` pickles it
into one blob per frame and counts the bytes; tests substitute any
object with ``send(frame)`` / ``recv()``.

**Receive policy** — when every worker has a core of its own, the
datacenter runner wraps each inbound transport in :class:`SpinReceive`
(which also needs ``poll()``): a bounded busy poll, then the blocking
read.  It changes when a frame is read, never which one.
"""

from __future__ import annotations

import gc
import os
import pickle
import select
from dataclasses import dataclass
from functools import partial
from time import perf_counter
from typing import Any, Callable, List, Optional, Sequence, Tuple

from .core import Simulator

__all__ = [
    "EventCounter",
    "FrameChannel",
    "LocalChannel",
    "PipeTransport",
    "ShardRunner",
    "ShardWindow",
    "SpinReceive",
    "spin_seconds",
]


class EventCounter:
    """Kernel hooks object counting dispatched events exactly.

    The sharded acceptance gate: the *sum* of per-shard counts must
    equal the single-process run's count.  ``on_events`` is batched
    (stride) but the kernel flushes the remainder on every ``run``
    return, so cumulative counts are exact whenever the simulator is
    between runs — which is exactly when the window loop reads them.
    """

    event_stride = 512

    def __init__(self) -> None:
        self.count = 0

    def on_events(self, count: int, now: float, pending: int) -> None:
        self.count += count

    def on_process(self, process: Any) -> None:
        return None


@dataclass(frozen=True)
class ShardWindow:
    """One shard's progress report, published on ``shard.window``."""

    shard: int
    host: str
    #: 1-based exchange-round index (== completed rounds).
    index: int
    #: Simulation time the shard has advanced to.
    now: float
    #: Cumulative dispatched events on this shard.
    events: int
    #: Cumulative messages the group's shards sent / received over
    #: cross-host channels, direct and framed alike.
    sent: int
    received: int


class LocalChannel:
    """A cross-host channel inside one shared simulator.

    The unsharded reference mode: ``send`` computes the delivery
    timestamp through the link's serialization horizon and schedules
    the handler directly on the destination simulator's timed queue —
    the exact entry the sharded mode later reproduces via
    :meth:`Simulator.inject` at a window boundary.
    """

    def __init__(self, link: Any, dst_sim: Simulator):
        self.link = link
        self.dst_sim = dst_sim
        self._handler: Optional[Callable[[Any], None]] = None
        self.sent = 0

    def bind(self, handler: Callable[[Any], None]) -> None:
        self._handler = handler

    def send(self, now: float, payload: Any) -> None:
        self.sent += 1
        self.dst_sim.defer_at(
            self.link.delivery_time(now), partial(self._handler, payload)
        )


class FrameChannel:
    """A cross-host channel buffering sends into a per-window frame.

    The sharded mode: ``send`` stamps each payload with its delivery
    timestamp (same link arithmetic as :class:`LocalChannel`) and
    appends it to the current frame; the window loop drains the frame
    into the transport at each boundary.  On the receiving side the
    bound handler is invoked by the injected timer.
    """

    _EMPTY: Tuple = ()

    def __init__(self, link: Any):
        self.link = link
        self._frame: List[Tuple[float, Any]] = []
        self._handler: Optional[Callable[[Any], None]] = None
        self.sent = 0

    def bind(self, handler: Callable[[Any], None]) -> None:
        self._handler = handler

    def send(self, now: float, payload: Any) -> None:
        self.sent += 1
        self._frame.append((self.link.delivery_time(now), payload))

    def drain(self) -> Sequence[Tuple[float, Any]]:
        frame = self._frame
        if not frame:
            # Empty-exchange fast path: no list churn for null frames.
            return self._EMPTY
        self._frame = []
        return frame

    def deliver(self, payload: Any) -> None:
        self._handler(payload)


# -- the wire ---------------------------------------------------------------


class PipeTransport:
    """One end of a cross-group link over a multiprocessing ``Connection``.

    Frames are pickled into one ``send_bytes`` blob — what
    ``Connection.send`` does internally — so the transport can count
    the bytes it puts on the wire.  Pickle round-trips floats and ints
    exactly, so the frames the peer decodes are *equal* to the ones
    sent.
    """

    __slots__ = ("conn", "bytes", "_poller")

    def __init__(self, conn: Any):
        self.conn = conn
        #: Pickled frame bytes this end has sent.
        self.bytes = 0
        # A registered poll object: ~10x cheaper per check than
        # ``Connection.poll``, which builds a selector on every call.
        self._poller = select.poll()
        self._poller.register(conn.fileno(), select.POLLIN)

    def send(self, frame: Any) -> None:
        blob = pickle.dumps(frame, pickle.HIGHEST_PROTOCOL)
        self.bytes += len(blob)
        self.conn.send_bytes(blob)

    def recv(self) -> Any:
        return pickle.loads(self.conn.recv_bytes())

    def poll(self) -> bool:
        return bool(self._poller.poll(0))


#: How long :class:`SpinReceive` polls before it blocks, in host
#: seconds: several times a typical window's compute, so the frame of
#: a peer that is merely a little behind is caught without a sleep,
#: while a peer that is far behind (building its world, finishing)
#: still costs only one blocking read.
SPIN_SECONDS = 0.005


def spin_seconds(workers: int) -> float:
    """Spin budget for ``workers`` concurrent shard processes.

    Spinning only pays when every worker owns a core: with more
    workers than usable cores a spinning receiver steals the core its
    peer needs to produce the frame, so the budget is then zero.
    """
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - platforms without affinity
        cores = os.cpu_count() or 1
    return SPIN_SECONDS if workers <= cores else 0.0


class SpinReceive:
    """Adapter: poll a transport for up to ``seconds``, then block.

    A blocking pipe read that finds no frame puts the process to
    sleep, and the wake-up when the frame lands costs a scheduler
    round trip — on a virtual machine, often more than the window's
    compute.  On a dedicated core a bounded busy poll catches the
    frame awake.  The wrapped transport needs ``send`` / ``recv`` /
    ``poll``; the frames returned are exactly the wrapped transport's.
    """

    __slots__ = ("inner", "seconds", "send")

    def __init__(self, inner: Any, seconds: float):
        self.inner = inner
        self.seconds = seconds
        self.send = inner.send

    def recv(self) -> Any:
        poll = self.inner.poll
        if not poll():
            deadline = perf_counter() + self.seconds
            while not poll() and perf_counter() < deadline:
                pass
        return self.inner.recv()


# -- the runner -------------------------------------------------------------

#: Exchange rounds between the window loop's generation-1 collections.
GC_ROUNDS = 256


class ShardRunner:
    """One shard's lock-step exchange loop.

    ``outgoing`` / ``incoming`` pair each channel with its transport
    (any object with ``send(frame)`` / ``recv()`` — a
    :class:`PipeTransport` in production, a queue shim in tests).
    **Ordering contract:** ``incoming`` must list channels in the same
    global rank order on every shard and every run — the rank is the
    cross-link tie-breaker for simultaneous deliveries.  The loop sends
    one frame per outgoing link per round and runs
    ``ceil(duration / window)`` rounds: boundaries accumulate
    ``t += window`` (monotone rounding keeps every delivery at or past
    its boundary), so only a ``duration`` within float noise of a
    multiple of the window can add one sliver round.
    """

    def __init__(
        self,
        sim: Simulator,
        duration: float,
        window: float,
        outgoing: Sequence[Tuple[Any, FrameChannel]],
        incoming: Sequence[Tuple[Any, Any]],
        on_window: Optional[Callable[[int, float], None]] = None,
        window_stride: int = 1,
    ):
        if window <= 0:
            raise ValueError(f"window must be positive: {window}")
        if duration <= 0:
            raise ValueError(f"duration must be positive: {duration}")
        self.sim = sim
        self.duration = duration
        self.window = window
        self.outgoing = list(outgoing)
        self.incoming = list(incoming)
        self.on_window = on_window
        self.window_stride = max(1, int(window_stride))
        self.windows = 0
        self.sent = 0
        self.received = 0
        #: Frames put on / taken off the wire (exchange count).
        self.frames_sent = 0
        self.frames_received = 0
        #: Per-incoming-link delivered message counts (rank order).
        self.received_per_link = [0] * len(self.incoming)
        self._collect = False

    @property
    def bytes_sent(self) -> int:
        """Bytes the outgoing transports put on the wire (each needs a
        ``bytes`` counter, as :class:`PipeTransport` keeps)."""
        return sum(transport.bytes for transport, _ in self.outgoing)

    def run(self) -> None:
        """Advance to ``duration`` in lock-step safe windows.

        Like :meth:`Simulator.run`, the loop holds the cyclic collector
        off and runs a generation-1 collection every
        :data:`GC_ROUNDS` rounds instead.  Left on, it would be
        re-enabled at every window boundary, and the exchange phase's
        allocations would then trigger full sweeps over every request
        the run has retained.  Pure memory management; a caller that
        already disabled GC is left alone.
        """
        self._collect = gc.isenabled()
        if self._collect:
            gc.disable()
        try:
            self._run_windows()
        finally:
            if self._collect:
                gc.enable()

    def _run_windows(self) -> None:
        sim = self.sim
        inject = sim.inject
        duration = self.duration
        width = self.window
        on_window = self.on_window
        stride = self.window_stride
        t = 0.0
        index = 0
        while t < duration:
            t_end = t + width
            if t_end > duration:
                t_end = duration
            sim.run(until=t_end)
            # Send-all, then receive-all: the symmetric exchange that
            # doubles as the null-message barrier.
            for transport, channel in self.outgoing:
                frame = channel.drain()
                self.sent += len(frame)
                self.frames_sent += 1
                transport.send(frame)
            staged: List[Tuple[float, int, int, Any, Any]] = []
            for rank, (transport, channel) in enumerate(self.incoming):
                frame = transport.recv()
                self.frames_received += 1
                self.received += len(frame)
                self.received_per_link[rank] += len(frame)
                deliver = channel.deliver
                for idx, (time, payload) in enumerate(frame):
                    staged.append((time, rank, idx, deliver, payload))
            if staged:
                if len(staged) > 1:
                    staged.sort(key=_stage_key)
                # inject refuses timestamps before t_end — a violation
                # of the lookahead bound aborts loudly instead of
                # silently reordering dispatch.
                for time, _, _, deliver, payload in staged:
                    inject(time, partial(deliver, payload))
            index += 1
            if self._collect and index % GC_ROUNDS == 0:
                gc.collect(1)
            t = t_end
            if on_window is not None and (
                index % stride == 0 or t >= duration
            ):
                on_window(index, t)
        self.windows = index


def _stage_key(entry: Tuple) -> Tuple[float, int, int]:
    return (entry[0], entry[1], entry[2])
