"""Tracing owned by the benchmark: layer map, stack sampler, spans, probes.

Nothing here edits the simulator.  The traced run observes it from the
outside in three ways:

* :class:`Spans` records wall-clock spans around the public calls the
  benchmark makes (``run_rubbos``, ``summarize_rubbos``,
  ``run_datacenter``) and, through the :class:`Probe`'s class-level
  wrapper, around every ``Simulator.run``.  Spans stay in memory and
  are written out once the run ends.
* :class:`Sampler` attributes wall time to layers.  ``Tier.handle``,
  ``ClosedLoopClient.run`` and ``QueueChain.transfer`` are generators
  the kernel resumes, so wrapping them would time only their creation;
  instead a ``SIGALRM`` interval timer samples the main thread's stack
  and charges the time since the previous sample to the innermost
  ``repro.<pkg>.<module>`` frame's layer.  Time blocked in a known
  waiting call lands in ``wait``, interpreter imports in ``import``,
  the benchmark's own code in ``bench``, and anything else in
  ``other``.  Interval timers do not survive ``fork``, so shard
  workers are never sampled.
* :class:`Probe` wraps a few non-generator public methods at class
  level to count work (PS-server jobs, resource acquires, generated
  requests) and to find the first simulated event, which ends set-up.
"""

from __future__ import annotations

import os
import signal
import struct
import time
from collections import Counter
from contextlib import contextmanager
from typing import Dict, List, Optional, Set, Tuple

#: Named buckets for sampled time that no ``repro`` layer owns.
STARTUP = "startup"  # interpreter start, before the sampler runs
IMPORT = "import"  # module import machinery
WAIT = "wait"  # blocked in a waiting call (pipes, selectors, joins)
BENCH = "bench"  # the benchmark's own code
OTHER = "other"  # everything else
BUCKETS = (STARTUP, IMPORT, WAIT, BENCH, OTHER)

#: Layer of every ``repro`` package.  ``repro.sim`` is split per
#: module (below), so it has no package-wide entry: a new module there,
#: or a new package anywhere, falls into ``other`` and the layer-map
#: test names it.
PACKAGE_LAYERS: Dict[str, str] = {
    "repro.analysis": "analysis",
    "repro.cloud": "cloud",
    "repro.core": "core",
    "repro.experiments": "experiments",
    "repro.hardware": "hardware",
    "repro.model": "model",
    "repro.monitoring": "monitoring",
    "repro.net": "net",
    "repro.ntier": "ntier",
    "repro.obs": "obs",
    "repro.workload": "workload",
}

#: Modules with a layer of their own, overriding their package's.
MODULE_LAYERS: Dict[str, str] = {
    "repro": "cli",
    "repro.__main__": "cli",
    "repro.cli": "cli",
    # The package init only re-exports the kernel's names.
    "repro.sim": "sim.core",
    "repro.sim.core": "sim.core",
    "repro.sim.hybrid": "sim.hybrid",
    "repro.sim.psserver": "sim.psserver",
    "repro.sim.resources": "sim.resources",
    "repro.sim.rng": "sim.rng",
    "repro.sim.sharded": "sim.sharded",
    "repro.experiments.summary": "experiments.summary",
}

#: Every layer the map can produce, in report order.
LAYERS: Tuple[str, ...] = tuple(
    sorted(set(MODULE_LAYERS.values()) | set(PACKAGE_LAYERS.values()))
)

#: ``(path tail, function)`` of the stdlib calls that block the main
#: thread while shard workers or pipes make progress.
WAIT_SITES = frozenset(
    {
        ("multiprocessing/connection.py", "wait"),
        ("multiprocessing/connection.py", "_recv"),
        ("multiprocessing/connection.py", "_poll"),
        ("multiprocessing/popen_fork.py", "wait"),
        ("multiprocessing/popen_fork.py", "poll"),
        ("selectors.py", "select"),
        ("threading.py", "wait"),
    }
)


def layer_of(module: str) -> str:
    """The layer a ``repro`` module's sampled time is charged to."""
    layer = MODULE_LAYERS.get(module)
    if layer is not None:
        return layer
    return PACKAGE_LAYERS.get(".".join(module.split(".")[:2]), OTHER)


def module_of(path: str, src: str) -> str:
    """Dotted module name of a source file below the ``src`` root."""
    rel = os.path.relpath(path, src)[: -len(".py")]
    parts = rel.split(os.sep)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


class Spans:
    """Wall-clock spans around benchmark calls, kept in memory.

    Times are seconds since ``t0``, the moment the run's process was
    spawned.  :attr:`current` names the innermost open span, which the
    sampler uses to tag its samples.
    """

    def __init__(self, t0: float):
        self.t0 = t0
        self.rows: List[dict] = []
        self._stack: List[str] = []
        self.current = "setup"

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        self._stack.append(name)
        self.current = name
        start = time.monotonic()
        try:
            yield
        finally:
            end = time.monotonic()
            self._stack.pop()
            self.current = self._stack[-1] if self._stack else "setup"
            self.add(name, start, end, parent)

    def add(self, name, start, end, parent=None) -> None:
        self.rows.append(
            dict(
                name=name,
                start=start - self.t0,
                end=end - self.t0,
                parent=parent,
            )
        )

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(r["end"] - r["start"] for r in self.rows if r["name"] == name)


class Sampler:
    """``SIGALRM`` stack sampler charging wall time to layers.

    Each sample charges the wall time elapsed since the previous one
    (not a fixed quantum), so time the handler could not run in — a
    long native call, a descheduled process — still lands on the frame
    that was running.  Samples are keyed by ``(span, bucket)``.
    """

    def __init__(
        self, t0: float, src: str, spans: Spans, interval: float = 0.001
    ):
        self.t0 = t0
        self.src = os.path.join(os.path.abspath(src), "")
        self.bench = os.path.join(os.path.dirname(os.path.abspath(__file__)), "")
        self.spans = spans
        self.interval = interval
        self.totals: Dict[Tuple[str, str], float] = {}
        self._codes: Dict[object, Optional[str]] = {}
        self._last = 0.0
        self.stopped_at: Optional[float] = None

    def start(self) -> None:
        now = time.monotonic()
        self.totals[("setup", STARTUP)] = now - self.t0
        self._last = now
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self) -> None:
        """Stop sampling; the tail since the last sample is ``bench``."""
        if self.stopped_at is not None:
            return
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        now = time.monotonic()
        self._charge((self.spans.current, BENCH), now)
        self.stopped_at = now

    def _charge(self, key: Tuple[str, str], now: float) -> None:
        self.totals[key] = self.totals.get(key, 0.0) + (now - self._last)
        self._last = now

    def _sample(self, signum, frame) -> None:
        now = time.monotonic()
        self._charge((self.spans.current, self.classify(frame)), now)

    def classify(self, frame) -> str:
        """Bucket of the innermost frame that any bucket claims."""
        codes = self._codes
        while frame is not None:
            code = frame.f_code
            try:
                bucket = codes[code]
            except KeyError:
                bucket = codes[code] = self._bucket_of(code)
            if bucket is not None:
                return bucket
            frame = frame.f_back
        return OTHER

    def _bucket_of(self, code) -> Optional[str]:
        path = code.co_filename
        if path.startswith(self.src):
            return layer_of(module_of(path, self.src))
        if path.startswith(self.bench):
            return BENCH
        if path.startswith("<frozen importlib"):
            return IMPORT
        tail = "/".join(path.split(os.sep)[-2:])
        if (tail, code.co_name) in WAIT_SITES or (
            (os.path.basename(path), code.co_name) in WAIT_SITES
        ):
            return WAIT
        return None

    def by_bucket(self) -> Counter:
        """Seconds per layer or bucket, over every span."""
        out: Counter = Counter()
        for (_, bucket), seconds in self.totals.items():
            out[bucket] += seconds
        return out

    def in_span(self, span: str, bucket: str) -> float:
        return self.totals.get((span, bucket), 0.0)


class _EventCount:
    """Kernel hooks object counting dispatched events (exact on return)."""

    event_stride = 1 << 16

    def __init__(self) -> None:
        self.count = 0

    def on_events(self, count: int, now: float, pending: int) -> None:
        self.count += count

    def on_process(self, process) -> None:
        return None


def dispatched(sim) -> int:
    """Events a simulator dispatched, read from whichever hooks it has."""
    hooks = sim.hooks
    count = getattr(hooks, "events_dispatched", None)
    return hooks.count if count is None else count


class Probe:
    """Class-level wrappers around public ``repro`` entry points.

    Always installed: ``Simulator.run`` (first simulated event, one
    span per call, and an event-count hook on simulators that have
    none) and ``UserPopulation.start`` (the populations, for the
    conservation check).  With ``counting`` — the traced run only —
    ``ProcessorSharingServer.execute``, ``Resource.request``,
    ``RubbosWorkload.make_request`` and ``OnOffAttacker.start`` are
    wrapped too.

    Shard workers fork after the wrappers are installed; a worker's
    first ``Simulator.run`` writes its timestamp to a pipe so the
    sharded run's set-up also ends at its first simulated event.
    """

    def __init__(self, spans: Spans, counting: bool):
        self.spans = spans
        self.counting = counting
        self.pid = os.getpid()
        self.first_event: Optional[float] = None
        self.populations: List[object] = []
        self.counts: Counter = Counter()
        self.ps_servers: Set[object] = set()
        self.attackers: List[object] = []
        self._seen_pid = self.pid
        self._worker_r, self._worker_w = os.pipe()
        os.set_blocking(self._worker_r, False)

    def install(self) -> None:
        from repro.core.burst import OnOffAttacker
        from repro.ntier.client import UserPopulation
        from repro.sim.core import Simulator
        from repro.sim.psserver import ProcessorSharingServer
        from repro.sim.resources import Resource
        from repro.workload.rubbos import RubbosWorkload

        probe = self
        spans = self.spans
        counts = self.counts
        sim_run = Simulator.run

        def run(sim, until=None):
            now = time.monotonic()
            pid = os.getpid()
            if pid != probe.pid:
                if probe._seen_pid != pid:
                    probe._seen_pid = pid
                    os.write(probe._worker_w, struct.pack("d", now))
                return sim_run(sim, until)
            if probe.first_event is None:
                probe.first_event = now
                spans.add("setup", spans.t0, now)
            if sim.hooks is None:
                sim.attach_hooks(_EventCount())
            with spans.span("Simulator.run"):
                return sim_run(sim, until)

        Simulator.run = run

        population_start = UserPopulation.start

        def start(population):
            probe.populations.append(population)
            return population_start(population)

        UserPopulation.start = start
        if not self.counting:
            return

        execute = ProcessorSharingServer.execute

        def counted_execute(server, work):
            counts["sim.psserver.jobs"] += 1
            probe.ps_servers.add(server)
            return execute(server, work)

        request = Resource.request

        def counted_request(resource):
            counts["sim.resources.acquires"] += 1
            return request(resource)

        make_request = RubbosWorkload.make_request

        def counted_make_request(workload, *args, **kwargs):
            counts["workload.requests"] += 1
            return make_request(workload, *args, **kwargs)

        attacker_start = OnOffAttacker.start

        def counted_attacker_start(attacker):
            probe.attackers.append(attacker)
            return attacker_start(attacker)

        ProcessorSharingServer.execute = counted_execute
        Resource.request = counted_request
        RubbosWorkload.make_request = counted_make_request
        OnOffAttacker.start = counted_attacker_start

    def worker_first_events(self) -> List[float]:
        """First-event timestamps written by shard workers so far."""
        data = b""
        while True:
            try:
                chunk = os.read(self._worker_r, 4096)
            except BlockingIOError:
                break
            if not chunk:
                break
            data += chunk
        return [v for (v,) in struct.iter_unpack("d", data)]

    def busy_core_seconds(self) -> float:
        return sum(s.busy_core_seconds for s in self.ps_servers)

    def bursts(self) -> int:
        return sum(len(a.bursts) for a in self.attackers)
