"""Multi-host datacenter scenarios on the sharded parallel kernel.

A :class:`DatacenterScenario` partitions the RUBBoS tier chain across
the hosts of a :class:`~repro.cloud.topology.RackTopology`: each host
is one **shard** with its own deployment slice and RNG streams;
cross-host tier→tier RPCs travel as timestamped frames through
:class:`~repro.net.fabric.CrossHostLink` channels under the
conservative safe-window protocol of :mod:`repro.sim.sharded`
(DESIGN.md §12).

Every run goes through one group runner (:func:`_run_group`): a
*group* of shard domains shares one simulator, channels inside the
group stay direct (:class:`~repro.sim.sharded.LocalChannel`), and
only cross-group channels go through the frame exchange of the
lock-step window loop.  ``run_datacenter(scenario, shards=1)`` runs
every shard as one group in process — the reference interleaving,
with ``ceil(duration / window)`` rounds and no frames.
``shards=K`` for ``2 <= K <= n`` runs ``K`` worker processes, one
group each, whose base window is the min lookahead over the
*cross-group* links.  Groups balance each worker's share of the
discrete traffic and then cut only the widest links, so they need not
be contiguous (:func:`_partition`).  ``K == n`` is the
one-host-per-worker sharding; dispatch order within each simulator is
identical to the reference in every mode, so request CSVs and event
counts match byte for byte (``tests/test_determinism.py``) while the
wall clock drops with the core count (``benchmarks/bench_shard.py``).

Workers exchange one frame per cross-group link per lock-step window,
pickled onto the pipe by :class:`~repro.sim.sharded.PipeTransport` —
one protocol and one wire, so a run's round count is
``ceil(duration / window)`` in every mode.

Scenarios may carry a :class:`ShardBulk`: every shard then hosts a
per-host million-user fluid bulk
(:class:`~repro.sim.hybrid.FluidEngine` over the shard's local tier
slice), coupled into the discrete tiers as background load — the
datacenter flavour of the hybrid engine, closed-loop per host so no
fluid mass crosses shard boundaries (the cross-host traffic stays
fully discrete and exactly synchronized).

Every mode builds *identical* per-shard domains — same construction
order, same marshalled RPC frames, same name-addressed RNG streams
(:class:`~repro.sim.rng.RandomStreams` substreams depend only on
``(seed, name)``, never on draw order elsewhere) — which is what makes
the equivalence hold by construction rather than by luck.  The
deployment config, the memory attack and the fluid bulk come from the
same builders :func:`~repro.experiments.runner.run_rubbos` uses.
"""

from __future__ import annotations

import gc
import multiprocessing as mp
import time
import traceback
from dataclasses import dataclass, replace
from fractions import Fraction
from multiprocessing import connection as mp_connection
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..cloud.platform import CloudDeployment, DeploymentConfig
from ..cloud.topology import RackTopology
from ..net.fabric import CrossHostLink
from ..ntier.client import UserPopulation
from ..ntier.remote import RemoteTierServer, RemoteTierStub
from ..ntier.replicated import ReplicatedTier
from ..ntier.request import Request
from ..obs.sketch import LogHistogram
from ..sim.core import Simulator
from ..sim.hybrid import FluidEngine, HybridConfig
from ..sim.rng import RandomStreams
from ..sim.sharded import (
    EventCounter,
    FrameChannel,
    LocalChannel,
    PipeTransport,
    ShardRunner,
    ShardWindow,
    SpinReceive,
    spin_seconds,
)
from ..workload.rubbos import RubbosWorkload
from .configs import AttackSpec, RubbosScenario
from .runner import (
    _population_frozen,
    deployment_config,
    launch_attack,
    split_attack_program,
    start_fluid,
)
from .summary import completed_after_warmup

__all__ = [
    "DATACENTERS",
    "DC_2HOST",
    "DC_4HOST",
    "DC_8HOST",
    "DC_16HOST",
    "DatacenterRun",
    "DatacenterScenario",
    "ShardBulk",
    "ShardResult",
    "ShardSpec",
    "run_datacenter",
]


@dataclass(frozen=True)
class ShardSpec:
    """One shard: a topology host serving a contiguous chain slice."""

    host: str
    tiers: Tuple[str, ...]


@dataclass(frozen=True)
class ShardBulk:
    """Per-host fluid bulk riding along every shard (hybrid mode).

    Each shard worker runs an independent closed-loop
    :class:`~repro.sim.hybrid.FluidEngine` of ``users_per_host`` bulk
    users over its *local* tier slice — background load for the
    discrete cross-host traffic, per host, so the fluid state never
    crosses a shard boundary and the safe-window protocol is untouched.
    """

    users_per_host: int
    think_time: float
    fluid_tick: float = 0.02
    rto: float = 1.0
    publish_window: float = 1.0

    def __post_init__(self) -> None:
        if self.users_per_host < 1:
            raise ValueError(
                f"users_per_host must be >= 1: {self.users_per_host}"
            )
        if self.think_time <= 0:
            raise ValueError(
                f"think_time must be positive: {self.think_time}"
            )
        if self.fluid_tick <= 0:
            raise ValueError(
                f"fluid_tick must be positive: {self.fluid_tick}"
            )


@dataclass(frozen=True)
class _Edge:
    """One remote-call boundary: upstream shard → downstream shard."""

    id: int
    upstream: int
    downstream: int
    #: First tier of the downstream shard (the tier being called).
    tier: str


@dataclass(frozen=True)
class DatacenterScenario:
    """A RUBBoS scenario spread across topology hosts.

    ``shards`` lists hosts front-to-back; each serves a contiguous
    slice of the tier chain.  Replicas — several trailing shards with
    the same single back tier — are dispatched to by a
    :class:`~repro.ntier.replicated.ReplicatedTier` of remote stubs on
    the upstream shard.  The base scenario's attack co-locates with the
    shard owning its target tier (the first replica when replicated).
    """

    name: str
    base: RubbosScenario
    topology: RackTopology
    shards: Tuple[ShardSpec, ...]
    #: Per-host fluid bulk (hybrid-mode shards); None = pure DES.
    bulk: Optional[ShardBulk] = None

    def __post_init__(self) -> None:
        if len(self.shards) < 2:
            raise ValueError("a datacenter scenario needs >= 2 shards")
        if self.base.network is not None:
            raise ValueError(
                "datacenter scenarios model the fabric via cross-host "
                "links; base.network must be None"
            )
        if self.base.hybrid is not None:
            raise ValueError(
                "datacenter scenarios run full DES for the discrete "
                "population; use bulk=ShardBulk(...) for the per-host "
                "fluid bulk"
            )
        if self.base.attack is not None:
            _, wants_nic = split_attack_program(self.base.attack.program)
            if wants_nic:
                raise ValueError(
                    "NIC attacks need an intra-host TierNetwork; "
                    "datacenter scenarios support memory programs only"
                )
        hosts = [spec.host for spec in self.shards]
        if len(set(hosts)) != len(hosts):
            raise ValueError(f"duplicate shard hosts: {hosts}")
        for host in hosts:
            self.topology.rack_of(host)  # raises KeyError if unknown
        self.layout()  # validates the chain tiling

    def chain(self) -> Tuple[str, ...]:
        """The full tier chain, front-to-back."""
        return tuple(t.name for t in deployment_config(self.base).tiers)

    def layout(self) -> Tuple[Tuple[_Edge, ...], Tuple[int, ...]]:
        """Validate the shard tiling; return (edges, replica shards).

        Edges appear in chain order; for a replicated back tier the
        upstream shard carries one edge per replica.
        """
        chain = self.chain()
        slices = [spec.tiers for spec in self.shards]
        edges: List[_Edge] = []
        replicas: Tuple[int, ...] = ()
        cursor = 0
        prev: Optional[int] = None
        i = 0
        while i < len(slices):
            tiers = slices[i]
            if tiers != chain[cursor : cursor + len(tiers)]:
                raise ValueError(
                    f"shard {i} tiers {tiers!r} do not continue the "
                    f"chain {chain!r} at position {cursor}"
                )
            group = [i]
            while i + len(group) < len(slices) and slices[
                i + len(group)
            ] == tiers:
                group.append(i + len(group))
            if len(group) > 1:
                if len(tiers) != 1 or cursor + 1 != len(chain):
                    raise ValueError(
                        "replicas are only supported for the single "
                        f"back tier, got {tiers!r} x{len(group)}"
                    )
                replicas = tuple(group)
            if prev is not None:
                for member in group:
                    edges.append(
                        _Edge(len(edges), prev, member, tiers[0])
                    )
            elif cursor != 0:
                raise ValueError("first shard must serve the front tier")
            prev = group[-1]
            cursor += len(tiers)
            i += len(group)
        if cursor != len(chain):
            raise ValueError(
                f"shards cover {chain[:cursor]!r}, chain is {chain!r}"
            )
        return tuple(edges), replicas

    @property
    def window(self) -> float:
        """The conservative safe-window width: the min lookahead over
        every cross-host channel (the window of the one-group run)."""
        return self.topology.min_lookahead(
            [(src, dst) for _, _, _, src, dst in _channel_specs(self)]
        )

    def attack_shard(self) -> Optional[int]:
        """Index of the shard the adversary co-locates with."""
        if self.base.attack is None:
            return None
        target = self.base.attack.target_tier
        if target is None:
            target = self.chain()[-1]
        for index, spec in enumerate(self.shards):
            if target in spec.tiers:
                return index
        raise ValueError(f"attack target {target!r} is on no shard")


#: Channel ids: edge ``e`` owns call channel ``2e`` (upstream →
#: downstream) and reply channel ``2e + 1`` (downstream → upstream) —
#: a channel's reverse is always ``cid ^ 1``.
def _channel_specs(
    scenario: DatacenterScenario,
) -> List[Tuple[int, int, int, str, str]]:
    """(channel_id, sender_shard, receiver_shard, src_host, dst_host)."""
    edges, _ = scenario.layout()
    specs = []
    for edge in edges:
        up_host = scenario.shards[edge.upstream].host
        down_host = scenario.shards[edge.downstream].host
        specs.append(
            (2 * edge.id, edge.upstream, edge.downstream, up_host, down_host)
        )
        specs.append(
            (2 * edge.id + 1, edge.downstream, edge.upstream, down_host, up_host)
        )
    return specs


def _make_link(
    scenario: DatacenterScenario,
    sim: Simulator,
    src_host: str,
    dst_host: str,
) -> CrossHostLink:
    """Build the cross-host link for one directed channel.

    The link's guaranteed lookahead must dominate the scenario window;
    the assertion catches any drift between the topology matrix and
    the link's stage arithmetic.
    """
    topology = scenario.topology
    spec = topology.link(src_host, dst_host)
    link = CrossHostLink(
        sim,
        f"{src_host}->{dst_host}",
        nic_rate=topology.nic_rate,
        link_latency=spec.latency,
        link_rate=spec.rate,
    )
    assert link.lookahead == topology.lookahead(src_host, dst_host)
    return link


# -- execution groups -------------------------------------------------------


def _shard_weights(scenario: DatacenterScenario) -> List[Fraction]:
    """Each shard's share of the discrete traffic, as an exact fraction.

    Every request visits every tier once, except the replicated back
    tier, which one of its ``R`` replicas serves: a shard weighs 1 per
    tier it serves, a replica ``1/R``.  The per-host fluid bulk costs
    the same on every host, so it is left out.
    """
    _, replicas = scenario.layout()
    return [
        Fraction(len(spec.tiers), len(replicas) if i in replicas else 1)
        for i, spec in enumerate(scenario.shards)
    ]


def _growth_strings(m: int, k: int):
    """Every labelling of ``m`` items into at most ``k`` unnamed groups
    (restricted growth strings: first use of each label in order)."""
    if m == 0:
        yield []
        return
    for head in _growth_strings(m - 1, k):
        for label in range(min(max(head, default=-1) + 2, k)):
            yield head + [label]


def _partition(scenario: DatacenterScenario, k: int) -> List[List[int]]:
    """Split the shards into ``k`` non-empty execution groups.

    Minimises the heaviest group's weight (:func:`_shard_weights`),
    then maximises the base window (the least cross-group lookahead),
    then keeps the first candidate in enumeration order.  Replicas
    weigh the same and each talks only to their common upstream shard,
    so only the non-replica shards are enumerated (a handful of
    labellings).  For each labelling the least reachable maximum and
    the replica count per group follow in closed form; the upstream's
    group takes as many replicas as that maximum allows — the ones
    with the least lookahead to it, since only the replicas outside
    its group bound the window — and the rest fill the other groups
    in shard order.  Groups come back sorted, ordered by first member.
    """
    n = len(scenario.shards)
    if k == 1:
        return [list(range(n))]
    edges, replicas = scenario.layout()
    r = len(replicas)
    singles = [i for i in range(n) if i not in replicas]
    # Weights in units of 1/R: a non-replica tier is R units, a replica 1.
    units = [len(scenario.shards[i].tiers) * max(r, 1) for i in singles]
    near: List[int] = []
    if replicas:
        topology = scenario.topology
        upstream = next(e.upstream for e in edges if e.downstream in replicas)
        up_host = scenario.shards[upstream].host

        def distance(i: int) -> Tuple[float, int]:
            host = scenario.shards[i].host
            return (
                min(
                    topology.lookahead(up_host, host),
                    topology.lookahead(host, up_host),
                ),
                i,
            )

        near = sorted(replicas, key=distance)
    best: Optional[Tuple[Tuple[int, float], List[List[int]]]] = None
    for labels in _growth_strings(len(singles), k):
        used = max(labels) + 1
        if k - used > r:
            continue
        load = [0] * k
        groups: List[List[int]] = [[] for _ in range(k)]
        for label, index, weight in zip(labels, singles, units):
            load[label] += weight
            groups[label].append(index)
        # Groups without a non-replica shard need one replica at least.
        floor = [0 if g < used else 1 for g in range(k)]
        top = max(
            max(w + f for w, f in zip(load, floor)),
            -(-(sum(load) + r) // k),
        )
        if replicas:
            home = labels[singles.index(upstream)]
            count = list(floor)
            count[home] = min(top - load[home], r - sum(floor))
            spare = r - sum(count)
            for g in range(k):
                if g != home:
                    extra = min(spare, top - load[g] - count[g])
                    count[g] += extra
                    spare -= extra
            groups[home].extend(near[: count[home]])
            rest = iter(sorted(near[count[home] :]))
            for g in range(k):
                if g != home:
                    groups[g].extend(next(rest) for _ in range(count[g]))
        group_of = {i: g for g, members in enumerate(groups) for i in members}
        key = (top, -_group_window(scenario, group_of))
        if best is None or key < best[0]:
            best = (key, groups)
    assert best is not None, f"no {k}-way partition of {n} shards"
    return sorted(sorted(members) for members in best[1])


def _group_window(
    scenario: DatacenterScenario, group_of: Dict[int, int]
) -> float:
    """Base safe-window width: min lookahead over cross-group links."""
    pairs = []
    for _, sender, receiver, src, dst in _channel_specs(scenario):
        if group_of[sender] != group_of[receiver]:
            pairs.append((src, dst))
    return scenario.topology.min_lookahead(pairs)


@dataclass
class _Domain:
    """One shard's built world."""

    deployment: CloudDeployment
    population: Optional[UserPopulation]
    sketch: LogHistogram
    fluid: Optional[FluidEngine] = None

    @property
    def app(self):
        return self.deployment.app


def _build_domain(
    scenario: DatacenterScenario,
    index: int,
    sim: Simulator,
    out_channels: Dict[int, Any],
    in_channels: Dict[int, Any],
) -> _Domain:
    """Construct shard ``index``'s world on ``sim``.

    ``out_channels`` / ``in_channels`` map channel ids to channel
    objects (``LocalChannel`` or ``FrameChannel`` — same surface).
    Construction order is fixed and identical across modes: deployment,
    boundary stubs (edge order), server, population, attack, fluid
    bulk.
    """
    spec = scenario.shards[index]
    base = scenario.base
    full = deployment_config(base)
    sub = DeploymentConfig(
        tiers=tuple(t for t in full.tiers if t.name in spec.tiers),
        host_spec=full.host_spec,
        pin_package=full.pin_package,
    )
    concurrency = {t.name: t.concurrency for t in full.tiers}
    streams = RandomStreams(base.seed)
    deployment = CloudDeployment(sim, sub)
    sketch = LogHistogram()
    edges, _ = scenario.layout()

    my_calls = [e for e in edges if e.upstream == index]
    if my_calls:
        remote_name = my_calls[0].tier
        stubs: List[RemoteTierStub] = []
        for edge in my_calls:
            stub = RemoteTierStub(
                sim,
                remote_name,
                out_channels[2 * edge.id],
                concurrency=concurrency[remote_name],
            )
            in_channels[2 * edge.id + 1].bind(stub.deliver)
            stubs.append(stub)
        if len(stubs) > 1:
            remote: Any = ReplicatedTier(
                sim, remote_name, stubs, rng=streams.get("dispatch")
            )
        else:
            remote = stubs[0]
        deployment.app.tiers[-1].downstream = remote

    my_serves = [e for e in edges if e.downstream == index]
    if my_serves:
        (edge,) = my_serves
        server = RemoteTierServer(
            sim,
            deployment.app.front,
            out_channels[2 * edge.id + 1],
            sketch=sketch,
        )
        in_channels[2 * edge.id].bind(server.dispatch)

    population: Optional[UserPopulation] = None
    if index == 0:
        workload = RubbosWorkload(rng=streams.get("workload"))
        population = UserPopulation(
            sim,
            deployment.app,
            workload.make_request,
            users=base.users,
            think_time=base.think_time,
            rng=streams.get("users"),
        )
        population.start()

    if scenario.attack_shard() == index:
        # An unset target resolves to the slice's back tier, which is
        # the chain's back tier on the shard attack_shard() picks.
        mem_program, _ = split_attack_program(base.attack.program)
        launch_attack(sim, deployment, base, mem_program, streams)

    fluid: Optional[FluidEngine] = None
    if scenario.bulk is not None:
        bulk = scenario.bulk
        fluid = start_fluid(
            sim,
            deployment,
            bulk.users_per_host,
            bulk.think_time,
            HybridConfig(
                sample_fraction=1.0,
                fluid_tick=bulk.fluid_tick,
                couple=True,
                rto=bulk.rto,
                publish_window=bulk.publish_window,
            ),
        )

    return _Domain(
        deployment=deployment,
        population=population,
        sketch=sketch,
        fluid=fluid,
    )


@dataclass
class ShardResult:
    """One shard's aggregates after a run.

    Event counters are per *simulator*, and each group's simulator
    reports on the group's first member — the whole count on shard 0
    when ``shards=1`` (only the *sum* is meaningful in any mode — that
    is the quantity the determinism gate compares).  ``frames`` /
    ``wire_bytes`` follow the same convention (exchange totals of the
    member's group).  ``windows`` is the round count of the member's
    group, ``ceil(duration / window)`` in every mode.
    """

    index: int
    host: str
    tiers: Tuple[str, ...]
    events: int
    windows: int
    sent: int
    received: int
    #: tier name -> (arrivals, completions, drops).
    tier_stats: Dict[str, Tuple[int, int, int]]
    sketch: LogHistogram
    #: Per-host fluid-bulk aggregates (hybrid scenarios only).
    fluid: Optional[Dict[str, float]] = None
    #: Frames this shard's group put on the wire (0 with one group).
    frames: int = 0
    #: Pickled frame bytes the group sent (0 with one group).
    wire_bytes: int = 0


@dataclass
class DatacenterRun:
    """Everything a datacenter experiment reports."""

    scenario: DatacenterScenario
    shards_used: int
    window: float
    shard_results: List[ShardResult]
    #: Client-side requests from the front shard, completion order.
    completed: List[Request]
    failed: List[Request]
    #: Shard indices each group ran, one tuple per group (a single
    #: group of every shard when ``shards=1``).
    groups: Tuple[Tuple[int, ...], ...] = ()

    @property
    def event_count(self) -> int:
        """Total dispatched events across every shard simulator."""
        return sum(result.events for result in self.shard_results)

    @property
    def frames_exchanged(self) -> int:
        """Total frames sent across all cross-group links."""
        return sum(result.frames for result in self.shard_results)

    @property
    def wire_bytes(self) -> int:
        """Total pickled frame bytes sent across all cross-group links
        (0 with one group)."""
        return sum(result.wire_bytes for result in self.shard_results)

    @property
    def rounds(self) -> int:
        """Window rounds the slowest group ran: ``ceil(duration /
        window)``, also for the one in-process group of ``shards=1``."""
        return max(
            (result.windows for result in self.shard_results), default=0
        )

    @property
    def latency(self) -> LogHistogram:
        """All shards' latency sketches merged into one histogram.

        The front shard observes client response times; server shards
        observe their remote-call service times — one mergeable view of
        where time is spent across the fabric.
        """
        merged = LogHistogram()
        for result in self.shard_results:
            merged.merge(result.sketch)
        return merged

    @property
    def fluid_totals(self) -> Optional[Dict[str, float]]:
        """Summed per-host bulk aggregates, or None without a bulk."""
        stats = [r.fluid for r in self.shard_results if r.fluid]
        if not stats:
            return None
        return {
            "bulk_users": sum(s["bulk_users"] for s in stats),
            "completed": sum(s["completed"] for s in stats),
            "dropped": sum(s["dropped"] for s in stats),
        }

    def client_requests(self) -> List[Request]:
        """Completed requests that finished after warmup."""
        return completed_after_warmup(
            self.completed, self.scenario.base.warmup
        )

    def tier_stat(self, tier: str) -> Tuple[int, int, int]:
        """(arrivals, completions, drops) for ``tier`` across shards."""
        totals = [0, 0, 0]
        for result in self.shard_results:
            stats = result.tier_stats.get(tier)
            if stats is not None:
                for i in range(3):
                    totals[i] += stats[i]
        return tuple(totals)


def _default_stride(window: float) -> int:
    """Rounds of ``window`` seconds between progress reports: roughly
    one report per simulated second."""
    return max(1, int(round(1.0 / window)))


def _run_group(
    scenario: DatacenterScenario,
    members: List[int],
    window: float,
    out_conns: Dict[int, Any],
    in_conns: Dict[int, Any],
    report: Callable[[ShardWindow], None],
    stride: int,
    spin: float,
) -> dict:
    """Build one execution group, run its window loop, return its payload.

    ``members`` (ascending shard indices) share one simulator.
    Channels are built in global channel-id order: a channel between
    two members stays direct (``LocalChannel``); one that leaves the
    group buffers frames (``FrameChannel``) for its pipe end in
    ``out_conns`` / ``in_conns``, keyed by channel id.  With every
    shard as a member and no pipes, this is the ``shards=1`` reference
    run.  ``report``
    receives a :class:`~repro.sim.sharded.ShardWindow` every
    ``stride`` rounds; inbound frames spin for ``spin`` seconds before
    a blocking read.

    The payload holds the group's event, round and wire totals and,
    per member, its message counts, tier stats, latency sketch, fluid
    aggregates and — front shard only — client requests.
    """
    sim = Simulator()
    counter = EventCounter()
    sim.attach_hooks(counter)
    member_set = set(members)
    out_channels: Dict[int, Dict[int, Any]] = {m: {} for m in members}
    in_channels: Dict[int, Dict[int, Any]] = {m: {} for m in members}
    cross_out: Dict[int, FrameChannel] = {}
    cross_in: Dict[int, FrameChannel] = {}
    for cid, sender, receiver, src, dst in _channel_specs(scenario):
        if sender in member_set and receiver in member_set:
            channel: Any = LocalChannel(
                _make_link(scenario, sim, src, dst), sim
            )
            out_channels[sender][cid] = channel
            in_channels[receiver][cid] = channel
        elif sender in member_set:
            channel = FrameChannel(_make_link(scenario, sim, src, dst))
            out_channels[sender][cid] = channel
            cross_out[cid] = channel
        elif receiver in member_set:
            # Receiver-side shell: carries only the bound handler
            # (the sender's link computed the delivery timestamps).
            channel = FrameChannel(None)
            in_channels[receiver][cid] = channel
            cross_in[cid] = channel
    domains = [
        _build_domain(
            scenario, index, sim, out_channels[index], in_channels[index]
        )
        for index in members
    ]
    head = members[0]
    host = scenario.shards[head].host

    def traffic(index: int) -> Tuple[int, int]:
        """Messages member ``index`` has sent / received so far.

        A direct channel counts on both sides at send; a cross-group
        one counts at send and when its frame arrives."""
        sent = sum(ch.sent for ch in out_channels[index].values())
        received = 0
        for cid, ch in in_channels[index].items():
            if cid in in_rank:
                received += runner.received_per_link[in_rank[cid]]
            else:
                received += ch.sent
        return sent, received

    def on_window(win: int, now: float):
        totals = [traffic(index) for index in members]
        sent = sum(s for s, _ in totals)
        received = sum(r for _, r in totals)
        report(
            ShardWindow(
                shard=head,
                host=host,
                index=win,
                now=now,
                events=counter.count,
                sent=sent,
                received=received,
            )
        )

    def inbound(conn: Any) -> Any:
        wire = PipeTransport(conn)
        return SpinReceive(wire, spin) if spin else wire

    out_cids = sorted(cross_out)
    in_cids = sorted(cross_in)
    in_rank = {cid: rank for rank, cid in enumerate(in_cids)}
    runner = ShardRunner(
        sim,
        duration=scenario.base.duration,
        window=window,
        outgoing=[
            (PipeTransport(out_conns[cid]), cross_out[cid])
            for cid in out_cids
        ],
        incoming=[
            (inbound(in_conns[cid]), cross_in[cid]) for cid in in_cids
        ],
        on_window=on_window,
        window_stride=stride,
    )
    with _population_frozen():
        runner.run()
    member_payloads = []
    for index, domain in zip(members, domains):
        front = domain.population is not None
        if front:
            # The front shard's sketch observes every client response.
            for request in domain.app.completed:
                rt = request.response_time
                if rt is not None:
                    domain.sketch.observe(rt)
        sent, received = traffic(index)
        engine = domain.fluid
        member_payloads.append(
            {
                "host": scenario.shards[index].host,
                "tiers": scenario.shards[index].tiers,
                "sent": sent,
                "received": received,
                "tier_stats": {
                    tier.name: (tier.arrivals, tier.completions, tier.drops)
                    for tier in domain.app.tiers
                },
                "sketch": domain.sketch,
                "fluid": None
                if engine is None
                else {
                    "bulk_users": float(engine.bulk_users),
                    "completed": engine.completed,
                    "dropped": engine.dropped,
                },
                "completed": list(domain.app.completed) if front else [],
                "failed": list(domain.app.failed) if front else [],
            }
        )
    return {
        "events": counter.count,
        "windows": runner.windows,
        "frames": runner.frames_sent,
        "wire_bytes": runner.bytes_sent,
        "members": member_payloads,
    }


def _worker_main(
    scenario: DatacenterScenario,
    members: List[int],
    window: float,
    out_conns: Dict[int, Any],
    in_conns: Dict[int, Any],
    result_conn: Any,
    stride: int,
    spin: float,
    unused: List[Any],
) -> None:
    """One group worker: run its group, ship the window reports and
    the payload.

    ``unused`` holds every inherited pipe end that is not this
    worker's; closing them first lets a dead peer reach its neighbours
    as EOF instead of a read that blocks forever.
    """
    for conn in unused:
        conn.close()
    try:
        payload = _run_group(
            scenario,
            members,
            window,
            out_conns,
            in_conns,
            lambda report: result_conn.send(("window", report)),
            stride,
            spin,
        )
        # The worker exits once its payload is shipped: spare it the
        # full collections over the just-unfrozen world that pickling
        # the payload would otherwise trigger.
        gc.disable()
        result_conn.send(("done", payload))
    except BaseException:
        result_conn.send(("error", traceback.format_exc()))


def _spawn(
    scenario: DatacenterScenario,
    groups: List[List[int]],
    group_of: Dict[int, int],
    window: float,
    stride: int,
) -> Tuple[List[Any], List[Any]]:
    """Fork one worker per group; return (workers, result pipe ends).

    One pipe per cross-group channel, its endpoints handed to the two
    workers; one result pipe per worker back to the coordinator.
    Every pipe exists before the first fork, so each process can close
    exactly the ends it does not own.
    """
    spin = spin_seconds(len(groups))
    ctx = mp.get_context("fork")
    chan_recv: Dict[int, Any] = {}
    chan_send: Dict[int, Any] = {}
    cross = [
        spec
        for spec in _channel_specs(scenario)
        if group_of[spec[1]] != group_of[spec[2]]
    ]
    for cid, _, _, _, _ in cross:
        chan_recv[cid], chan_send[cid] = ctx.Pipe(duplex=False)
    result_pipes = [ctx.Pipe(duplex=False) for _ in groups]
    worker_ends = [
        *chan_recv.values(),
        *chan_send.values(),
        *(child for _, child in result_pipes),
    ]
    every_end = worker_ends + [parent for parent, _ in result_pipes]
    workers = []
    for members, (_, child_conn) in zip(groups, result_pipes):
        member_set = set(members)
        out_conns = {
            cid: chan_send[cid]
            for cid, s, _, _, _ in cross
            if s in member_set
        }
        in_conns = {
            cid: chan_recv[cid]
            for cid, _, r, _, _ in cross
            if r in member_set
        }
        mine = {*out_conns.values(), *in_conns.values(), child_conn}
        worker = ctx.Process(
            target=_worker_main,
            args=(
                scenario,
                members,
                window,
                out_conns,
                in_conns,
                child_conn,
                stride,
                spin,
                [conn for conn in every_end if conn not in mine],
            ),
            name=f"shard-{members[0]}-{scenario.shards[members[0]].host}",
        )
        worker.start()
        workers.append(worker)
    for conn in worker_ends:
        conn.close()
    return workers, [parent for parent, _ in result_pipes]


def run_datacenter(
    scenario: DatacenterScenario,
    shards: Optional[int] = None,
    progress: Optional[Callable[[ShardWindow], None]] = None,
    bus: Any = None,
    window_stride: Optional[int] = None,
) -> DatacenterRun:
    """Execute a datacenter scenario.

    ``shards=1`` runs the reference: every shard as one group in
    process, on the same window loop as a worker.  ``shards=K`` for
    ``2 <= K <= n`` runs ``K`` worker processes over the shard groups
    :func:`_partition` picks — balanced by traffic weight, cut at the
    widest links, not necessarily contiguous (``K = n``, the default,
    is one worker per host), exchanging pickled frames in lock-step
    windows — byte-identical to the reference.  Every mode runs
    ``ceil(duration / window)`` rounds.  ``progress`` and/or ``bus``
    receive :class:`~repro.sim.sharded.ShardWindow` reports — the bus
    on topic ``"shard.window"`` — throttled to roughly one per group
    per simulated second (override with ``window_stride``).  A worker
    that dies raises :class:`RuntimeError` naming its shards.
    """
    n = len(scenario.shards)
    if shards is None:
        shards = n
    if not 1 <= shards <= n:
        raise ValueError(
            f"{scenario.name} has {n} shards; run with 1 <= shards <= "
            f"{n}, got {shards}"
        )
    groups = _partition(scenario, shards)

    def report(window: ShardWindow) -> None:
        if bus is not None:
            bus.publish("shard.window", window)
        if progress is not None:
            progress(window)

    if shards == 1:
        window = scenario.window
        stride = window_stride or _default_stride(window)
        payloads = [
            _run_group(
                scenario, groups[0], window, {}, {}, report, stride, 0.0
            )
        ]
    else:
        group_of = {
            index: g for g, members in enumerate(groups) for index in members
        }
        window = _group_window(scenario, group_of)
        stride = window_stride or _default_stride(window)
        workers, conns = _spawn(scenario, groups, group_of, window, stride)
        payloads = _collect(scenario, groups, workers, conns, report)
    results: List[ShardResult] = []
    completed: List[Request] = []
    failed: List[Request] = []
    for members, payload in zip(groups, payloads):
        for position, index in enumerate(members):
            member = payload["members"][position]
            first = position == 0
            results.append(
                ShardResult(
                    index=index,
                    host=member["host"],
                    tiers=member["tiers"],
                    events=payload["events"] if first else 0,
                    windows=payload["windows"],
                    sent=member["sent"],
                    received=member["received"],
                    tier_stats=member["tier_stats"],
                    sketch=member["sketch"],
                    fluid=member["fluid"],
                    frames=payload["frames"] if first else 0,
                    wire_bytes=payload["wire_bytes"] if first else 0,
                )
            )
            if index == 0:
                completed = member["completed"]
                failed = member["failed"]
    results.sort(key=lambda result: result.index)
    return DatacenterRun(
        scenario=scenario,
        shards_used=shards,
        window=window,
        shard_results=results,
        completed=completed,
        failed=failed,
        groups=tuple(tuple(members) for members in groups),
    )


#: Host seconds the coordinator keeps collecting reports after the
#: first failure, so the error names the worker that died rather than
#: only the neighbours that then read EOF from it.
_FAILURE_GRACE = 2.0


def _collect(
    scenario: DatacenterScenario,
    groups: List[List[int]],
    workers: List[Any],
    result_conns: List[Any],
    report: Callable[[ShardWindow], None],
) -> List[dict]:
    """Coordinator loop: forward window reports, gather every group's
    payload (in group order).

    Waits on each worker's result pipe *and* its process sentinel, so
    a worker killed without reporting is noticed at once.  On the
    first failure the remaining workers get :data:`_FAILURE_GRACE`
    seconds to report (their peers' deaths reach them as EOF), then
    are terminated, and :class:`RuntimeError` lists every dead worker
    first, then every error traceback.
    """

    def label(g: int) -> str:
        hosts = ",".join(scenario.shards[i].host for i in groups[g])
        return f"shard worker {workers[g].name} (shards {groups[g]}: {hosts})"

    payloads: Dict[int, dict] = {}
    dead: List[str] = []
    errors: List[str] = []
    pending = dict(enumerate(result_conns))
    deadline: Optional[float] = None

    def receive(g: int) -> None:
        # Unpickling a front group's request objects is ~2x faster
        # without cyclic GC passes firing mid-load.
        manage_gc = gc.isenabled()
        if manage_gc:
            gc.disable()
        try:
            kind, body = result_conns[g].recv()
        except EOFError:
            workers[g].join(_FAILURE_GRACE)
            dead.append(
                f"{label(g)} died with exit code {workers[g].exitcode} "
                "without reporting"
            )
            del pending[g]
            return
        finally:
            if manage_gc:
                gc.enable()
        if kind == "window":
            report(body)
        elif kind == "done":
            payloads[g] = body
            del pending[g]
        else:  # "error"
            errors.append(f"{label(g)} raised:\n{body}")
            del pending[g]

    try:
        while pending:
            timeout = None
            if dead or errors:
                if deadline is None:
                    deadline = time.monotonic() + _FAILURE_GRACE
                timeout = max(0.0, deadline - time.monotonic())
            waitables = {result_conns[g]: g for g in pending}
            waitables.update({workers[g].sentinel: g for g in pending})
            ready = mp_connection.wait(list(waitables), timeout)
            if not ready:
                break
            for obj in ready:
                g = waitables[obj]
                if isinstance(obj, int):  # the process sentinel
                    # Exited: drain what it wrote; EOF means it never
                    # finished reporting.
                    while g in pending:
                        receive(g)
                elif g in pending:
                    receive(g)
    finally:
        if pending:
            for worker in workers:
                worker.terminate()
        for worker in workers:
            worker.join()
        for conn in result_conns:
            conn.close()
    if dead or errors or pending:
        stalled = [f"{label(g)} did not report" for g in pending]
        raise RuntimeError(
            "sharded run failed:\n" + "\n".join(dead + errors + stalled)
        )
    return [payloads[g] for g in range(len(groups))]


#: Two hosts in two racks across the spine: apache+tomcat face the
#: clients, mysql sits alone with the co-located lock adversary.  The
#: determinism golden pins this scenario sharded and unsharded.
DC_2HOST = DatacenterScenario(
    name="dc-2host",
    base=replace(
        RubbosScenario(name="private-cloud").with_users(300),
        name="dc-2host-base",
        duration=6.0,
        warmup=1.0,
        seed=23,
        attack=AttackSpec(program="lock"),
    ),
    topology=RackTopology(
        racks=(("r1", ("h1",)), ("r2", ("h2",))),
    ),
    shards=(
        ShardSpec(host="h1", tiers=("apache", "tomcat")),
        ShardSpec(host="h2", tiers=("mysql",)),
    ),
)

#: Four hosts, two racks: apache and the mysql replicas split across
#: racks, tomcat dispatching to a ReplicatedTier of remote stubs — the
#: cross-rack replicated-bottleneck scenario the single-host kernel
#: could not express.  The adversary co-locates with replica 0 (h2),
#: so one replica degrades while its rack-peer stays clean.  The
#: roomier link latencies widen the safe window for the speedup bench.
DC_4HOST = DatacenterScenario(
    name="dc-4host",
    base=replace(
        RubbosScenario(name="private-cloud").with_users(30000),
        name="dc-4host-base",
        duration=8.0,
        warmup=1.0,
        seed=29,
        attack=AttackSpec(program="lock"),
    ),
    topology=RackTopology(
        racks=(("r1", ("h1", "h2")), ("r2", ("h3", "h4"))),
        tor_latency=0.006,
        spine_latency=0.012,
    ),
    shards=(
        ShardSpec(host="h1", tiers=("apache",)),
        ShardSpec(host="h3", tiers=("tomcat",)),
        ShardSpec(host="h2", tiers=("mysql",)),
        ShardSpec(host="h4", tiers=("mysql",)),
    ),
)

#: Eight hosts over four AZ racks (two hosts each): six mysql replicas
#: behind one tomcat, the adversary on replica 0 (h5, az3).  Ships
#: with a per-host million-user fluid bulk — the default run is the
#: hybrid 8M-user datacenter, pinned by the dc8 determinism golden.
DC_8HOST = DatacenterScenario(
    name="dc-8host",
    base=replace(
        RubbosScenario(name="private-cloud").with_users(2400),
        name="dc-8host-base",
        duration=6.0,
        warmup=1.0,
        seed=31,
        attack=AttackSpec(program="lock"),
    ),
    topology=RackTopology(
        racks=(
            ("az1", ("h1", "h2")),
            ("az2", ("h3", "h4")),
            ("az3", ("h5", "h6")),
            ("az4", ("h7", "h8")),
        ),
        tor_latency=0.006,
        spine_latency=0.012,
    ),
    shards=(
        ShardSpec(host="h1", tiers=("apache",)),
        ShardSpec(host="h3", tiers=("tomcat",)),
        ShardSpec(host="h5", tiers=("mysql",)),
        ShardSpec(host="h7", tiers=("mysql",)),
        ShardSpec(host="h2", tiers=("mysql",)),
        ShardSpec(host="h4", tiers=("mysql",)),
        ShardSpec(host="h6", tiers=("mysql",)),
        ShardSpec(host="h8", tiers=("mysql",)),
    ),
    bulk=ShardBulk(users_per_host=1_000_000, think_time=2500.0),
)

#: Sixteen hosts over four AZ racks (four hosts each): fourteen mysql
#: replicas, per-host million-user bulk — 16M users total, the
#: capacity stress for the grouped sharded kernel.
DC_16HOST = DatacenterScenario(
    name="dc-16host",
    base=replace(
        RubbosScenario(name="private-cloud").with_users(3200),
        name="dc-16host-base",
        duration=4.0,
        warmup=1.0,
        seed=37,
        attack=AttackSpec(program="lock"),
    ),
    topology=RackTopology(
        racks=(
            ("az1", ("h1", "h2", "h3", "h4")),
            ("az2", ("h5", "h6", "h7", "h8")),
            ("az3", ("h9", "h10", "h11", "h12")),
            ("az4", ("h13", "h14", "h15", "h16")),
        ),
        tor_latency=0.006,
        spine_latency=0.012,
    ),
    shards=(
        ShardSpec(host="h1", tiers=("apache",)),
        ShardSpec(host="h5", tiers=("tomcat",)),
    )
    + tuple(
        ShardSpec(host=h, tiers=("mysql",))
        for h in (
            "h9",
            "h13",
            "h2",
            "h6",
            "h10",
            "h14",
            "h3",
            "h7",
            "h11",
            "h15",
            "h4",
            "h8",
            "h12",
            "h16",
        )
    ),
    bulk=ShardBulk(users_per_host=1_000_000, think_time=2500.0),
)

#: Registered datacenter scenarios, by name (CLI ``run --shards``).
DATACENTERS: Dict[str, DatacenterScenario] = {
    "dc-2host": DC_2HOST,
    "dc-4host": DC_4HOST,
    "dc-8host": DC_8HOST,
    "dc-16host": DC_16HOST,
}
