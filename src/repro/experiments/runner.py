"""Shared experiment machinery: build, run, and package a scenario.

``run_rubbos`` executes a closed-loop RUBBoS scenario (with or without
MemCA) and returns a :class:`RubbosRun` carrying the application, the
attack handle, and all monitors.  ``run_model`` executes an open-loop
queueing-network scenario in one of the three service disciplines the
paper's Figs 6/7 compare.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Tuple

from ..cloud.platform import CloudDeployment, DeploymentConfig, TierConfig, rubbos_3tier
from ..core.attack import MemCAAttack
from ..core.burst import OnOffAttacker
from ..core.programs import (
    AttackProgram,
    LLCCleansingAttack,
    MemoryBusSaturation,
    MemoryLockAttack,
    NicSaturation,
)
from ..net import TierNetwork
from ..monitoring.oprofile import LLCMissProfiler
from ..monitoring.sampler import PeriodicSampler, UtilizationMonitor
from ..obs import LiveTelemetry, TelemetryConfig
from ..ntier.request import Request
from ..ntier.client import UserPopulation
from ..sim.core import Simulator
from ..sim.hybrid import FluidEngine, HybridConfig, fluid_tiers_for
from ..sim.rng import RandomStreams
from ..workload.generator import OpenLoopGenerator, exponential_request_factory
from ..workload.rubbos import RubbosWorkload
from .configs import AttackSpec, ModelScenario, RubbosScenario
from .summary import completed_after_warmup

__all__ = [
    "RubbosRun",
    "run_rubbos",
    "ModelRun",
    "run_model",
    "MODEL_MODES",
    "deployment_config",
    "launch_attack",
    "make_attack_program",
    "split_attack_program",
    "start_fluid",
]


@contextmanager
def _population_frozen():
    """Exempt the constructed world from cyclic-GC scans during a run.

    A large closed-loop population is tens of thousands of live
    generators, events, and monitors that every full collection would
    re-traverse (measured at ~25% of kernel wall time at 10k users).
    All of it stays reachable for the whole run, so we move it to the
    permanent generation while the simulation executes; per-request
    garbage created *after* the freeze is still collected normally.
    Purely a memory-management change — simulation results are
    unaffected.
    """
    if not gc.isenabled():
        yield
        return
    gc.collect()
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


def make_attack_program(
    spec: AttackSpec, host_bandwidth_mbps: float
) -> AttackProgram:
    """Instantiate the attack program a spec names."""
    if spec.program == "lock":
        return MemoryLockAttack()
    if spec.program == "saturate":
        return MemoryBusSaturation(
            stream_bandwidth_mbps=host_bandwidth_mbps
        )
    if spec.program == "cleanse":
        return LLCCleansingAttack()
    if spec.program == "nic":
        return NicSaturation()
    raise ValueError(f"unknown attack program {spec.program!r}")


def split_attack_program(program: str) -> Tuple[Optional[str], bool]:
    """Split a spec's program string into (memory program, wants NIC).

    ``"lock"`` → ``("lock", False)``; ``"nic"`` → ``(None, True)``;
    the combined ``"lock+nic"`` (either order) → ``("lock", True)``.
    """
    parts = program.split("+")
    if len(parts) > 2 or "" in parts:
        raise ValueError(f"malformed attack program {program!r}")
    wants_nic = "nic" in parts
    memory = [p for p in parts if p != "nic"]
    if len(memory) > 1:
        raise ValueError(
            f"at most one memory program per spec: {program!r}"
        )
    return (memory[0] if memory else None), wants_nic


# -- world-building steps shared with the datacenter shard builder ---------


def deployment_config(scenario: RubbosScenario) -> DeploymentConfig:
    """The full three-tier deployment config a scenario describes."""
    return rubbos_3tier(
        apache_threads=scenario.apache_threads,
        apache_backlog=scenario.apache_backlog,
        tomcat_threads=scenario.tomcat_threads,
        mysql_connections=scenario.mysql_connections,
        host_spec=scenario.host_spec,
        vcpus=scenario.tier_vcpus,
    )


def launch_attack(
    sim: Simulator,
    deployment: CloudDeployment,
    scenario: RubbosScenario,
    mem_program: str,
    streams: RandomStreams,
) -> MemCAAttack:
    """Launch the scenario's memory attack as ``mem_program``.

    ``mem_program`` is the memory half of the spec's program string
    (:func:`split_attack_program`); the attack draws from the
    ``"attack"`` substream of ``streams``.
    """
    spec = scenario.attack
    program = make_attack_program(
        replace(spec, program=mem_program),
        scenario.host_spec.mem_bandwidth_mbps,
    )
    attack = MemCAAttack(
        sim,
        deployment,
        program=program,
        length=spec.length,
        interval=spec.interval,
        intensity=spec.intensity,
        adversaries=spec.adversaries,
        target_tier=spec.target_tier,
        jitter=spec.jitter,
        rng=streams.get("attack"),
        monitor_interval=scenario.monitor_interval,
    )
    attack.launch()
    return attack


def start_fluid(
    sim: Simulator,
    deployment: CloudDeployment,
    users: int,
    think_time: float,
    config: HybridConfig,
    bus: Optional[Any] = None,
) -> FluidEngine:
    """Build and start a fluid bulk of ``users`` over ``deployment``.

    The bulk's mean demands come from the workload model, not a random
    stream — RNG-free, so the engine never perturbs the discrete
    substreams.  The engine re-steps exactly on attack ON/OFF edges:
    it watches each memory after the deployment wired the VMs, so its
    callback runs last and steps with the pre-change speeds it cached.
    """
    fluid = FluidEngine(
        sim,
        tiers=fluid_tiers_for(
            deployment.app.tiers, RubbosWorkload().mean_demand
        ),
        bulk_users=users,
        think_time=think_time,
        config=config,
        bus=bus,
    )
    for memory in deployment.memories.values():
        fluid.watch(memory)
    fluid.start()
    return fluid


@dataclass
class RubbosRun:
    """Everything a figure generator needs from one RUBBoS run."""

    scenario: RubbosScenario
    sim: Simulator
    deployment: CloudDeployment
    workload: RubbosWorkload
    population: UserPopulation
    attack: Optional[MemCAAttack]
    util_monitors: Dict[str, UtilizationMonitor]
    queue_sampler: PeriodicSampler
    llc_profiler: Optional[LLCMissProfiler]
    #: Present only when the run was started with ``telemetry=...``.
    telemetry: Optional[LiveTelemetry] = None
    #: Present only in hybrid fluid/DES runs with a non-empty bulk.
    fluid: Optional[FluidEngine] = None
    #: Present only when the scenario carries a ``network=`` config.
    network: Optional[TierNetwork] = None
    #: The NIC-contention attacker ("nic" / combined programs only).
    net_attack: Optional[OnOffAttacker] = None

    @property
    def app(self):
        return self.deployment.app

    def client_requests(self) -> List[Request]:
        """Completed requests that finished after warmup."""
        return completed_after_warmup(
            self.app.completed, self.scenario.warmup
        )

    @property
    def measured_window(self) -> float:
        return self.scenario.duration - self.scenario.warmup


def run_rubbos(
    scenario: RubbosScenario,
    collect_llc: bool = False,
    feedback_goals=None,
    telemetry: Optional[TelemetryConfig] = None,
    hybrid: Optional[HybridConfig] = None,
) -> RubbosRun:
    """Build and execute one closed-loop RUBBoS scenario.

    ``telemetry=TelemetryConfig(...)`` (or ``True`` for defaults)
    attaches the observability stack (:class:`repro.obs.LiveTelemetry`,
    returned as ``run.telemetry``): span trees kept by the adaptive
    tracer, metrics, kernel self-profiling, windowed quantile sketches
    and, with an SLO set, the tail-SLO detector's bus topics.
    ``telemetry=FULL_TRACE`` keeps every finished request's span tree.
    Telemetry schedules no events and draws no RNG, so results are
    byte-identical with it on or off at the same seed.

    ``hybrid=HybridConfig(...)`` (or the scenario's own ``hybrid``
    field; the argument wins) runs the scenario in hybrid fluid/DES
    mode: only ``sample_fraction`` of the users run as discrete DES
    clients (each request weighted by ``users / sampled``) while the
    bulk advances as mean-field fluid state coupled back into the
    tiers as background load (see :mod:`repro.sim.hybrid`).  With
    ``sample_fraction=1.0`` the bulk is empty, no engine is built, and
    the run takes the exact full-DES code path — byte-identical
    results, no RNG-stream perturbation.
    """
    if telemetry is True:
        telemetry = TelemetryConfig()
    if hybrid is None:
        hybrid = scenario.hybrid
    streams = RandomStreams(scenario.seed)
    sim = Simulator()
    deployment = CloudDeployment(sim, deployment_config(scenario))
    live = None
    if telemetry is not None:
        live = LiveTelemetry(telemetry)
        live.attach(sim, deployment.app)
    net = None
    if scenario.network is not None:
        net = TierNetwork(
            sim,
            scenario.network,
            tuple(tier.name for tier in deployment.app.tiers),
            bus=live.bus if live is not None else None,
        )
        net.attach(deployment.app)
    workload = RubbosWorkload(rng=streams.get("workload"))
    fluid = None
    if hybrid is not None:
        split = hybrid.split(scenario.users)
        discrete_users = split.sampled
        weight = split.weight
        if split.bulk > 0:
            fluid = start_fluid(
                sim,
                deployment,
                split.bulk,
                scenario.think_time,
                hybrid,
                bus=live.bus if live is not None else None,
            )
    else:
        discrete_users = scenario.users
        weight = 1.0
    population = UserPopulation(
        sim,
        deployment.app,
        workload.make_request,
        users=discrete_users,
        think_time=scenario.think_time,
        rng=streams.get("users"),
        weight=weight,
    )
    population.start()

    util_monitors = {}
    for tier_name, vm in deployment.vms.items():
        monitor = UtilizationMonitor(
            sim, vm.cpu, interval=scenario.monitor_interval
        )
        monitor.start()
        util_monitors[tier_name] = monitor

    if fluid is None:
        probes = {
            tier.name: (lambda t=tier: t.queue_length)
            for tier in deployment.app.tiers
        }
    else:
        # Hybrid: the paper's per-tier queue length is discrete
        # occupancy plus the bulk's nested fluid occupancy, clipped at
        # the tier's admission capacity like Tier.queue_length.
        def _hybrid_probe(tier, index, engine=fluid):
            def probe():
                cap = tier.admission_capacity
                if cap is None:
                    cap = tier.pool.capacity
                occupancy = tier.occupancy + engine.occupancy(index)
                return occupancy if occupancy < cap else cap
            return probe

        probes = {
            tier.name: _hybrid_probe(tier, index)
            for index, tier in enumerate(deployment.app.tiers)
        }
    queue_sampler = PeriodicSampler(
        sim,
        scenario.queue_sample_interval,
        probes,
    )
    queue_sampler.start()

    attack = None
    net_attacker = None
    llc_profiler = None
    if scenario.attack is not None:
        spec = scenario.attack
        mem_program, wants_nic = split_attack_program(spec.program)
        if mem_program is not None:
            attack = launch_attack(
                sim, deployment, scenario, mem_program, streams
            )
            if feedback_goals is not None:
                attack.enable_feedback(
                    workload.make_request,
                    goals=feedback_goals,
                    rng=streams.get("prober"),
                )
        if wants_nic:
            if net is None:
                raise ValueError(
                    f"attack program {spec.program!r} needs a scenario "
                    "with network= set (there is no NIC to contend on)"
                )
            target = spec.target_tier
            if target is None:
                target = deployment.app.back.name
            net_attacker = OnOffAttacker(
                sim,
                net.nics[target],
                [
                    f"net-adversary{i + 1}"
                    for i in range(spec.adversaries)
                ],
                NicSaturation(line_rate_pps=scenario.network.nic_rate),
                length=spec.length,
                interval=spec.interval,
                intensity=spec.intensity,
                jitter=spec.jitter,
                rng=streams.get("netattack"),
            )
            net_attacker.start()
    if collect_llc:
        mysql_vm = deployment.vm("mysql")
        assert mysql_vm.llc is not None
        llc_profiler = LLCMissProfiler(
            sim,
            mysql_vm.llc,
            interval=scenario.monitor_interval,
            rng=streams.get("oprofile"),
        )
        llc_profiler.start()

    with _population_frozen():
        sim.run(until=scenario.duration)
    if live is not None:
        live.finalize(scenario.duration)
    return RubbosRun(
        scenario=scenario,
        sim=sim,
        deployment=deployment,
        workload=workload,
        population=population,
        attack=attack,
        util_monitors=util_monitors,
        queue_sampler=queue_sampler,
        llc_profiler=llc_profiler,
        telemetry=live,
        fluid=fluid,
        network=net,
        net_attack=net_attacker,
    )


#: The three service disciplines compared in Figs 6/7.
MODEL_MODES = ("tandem", "attack-infinite-front", "attack-finite")


@dataclass
class ModelRun:
    """One open-loop queueing-network run."""

    scenario: ModelScenario
    mode: str
    sim: Simulator
    deployment: CloudDeployment
    generator: OpenLoopGenerator
    attacker: OnOffAttacker
    queue_sampler: PeriodicSampler
    mysql_monitor: UtilizationMonitor

    @property
    def app(self):
        return self.deployment.app

    def client_requests(self) -> List[Request]:
        return completed_after_warmup(
            self.app.completed, self.scenario.warmup
        )


def _model_deployment_config(
    scenario: ModelScenario, mode: str
) -> DeploymentConfig:
    huge = 10**6
    tiers = []
    for index, (name, q) in enumerate(
        zip(scenario.tier_names, scenario.queue_sizes)
    ):
        if mode == "tandem":
            # Independent M/M/1 stations: one server, unbounded FIFO.
            concurrency, backlog = 1, None
        elif mode == "attack-infinite-front" and index == 0:
            concurrency, backlog = huge, None
        elif mode == "attack-finite" and index == 0:
            concurrency, backlog = q, scenario.apache_backlog
        else:
            concurrency, backlog = q, None
        tiers.append(
            TierConfig(
                name=name,
                vcpus=1,
                concurrency=concurrency,
                max_backlog=backlog,
                mem_demand_mbps=2000.0,
            )
        )
    return DeploymentConfig(tiers=tuple(tiers))


def run_model(
    scenario: ModelScenario,
    mode: str,
    queue_sample_interval: float = 0.005,
) -> ModelRun:
    """Run one of the Fig 6/7 model cases under the fixed burst."""
    if mode not in MODEL_MODES:
        raise ValueError(f"mode must be one of {MODEL_MODES}, got {mode!r}")
    streams = RandomStreams(scenario.seed)
    sim = Simulator()
    deployment = CloudDeployment(
        sim, _model_deployment_config(scenario, mode)
    )
    demand_means = {
        name: 1.0 / rate
        for name, rate in zip(scenario.tier_names, scenario.service_rates)
    }
    factory = exponential_request_factory(
        demand_means, streams.get("demands")
    )
    generator = OpenLoopGenerator(
        sim,
        deployment.app,
        factory,
        rate=scenario.arrival_rate,
        rng=streams.get("arrivals"),
        tandem=(mode == "tandem"),
    )
    generator.start()

    # Degrade MySQL to exactly C_on = D * C_off during ON bursts.
    burst = scenario.burst
    program = MemoryLockAttack(max_lock_duty=1.0 - burst.D)
    memory = deployment.co_locate_adversary("mysql")
    attacker = OnOffAttacker(
        sim,
        memory,
        "adversary",
        program,
        length=burst.L,
        interval=burst.I,
        intensity=1.0,
    )
    attacker.start()

    # Tandem stations have concurrency 1, so their queue is the raw
    # occupancy; RPC tiers report the paper's clipped queue length.
    if mode == "tandem":
        probes = {
            tier.name: (lambda t=tier: t.occupancy)
            for tier in deployment.app.tiers
        }
    else:
        probes = {
            tier.name: (lambda t=tier: t.queue_length)
            for tier in deployment.app.tiers
        }
    queue_sampler = PeriodicSampler(sim, queue_sample_interval, probes)
    queue_sampler.start()
    mysql_monitor = UtilizationMonitor(
        sim, deployment.vm("mysql").cpu, interval=0.01
    )
    mysql_monitor.start()

    sim.run(until=scenario.duration)
    return ModelRun(
        scenario=scenario,
        mode=mode,
        sim=sim,
        deployment=deployment,
        generator=generator,
        attacker=attacker,
        queue_sampler=queue_sampler,
        mysql_monitor=mysql_monitor,
    )
