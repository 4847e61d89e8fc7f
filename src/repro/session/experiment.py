"""The :class:`Experiment` runner and :class:`ExperimentResult` container.

An :class:`Experiment` is a *built* scenario: it owns the simulator, the
constructed topology, the per-host end-host stacks, the deployed piggy-backed
TPP applications, and the instantiated workloads.  It is built from one
:class:`~repro.session.spec.ScenarioSpec` (kept as ``experiment.spec``) —
by :meth:`repro.session.Scenario.build` and by the sweep worker alike — and
torn down exactly once by :meth:`finish` (or :meth:`run`, which drives the
clock and then finishes).

Determinism contract: building an experiment performs every step in the fixed
order listed in :mod:`repro.session.scenario` ("The fixed build order" — the
one authoritative list), and all workload randomness flows from one
``random.Random(seed)``, so two experiments built from equal specs
produce byte-identical event sequences.

Accounting contract: :meth:`Experiment.counters` is the one fold over every
component's ``counters()`` face; the telemetry gauges, the result's scalars
and the sweep's side field all read that snapshot (see ARCHITECTURE, "One
counter snapshot").
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.collect.summary import fold
from repro.core.compiler import CompiledTPP, compile_tpp
from repro.core.packet_format import TPP
from repro.endhost import (Aggregator, DeployedApplication, TPPControlPlane,
                           install_stacks)
from repro.net.sim import Simulator
from repro.net.topology import Network
from repro.obs import get_telemetry

from .registry import TOPOLOGIES, WORKLOADS
from .spec import RESULT_COUNTERS, JourneyQueries, counters_under

if TYPE_CHECKING:  # pragma: no cover
    from repro.collect import CollectPlane, VirtualCollector
    from repro.endhost import EndHostStack
    from repro.net.node import Host
    from repro.obs import Telemetry

    from .scenario import TppSpec
    from .spec import ScenarioSpec


def _template(program, num_hops: int) -> TPP:
    """The TPP template a ``.tpp(...)`` program declares: assembly source
    (compiled with ``num_hops``), a CompiledTPP, or a raw TPP."""
    if isinstance(program, str):
        program = compile_tpp(program, num_hops=num_hops)
    if isinstance(program, CompiledTPP):
        return program.tpp
    if isinstance(program, TPP):
        return program
    raise TypeError(f"tpp program must be source text, a CompiledTPP, or a TPP; "
                    f"got {type(program).__name__}")


def _chain(on_tpp: Callable, callbacks: tuple) -> Callable:
    """One shim callback: the aggregator's ``on_tpp``, then each callback."""
    def chained(tpp, packet):
        on_tpp(tpp, packet)
        for callback in callbacks:
            callback(tpp, packet)
    return chained


def check_duration(duration_s: Optional[float]) -> None:
    """Reject a run length that is not ``None`` or finite and ``>= 0``.

    A NaN or infinite horizon never compares past the next event, so the
    clock would run for as long as any periodic process keeps the heap
    non-empty — forever; a negative one silently runs nothing.
    """
    if duration_s is not None and not 0.0 <= duration_s < math.inf:
        raise ValueError(f"duration_s must be finite and >= 0, "
                         f"got {duration_s!r}")


class Experiment:
    """A live, built scenario — also the context object hooks receive.

    Attributes hooks and workload factories can rely on:

    * ``spec`` — the :class:`~repro.session.spec.ScenarioSpec` it was built from
    * ``sim`` / ``network`` / ``stacks`` / ``control_plane``
    * ``rng`` — the scenario's master :class:`random.Random`
    * ``seed`` / ``duration_s`` (``None`` when built without a duration)
    * ``apps`` — name -> :class:`DeployedApplication`
    * ``collectors`` — name -> the collect plane's front door (empty
      without ``.collector(...)``)
    * ``workloads`` — name -> whatever the workload factory returned
    * ``extras`` — scratch space for setup/finalize hooks to publish results
    * ``on_stop(fn)`` — register teardown callbacks (run LIFO at finish)
    """

    def __init__(self, spec: "ScenarioSpec", duration_s: Optional[float] = None,
                 telemetry: Optional["Telemetry"] = None) -> None:
        check_duration(duration_s)
        self.spec = spec
        self.duration_s = duration_s
        self.seed = spec.seed
        # Observability (repro.obs): explicit instance, else the ambient one
        # (disabled unless installed via obs.use()).  Spans and metrics read
        # wall-clock and existing counters only — never simulation state —
        # so telemetry on/off/exporting is byte-identical (tests/test_obs.py).
        self.telemetry = telemetry if telemetry is not None else get_telemetry()
        with self.telemetry.span("experiment.build",
                                 scenario=spec.name or spec.topology,
                                 seed=spec.seed):
            self._build(spec)
        if self.telemetry.enabled:
            self._register_metrics()

    def _build(self, spec: "ScenarioSpec") -> None:
        span = self.telemetry.span
        self.rng = random.Random(spec.seed)
        self.sim = Simulator()
        with span("build.topology", topology=spec.topology):
            builder = TOPOLOGIES.get(spec.topology)
            self.network: Network = builder(self.sim, **spec.topology_kwargs)
        if spec.seed_ecmp:
            self._salt_ecmp_groups()

        self.stacks: dict[str, "EndHostStack"] = {}
        with span("build.stacks"):
            if spec.stacks:
                self.stacks = install_stacks(self.network, hosts=spec.hosts)
                self.control_plane = next(iter(self.stacks.values())).control_plane \
                    if self.stacks else TPPControlPlane()
            else:
                self.control_plane = TPPControlPlane()

        # Scratch/teardown state first: workload factories and setup hooks are
        # entitled to use extras and on_stop (see the class docstring).
        self.extras: dict[str, Any] = {}
        self._stop_callbacks: list[Callable[[], None]] = []
        self._result: Optional[ExperimentResult] = None

        # Collection plane (§4.5): built before any app is deployed, so
        # every TPP deployment below gets a virtual-IP front door.
        self.collect_plane: Optional[CollectPlane] = None
        cspec = spec.collector
        if cspec is not None:
            from repro.collect import CollectPlane
            with span("build.collect_plane", shards=cspec.shards):
                self.collect_plane = CollectPlane(
                    cspec.shards, transport=cspec.transport, epoch_s=cspec.epoch_s,
                    batch=cspec.batch, capacity=cspec.capacity,
                    shard_hosts=cspec.hosts, tree=cspec.tree, delta=cspec.delta)
                self.collect_plane.attach(self.sim, self.network)
                self.collect_plane.on_epoch(self._push_summaries)

        self.apps: dict[str, DeployedApplication] = {}
        self.collectors: dict[str, VirtualCollector] = {}
        with span("build.tpps", apps=len(spec.tpps)):
            for tspec in spec.tpps:
                self._deploy_tpp(tspec)

        self.workloads: dict[str, Any] = {}
        with span("build.workloads", workloads=len(spec.workloads)):
            for wspec in spec.workloads:
                factory = WORKLOADS.get(wspec.workload) \
                    if isinstance(wspec.workload, str) else wspec.workload
                self.workloads[wspec.name] = factory(self, **wspec.kwargs)

        # Fault plane (repro.faults): plan resolution draws from its own
        # seed, never self.rng — declaring an empty plan must leave the
        # event sequence byte-identical.
        self.fault_injector = None
        if spec.faults is not None:
            from repro.faults import FaultInjector
            with span("build.faults"):
                plan = spec.faults.resolve(self.network)
                self.fault_injector = FaultInjector(self.network, plan)
                self.fault_injector.schedule(self.sim)

        # Flight recorder (repro.obs.flightrec): attached after the fault
        # plane so link-state changes are recorded from the first scheduled
        # event, and before setup hooks so hook-driven traffic is visible.
        # Recording is pure observation — the run stays byte-identical.
        self.flight_recorder = None
        if spec.recorder is not None:
            from repro.obs import FlightRecorder
            rspec = spec.recorder
            with span("build.flightrec", capacity=rspec.capacity,
                      sample_every=rspec.sample_every):
                app_ids = None
                if rspec.apps is not None:
                    unknown = [name for name in rspec.apps
                               if name not in self.apps]
                    if unknown:
                        raise ValueError(
                            f"flight recorder filters on apps {unknown}, "
                            f"which are not deployed; have {sorted(self.apps)}")
                    app_ids = [self.apps[name].application.app_id
                               for name in rspec.apps]
                self.flight_recorder = FlightRecorder(rspec).attach(
                    self.network, app_ids=app_ids)

        with span("build.hooks", hooks=len(spec.setup_hooks)):
            for hook in spec.setup_hooks:
                hook(self)

    # ------------------------------------------------------------------ build
    def _salt_ecmp_groups(self) -> None:
        """Re-salt every hash-policy multipath group from the scenario rng.

        The builders install groups with salt 0; drawing one salt from the
        master rng keeps ECMP placement deterministic per seed while letting
        different seeds explore different flow placements.
        """
        # A selection reads group.salt live, and the hash cache keys on the
        # salt, so an in-place re-salt is never served stale.
        salt = self.rng.getrandbits(32)
        for switch in self.network.switches.values():
            for group in switch.group_table.groups.values():
                if group.policy == "hash":
                    group.salt = salt

    def _push_summaries(self, now: float) -> None:
        """The one pusher: every app's ``summarize()`` per receiving host
        (sorted) into the plane's front doors, stamped ``now``.  Runs at
        each epoch tick and once at finish."""
        for name, deployed in self.apps.items():
            door, aggregators = self.collectors[name], deployed.aggregators
            for host in sorted(aggregators):
                door.submit(host, aggregators[host].summarize(), time=now)

    def _deploy_tpp(self, spec: "TppSpec") -> None:
        """The §4.5 provisioning agent for one ``.tpp(...)`` app: register
        it, start each receiver's aggregator and bind it (with any
        ``.collect()`` callbacks) to the shim, install the template on
        each sender."""
        template = _template(spec.program, spec.num_hops)
        if not self.stacks:
            raise RuntimeError(
                f"cannot deploy TPP application {spec.name!r}: the scenario was "
                f"built with stacks=False, so no end-host stacks exist")
        if self.collect_plane is not None:
            self.collectors[spec.name] = self.collect_plane.front_door(
                spec.name, name=spec.collector)
        app = self.control_plane.register_application(spec.name)
        deployed = self.apps[spec.name] = DeployedApplication(app)
        factory = spec.aggregator if spec.aggregator is not None else Aggregator
        callbacks = tuple(spec.callbacks)
        stacks = self.stacks
        for host in spec.receivers if spec.receivers is not None else stacks:
            aggregator = deployed.aggregators[host] = factory(host)
            on_tpp = _chain(aggregator.on_tpp, callbacks) if callbacks \
                else aggregator.on_tpp
            stacks[host].shim.bind_application(
                app.app_id, on_tpp=on_tpp, echo_to_source=spec.echo_to_source)
        for host in spec.senders if spec.senders is not None else stacks:
            stacks[host].agent.add_tpp(
                app.app_id, spec.packet_filter, template.clone(),
                sample_frequency=spec.sample_frequency, priority=spec.priority)

    # ------------------------------------------------------------ conveniences
    def host(self, name: str) -> "Host":
        return self.network.hosts[name]

    def derive_seed(self) -> int:
        """Draw a 32-bit child seed from the master rng (one per consumer)."""
        return self.rng.getrandbits(32)

    def on_stop(self, callback: Callable[[], None]) -> None:
        """Register a teardown callback; callbacks run LIFO at :meth:`finish`."""
        self._stop_callbacks.append(callback)

    # ------------------------------------------------------------ observability
    def counters(self) -> dict[str, int]:
        """Every integer the run counts, as one flat ``<prefix><name>`` dict.

        The single fold over the components' ``counters()`` faces — summed
        per prefix — plus the ports' ``drops_by_reason`` under ``drops.``.
        The gauges, the result's scalars and the sweep's side channel all
        derive from this snapshot, so a new counter is one int and one
        dict entry on the component that owns it.  Pure reads: no RNG, no
        scheduled event, no import.
        """
        network = self.network
        switches = list(network.switches.values())
        groups = (
            ("sim.", (self.sim,)),
            ("switch.", switches),
            ("tcpu.", [switch.tcpu for switch in switches]),
            ("host.", network.hosts.values()),
            ("link.", network.links),
            ("shim.", [stack.shim for stack in self.stacks.values()]),
            ("apps.", [aggregator for deployed in self.apps.values()
                       for aggregator in deployed.aggregators.values()]),
            ("collect.", (self.collect_plane,)),
            ("faults.", (self.fault_injector,)),
        )
        faces = [(prefix, component.counters())
                 for prefix, components in groups
                 for component in components if component is not None]
        faces += [("drops.", port.drops_by_reason)
                  for node in network.nodes.values() for port in node.ports]
        total: dict[str, int] = {}
        for prefix, face in faces:
            for name, value in face.items():
                key = prefix + name
                total[key] = total.get(key, 0) + value
        return total

    def _register_metrics(self) -> None:
        """Expose :meth:`counters` as pull-based gauges, one per key.

        Read at snapshot time only — the simulator run loop, TCPU hot path
        and shard intake never see the registry, which is how the
        no-perturbation invariant holds.  The clock is a reading, not a
        per-experiment count, so it is a gauge beside the snapshot rather
        than a key of it.
        """
        metrics = self.telemetry.metrics
        metrics.source("experiment", self.counters)
        metrics.gauge("sim.now_s", lambda: self.sim.now)

    # ---------------------------------------------------------------- running
    def run(self, duration_s: Optional[float] = None, *,
            run_until_idle: bool = False) -> "ExperimentResult":
        """Drive the clock, then tear down and assemble the result."""
        if duration_s is None:
            duration_s = self.duration_s
        check_duration(duration_s)
        with self.telemetry.span("experiment.run", duration_s=duration_s):
            if duration_s is not None:
                self.duration_s = duration_s
                self._drive(duration_s)
            if run_until_idle:
                # Quiesce every event source first, or the drain never goes idle.
                self.network.stop_switch_processes()
                self._stop_workloads()
                if self.collect_plane is not None:
                    self.collect_plane.stop()  # epoch clocks are event sources
                with self.telemetry.span("engine.drain"):
                    self.sim.run_until_idle()
        return self.finish()

    def _drive(self, duration_s: float) -> None:
        """Advance the clock to ``duration_s``, in telemetry slices if asked.

        Slicing is pure observation: ``run(until=a); run(until=b)`` executes
        the identical event sequence as ``run(until=b)`` (the heap is
        untouched between calls), so per-slice event counts and heap depth
        come for free without perturbing anything.
        """
        slices = self.telemetry.slices if self.telemetry.enabled else 0
        if slices <= 1:
            with self.telemetry.span("engine.run") as span:
                self.sim.run(until=duration_s)
            span.set(events=self.sim.events_executed)
            return
        events_hist = self.telemetry.metrics.histogram("sim.events_per_slice")
        depth_hist = self.telemetry.metrics.histogram("sim.heap_depth_per_slice")
        for index in range(slices):
            target = duration_s if index == slices - 1 \
                else duration_s * (index + 1) / slices
            before = self.sim.events_executed
            with self.telemetry.span("engine.slice", index=index) as span:
                self.sim.run(until=target)
            executed = self.sim.events_executed - before
            span.set(events=executed)
            events_hist.observe(executed)
            depth_hist.observe(self.sim.heap_size)

    def _stop_workloads(self) -> None:
        """Stop workload generators that expose a ``stop()`` (idempotent)."""
        for handle in self.workloads.values():
            stop = getattr(handle, "stop", None)
            if callable(stop):
                stop()

    def finish(self) -> "ExperimentResult":
        """Stop background processes, run finalizers, build the result.

        Idempotent: repeated calls return the same :class:`ExperimentResult`.
        """
        if self._result is not None:
            return self._result
        with self.telemetry.span("experiment.finish"):
            self._finish()
        if self.telemetry.enabled:
            self._result.telemetry = self.telemetry.snapshot()
        if self.flight_recorder is not None:
            # Side channels, like telemetry: excluded from every canonical
            # artifact so recorder on/off results stay byte-identical.
            self._result.flightrec = self.flight_recorder.stats()
            self._result.journeys = self.flight_recorder.log()
        return self._result

    def _finish(self) -> None:
        self.network.stop_switch_processes()
        self._stop_workloads()
        for callback in reversed(self._stop_callbacks):
            callback()
        for hook in self.spec.finalize_hooks:
            hook(self)
        if self.collect_plane is not None:
            self.collect_plane.stop()
            # One final snapshot from every source, then fold every shard's
            # remaining batch so merge() sees a complete view.
            self._push_summaries(self.sim.now)
            self.collect_plane.flush_all()
        self._result = self._assemble_result()

    def _assemble_result(self) -> "ExperimentResult":
        return ExperimentResult(
            scenario=self.spec.name,
            topology=self.spec.topology,
            seed=self.seed,
            duration_s=self.duration_s,
            end_time_s=self.sim.now,
            counters=self.counters(),
            apps=dict(self.apps),
            collectors=dict(self.collectors),
            workloads=dict(self.workloads),
            extras=dict(self.extras),
            experiment=self,
        )


@dataclass
class ExperimentResult(JourneyQueries):
    """Everything a finished experiment measured, plus live-object handles.

    ``counters`` is the :meth:`Experiment.counters` snapshot taken at
    finish.  The cross-cutting accounting every scenario gets for free —
    ``events_executed``, the shims' ``tpps_attached`` / ``tpp_bytes_added``
    / ``tpps_completed`` / ``tpps_echoed`` / ``instrumentation_overhead_bytes``,
    the aggregators' ``tpps_received`` / ``tpps_truncated``, the
    collection plane's ``collect_shards`` / ``summaries_submitted`` /
    ``summary_*``, the fault plane's ``fault_events_applied`` /
    ``packets_corrupted`` / ``link_*_transitions`` — are read-only attributes over it, one per row of
    :data:`repro.session.spec.RESULT_COUNTERS` (zero when the run had no
    such plane).  Application data lives in the per-app
    aggregators/collectors and in ``extras``; :meth:`merged_summary` is the
    one gather-across-hosts step.
    """

    scenario: str
    topology: str
    seed: int
    duration_s: Optional[float]
    end_time_s: float
    counters: dict[str, int] = field(default_factory=dict)
    apps: dict[str, DeployedApplication] = field(default_factory=dict)
    collectors: dict[str, "VirtualCollector"] = field(default_factory=dict)
    workloads: dict[str, Any] = field(default_factory=dict)
    extras: dict[str, Any] = field(default_factory=dict)
    experiment: Optional[Experiment] = None
    # Observability side channel: the experiment's telemetry snapshot
    # (metrics + span summary) when telemetry was enabled, else None.
    # Deliberately excluded from every canonical artifact — see
    # docs/ARCHITECTURE.md, "no-perturbation invariant".
    telemetry: Optional[dict] = None
    # Flight-recorder side channels (same exclusion rule): the recorder's
    # accounting counters and the picklable JourneyLog of recorded packet
    # journeys, when the scenario declared .flight_recorder(...), else None.
    flightrec: Optional[dict] = None
    journeys: Optional[Any] = None            # repro.obs.JourneyLog

    def __getattr__(self, name: str) -> int:
        """The canonical scalars: one attribute per ``RESULT_COUNTERS`` row."""
        key = RESULT_COUNTERS.get(name)
        if key is None:
            raise AttributeError(f"{type(self).__name__!r} object has no "
                                 f"attribute {name!r}")
        return self.counters.get(key, 0)

    @property
    def drop_reasons(self) -> dict[str, int]:
        """Network-wide drops per canonical ``repro.net.port.DROP_*``
        category, summed over every port (categories that occurred)."""
        return counters_under(self.counters, "drops.")

    @property
    def summary_drops_by_policy(self) -> dict[str, int]:
        """Collector-shard drops per reason (``drop-newest`` tail drops,
        ``delta-gap`` discards), reasons that occurred."""
        return counters_under(self.counters, "collect.drops.")

    # ----------------------------------------------------------- live handles
    @property
    def network(self) -> Network:
        return self.experiment.network

    @property
    def stacks(self) -> dict[str, "EndHostStack"]:
        return self.experiment.stacks

    # ------------------------------------------------------------ per-app data
    def _app(self, app: Optional[str]) -> DeployedApplication:
        if app is None:
            if len(self.apps) != 1:
                raise ValueError(f"result has {len(self.apps)} deployed apps; "
                                 f"name one of {sorted(self.apps)}")
            return next(iter(self.apps.values()))
        try:
            return self.apps[app]
        except KeyError:
            raise KeyError(f"no deployed app {app!r}; have {sorted(self.apps)}") from None

    def aggregators(self, app: Optional[str] = None) -> dict[str, Aggregator]:
        return self._app(app).aggregators

    def collector(self, app: Optional[str] = None) -> Optional["VirtualCollector"]:
        """The app's front door under ``.collector(...)``, else ``None``."""
        return self.collectors.get(self._app(app).application.name)

    def summaries(self, app: Optional[str] = None) -> dict[str, object]:
        """host -> that host's aggregator summary."""
        return {host: aggregator.summarize()
                for host, aggregator in self.aggregators(app).items()}

    def merged_summary(self, app: Optional[str] = None):
        """One app's network-wide summary, merged across hosts.

        With ``.collector(...)`` this is the collector tier's reconstructed
        view (:meth:`repro.collect.virtual.VirtualCollector.merged_summary`);
        without one, the :func:`~repro.collect.fold` of every host's
        ``summarize()`` snapshot in sorted host order.  Equal either way
        when the tier dropped nothing.  ``None`` when the app has no
        aggregator or one of its snapshots is not mergeable.
        """
        door = self.collector(app)
        if door is not None:
            return door.merged_summary()
        aggregators = self.aggregators(app)
        snapshots = [aggregators[host].summarize() for host in sorted(aggregators)]
        if not snapshots or not all(hasattr(s, "merge") for s in snapshots):
            return None
        return fold(snapshots)
