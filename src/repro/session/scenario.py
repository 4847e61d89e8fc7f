"""The fluent :class:`Scenario` builder — one session object per experiment.

The paper's pitch is that one mechanism (tiny packet programs) serves many
tasks; this module makes one *API* serve many experiments.  A scenario is a
declarative recipe — topology + stacks + TPP applications + workloads +
collection — that :meth:`Scenario.run` turns into a deterministic
discrete-event run.  The recipe has one home: every fluent method writes
into the scenario's :class:`~repro.session.spec.ScenarioSpec`
(``scenario.spec``), the sub-spec dataclasses below check their own knobs
when constructed, and :class:`~repro.session.Experiment` builds from that
spec::

    from repro.session import Scenario
    from repro.endhost import PacketFilter

    result = (Scenario(topology="dumbbell", seed=1, hosts_per_side=3)
              .tpp("queue-monitor",
                   "PUSH [Switch:SwitchID]\\n"
                   "PUSH [PacketMetadata:OutputPort]\\n"
                   "PUSH [Queue:QueueOccupancy]",
                   filter=PacketFilter(protocol="udp"), sample_frequency=1)
              .workload("messages", offered_load=0.3, message_bytes=10_000)
              .collect(on_tpp=lambda tpp, packet: ...)
              .run(duration_s=1.0))

    result.events_executed, result.tpps_attached
    result.merged_summary("queue-monitor")   # the hosts' summaries, merged

Every mutator returns ``self``, so scenarios chain; :meth:`build` hands back
the live :class:`~repro.session.Experiment` for callers that want to drive
the simulator interactively (probe, fail a link, run some more) before
calling :meth:`Experiment.finish`; :meth:`to_spec` hands back a validated,
picklable copy of the declaration for the sweep layer.

The fixed build order
---------------------

Building an experiment always performs these steps, in this order, with
every random draw taken from one ``random.Random(seed)``:

1. **topology** — the registered builder runs with the scenario's kwargs;
2. **ECMP salting** — with ``seed_ecmp=True``, hash-policy groups are
   re-salted from the master rng;
3. **stacks** — the §4 end-host stack is installed on (a subset of) hosts;
4. **collection plane** — with ``.collector(...)``, the sharded
   :class:`~repro.collect.CollectPlane` is built and attached (shard
   placement, epoch clock), before any app gets its front door;
5. **TPP deployments** — each ``.tpp(...)`` spec, in declaration order:
   register the app, build and bind each receiver's aggregator, install
   the template on each sender;
6. **workloads** — each ``.workload(...)`` spec, in declaration order
   (registered workloads draw their child seed here, also in order);
7. **fault plane** — with ``.faults(...)``, the resolved
   :class:`~repro.faults.FaultPlan` is scheduled by a
   :class:`~repro.faults.FaultInjector`; with ``.remediation(...)``, the
   :class:`~repro.faults.RemediationController` loop is started.  Both
   draw from their *own* seeds (never the master rng), so an empty plan
   leaves the run byte-identical to one with no fault plane at all;
8. **flight recorder** — with ``.flight_recorder(...)``, the
   :class:`~repro.obs.FlightRecorder` is attached to every node, port and
   link.  Recording is pure observation (no random draws, no scheduled
   events, no packet mutation), so a run with the recorder on is
   byte-identical to the same run with it off;
9. **setup hooks** — each ``.setup(...)`` hook, in declaration order.

Because the order is fixed and the seed flows from one rng, equal
scenarios with equal seeds produce byte-identical event sequences — the
determinism contract ``tests/test_session.py`` asserts.  Declaration
order is therefore *part of a scenario's identity*: swapping two
workloads changes their seeds and may change the run.

Topology and workload names resolve through the registries in
:mod:`repro.session.registry`; apps register their own with
``@register_topology`` / ``@register_workload``.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Union

from repro.endhost import Aggregator, PacketFilter
from repro.endhost.filters import check_sample_frequency

from .experiment import Experiment, ExperimentResult
from .registry import TOPOLOGIES, WORKLOADS
from .spec import ScenarioSpec

#: Signature of hooks: they receive the live Experiment.
Hook = Callable[[Experiment], None]


@dataclass
class TppSpec:
    """One piggy-backed TPP application the scenario will deploy."""

    name: str
    program: object                               # source text | CompiledTPP | TPP
    packet_filter: PacketFilter
    sample_frequency: int = 1
    num_hops: int = 8
    priority: int = 0
    echo_to_source: bool = False
    aggregator: Optional[Callable[[str], Aggregator]] = None
    collector: Optional[str] = None               # the front door's name
    senders: Optional[list[str]] = None
    receivers: Optional[list[str]] = None
    callbacks: list[Callable] = field(default_factory=list)

    def __post_init__(self) -> None:
        check_sample_frequency(self.sample_frequency)
        if self.collector is not None and not isinstance(self.collector, str):
            raise ValueError(f"collector must be a front-door name or None, "
                             f"got {self.collector!r}")


@dataclass
class WorkloadSpec:
    """One workload the scenario will instantiate at build time."""

    name: str
    workload: Union[str, Callable]                # registry name or factory
    kwargs: dict[str, Any] = field(default_factory=dict)


@dataclass
class CollectorSpec:
    """The sharded collection plane a scenario opts into (§4.5).

    Materialised at build time as a :class:`repro.collect.CollectPlane`;
    every declared TPP application gets a
    :class:`~repro.collect.virtual.VirtualCollector` front door onto the
    shared shard tier.  Knobs are documented on :meth:`Scenario.collector`.
    """

    shards: int = 1
    epoch_s: Optional[float] = None
    transport: str = "inline"
    batch: Optional[int] = 64
    capacity: int = 4096
    hosts: Optional[list[str]] = None
    # A normalised spec, so sweeps can override its fields with
    # dataclasses.replace — see repro.sweep.plan.
    tree: Optional["TreeSpec"] = None        # repro.collect.TreeSpec
    delta: bool = False

    def __post_init__(self) -> None:
        from repro.collect.virtual import as_tree_spec, check_plane_knobs

        check_plane_knobs(self.shards, self.transport, self.epoch_s,
                          self.batch, self.capacity, self.hosts, self.delta)
        self.hosts = list(self.hosts) if self.hosts is not None else None
        self.tree = as_tree_spec(self.tree)      # a fan-in becomes a TreeSpec


class Scenario:
    """Fluent builder for a complete, seeded experiment session.

    Args:
        topology: a registered topology name (see ``Scenario.topologies()``).
        seed: master seed; one ``random.Random(seed)`` drives every derived
            seed (workloads, ECMP salting), so equal seeds give
            byte-identical runs.
        name: label stamped on the result (defaults to the topology name).
        stacks: install the §4 end-host stack on every host (default True).
        hosts: restrict stack installation to this subset of hosts.
        seed_ecmp: re-salt hash-policy ECMP groups from the master rng
            (default False: keep the builders' salt-0 placement).
        **topology_kwargs: forwarded to the topology builder verbatim.

    The declaration lives in ``spec`` (a
    :class:`~repro.session.spec.ScenarioSpec`); the scenario holds nothing
    else.
    """

    def __init__(self, topology: str = "dumbbell", seed: int = 1, *,
                 name: Optional[str] = None, stacks: bool = True,
                 hosts: Optional[list[str]] = None, seed_ecmp: bool = False,
                 **topology_kwargs) -> None:
        self.spec = ScenarioSpec(
            topology=topology, seed=seed,
            name=name if name is not None else topology,
            topology_kwargs=topology_kwargs, stacks=stacks,
            hosts=hosts, seed_ecmp=seed_ecmp)

    # ------------------------------------------------------------- registries
    @staticmethod
    def topologies() -> list[str]:
        """Registered topology names."""
        return TOPOLOGIES.names()

    @staticmethod
    def workloads() -> list[str]:
        """Registered workload names."""
        return WORKLOADS.names()

    # ---------------------------------------------------------------- fluency
    def tpp(self, name: str, program, *, filter: Optional[PacketFilter] = None,
            sample_frequency: int = 1, num_hops: int = 8, priority: int = 0,
            echo_to_source: bool = False,
            aggregator: Optional[Callable] = None,
            collector: Optional[str] = None,
            senders: Optional[list[str]] = None,
            receivers: Optional[list[str]] = None) -> "Scenario":
        """Declare a piggy-backed TPP application (§4.5's descriptor, fluent).

        ``program`` is TPP assembly source (compiled with ``num_hops``), an
        already-compiled :class:`~repro.core.compiler.CompiledTPP`, or a raw
        :class:`~repro.core.packet_format.TPP` template.  ``aggregator`` is a
        per-host factory ``(host_name) -> Aggregator`` (default: the base
        :class:`~repro.endhost.Aggregator`); attach plain callbacks with
        :meth:`collect`.  ``collector`` only matters under
        :meth:`collector`: it names the app's front door.  Without a plane
        nothing is pushed; ``result.merged_summary(name)`` folds the hosts'
        snapshots instead.
        """
        if any(spec.name == name for spec in self.spec.tpps):
            raise ValueError(f"a TPP application named {name!r} is already declared")
        self.spec.tpps.append(TppSpec(
            name=name, program=program,
            packet_filter=filter if filter is not None else PacketFilter(),
            sample_frequency=sample_frequency, num_hops=num_hops,
            priority=priority, echo_to_source=echo_to_source,
            aggregator=aggregator, collector=collector,
            senders=senders, receivers=receivers))
        return self

    def workload(self, workload: Union[str, Callable], *, name: Optional[str] = None,
                 **kwargs) -> "Scenario":
        """Declare a workload: a registered name or a factory callable.

        Factories are called at build time as ``factory(experiment,
        **kwargs)`` and may return any handle (it lands in
        ``result.workloads[name]``).  Registered workloads that take a
        ``seed`` draw one from the scenario's master rng unless given one
        explicitly.
        """
        if isinstance(workload, str):
            if workload not in WORKLOADS:
                WORKLOADS.get(workload)      # raises with the registered menu
            label = name or workload
        elif callable(workload):
            label = name or getattr(workload, "__name__", f"workload{len(self.spec.workloads)}")
        else:
            raise TypeError("workload must be a registered name or a callable factory")
        if any(spec.name == label for spec in self.spec.workloads):
            raise ValueError(f"a workload named {label!r} is already declared; "
                             f"pass name= to disambiguate")
        self.spec.workloads.append(WorkloadSpec(name=label, workload=workload,
                                                kwargs=kwargs))
        return self

    def collector(self, shards: int = 1, *, epoch_s: Optional[float] = None,
                  transport: str = "inline", batch: Optional[int] = 64,
                  capacity: int = 4096,
                  hosts: Optional[list[str]] = None,
                  tree=None, delta: bool = False) -> "Scenario":
        """Route every application's summaries through a sharded collector
        tier behind one virtual address (§4.5's deployment model).

        Args:
            shards: number of :class:`~repro.collect.CollectorShard`
                services; (app, host, key) is consistently hashed across
                them and ``merge()`` reconstructs the global view, so
                merged results are invariant in this number.
            epoch_s: push-and-flush period in seconds (a positive, finite
                number).  Each epoch the live experiment pushes every
                aggregator's summary (stamped with the simulation time) and
                the shards fold their batch buffers.  ``None`` (default)
                defers to one push/flush at finish.
            transport: ``"inline"`` delivers submissions as direct calls —
                no simulated traffic, so runs stay byte-identical to the
                unsharded path; ``"network"`` ships summaries as UDP
                packets from the submitting host to the shard's host over
                the simulated fabric (epoch pushes recommended: packets
                submitted after the clock stops are never delivered).
            batch: shard batch size — the buffer folds into merged state
                when it fills (or at each epoch, whichever comes first).
                ``None`` disables the fill trigger: folds happen only at
                epochs and at finish.
            capacity: shard backpressure bound; an arrival at a full
                buffer is rejected (tail drop) and counted as
                ``result.summary_drops_by_policy["drop-newest"]``, never
                queued unboundedly.  Because a batch fold empties the
                buffer synchronously, the bound only engages with deferred
                folding (``batch=None``) or when ``capacity < batch``.
            hosts: explicit shard placement for the network transport, a
                list of host names (defaults to round-robin over sorted
                host names).
            tree: aggregation-tree shape — a fan-in (int), a
                :class:`~repro.collect.TreeSpec`, or None for the flat
                single-tier merge.  Semantics-free: any shape reconstructs
                the identical global view (differential-tested).
            delta: ``True`` encodes submissions as per-source delta
                channels (epoch diffs with sequence numbers; a shard's
                NACK on a gap brings a cumulative keyframe) instead of
                cumulative re-sends.  Exact: merged views are
                byte-identical to cumulative mode.

        A single-shard inline plane gives every app the same result as a
        run without a plane, and merged views are invariant across shard
        counts, encodings and tree shapes (both differential-tested for all
        six apps in ``tests/test_collect.py``).  Bad knobs fail here, in
        :class:`CollectorSpec`'s own checks.
        """
        self.spec.collector = CollectorSpec(
            shards=shards, epoch_s=epoch_s, transport=transport, batch=batch,
            capacity=capacity, hosts=hosts, tree=tree, delta=delta)
        return self

    def faults(self, plan=None, **generator_kwargs) -> "Scenario":
        """Declare the fault plane (see :mod:`repro.faults`).

        Accepts a :class:`~repro.faults.FaultSpec` (used as-is), a
        :class:`~repro.faults.FaultPlan` (wrapped), or generator knobs
        forwarded to :class:`~repro.faults.FaultSpec` (``seed``,
        ``corrupt_links``, ``loss_rate``, ``onset_s``, ``fail_links``,
        ``fail_at_s``, ``repair_after_s``, ``links``) that resolve to a
        plan once the topology exists.  Validation is eager — bad knobs
        fail here, not inside the build.
        """
        from repro.faults import FaultPlan, FaultSpec
        if isinstance(plan, FaultSpec):
            if generator_kwargs:
                raise ValueError("pass either a FaultSpec or generator "
                                 "kwargs, not both")
            self.spec.faults = plan
        elif isinstance(plan, FaultPlan):
            if generator_kwargs:
                raise ValueError("pass either a FaultPlan or generator "
                                 "kwargs, not both")
            self.spec.faults = FaultSpec(plan=plan)
        elif plan is None:
            self.spec.faults = FaultSpec(**generator_kwargs)
        else:
            raise TypeError(f"faults() takes a FaultSpec, a FaultPlan, or "
                            f"generator kwargs; got {type(plan).__name__}")
        return self

    def remediation(self, policy="do-nothing", **spec_kwargs) -> "Scenario":
        """Declare the remediation loop (see :mod:`repro.faults.policy`).

        ``policy`` is a registered policy name (resolved eagerly against
        the ``@register_policy`` registry, so typos fail with the menu) or
        a pre-built :class:`~repro.faults.RemediationSpec`; keyword knobs
        (``app``, ``period_s``, ``threshold``, ``min_path_diversity``,
        ``repair_time_s``) forward to the spec.
        """
        from repro.faults import RemediationSpec
        if isinstance(policy, RemediationSpec):
            if spec_kwargs:
                raise ValueError("pass either a RemediationSpec or spec "
                                 "kwargs, not both")
            self.spec.remediation = policy
        elif isinstance(policy, str):
            self.spec.remediation = RemediationSpec(policy=policy, **spec_kwargs)
        else:
            raise TypeError(f"remediation() takes a policy name or a "
                            f"RemediationSpec; got {type(policy).__name__}")
        return self

    def flight_recorder(self, spec=None, *, capacity: int = 4096,
                        sample_every: int = 1,
                        apps: Optional[list[str]] = None,
                        links: Optional[list[str]] = None) -> "Scenario":
        """Declare the dataplane flight recorder (see
        :mod:`repro.obs.flightrec`).

        Accepts a pre-built :class:`~repro.obs.RecorderSpec` (used as-is)
        or policy knobs: ``capacity`` (per-node ring-buffer records),
        ``sample_every`` (record 1-in-N flows by stable flow-id hash;
        drops are always recorded), ``apps`` (only packets carrying a TPP
        of these declared applications), ``links`` (tap only ports on
        these link names).  Validation is eager — bad knobs fail here.

        Recording is pure observation: the run's event sequence and
        canonical result are byte-identical with the recorder on or off
        (differential-tested on all six apps).  The recorded journeys land
        on ``result.journeys`` and the counters on ``result.flightrec``.
        """
        from repro.obs import RecorderSpec
        if isinstance(spec, RecorderSpec):
            if apps is not None or links is not None or capacity != 4096 \
                    or sample_every != 1:
                raise ValueError("pass either a RecorderSpec or policy "
                                 "kwargs, not both")
            self.spec.recorder = spec
        elif spec is None:
            self.spec.recorder = RecorderSpec(capacity=capacity,
                                              sample_every=sample_every,
                                              apps=apps, links=links)
        else:
            raise TypeError(f"flight_recorder() takes a RecorderSpec or "
                            f"policy kwargs; got {type(spec).__name__}")
        return self

    def collect(self, on_tpp: Callable, *, app: Optional[str] = None) -> "Scenario":
        """Attach a completed-TPP callback to a declared TPP application.

        Defaults to the most recently declared app, so
        ``.tpp(...).collect(on_tpp=...)`` reads naturally.  The callback runs
        after the app's aggregator (if any) on every receiving host.
        """
        self._find_tpp(app).callbacks.append(on_tpp)
        return self

    def setup(self, hook: Hook) -> "Scenario":
        """Run ``hook(experiment)`` after build, before the clock starts.

        The escape hatch for wiring Scenario does not model first-class —
        per-flow controllers, scheduled link failures, custom meters.  Hooks
        run in declaration order.
        """
        self.spec.setup_hooks.append(hook)
        return self

    def finalize(self, hook: Hook) -> "Scenario":
        """Run ``hook(experiment)`` at finish, after teardown callbacks.

        Use it to compute derived results into ``experiment.extras``.
        """
        self.spec.finalize_hooks.append(hook)
        return self

    def map_result(self, mapper: Callable[[ExperimentResult], Any]) -> "Scenario":
        """Post-process the :class:`ExperimentResult` that :meth:`run` returns.

        Lets app modules keep their domain result types
        (``MicroburstResult``, ``RcpExperimentResult``, ...) while the whole
        run goes through the session layer.
        """
        self.spec.result_mapper = mapper
        return self

    def _find_tpp(self, app: Optional[str]) -> TppSpec:
        tpps = self.spec.tpps
        if not tpps:
            raise ValueError("declare a .tpp(...) application before .collect(...)")
        if app is None:
            return tpps[-1]
        for spec in tpps:
            if spec.name == app:
                return spec
        raise KeyError(f"no declared TPP application {app!r}; "
                       f"have {[spec.name for spec in tpps]}")

    # ---------------------------------------------------------------- running
    def build(self, duration_s: Optional[float] = None,
              telemetry=None) -> Experiment:
        """Construct the live experiment without starting the clock.

        ``telemetry`` is an optional :class:`repro.obs.Telemetry`; omitted,
        the experiment uses the ambient one (disabled unless installed with
        :func:`repro.obs.use`).
        """
        return Experiment(self.spec, duration_s=duration_s, telemetry=telemetry)

    def run(self, duration_s: Optional[float] = 1.0, *,
            run_until_idle: bool = False, telemetry=None):
        """Build, simulate for ``duration_s``, tear down, return the result.

        Returns the :class:`ExperimentResult`, or whatever
        :meth:`map_result`'s mapper turns it into.
        """
        result = self.build(duration_s, telemetry=telemetry) \
            .run(duration_s, run_until_idle=run_until_idle)
        if self.spec.result_mapper is not None:
            return self.spec.result_mapper(result)
        return result

    def copy(self) -> "Scenario":
        """An independent deep copy (tweak a base scenario per variant)."""
        return copy.deepcopy(self)

    # ----------------------------------------------------------- serialization
    def to_spec(self) -> ScenarioSpec:
        """A validated copy of this scenario's :class:`ScenarioSpec`.

        The spec crosses process boundaries (the sweep layer fans specs
        across a pool) and builds a byte-identical run on the other side.
        Every callable the scenario holds — hooks, collect callbacks,
        aggregator factories, workload factories — must be a module-level
        callable or a ``functools.partial`` of one; lambdas and closures
        raise :class:`~repro.session.spec.SpecError` here, eagerly, with
        the offending piece named.
        """
        return self.spec.copy().validate()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Scenario of {self.spec!r}>"

