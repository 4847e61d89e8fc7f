"""Deployment framework for piggy-backed TPP applications (§4.5).

A piggy-backed application is described by four things the programmer
specifies — a packet filter, a compiled TPP, a per-host aggregator, and a
cluster-wide collector.  The provisioning agent here performs the steps the
paper lists: allocate an application id, verify permissions by statically
examining the TPP, spawn the aggregator on every participating host, install
the ``add_tpp`` rule through each host's control-plane agent, and point the
aggregators at the collector.

Collectors come in two shapes sharing one surface: the in-memory
:class:`Collector` below, and the sharded
:class:`repro.collect.virtual.VirtualCollector` tier the session layer
installs with ``Scenario(...).collector(shards=N)``.  Aggregators emit
:mod:`repro.collect.summary` monoids (commutative, mergeable) rather than
opaque dicts, so either collector shape reconstructs the same global view.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Protocol, runtime_checkable

from repro.collect.summary import CounterSummary
from repro.core.compiler import CompiledTPP
from repro.core.packet_format import TPP
from repro.net.packet import Packet

from .control_plane import Application, ControlPlaneAgent, TPPControlPlane
from .dataplane import DataplaneShim
from .filters import PacketFilter


@runtime_checkable
class EndHostStackLike(Protocol):
    """The structural face of an end-host stack that :func:`deploy` needs.

    :class:`repro.endhost.stack.EndHostStack` satisfies this; so does any
    test double exposing the same two members.  Keeping the protocol here
    (below the concrete stack in the import graph) lets the deploy path be
    fully typed without a circular dependency.
    """

    shim: DataplaneShim
    agent: ControlPlaneAgent


class Collector:
    """A cluster-wide service that receives summaries from per-host aggregators.

    The paper load-balances collectors behind a virtual IP; this single
    in-memory object is the unsharded reference implementation.  The
    sharded tier (:mod:`repro.collect`) keeps this exact surface — and is
    byte-identical to it in the single-shard inline configuration — so
    applications never see which one they are wired to.

    Every submission is stamped with the simulation time it was pushed
    (``submission_times[i]`` matches ``summaries[i]``), making collector
    contents time-attributable and deterministic.
    """

    def __init__(self, name: str = "collector") -> None:
        self.name = name
        self.summaries: list[tuple[str, object]] = []
        self.submission_times: list[float] = []

    def submit(self, host_name: str, summary: object, time: float = 0.0) -> None:
        """Receive one summary from a host's aggregator."""
        self.summaries.append((host_name, summary))
        self.submission_times.append(time)

    def __len__(self) -> int:
        return len(self.summaries)


class Aggregator:
    """Base class for per-host aggregators: receives completed TPPs.

    Subclasses override :meth:`on_tpp` to do application-specific processing
    and :meth:`summarize` to produce what gets pushed to the collector —
    a :class:`repro.collect.summary.MergeableSummary` (or bundle of them),
    so collector shards can merge summaries from any subset of hosts in any
    order and land on the same global view.
    """

    def __init__(self, host_name: str, collector: Optional[Collector] = None) -> None:
        self.host_name = host_name
        self.collector = collector
        self.tpps_received = 0
        # TPPs whose packet memory ran out in-flight (§3.3): the network-side
        # TCPU marks the skipped instructions SKIPPED_PACKET_FULL; here the
        # end host tells truncation ("packet ran out of room") apart from a
        # switch simply lacking the requested statistic.
        self.tpps_truncated = 0

    def on_tpp(self, tpp: TPP, packet: Packet) -> None:
        self.tpps_received += 1
        if tpp.out_of_room:
            self.tpps_truncated += 1

    def counters(self) -> dict[str, int]:
        """This aggregator's receive accounting (``apps.<name>``)."""
        return {"tpps_received": self.tpps_received,
                "tpps_truncated": self.tpps_truncated}

    def summarize(self) -> object:
        """An independent snapshot of what has been observed so far.

        Fold observations into mergeable state in :meth:`on_tpp` and copy
        it here: collectors and delta channels retain what they are handed.
        """
        return CounterSummary({"tpps": self.tpps_received,
                               "tpps_truncated": self.tpps_truncated})

    def push_summary(self, now: float = 0.0) -> None:
        """Submit :meth:`summarize`'s snapshot, stamped with ``now``."""
        if self.collector is not None:
            self.collector.submit(self.host_name, self.summarize(), time=now)


AggregatorFactory = Callable[[str, Optional[Collector]], Aggregator]


@dataclass
class PiggybackApplication:
    """The §4.5 application descriptor."""

    name: str
    packet_filter: PacketFilter
    compiled_tpp: CompiledTPP
    aggregator_factory: AggregatorFactory
    collector: Optional[Collector] = None
    sample_frequency: int = 1
    priority: int = 0
    echo_to_source: bool = False


@dataclass
class DeployedApplication:
    """Handles returned by :func:`deploy`: one aggregator per participating host."""

    application: Application
    descriptor: PiggybackApplication
    aggregators: dict[str, Aggregator] = field(default_factory=dict)
    #: How many push_all_summaries rounds have run (the session layer uses
    #: this to decide whether a finishing experiment still owes a push).
    push_rounds: int = 0

    def push_all_summaries(self, now: float = 0.0) -> None:
        """Push every host's summary to the collector, stamped with ``now``.

        Hosts push in sorted name order — not dict insertion order — so
        collector contents are deterministic regardless of how the
        deployment enumerated its receivers.
        """
        for host_name in sorted(self.aggregators):
            self.aggregators[host_name].push_summary(now)
        self.push_rounds += 1


def deploy(descriptor: PiggybackApplication,
           stacks: Mapping[str, EndHostStackLike],
           control_plane: TPPControlPlane,
           sender_hosts: Optional[list[str]] = None,
           receiver_hosts: Optional[list[str]] = None) -> DeployedApplication:
    """Provision a piggy-backed application across a set of end-host stacks.

    Args:
        descriptor: what to deploy.
        stacks: host name -> end-host stack (anything satisfying
            :class:`EndHostStackLike`) for every participating host.
        control_plane: the central TPP-CP instance.
        sender_hosts: hosts whose outgoing packets get the TPP attached
            (defaults to all).
        receiver_hosts: hosts that run an aggregator (defaults to all).
    """
    app = control_plane.register_application(descriptor.name)
    deployed = DeployedApplication(application=app, descriptor=descriptor)

    senders = sender_hosts if sender_hosts is not None else list(stacks)
    receivers = receiver_hosts if receiver_hosts is not None else list(stacks)

    for host_name in receivers:
        stack = stacks[host_name]
        aggregator = descriptor.aggregator_factory(host_name, descriptor.collector)
        deployed.aggregators[host_name] = aggregator
        stack.shim.bind_application(app.app_id, on_tpp=aggregator.on_tpp,
                                    echo_to_source=descriptor.echo_to_source)

    for host_name in senders:
        stack = stacks[host_name]
        stack.agent.add_tpp(app.app_id, descriptor.packet_filter,
                            descriptor.compiled_tpp.clone_tpp(),
                            sample_frequency=descriptor.sample_frequency,
                            priority=descriptor.priority)

    return deployed
