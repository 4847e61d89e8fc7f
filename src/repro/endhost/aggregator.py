"""Per-host aggregators of a piggy-backed app (§4.5).

A piggy-backed application is described by four things the programmer
specifies — a packet filter, a compiled TPP, a per-host aggregator, and a
cluster-wide collector.  The provisioning agent that performs the paper's
steps (allocate an application id, verify the TPP, spawn the aggregator on
every receiving host, install ``add_tpp`` on every sender, point the
aggregators at the collector) is the session layer's
``Experiment._deploy_tpp``; this module holds the pieces it wires up.

Aggregators emit :mod:`repro.collect.summary` monoids (commutative,
mergeable) rather than opaque dicts, so any collector shape reconstructs
the same global view.  Only the experiment pushes them, and only into a
``Scenario(...).collector(...)`` plane.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.collect.summary import CounterSummary
from repro.core.packet_format import TPP
from repro.net.packet import Packet

from .control_plane import Application


class Aggregator:
    """Base class for per-host aggregators: receives completed TPPs.

    Subclasses override :meth:`on_tpp` to do application-specific processing
    and :meth:`summarize` to produce what gets pushed to the collector —
    a :class:`repro.collect.summary.MergeableSummary` (or bundle of them),
    so collector shards can merge summaries from any subset of hosts in any
    order and land on the same global view.
    """

    def __init__(self, host_name: str) -> None:
        self.host_name = host_name
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
        it here: shard state and delta channels retain what they are handed.
        """
        return CounterSummary({"tpps": self.tpps_received,
                               "tpps_truncated": self.tpps_truncated})


@dataclass
class DeployedApplication:
    """One provisioned app: its registration and one aggregator per receiver."""

    application: Application
    aggregators: dict[str, Aggregator] = field(default_factory=dict)
