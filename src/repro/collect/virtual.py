"""The virtual-IP front door and the sharded collection plane (§4.5).

The paper's deployment model puts the collector tier behind one virtual IP
and load-balances it; this module reproduces that shape:

* :class:`CollectPlane` owns the shard tier (N :class:`CollectorShard`
  services), the transport policy (``"inline"`` direct calls or
  ``"network"`` summary packets over the simulated fabric), the wire
  encoding (cumulative snapshots, or per-source delta channels when
  ``delta=True`` — see :mod:`repro.collect.delta`), the epoch schedule,
  and the global merge: shard views folded level by level, ``fanin`` at a
  time (:class:`TreeSpec`; a flat plane is the one-level case).
* :class:`VirtualCollector` is the per-application front door:
  ``submit(host, summary, time)`` counts the submission, splits the
  summary into keyed parts and consistently hashes ``(app, host, key)``
  across the shards.  It keeps no log of what it was handed; the shards'
  last-writer-wins state is the tier's only memory.

Sharding is semantics-preserving because (a) a given (app, host, key)
always lands on the same shard, so last-writer-wins replacement is local
to one shard at any shard count, and (b) the per-key summaries are
commutative monoids (:mod:`repro.collect.summary`), so
:meth:`CollectPlane.merge` reconstructs the identical global view from any
partition — merged results are invariant across shard counts, submission
orders, tree shapes, and wire encodings (``TestDeltaTreeDifferential`` in
``tests/test_collect.py`` sweeps all four on the six apps).

Delta-channel plumbing: the plane owns one sender
:class:`~repro.collect.delta.DeltaChannel` per (app, host, key) source;
shards decode at fold time.  At every epoch tick (and at the final flush)
the plane drains each shard's resync requests — the receiver-driven NACK —
and flags the matching sender channels to emit a cumulative keyframe on
their next push, closing the gap-recovery loop.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, fields
from typing import Any, Callable, Optional, Union

from repro import check_count
from repro.net.packet import (ETHERNET_HEADER_BYTES, IPV4_HEADER_BYTES,
                              UDP_HEADER_BYTES, Packet)

from .delta import DeltaChannel, summary_wire_bytes
from .shard import (COLLECT_UDP_PORT_BASE, ENVELOPE_BYTES, CollectorShard,
                    Submission, check_buffer_knobs)
from .summary import SummaryBundle, _canonical_key, fold

#: Transports the plane understands.
TRANSPORTS = ("inline", "network")


@dataclass(frozen=True)
class TreeSpec:
    """Shape of the aggregation tree: fan-in per interior node.

    The knob behind ``Scenario.collector(tree=...)``, sweepable as
    ``collector.tree.fanin``.  Semantics-free: every per-key summary is a
    commutative monoid, so any fan-in reconstructs the identical view.
    """

    fanin: int = 4

    def __post_init__(self) -> None:
        check_count("fanin", self.fanin, minimum=2)


def check_plane_knobs(shard_count: int, transport: str,
                      epoch_s: Optional[float], batch: Optional[int],
                      capacity: int, hosts: Optional[list[str]],
                      delta: bool) -> None:
    """Reject a collector-tier shape: the one copy of these checks, run by
    :class:`CollectPlane` when built and by the session's ``CollectorSpec``
    when a scenario declares it."""
    check_count("shards", shard_count)
    if transport not in TRANSPORTS:
        raise ValueError(f"unknown transport {transport!r}; "
                         f"choose from {TRANSPORTS}")
    if epoch_s is not None and (isinstance(epoch_s, bool)
                                or not isinstance(epoch_s, (int, float))
                                or not 0.0 < epoch_s < math.inf):
        raise ValueError(f"epoch_s must be finite and positive when set, "
                         f"got {epoch_s!r}")
    check_buffer_knobs(batch, capacity)
    if isinstance(hosts, str):
        raise ValueError(f"hosts must be a list of host names, not the bare "
                         f"string {hosts!r}")
    if hosts is not None and not hosts:
        raise ValueError("hosts must name at least one host; leave it unset "
                         "to place shards on every host")
    if not isinstance(delta, bool):
        raise ValueError(f"delta must be a bool, got {delta!r}")


def as_tree_spec(tree: Union[int, TreeSpec, None]) -> Optional[TreeSpec]:
    """Normalise the scenario-facing knob: fan-in, spec, or None (flat)."""
    if tree is None or isinstance(tree, TreeSpec):
        return tree
    if isinstance(tree, bool):              # bool is an int; reject it early
        raise TypeError("tree must be a fan-in, a TreeSpec, or None")
    if isinstance(tree, int):
        return TreeSpec(fanin=tree)
    raise TypeError(f"tree must be a fan-in, a TreeSpec, or None; "
                    f"got {type(tree).__name__}")


def shard_index(app: str, host: str, key: Any, shard_count: int) -> int:
    """Consistent placement of (app, host, key) among ``shard_count`` shards.

    Hashed with blake2b so placement is stable across processes and runs
    (Python's builtin ``hash`` is salted per process and would break run
    determinism).
    """
    token = f"{app}|{host}|{_canonical_key(key)}".encode()
    digest = hashlib.blake2b(token, digest_size=8).digest()
    return int.from_bytes(digest, "big") % shard_count


class VirtualCollector:
    """The per-application face of the plane: count, split, route."""

    def __init__(self, plane: "CollectPlane", app: str,
                 name: Optional[str] = None) -> None:
        self.plane = plane
        self.app = app
        self.name = name if name is not None else f"{app}-collector"
        self.submitted = 0

    def submit(self, host_name: str, summary: Any, time: float = 0.0) -> None:
        """Receive one summary from a host's aggregator and shard it."""
        self.submitted += 1
        self.plane.route(self.app, host_name, summary, time)

    # ------------------------------------------------------------------ views
    def merge(self, flush: bool = True) -> dict[Any, Any]:
        """This app's reconstructed global view: key -> merged summary."""
        return {key: summary for (app, key), summary
                in self.plane.merge(flush=flush).items() if app == self.app}

    def merged_summary(self, flush: bool = True) -> Any:
        """The global view as one object: a bundle of keyed parts, or —
        when the app submits unkeyed summaries — the single merged summary."""
        view = self.merge(flush=flush)
        if set(view) == {""}:
            return view[""]
        return SummaryBundle(view)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<VirtualCollector {self.name!r} app={self.app!r} "
                f"submitted={self.submitted} shards={self.plane.shard_count}>")


@dataclass
class PlaneStats:
    """Aggregate accounting across the whole collection plane."""

    summaries_submitted: int = 0
    parts_routed: int = 0
    parts_received: int = 0
    parts_delivered: int = 0
    parts_dropped: int = 0
    flushes: int = 0
    epoch_flushes: int = 0
    batch_flushes: int = 0
    bytes_routed: int = 0
    bytes_received: int = 0
    packets_sent: int = 0
    delta_applied: int = 0
    delta_gaps: int = 0
    delta_resyncs: int = 0
    resync_requests: int = 0
    drops_by_policy: dict = field(default_factory=dict)
    tree_levels: int = 0
    per_shard: list[dict] = field(default_factory=list)


class CollectPlane:
    """N collector shards behind one virtual address, plus the reducer.

    Args:
        shard_count: size of the collector tier.
        transport: ``"inline"`` routes submissions as direct calls (no
            simulated traffic — runs stay byte-identical to the unsharded
            path); ``"network"`` ships them as UDP summary packets from the
            submitting host to the shard's host (requires :meth:`attach`).
        epoch_s: flush period.  When attached, every epoch the plane first
            fires its epoch callbacks (the session layer pushes aggregator
            summaries there), then flushes every shard's batch buffer and
            drains delta-resync requests.
        batch / capacity: per-shard batch-fold size and backpressure bound
            (see :class:`~repro.collect.shard.CollectorShard`;
            ``batch=None`` defers folding to epochs/finish, which is the
            configuration where ``capacity`` backpressure actually bites).
        shard_hosts: explicit placement for the network transport; defaults
            to round-robin over the network's hosts in sorted name order.
        tree: aggregation-tree shape — a fan-in, a :class:`TreeSpec`, or
            None for the flat single-level merge.  Semantics-free: any
            shape reconstructs the identical global view.
        delta: encode submissions as per-source delta channels instead of
            cumulative snapshots (exact — see :mod:`repro.collect.delta`).
    """

    def __init__(self, shard_count: int = 1, *, transport: str = "inline",
                 epoch_s: Optional[float] = None, batch: Optional[int] = 64,
                 capacity: int = 4096,
                 shard_hosts: Optional[list[str]] = None,
                 tree: Union[int, TreeSpec, None] = None,
                 delta: bool = False) -> None:
        check_plane_knobs(shard_count, transport, epoch_s, batch, capacity,
                          shard_hosts, delta)
        self.shard_count = shard_count
        self.transport = transport
        self.epoch_s = epoch_s
        self.shard_hosts = list(shard_hosts) if shard_hosts is not None else None
        self.shards = [CollectorShard(index, batch=batch, capacity=capacity)
                       for index in range(shard_count)]
        self.tree_spec = as_tree_spec(tree)
        # A flat plane is the one-level tree whose root takes every shard.
        self.fanin = self.tree_spec.fanin if self.tree_spec else shard_count
        width, self.tree_levels = shard_count, 0
        while width > 1 or not self.tree_levels:
            width, self.tree_levels = -(-width // self.fanin), self.tree_levels + 1
        self.delta = delta
        self._channels: dict[tuple, DeltaChannel] = {}
        self.resync_requests = 0
        self.bytes_routed = 0
        self.front_doors: dict[str, VirtualCollector] = {}
        self._seq = 0
        self._sim = None
        self._network = None
        self._epoch_callbacks: list[Callable[[float], None]] = []
        self._epoch_process = None
        self.packets_sent = 0

    # ------------------------------------------------------------- provisioning
    def front_door(self, app: str, name: Optional[str] = None) -> VirtualCollector:
        """Create (once) the virtual collector for one application."""
        if app in self.front_doors:
            raise ValueError(f"application {app!r} already has a front door")
        door = VirtualCollector(self, app, name=name)
        self.front_doors[app] = door
        return door

    def attach(self, sim, network) -> None:
        """Bind the tier to a simulated network and start the epoch clock.

        Shards are placed round-robin over the hosts (sorted by name, or
        ``shard_hosts`` verbatim) and listen on consecutive UDP ports from
        ``COLLECT_UDP_PORT_BASE``, so shards sharing a host stay distinct.
        """
        self._sim = sim
        self._network = network
        host_names = self.shard_hosts if self.shard_hosts is not None \
            else sorted(network.hosts)
        if not host_names:
            raise ValueError("cannot attach a collector tier to a hostless network")
        missing = [name for name in host_names if name not in network.hosts]
        if missing:
            raise ValueError(f"collector hosts {missing} are not hosts of the "
                             f"network; have {sorted(network.hosts)}")
        for shard in self.shards:
            host = network.hosts[host_names[shard.index % len(host_names)]]
            shard.attach(sim, host, COLLECT_UDP_PORT_BASE + shard.index,
                         epoch_s=self.epoch_s)
        if self.epoch_s is not None:
            self._epoch_process = sim.schedule_periodic(self.epoch_s,
                                                        self._epoch_tick)

    def on_epoch(self, callback: Callable[[float], None]) -> None:
        """Run ``callback(now)`` at every epoch, before the shard flushes."""
        self._epoch_callbacks.append(callback)

    def _epoch_tick(self) -> None:
        now = self._sim.now
        for callback in self._epoch_callbacks:
            callback(now)
        # Shards with their own epoch process flush themselves; this extra
        # pass only matters for submissions the callbacks just produced.
        for shard in self.shards:
            if shard.pending:
                shard.flush(kind="epoch")
        if self.delta:
            self._poll_resyncs()

    def _poll_resyncs(self) -> None:
        """Drain shard NACKs and flag sender channels for keyframes."""
        for shard in self.shards:
            for group in shard.take_resync_requests():
                self.resync_requests += 1
                channel = self._channels.get(group)
                if channel is not None:
                    channel.needs_full = True

    # ---------------------------------------------------------------- routing
    def route(self, app: str, host: str, summary: Any, time: float) -> int:
        """Split a summary into keyed parts and deliver them to shards.

        With ``delta=True`` each part is passed through its source's delta
        channel first, so what travels (and what the shard buffers) is a
        :class:`~repro.collect.delta.SummaryDelta` unit rather than the
        cumulative snapshot.
        """
        if isinstance(summary, SummaryBundle):
            parts = [(key, part) for key, part in summary.items()]
        else:
            parts = [("", summary)]
        per_shard: dict[int, list[Submission]] = {}
        for key, part in parts:
            seq = self._seq
            self._seq += 1
            if self.delta:
                group = (app, host, key)
                channel = self._channels.get(group)
                if channel is None:
                    channel = self._channels[group] = DeltaChannel()
                part = channel.encode(part)
            submission = Submission(time=time, seq=seq, app=app, host=host,
                                    key=key, summary=part)
            self.bytes_routed += ENVELOPE_BYTES + summary_wire_bytes(part)
            index = shard_index(app, host, key, self.shard_count)
            per_shard.setdefault(index, []).append(submission)
        if self.transport == "inline":
            for index, submissions in sorted(per_shard.items()):
                shard = self.shards[index]
                for submission in submissions:
                    shard.ingest(submission)
        else:
            self._send_summary_packets(host, per_shard)
        return len(parts)

    def _send_summary_packets(self, host: str,
                              per_shard: dict[int, list[Submission]]) -> None:
        """Network transport: one UDP summary packet per target shard."""
        if self._network is None:
            raise RuntimeError("the network transport needs CollectPlane.attach"
                               "(sim, network) before submissions are routed")
        sender = self._network.hosts[host]
        for index, submissions in sorted(per_shard.items()):
            shard = self.shards[index]
            if shard.host_name == host:
                # Loopback: a summary for a shard on the submitting host
                # never touches the wire.
                for submission in submissions:
                    shard.ingest(submission)
                continue
            payload_bytes = sum(ENVELOPE_BYTES + summary_wire_bytes(s.summary)
                                for s in submissions)
            size = (ETHERNET_HEADER_BYTES + IPV4_HEADER_BYTES
                    + UDP_HEADER_BYTES + payload_bytes)
            packet = Packet(src=host, dst=shard.host_name, size=size,
                            protocol="udp", sport=shard.port, dport=shard.port,
                            created_at=self._sim.now if self._sim else 0.0)
            packet.payload = {"collect_submissions": list(submissions)}
            self.packets_sent += 1
            sender.send(packet)

    # ----------------------------------------------------------------- reduce
    def flush_all(self, kind: str = "final") -> None:
        """Fold every shard's pending buffer into its state."""
        for shard in self.shards:
            if shard.pending:
                shard.flush(kind=kind)
        if self.delta:
            self._poll_resyncs()

    def merge(self, flush: bool = True) -> dict[tuple, Any]:
        """The reconstructed global view: (app, key) -> merged summary.

        The shards' partial views (bundles keyed by (app, key)) fold in
        groups of ``fanin``, in shard order, level by level until one root
        remains — shard → rack → root with a tree, one level when flat.
        The result is independent of shard count, iteration order,
        submission order, wire encoding, and tree shape: every per-key
        summary is a commutative monoid and each (app, host, key) lives on
        exactly one shard (asserted in tests and by the scaling benchmark).
        """
        if flush:
            self.flush_all()
        views, fanin = [shard.merged_view() for shard in self.shards], self.fanin
        for _ in range(self.tree_levels):
            views = [fold(views[i:i + fanin]) for i in range(0, len(views), fanin)]
        (root,) = views
        return {target: root[target] for target
                in sorted(root.keys(), key=lambda t: (t[0], _canonical_key(t[1])))}

    # ------------------------------------------------------------- accounting
    def counters(self) -> dict[str, int]:
        """The tier's accounting: plane-level ints plus the sum of every
        shard's :meth:`~repro.collect.shard.CollectorShard.counters` face
        (``collect.<name>`` in ``Experiment.counters()``)."""
        totals = {
            "shards": self.shard_count,
            "summaries_submitted": sum(door.submitted
                                       for door in self.front_doors.values()),
            "parts_routed": self._seq,
            "packets_sent": self.packets_sent,
            "bytes_routed": self.bytes_routed,
            "resync_requests": self.resync_requests,
        }
        for shard in self.shards:
            for name, value in shard.counters().items():
                totals[name] = totals.get(name, 0) + value
        return totals

    # Kept for the frozen suite's collect kernel, which reads it (ROADMAP 1a).
    def stats(self) -> PlaneStats:
        """:meth:`counters` as a :class:`PlaneStats`, plus per-shard faces."""
        totals = self.counters()
        same_name = {f.name: totals[f.name] for f in fields(PlaneStats)
                     if f.name in totals}
        prefix = "drops."
        return PlaneStats(
            **same_name,
            parts_received=totals["received"],
            parts_delivered=totals["delivered"],
            parts_dropped=totals["dropped"],
            drops_by_policy={name[len(prefix):]: count
                             for name, count in totals.items()
                             if count and name.startswith(prefix)},
            tree_levels=self.tree_levels,
            per_shard=[dict(shard.counters(), shard=shard.name,
                            host=shard.host_name) for shard in self.shards])

    def stop(self) -> None:
        """Stop every periodic process the plane owns (idempotent)."""
        if self._epoch_process is not None:
            self._epoch_process.stop()
            self._epoch_process = None
        for shard in self.shards:
            shard.stop()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<CollectPlane shards={self.shard_count} "
                f"transport={self.transport!r} epoch_s={self.epoch_s} "
                f"apps={sorted(self.front_doors)}>")
