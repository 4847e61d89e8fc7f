"""Collector shards: the end-host services behind the virtual IP (§4.5).

A :class:`CollectorShard` is one member of the load-balanced collector tier
the paper deploys behind a virtual IP.  It receives :class:`Submission`
records — one per (app, host, key) summary part — either inline (a direct
call from the :class:`~repro.collect.virtual.VirtualCollector` front door)
or as UDP summary packets delivered by the simulated network, and:

* **batches** them in a bounded ``pending`` buffer, folding the buffer into
  its merged state when it reaches ``batch`` entries (``batch=None``
  disables the fill trigger: folds then happen only at epoch boundaries
  and at finish — the deferred mode),
* **flushes on epochs** when attached to a simulator with an epoch period
  (the fold runs at every epoch boundary regardless of batch fill),
* **sheds under backpressure** — a submission arriving while the buffer
  is at ``capacity`` is rejected (tail drop), accounted in ``dropped``
  *and* broken down by reason in ``drops_by_policy`` (mirroring
  ``repro.net.port.Port.drops_by_reason``).  The accounting identity —
  ``submitted == delivered + dropped + len(pending)`` — holds at every
  instant (property-tested).  Note the interplay with batching: a
  synchronous batch fold empties the buffer at ``batch`` entries, so the
  bound only bites when folding is deferred (``batch=None``) or
  ``capacity < batch``,
* **replays delta channels**: submissions carrying a
  :class:`~repro.collect.delta.SummaryDelta` are decoded at fold time
  through the shard's :class:`~repro.collect.delta.DeltaDecoder`; a unit
  arriving out of sequence is a gap — discarded, counted under the
  ``"delta-gap"`` drop reason, and queued for cumulative resync — and
* keeps **last-writer-wins state per (app, host, key)**: aggregator
  summaries are cumulative snapshots (reconstructed ones included), so the
  newest submission (by ``(time, seq)``) from a source replaces its
  predecessor rather than double-counting it.  Because the front door
  routes a given (app, host, key) to the same shard at any shard count,
  this rule is shard-count invariant.

:meth:`merged_view` folds the retained snapshots across hosts into this
shard's partial global view — the commutative merge completed across
shards by :meth:`repro.collect.virtual.CollectPlane.merge` (in one level,
or level by level up an aggregation tree).
"""

from __future__ import annotations

from dataclasses import dataclass, replace as _replace
from typing import Any, Optional

from repro import check_count
from repro.net.packet import Packet

from .delta import DeltaDecoder, SummaryDelta, summary_wire_bytes
from .summary import SummaryBundle, _canonical_key, fold

__all__ = ["COLLECT_UDP_PORT_BASE", "CollectorShard", "ENVELOPE_BYTES",
           "Submission", "summary_wire_bytes"]

#: Base UDP destination port for summary packets; shard ``i`` listens on
#: ``COLLECT_UDP_PORT_BASE + i`` so shards sharing a host stay distinct.
COLLECT_UDP_PORT_BASE = 0x6668

#: Fixed per-submission envelope estimate (addresses, app id, key, time).
ENVELOPE_BYTES = 32

#: Drop reason for an arrival rejected by a full shard buffer (tail drop).
TAIL_DROP_REASON = "drop-newest"

#: Drop reason used for delta units discarded on sequence gaps.
DELTA_GAP_REASON = "delta-gap"


def check_buffer_knobs(batch: Optional[int], capacity: int) -> None:
    """Reject a shard buffer shape (see :class:`CollectorShard`); ``batch``
    may also be None, to fold only on epoch/finish flushes."""
    if batch is not None:
        check_count("batch", batch)
    check_count("capacity", capacity)


@dataclass(frozen=True)
class Submission:
    """One summary part in flight from an aggregator to a shard."""

    time: float                 # simulation time the summary was pushed
    seq: int                    # front-door sequence (total order per plane)
    app: str                    # owning application name
    host: str                   # submitting host
    key: Any                    # part key ("" for whole-summary submissions)
    summary: Any                # the mergeable payload (or a SummaryDelta)

    @property
    def group(self) -> tuple:
        """The sharding/replacement identity: (app, host, key)."""
        return (self.app, self.host, self.key)


class CollectorShard:
    """One shard of the collection tier: batch, fold, flush, shed, account."""

    def __init__(self, index: int, *, batch: Optional[int] = 64,
                 capacity: int = 4096, name: Optional[str] = None) -> None:
        check_buffer_knobs(batch, capacity)
        self.index = index
        self.name = name if name is not None else f"shard{index}"
        self.batch = batch
        self.capacity = capacity
        self.pending: list[Submission] = []
        # (app, host, key) -> newest Submission from that source.
        self.state: dict[tuple, Submission] = {}
        # Delta-channel replay state (used only when deltas arrive).
        self.decoder = DeltaDecoder()
        # Network attachment (None while the shard runs inline-only).
        self.host_name: Optional[str] = None
        self.port: Optional[int] = None
        self._flush_process = None
        # Accounting.  Invariant at every instant:
        #   submitted == delivered + dropped + len(pending)
        self.submitted = 0          # every arrival at ingest()
        self.received = 0           # arrivals admitted into the buffer
        self.delivered = 0          # submissions folded into merged state
        self.dropped = 0            # rejected at admission, or gapped
        self.drops_by_policy: dict[str, int] = {}
        self.bytes_received = 0
        self.flushes = 0
        self.batch_flushes = 0
        self.epoch_flushes = 0
        self.stale_replaced = 0

    # ------------------------------------------------------------------ intake
    def ingest(self, submission: Submission) -> bool:
        """Accept one submission into the batch buffer; False on drop."""
        self.submitted += 1
        if len(self.pending) >= self.capacity:
            self._count_drop(TAIL_DROP_REASON)
            return False
        self.received += 1
        self.bytes_received += ENVELOPE_BYTES + summary_wire_bytes(submission.summary)
        self.pending.append(submission)
        if self.batch is not None and len(self.pending) >= self.batch:
            self.flush(kind="batch")
        return True

    def _count_drop(self, reason: str) -> None:
        self.dropped += 1
        self.drops_by_policy[reason] = self.drops_by_policy.get(reason, 0) + 1

    def ingest_packet(self, packet: Packet) -> int:
        """Network intake: unpack a summary packet's submissions."""
        payload = packet.payload
        if not isinstance(payload, dict) or "collect_submissions" not in payload:
            return 0
        accepted = 0
        for submission in payload["collect_submissions"]:
            accepted += bool(self.ingest(submission))
        return accepted

    # ------------------------------------------------------------------- folds
    def flush(self, kind: str = "final") -> int:
        """Fold the pending buffer into state; returns submissions folded.

        An empty buffer is a no-op (and not counted), so the flush
        statistics report folds actually performed, not scheduler ticks.
        Delta submissions are decoded here, in arrival order: the decoder
        reconstructs the source's cumulative snapshot, which then enters
        last-writer-wins state exactly as a cumulative submission would.
        """
        if not self.pending:
            return 0
        self.flushes += 1
        if kind == "batch":
            self.batch_flushes += 1
        elif kind == "epoch":
            self.epoch_flushes += 1
        folded = 0
        state = self.state
        for submission in self.pending:
            if isinstance(submission.summary, SummaryDelta):
                decoded = self.decoder.decode(submission.group,
                                              submission.summary)
                if decoded is None:         # gap: discarded, resync queued
                    self._count_drop(DELTA_GAP_REASON)
                    continue
                submission = _replace(submission, summary=decoded)
            folded += 1
            group = submission.group
            current = state.get(group)
            if current is None:
                state[group] = submission
            elif (submission.time, submission.seq) >= (current.time, current.seq):
                state[group] = submission
                self.stale_replaced += 1
            # else: an older snapshot arrived late; the newer one stands.
        self.delivered += folded
        self.pending.clear()
        return folded

    def take_resync_requests(self) -> list[tuple]:
        """Drain the delta channels awaiting a cumulative resync (NACKs)."""
        return self.decoder.take_resyncs()

    def merged_view(self) -> SummaryBundle:
        """This shard's partial global view: a bundle keyed by (app, key).

        Each target's retained snapshots :func:`fold` in sorted host order
        (the fold copies, so retained state is never mutated); any order
        would produce the same result by the monoid laws (tested).  Pending
        submissions are not included — call :meth:`flush` first for an
        up-to-date view.
        """
        by_target: dict[tuple, list] = {}
        for group in sorted(self.state,
                            key=lambda g: (g[0], _canonical_key(g[2]), g[1])):
            submission = self.state[group]
            by_target.setdefault((submission.app, submission.key),
                                 []).append(submission.summary)
        return SummaryBundle({target: fold(summaries)
                              for target, summaries in by_target.items()})

    def counters(self) -> dict[str, int]:
        """This shard's flush/drop accounting, by canonical metric name.

        Read only at snapshot time — intake and flush paths stay
        observer-free.  :meth:`CollectPlane.counters` sums these across the
        tier; every drop reason reports (zero included) as
        ``drops.<reason>``, so the key set does not depend on what the run
        happened to shed.
        """
        drops = {f"drops.{reason}": self.drops_by_policy.get(reason, 0)
                 for reason in (TAIL_DROP_REASON, DELTA_GAP_REASON)}
        return {
            "submitted": self.submitted,
            "received": self.received,
            "delivered": self.delivered,
            "dropped": self.dropped,
            "bytes_received": self.bytes_received,
            "pending": len(self.pending),
            "state_groups": len(self.state),
            "flushes": self.flushes,
            "batch_flushes": self.batch_flushes,
            "epoch_flushes": self.epoch_flushes,
            "stale_replaced": self.stale_replaced,
            "delta_applied": self.decoder.applied,
            "delta_gaps": self.decoder.gaps,
            "delta_resyncs": self.decoder.resyncs,
            **drops,
        }

    # --------------------------------------------------------------- lifecycle
    def attach(self, sim, host, port: int, epoch_s: Optional[float] = None) -> None:
        """Bind this shard to a simulated end host (the network transport).

        The shard listens for summary packets on ``port`` and, when
        ``epoch_s`` is given, flushes its batch buffer at every epoch
        boundary via the simulator's periodic scheduler.
        """
        self.host_name = host.name
        self.port = port
        host.listen(port, self.ingest_packet)
        if epoch_s is not None:
            self._flush_process = sim.schedule_periodic(
                epoch_s, self.flush, "epoch")

    def stop(self) -> None:
        """Stop the epoch-flush process (idempotent)."""
        if self._flush_process is not None:
            self._flush_process.stop()
            self._flush_process = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        where = f"@{self.host_name}:{self.port}" if self.host_name else "(inline)"
        return (f"<CollectorShard {self.name}{where} state={len(self.state)} "
                f"pending={len(self.pending)} dropped={self.dropped}>")
