"""Delta encoding for the collection plane: epoch diffs instead of re-sends.

The §4.5 collector tier receives *cumulative* snapshots: every push, every
host re-ships its entire summary, so bytes on the wire scale with state
size rather than with change.  This module adds the production wire
format: a per-source **delta channel** that ships only what changed since
the previous push, with sequence numbers and a cumulative-resync fallback
when the receiver detects a gap.

* :class:`SummaryDelta` — one wire unit: either a ``"full"`` cumulative
  snapshot (a keyframe) or a ``"delta"`` payload produced by the summary
  type's ``diff(prev)`` (see :mod:`repro.collect.summary`).  Every unit
  carries the channel sequence number it produces and the sequence it
  applies on top of.
* :class:`DeltaChannel` — the sender side, one per (app, host, key)
  source.  ``encode(current)`` snapshots the summary, emits a delta
  against the previous snapshot (or a full keyframe on first send, on
  request — the plane sets ``needs_full`` on a shard's NACK — and whenever
  the type cannot express the transition), and advances the channel
  sequence.
* :class:`DeltaDecoder` — the receiver side, shared by one
  :class:`~repro.collect.shard.CollectorShard`.  ``decode`` replays units
  in sequence order onto per-channel reconstructed state; a unit whose
  ``base_seq`` does not match the channel head is a **gap** (a dropped or
  reordered predecessor): the unit is discarded, counted, and the channel
  queued for resync.  The plane polls :meth:`DeltaDecoder.take_resyncs`
  at epoch boundaries — modelling the receiver-driven NACK — and flags
  the matching sender channels to emit a cumulative keyframe next push.

Exactness contract: diffs carry **absolute new values** for changed
entries, never arithmetic differences, so replaying a gap-free delta
stream reconstructs the cumulative snapshot *byte-identically* — floats
included, since no addition is performed on apply.  This is what lets the
differential tests pin delta mode to cumulative mode exactly.

Wire-size accounting (:func:`summary_wire_bytes` /
:func:`delta_wire_bytes`) uses the same per-entry heuristics for both
encodings, so the delta-vs-cumulative byte comparison in benchmarks and
tests measures the encoding, not a unit mismatch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from .summary import summary_copy

#: Per-delta-unit header estimate (kind, seq, base_seq).
DELTA_HEADER_BYTES = 8


# --------------------------------------------------------------------------
# Wire-size heuristics
# --------------------------------------------------------------------------
def summary_wire_bytes(summary: Any) -> int:
    """Rough on-wire size of one summary payload, for packet sizing.

    Heuristic by shape: counters cost ~12 B/entry, histogram bins 8 B,
    top-k entries 16 B, series samples 12 B, bitmap sketches their bitmap;
    bundles sum their parts.  Delta units charge their changed entries
    plus a small header.  Unknown shapes charge a flat 64 B.
    """
    if isinstance(summary, SummaryDelta):
        return delta_wire_bytes(summary)
    parts = getattr(summary, "parts", None)
    if parts is not None:
        return sum(summary_wire_bytes(part) for part in parts.values())
    counts = getattr(summary, "counts", None)
    if counts is not None:
        return 12 * max(1, len(counts))
    bins = getattr(summary, "bins", None)
    if bins is not None:
        return 8 * len(bins)
    samples = getattr(summary, "samples", None)
    if samples is not None:
        return 12 * max(1, len(samples))
    memory = getattr(summary, "memory_bytes", None)
    if callable(memory):
        return int(memory())
    return 64


def _delta_payload_bytes(payload: Any) -> int:
    """Size of one ``diff`` payload: changed entries only."""
    if not isinstance(payload, dict):
        return 64
    total = 0
    for key, part in payload.get("set", {}).items():
        if isinstance(part, (int, float)):
            total += 12
        else:
            total += 8 + summary_wire_bytes(part)
    total += 8 * len(payload.get("drop", ()))
    total += 12 * len(payload.get("bins", ()))
    if "count" in payload:
        total += 16                         # absolute count + total
    if "k" in payload:
        total += 4
    total += 12 * len(payload.get("add", ()))
    for sub in payload.get("delta", {}).values():
        total += 8 + _delta_payload_bytes(sub)
    return total


def delta_wire_bytes(delta: "SummaryDelta") -> int:
    """On-wire size of one delta unit (header + payload)."""
    if delta.kind == "full":
        return DELTA_HEADER_BYTES + summary_wire_bytes(delta.payload)
    return DELTA_HEADER_BYTES + _delta_payload_bytes(delta.payload)


# --------------------------------------------------------------------------
# The wire unit
# --------------------------------------------------------------------------
@dataclass(frozen=True)
class SummaryDelta:
    """One unit on a delta channel: a keyframe or an epoch diff.

    ``seq`` is the channel sequence this unit produces; ``base_seq`` is the
    sequence it applies on top of (``-1`` for full keyframes, which apply
    anywhere).
    """

    kind: str                   # "full" | "delta"
    seq: int
    base_seq: int
    payload: Any                # full summary copy, or a diff() payload


# --------------------------------------------------------------------------
# Sender side
# --------------------------------------------------------------------------
class DeltaChannel:
    """Per-source encoder state: previous snapshot + sequence counter."""

    __slots__ = ("seq", "prev", "needs_full", "fulls_sent", "deltas_sent")

    def __init__(self) -> None:
        self.seq = 0
        self.prev: Optional[Any] = None
        self.needs_full = True              # first send is always a keyframe
        self.fulls_sent = 0
        self.deltas_sent = 0

    def encode(self, current: Any) -> SummaryDelta:
        """Snapshot ``current`` and emit the next unit for this channel."""
        snapshot = summary_copy(current)
        self.seq += 1
        unit = None
        if not self.needs_full:
            differ = getattr(snapshot, "diff", None)
            if callable(differ):
                try:
                    payload = differ(self.prev)
                    unit = SummaryDelta("delta", self.seq, self.seq - 1, payload)
                except ValueError:
                    unit = None             # inexpressible: fall back to full
        if unit is None:
            unit = SummaryDelta("full", self.seq, -1, snapshot)
            self.fulls_sent += 1
        else:
            self.deltas_sent += 1
        self.needs_full = False
        self.prev = snapshot
        return unit


# --------------------------------------------------------------------------
# Receiver side
# --------------------------------------------------------------------------
class _ChannelState:
    __slots__ = ("seq", "state")

    def __init__(self) -> None:
        self.seq = -1
        self.state: Optional[Any] = None


class DeltaDecoder:
    """Shard-side replay: per-channel reconstructed cumulative state."""

    def __init__(self) -> None:
        self.channels: dict[tuple, _ChannelState] = {}
        self.applied = 0                    # deltas replayed in sequence
        self.gaps = 0                       # units discarded on gap
        self.resyncs = 0                    # full keyframes applied
        self._resync_needed: set[tuple] = set()

    def decode(self, group: tuple, unit: SummaryDelta) -> Optional[Any]:
        """Replay one unit; the reconstructed summary, or None on a gap."""
        channel = self.channels.get(group)
        if channel is None:
            channel = self.channels[group] = _ChannelState()
        if unit.kind == "full":
            channel.state = summary_copy(unit.payload)
            channel.seq = unit.seq
            self.resyncs += 1
            self._resync_needed.discard(group)
            return channel.state
        if channel.state is None or unit.base_seq != channel.seq:
            self.gaps += 1
            self._resync_needed.add(group)
            return None
        channel.state.apply_delta(unit.payload)
        channel.seq = unit.seq
        self.applied += 1
        return channel.state

    def take_resyncs(self) -> list[tuple]:
        """Drain the channels awaiting a cumulative resync (the NACK set)."""
        needed = sorted(self._resync_needed, key=repr)
        self._resync_needed.clear()
        return needed
