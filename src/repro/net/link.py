"""Full-duplex point-to-point links.

A :class:`Link` joins two :class:`~repro.net.port.Port` objects.  The link
itself only stores capacity, propagation delay and aggregate counters; the
transmission state machines live in the ports (one per direction), which is
what makes the link full duplex.

Links also carry the fault plane's degradation state (see
:mod:`repro.faults`): a time-varying Bernoulli corruption rate applied at
the *receiving* end — a failed CRC, so tx/link counters stand while the
peer's rx counters do not move — and up/down transition accounting.  The
healthy path is untouched: with ``loss_rate == 0`` no random draw happens,
so a run with an empty fault plan is byte-identical to one without any.
"""

from __future__ import annotations

import math
import random
from typing import TYPE_CHECKING, Optional

from .port import DROP_CORRUPTED

if TYPE_CHECKING:  # pragma: no cover
    from .port import Port


def mbps(value: float) -> float:
    """Convert megabits/second to bits/second."""
    return value * 1e6


def gbps(value: float) -> float:
    """Convert gigabits/second to bits/second."""
    return value * 1e9


class Link:
    """A full-duplex link between two ports."""

    def __init__(self, port_a: "Port", port_b: "Port", rate_bps: float,
                 delay_s: float = 10e-6, name: str = "") -> None:
        self.name = name or f"{port_a.name}<->{port_b.name}"
        # Infinite rate or delay would schedule zero- or infinite-gap events.
        if not 0 < rate_bps < math.inf:           # also rejects NaN
            raise ValueError(f"link {self.name}: rate_bps must be positive "
                             f"and finite, got {rate_bps!r}")
        if not 0 <= delay_s < math.inf:
            raise ValueError(f"link {self.name}: delay_s must be non-negative "
                             f"and finite, got {delay_s!r}")
        self.port_a = port_a
        self.port_b = port_b
        self.rate_bps = rate_bps
        self.delay_s = delay_s
        self.up = True
        # Packets serialised onto the link, both directions; each port's
        # transmit chain counts here as it finishes a serialisation.
        self.total_bytes = 0
        self.total_packets = 0
        # Degradation state (repro.faults): Bernoulli corruption probability
        # applied per delivered packet, drawn from a seeded per-link stream.
        self.loss_rate = 0.0
        self._loss_rng: Optional[random.Random] = None
        # Up/down transition accounting: actual state changes only (repeated
        # set_down() calls while already down do not count).
        self.down_transitions = 0
        self.up_transitions = 0
        self.last_transition_time: Optional[float] = None
        # Flight-recorder tap (repro.obs.flightrec): fault transitions on
        # this link become context records for drop forensics.  None by
        # default; every use below is guarded.
        self.recorder = None
        port_a.attach(self, port_b)
        port_b.attach(self, port_a)

    # ---------------------------------------------------------- degradation
    def set_loss(self, loss_rate: float, rng: Optional[random.Random] = None) -> None:
        """Set the Bernoulli corruption probability for delivered packets.

        ``rng`` supplies the per-link random stream (the fault injector
        seeds one deterministically per link); without one, a stream seeded
        from the link name keeps standalone use deterministic too.
        """
        if not 0.0 <= loss_rate <= 1.0:
            raise ValueError(f"loss rate must be in [0, 1], got {loss_rate}")
        self.loss_rate = loss_rate
        if rng is not None:
            self._loss_rng = rng
        elif self.loss_rate and self._loss_rng is None:
            self._loss_rng = random.Random(self.name)
        if self.recorder is not None:
            self.recorder.on_fault(self, "set-loss", loss_rate)

    def clear_loss(self) -> None:
        """Stop corrupting (the counters stand; the rng stream is kept)."""
        self.loss_rate = 0.0
        if self.recorder is not None:
            self.recorder.on_fault(self, "clear-loss", 0.0)

    def corrupt(self) -> bool:
        """One Bernoulli draw: is the packet reaching the far end corrupted?

        Callers guard on ``self.loss_rate`` being non-zero, so healthy
        links never consume a random draw.  The receiving port is the drop
        site (:func:`repro.net.port.drop`) and its ledger the count.
        """
        return self._loss_rng.random() < self.loss_rate

    @property
    def packets_corrupted(self) -> int:
        """Packets corrupted on this link, read from its ports' ledgers."""
        return sum(port.drops_by_reason.get(DROP_CORRUPTED, 0)
                   for port in (self.port_a, self.port_b))

    def set_down(self) -> None:
        """Fail the link; packets sent over it are dropped."""
        if self.up:
            self.up = False
            self.down_transitions += 1
            self.last_transition_time = self.port_a.sim.now
            if self.recorder is not None:
                self.recorder.on_fault(self, "set-down")

    def set_up(self) -> None:
        if not self.up:
            self.up = True
            self.up_transitions += 1
            self.last_transition_time = self.port_a.sim.now
            if self.recorder is not None:
                self.recorder.on_fault(self, "set-up")

    def counters(self) -> dict[str, int]:
        """This link's traffic and fault accounting (``link.<name>``)."""
        return {
            "total_packets": self.total_packets,
            "total_bytes": self.total_bytes,
            "packets_corrupted": self.packets_corrupted,
            "bytes_corrupted": sum(port.drop_bytes_by_reason.get(DROP_CORRUPTED, 0)
                                   for port in (self.port_a, self.port_b)),
            "down_transitions": self.down_transitions,
            "up_transitions": self.up_transitions,
        }

    def other_end(self, port: "Port") -> "Port":
        """The port at the opposite end of ``port``."""
        if port is self.port_a:
            return self.port_b
        if port is self.port_b:
            return self.port_a
        raise ValueError(f"port {port.name} is not an endpoint of link {self.name}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Link {self.name} {self.rate_bps/1e6:.0f}Mb/s {self.delay_s*1e6:.0f}us>"
