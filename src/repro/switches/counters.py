"""Statistics blocks and rate/utilisation estimators kept by switches.

The appendix of the paper defines a "stats block" as four counters: packets,
bytes, packet rate and byte rate.  Rates (and hence link utilisation) are
refreshed periodically — the paper's prototype updates link utilisation every
millisecond (§2.2), and end-hosts that need faster signals read the raw byte
counters instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class StatsBlock:
    """Packets/bytes counters plus periodically-computed rates."""

    packets: int = 0
    bytes: int = 0
    packet_rate: float = 0.0     # packets per second, from the last update window
    byte_rate: float = 0.0       # bytes per second, from the last update window
    _last_packets: int = field(default=0, repr=False)
    _last_bytes: int = field(default=0, repr=False)

    def count(self, size_bytes: int, packets: int = 1) -> None:
        """Record ``packets`` totalling ``size_bytes``."""
        self.packets += packets
        self.bytes += size_bytes

    def update_rates(self, interval_s: float, ewma_alpha: float = 0.0) -> None:
        """Recompute rates over the window since the previous update.

        ``ewma_alpha`` of zero keeps the plain windowed rate; a value in
        (0, 1] smooths it (rate = alpha * window_rate + (1-alpha) * old_rate).
        """
        if interval_s <= 0:
            raise ValueError("interval must be positive")
        window_packets = self.packets - self._last_packets
        window_bytes = self.bytes - self._last_bytes
        window_packet_rate = window_packets / interval_s
        window_byte_rate = window_bytes / interval_s
        if ewma_alpha <= 0:
            self.packet_rate = window_packet_rate
            self.byte_rate = window_byte_rate
        else:
            self.packet_rate = ewma_alpha * window_packet_rate + (1 - ewma_alpha) * self.packet_rate
            self.byte_rate = ewma_alpha * window_byte_rate + (1 - ewma_alpha) * self.byte_rate
        self._last_packets = self.packets
        self._last_bytes = self.bytes


#: Utilisation values exposed through the memory map are integers in basis
#: points so they fit in a 16-bit packet-memory word: 10000 == 100 % utilised.
UTILIZATION_SCALE = 10000


def utilization_basis_points(byte_rate: float, capacity_bps: float) -> int:
    """Convert a byte rate into link utilisation in basis points (clamped)."""
    if capacity_bps <= 0:
        return 0
    fraction = (byte_rate * 8.0) / capacity_bps
    return min(UTILIZATION_SCALE, max(0, int(round(fraction * UTILIZATION_SCALE))))


@dataclass
class PortStats:
    """The per-port statistics the memory map exposes under ``Link$i:``."""

    transmit: StatsBlock = field(default_factory=StatsBlock)
    receive: StatsBlock = field(default_factory=StatsBlock)
    tx_utilization_bp: int = 0
    rx_utilization_bp: int = 0

    def update(self, interval_s: float, capacity_bps: float, ewma_alpha: float = 0.0) -> None:
        """Refresh rates and utilisation (called every utilisation interval)."""
        self.transmit.update_rates(interval_s, ewma_alpha)
        self.receive.update_rates(interval_s, ewma_alpha)
        self.tx_utilization_bp = utilization_basis_points(self.transmit.byte_rate, capacity_bps)
        self.rx_utilization_bp = utilization_basis_points(self.receive.byte_rate, capacity_bps)
