"""Low-overhead measurement with sketches (§2.5, Figure 5).

OpenSketch adds hash/filter/count hardware to switches; the TPP refactoring
keeps switches dumb and moves the sketching to end-hosts, which only need the
packet's routing context.  Every participating host stamps (a sample of) its
packets with::

    PUSH [Switch:ID]
    PUSH [PacketMetadata:OutputPort]

The receiving host hashes the header field of interest (here: the destination
IP, i.e. the destination host name) and sets one bit in a per-link bitmap for
every (switch, output port) pair the packet traversed.  The app's merged
summary ORs the hosts' bitmaps together — the bit-set operation is
commutative, so distribution over hosts is free — and the per-link distinct
count is estimated with the linear-probabilistic-counting formula
``b * ln(b / z)`` (Estan, Varghese, Fisk), where ``z`` is the number of zero
bits among ``b``.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from functools import partial

from repro.collect import SummaryBundle
from repro.core.compiler import CompiledTPP, compile_tpp
from repro.core.packet_format import TPP
from repro.endhost import Aggregator, PacketFilter
from repro.net import mbps
from repro.net.packet import Packet
from repro.session import ExperimentResult, Scenario

SKETCH_TPP_SOURCE = """
PUSH [Switch:ID]
PUSH [PacketMetadata:OutputPort]
"""

VALUES_PER_HOP = 2


def sketch_tpp(num_hops: int = 10, app_id: int = 0) -> CompiledTPP:
    """Compile the §2.5 routing-context TPP."""
    return compile_tpp(SKETCH_TPP_SOURCE, num_hops=num_hops, app_id=app_id)


def _hash_to_bit(element: str, bits: int, salt: int = 0) -> int:
    digest = hashlib.blake2b(f"{salt}:{element}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") % bits


class BitmapSketch:
    """A linear-counting bitmap sketch for distinct-element estimation."""

    def __init__(self, bits: int = 1024, salt: int = 0) -> None:
        if bits <= 0:
            raise ValueError("bitmap size must be positive")
        self.bits = bits
        self.salt = salt
        self.bitmap = bytearray(bits // 8 + (1 if bits % 8 else 0))

    def add(self, element: str) -> None:
        index = _hash_to_bit(element, self.bits, self.salt)
        self.bitmap[index // 8] |= 1 << (index % 8)

    def set_bits(self) -> int:
        return sum(bin(byte).count("1") for byte in self.bitmap)

    def zero_bits(self) -> int:
        return self.bits - self.set_bits()

    def estimate(self) -> float:
        """The linear-counting estimate ``b * ln(b / z)``."""
        zeros = self.zero_bits()
        if zeros == 0:
            # Saturated bitmap: the estimator diverges; report the coupon-
            # collector style upper bound instead of infinity.
            return float(self.bits * math.log(self.bits))
        return self.bits * math.log(self.bits / zeros)

    def merge(self, other: "BitmapSketch") -> None:
        """OR another bitmap into this one (the commutative aggregation)."""
        if other.bits != self.bits or other.salt != self.salt:
            raise ValueError("can only merge sketches with identical geometry")
        for i, byte in enumerate(other.bitmap):
            self.bitmap[i] |= byte

    def copy(self) -> "BitmapSketch":
        clone = BitmapSketch(self.bits, self.salt)
        clone.bitmap[:] = self.bitmap
        return clone

    def memory_bytes(self) -> int:
        return len(self.bitmap)

    def as_dict(self) -> dict:
        """Canonical content view (bitmap as hex), for byte-level
        comparison through ``repro.collect.summary_jsonable`` — the
        default object repr would embed a memory address."""
        return {"type": "bitmap-sketch", "bits": self.bits,
                "salt": self.salt, "bitmap": bytes(self.bitmap).hex()}


@dataclass(frozen=True)
class LinkKey:
    """Identifies one directed link: (switch id, output port)."""

    switch_id: int
    output_port: int


class SketchAggregator(Aggregator):
    """Per-host aggregator: one bitmap per traversed link, keyed by the TPP's context."""

    def __init__(self, host_name: str, bits: int = 1024,
                 key_field: str = "src") -> None:
        super().__init__(host_name)
        self.bits = bits
        self.key_field = key_field
        self.bitmaps: dict[LinkKey, BitmapSketch] = {}

    def on_tpp(self, tpp: TPP, packet: Packet) -> None:
        super().on_tpp(tpp, packet)
        element = getattr(packet, self.key_field, packet.src)
        for hop in tpp.words_by_hop(VALUES_PER_HOP)[:tpp.hop_number]:
            if len(hop) < VALUES_PER_HOP:
                continue
            key = LinkKey(switch_id=hop[0], output_port=hop[1])
            sketch = self.bitmaps.setdefault(key, BitmapSketch(self.bits))
            sketch.add(element)

    def summarize(self) -> SummaryBundle:
        """One mergeable part per traversed link (bitmap OR commutes, so
        the collector tier shards per-link sketches freely), snapshotted:
        collectors retain what they are handed."""
        return SummaryBundle({key: sketch.copy()
                              for key, sketch in self.bitmaps.items()})

    def memory_bytes(self) -> int:
        return sum(sketch.memory_bytes() for sketch in self.bitmaps.values())


@dataclass
class SketchExperimentResult:
    """A distributed distinct-count run: the merged per-link bitmaps plus
    accounting."""

    bitmaps: dict[LinkKey, BitmapSketch]
    estimates: dict[LinkKey, float]
    packets_instrumented: int
    host_memory_bytes: dict[str, int]
    tpp_overhead_bytes_per_packet: int

    def estimate(self, key: LinkKey) -> float:
        return self.estimates.get(key, 0.0)

    def total_memory_bytes(self) -> int:
        """Bytes of merged bitmap state, summed over links."""
        return sum(sketch.memory_bytes() for sketch in self.bitmaps.values())


def _to_sketch_result(result: "ExperimentResult",
                      num_hops: int) -> SketchExperimentResult:
    """Result mapper for :func:`sketch_scenario` (module-level for pickling):
    the per-link bitmaps are the app's merged summary (OR across hosts)."""
    merged = result.merged_summary("opensketch-distinct-count")
    bitmaps = dict(merged.items()) if merged is not None else {}
    aggregators = result.aggregators("opensketch-distinct-count")
    return SketchExperimentResult(
        bitmaps=bitmaps,
        estimates={key: sketch.estimate() for key, sketch in bitmaps.items()},
        packets_instrumented=result.tpps_attached,
        host_memory_bytes={host: aggregator.memory_bytes()
                           for host, aggregator in aggregators.items()},
        tpp_overhead_bytes_per_packet=sketch_tpp(num_hops).tpp.wire_length())


def sketch_scenario(num_leaves: int = 4, num_spines: int = 2, hosts_per_leaf: int = 4,
                    link_rate_bps: float = mbps(50), bits: int = 1024,
                    key_field: str = "src", sample_frequency: int = 1,
                    num_hops: int = 10, seed: int = 1) -> Scenario:
    """The §2.5 distributed sketch experiment as a :class:`Scenario`.

    All-to-all single packets over a leaf-spine fabric; every host sketches
    the (switch, port) pairs its packets traversed, and the result ORs the
    per-host bitmaps.  ``.run(run_until_idle=True)`` returns a
    :class:`SketchExperimentResult`.  Every hook is a module-level
    function (or a partial over one), so ``sketch_scenario(...).to_spec()``
    is sweepable.
    """
    return (Scenario("leaf-spine", seed=seed, name="sketches",
                     num_leaves=num_leaves, num_spines=num_spines,
                     hosts_per_leaf=hosts_per_leaf, link_rate_bps=link_rate_bps)
            .tpp("opensketch-distinct-count", SKETCH_TPP_SOURCE, num_hops=num_hops,
                 filter=PacketFilter(protocol="udp"),
                 sample_frequency=sample_frequency,
                 aggregator=partial(SketchAggregator, bits=bits,
                                    key_field=key_field))
            .workload("all-to-all-once", payload_bytes=300, dport=9999)
            .map_result(partial(_to_sketch_result, num_hops=num_hops)))


def sketch_memory_projection(num_links: int = 65_536, bits_per_link: int = 1024,
                             num_servers: int = 65_536) -> dict[str, float]:
    """The §2.5 back-of-envelope: memory per server for a k=64 fat tree.

    With 1 kbit of bitmap per link and 65 536 core links, each server holds
    about 8 MB of sketch state.
    """
    per_link_bytes = bits_per_link / 8
    total_bytes = num_links * per_link_bytes
    return {
        "per_link_bytes": per_link_bytes,
        "total_bytes_per_server": total_bytes,
        "total_megabytes_per_server": total_bytes / 1e6,
        "num_links": float(num_links),
        "num_servers": float(num_servers),
    }
