"""Isolated layer kernels (``run.py --layers``): each layer alone, the others
absent, as a cross-check for the in-situ span self times of the traced pass.

Every kernel repeats its body until a sample has measured at least
:data:`MIN_SAMPLE_S` of it, and reports :data:`SAMPLES` samples; ``run.py``
turns them into a median and quartiles.
"""

from __future__ import annotations

import json
from time import perf_counter

from repro.collect import CollectPlane, CounterSummary, SummaryBundle
from repro.core.compiler import compile_tpp
from repro.core.packet_format import TPP
from repro.core.tcpu import TCPU, PacketContext
from repro.net import Simulator

from workloads import READ_TPP, WRITE_TPP

MIN_SAMPLE_S = 1.0
SAMPLES = 5

HEAP_EVENTS = 200_000
PATH_HOPS = 5                       # a cross-pod fat-tree path
TPP_BATCH = 2_000
COLLECT_HOSTS, COLLECT_KEYS, COLLECT_ROUNDS = 32, 16, 8


def _noop() -> None:
    pass


def heap_kernel() -> tuple[float, int]:
    """Schedule then run 200k no-op events on a bare Simulator."""
    sim = Simulator()
    start = perf_counter()
    for index in range(HEAP_EVENTS):
        sim.schedule(index * 1e-9, _noop)
    sim.run()
    return perf_counter() - start, HEAP_EVENTS


class DictMemory:
    """A MemoryInterface where every address exists and is writable."""

    def __init__(self) -> None:
        self.words: dict[int, int] = {}

    def read(self, address: int, context: PacketContext):
        return self.words.get(address, 0)

    def write(self, address: int, value: int, context: PacketContext) -> bool:
        self.words[address] = value
        return True


def tcpu_kernel(source: str):
    """``execute_program`` along a 5-hop path; clones are made off the clock."""
    template = compile_tpp(source, num_hops=8)
    tcpu, memory, context = TCPU(), DictMemory(), PacketContext()

    def kernel() -> tuple[float, int]:
        batch = [template.clone_tpp() for _ in range(TPP_BATCH)]
        before = tcpu.instructions_executed
        start = perf_counter()
        for tpp in batch:
            for _ in range(PATH_HOPS):
                tcpu.execute_program(tpp, memory, context)
                tpp.advance_hop()
        return perf_counter() - start, tcpu.instructions_executed - before

    return kernel


def codec_kernel() -> tuple[float, int]:
    """``TPP.encode`` / ``TPP.decode`` round trip of the read probe."""
    tpp = compile_tpp(READ_TPP, num_hops=8).tpp
    start = perf_counter()
    for _ in range(TPP_BATCH):
        if TPP.decode(tpp.encode()) != tpp:
            raise AssertionError("codec round trip changed the TPP")
    return perf_counter() - start, TPP_BATCH


def collect_kernel() -> tuple[float, int]:
    """A standalone 4-shard delta plane fed synthetic cumulative bundles."""
    plane = CollectPlane(4, delta=True)
    door = plane.front_door("kernel")
    hosts = [f"h{index:02d}" for index in range(COLLECT_HOSTS)]
    start = perf_counter()
    for round_index in range(1, COLLECT_ROUNDS + 1):
        for host in hosts:
            door.submit(host, SummaryBundle({
                f"k{key:02d}": CounterSummary({"samples": round_index * (key + 1)})
                for key in range(COLLECT_KEYS)}), time=float(round_index))
        plane.flush_all()
    view = plane.merge()
    wall = perf_counter() - start
    expected = COLLECT_HOSTS * COLLECT_ROUNDS * COLLECT_KEYS
    if view[("kernel", "k15")]["samples"] != expected or plane.stats().parts_dropped:
        raise AssertionError("collect kernel merged view is wrong")
    return wall, COLLECT_HOSTS * COLLECT_KEYS * COLLECT_ROUNDS


def sample(kernel, per_second: bool) -> list[float]:
    """``SAMPLES`` samples of >= MIN_SAMPLE_S: ns per unit, or units per s."""
    values = []
    for _ in range(SAMPLES):
        wall, units = 0.0, 0
        while wall < MIN_SAMPLE_S:
            w, u = kernel()
            wall, units = wall + w, units + u
        values.append(units / wall if per_second else wall * 1e9 / units)
    return values


def main() -> None:
    kernels = [
        ("net.iso_heap_ns_per_event", "ns", heap_kernel),
        ("core.iso_ns_per_instruction_read", "ns", tcpu_kernel(READ_TPP)),
        ("core.iso_ns_per_instruction_write", "ns", tcpu_kernel(WRITE_TPP)),
        ("core.iso_codec_ns_per_tpp", "ns", codec_kernel),
        ("collect.iso_parts_per_s", "1/s", collect_kernel),
    ]
    print(json.dumps({name: {"unit": unit,
                             "samples": sample(kernel, unit == "1/s")}
                      for name, unit, kernel in kernels}))


if __name__ == "__main__":
    main()
