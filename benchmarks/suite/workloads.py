"""The six frozen workloads of the benchmark suite.

Each workload turns a seed into a declared scenario (or sweep plan) through
``repro``'s public API only; the simulator receives the generated scenario,
never the seed's meaning.  On the fat-tree workloads the seed drives ECMP
flow placement (``seed_ecmp=True``), on ``sweep_seeds`` it draws the base
seed and the replicate seeds of the message workload.

Simulated durations are frozen constants: event totals depend only on
(workload, seed) and so compare across commits.  They are roughly half of
the reference durations in the issue that defined this suite, because one
benchmark invocation (several fresh-process repetitions plus a check pass)
has to fit the driver's ~25 s share of its total-time cap.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from repro.apps.microburst import MICROBURST_TPP_SOURCE, MicroburstAggregator
from repro.core import addressing
from repro.core.compiler import compile_tpp
from repro.endhost import PacketFilter
from repro.net import gbps, mbps
from repro.obs import RecorderSpec
from repro.session import Scenario
from repro.sweep import SweepSpec

READ_TPP = "PUSH [Switch:SwitchID]\nPUSH [Queue:QueueOccupancy]"

#: CEXEC-prefixed, conditional, writes switch memory: not trace-eligible, so
#: it runs the plan-cache interpreter path.  Hop memory is zero-filled, so
#: the CEXEC mask/value pair is (0, 0) and the condition holds at every hop.
WRITE_TPP = """CEXEC [Switch:SwitchID],[Packet:Hop[0]]
LOAD [Link:AppSpecific_0],[Packet:Hop[2]]
CSTORE [Link:AppSpecific_0],[Packet:Hop[2]],[Packet:Hop[3]]
STORE [Link:AppSpecific_1],[Packet:Hop[3]]"""

UDP = PacketFilter(protocol="udp")

#: Workers of the ``sweep_seeds`` pool: the reference box has two cores.
SWEEP_WORKERS = 2


def _fat_tree(seed: int, name: str) -> Scenario:
    """k=4 fat-tree, every host bursting 8x700 B per 100 us to a cross-pod
    partner (~0.5 Gb/s per 1 Gb/s access link: loss-free under any ECMP
    placement the seed draws)."""
    return (Scenario("fat-tree", seed=seed, name=name, seed_ecmp=True,
                     k=4, link_rate_bps=gbps(1), link_delay_s=5e-6)
            .workload("cross-pod-bursts", burst_packets=8,
                      burst_interval_s=100e-6, payload_bytes=700))


def forward_bare(seed: int) -> Scenario:
    return _fat_tree(seed, "forward_bare")


def probe_read(seed: int) -> Scenario:
    return _fat_tree(seed, "probe_read").tpp("probe", READ_TPP, num_hops=8,
                                             filter=UDP)


def install_write_probe(experiment) -> None:
    """Admit the write program through the real grant check, on every host."""
    control_plane = experiment.control_plane
    app = control_plane.register_application("probe-write")
    control_plane.allocate_link_register(app)
    control_plane.allocate_link_register(app)
    switch_id = addressing.resolve("[Switch:SwitchID]")
    control_plane.grant(app, "read", switch_id, switch_id)
    template = compile_tpp(WRITE_TPP, num_hops=8)
    for name in sorted(experiment.stacks):
        experiment.stacks[name].agent.add_tpp(app.app_id, UDP,
                                              template.clone_tpp())


def probe_write(seed: int) -> Scenario:
    return _fat_tree(seed, "probe_write").setup(install_write_probe)


def probe_recorded(seed: int) -> Scenario:
    # Same name as probe_read on purpose: recording is pure observation, so
    # the canonical result must be byte-identical at equal duration.
    return probe_read(seed).flight_recorder(
        RecorderSpec(capacity=4096, sample_every=1))


def monitor_collect(seed: int) -> Scenario:
    return (_fat_tree(seed, "monitor_collect")
            .tpp("monitor", MICROBURST_TPP_SOURCE, num_hops=6, filter=UDP,
                 aggregator=MicroburstAggregator)
            .collector(shards=4, epoch_s=5e-4, tree=2, delta=True))


def sweep_seeds(seed: int) -> SweepSpec:
    rng = random.Random(seed)
    base = (Scenario("dumbbell", seed=rng.getrandbits(31), name="sweep_seeds",
                     hosts_per_side=3, link_rate_bps=mbps(50))
            .tpp("monitor", MICROBURST_TPP_SOURCE, num_hops=6, filter=UDP,
                 aggregator=MicroburstAggregator)
            .workload("messages", offered_load=0.3, message_bytes=4000))
    return (SweepSpec(base)
            .axis("workload.messages.offered_load", (0.2, 0.3, 0.4))
            .replicate(sorted(rng.sample(range(1, 1 << 31), 4))))


@dataclass(frozen=True)
class Workload:
    name: str
    duration_s: float                  # frozen simulated seconds
    build: Callable[[int], object]     # seed -> Scenario | SweepSpec


WORKLOADS = {w.name: w for w in (
    Workload("probe_read", 8e-3, probe_read),
    Workload("forward_bare", 15e-3, forward_bare),
    Workload("probe_write", 5e-3, probe_write),
    Workload("probe_recorded", 5e-3, probe_recorded),
    Workload("monitor_collect", 1e-3, monitor_collect),
    Workload("sweep_seeds", 0.1, sweep_seeds),
)}
