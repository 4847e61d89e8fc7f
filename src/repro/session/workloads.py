"""Built-in registered workloads for the :class:`~repro.session.Scenario` API.

Each factory has the registry signature ``factory(experiment, **kwargs)``:
it receives the live :class:`~repro.session.Experiment` (simulator, network,
stacks, master rng) and returns a handle that lands in
``result.workloads[name]``.  Factories that consume randomness draw their
seed from the experiment's master rng unless one is passed explicitly, so a
scenario's single seed makes the whole run reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro import check_count
from repro.net.packet import Packet, udp_packet

from .registry import register_workload

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.flows import MessageWorkload, RateLimitedFlow

__all__ = ["BurstTraffic", "all_to_all_once", "cross_pod_bursts", "messages",
           "paced_flows"]


def _host_objects(experiment, hosts: Optional[list[str]]):
    names = hosts if hosts is not None else experiment.network.hosts
    return [experiment.network.hosts[name] for name in names]


def _default_link_rate(experiment) -> float:
    """The access-link rate of the first host (builders provision uniformly)."""
    return next(iter(experiment.network.hosts.values())).uplink_port.rate_bps


@register_workload("messages")
def messages(experiment, *, link_rate_bps: Optional[float] = None,
             offered_load: float = 0.3, message_bytes: int = 10_000,
             packet_payload_bytes: int = 1000, dport: int = 20000,
             hosts: Optional[list[str]] = None, seed: Optional[int] = None,
             start_time: float = 0.0,
             stop_time: Optional[float] = None) -> MessageWorkload:
    """Figure 1's all-to-all short-message workload over the topology's hosts.

    ``stop_time`` defaults to the scenario's run duration.
    """
    from repro.net.flows import MessageWorkload

    if link_rate_bps is None:
        link_rate_bps = _default_link_rate(experiment)
    if seed is None:
        seed = experiment.derive_seed()
    if stop_time is None:
        stop_time = experiment.duration_s
    return MessageWorkload(experiment.sim, _host_objects(experiment, hosts),
                           link_rate_bps=link_rate_bps, offered_load=offered_load,
                           message_bytes=message_bytes,
                           packet_payload_bytes=packet_payload_bytes, dport=dport,
                           seed=seed, start_time=start_time, stop_time=stop_time)


@register_workload("paced-flows")
def paced_flows(experiment, *, flows: list[dict],
                stop_time: Optional[float] = None) -> dict[str, RateLimitedFlow]:
    """A set of rate-limited UDP flows from ``(src, dst, rate_bps, ...)`` specs.

    Each spec dict needs ``src``, ``dst``, ``rate_bps``; optional keys
    (``dport``, ``vlan``, ``packet_payload_bytes``, ``start_time``, ``name``)
    pass through to :class:`RateLimitedFlow`.  Returns name -> flow.
    """
    from repro.net.flows import RateLimitedFlow

    handles: dict[str, RateLimitedFlow] = {}
    for index, spec in enumerate(flows):
        spec = dict(spec)
        name = spec.pop("name", f"flow{index}")
        src = experiment.network.hosts[spec.pop("src")]
        dst = spec.pop("dst")
        if stop_time is not None:
            spec.setdefault("stop_time", stop_time)
        handles[name] = RateLimitedFlow(experiment.sim, src, dst, **spec)
    return handles


@register_workload("all-to-all-once")
def all_to_all_once(experiment, *, payload_bytes: int = 300, dport: int = 9999,
                    hosts: Optional[list[str]] = None) -> int:
    """Every host sends one UDP packet to every other host at t=0.

    The sketch experiments use this to give every fabric link a known set of
    traversing sources.  Returns the number of packets injected.
    """
    host_objs = _host_objects(experiment, hosts)
    sent = 0
    for src in host_objs:
        for dst in host_objs:
            if src is not dst:
                src.send(udp_packet(src.name, dst.name, payload_bytes, dport=dport))
                sent += 1
    return sent


@dataclass
class BurstTraffic:
    """Handle returned by the ``cross-pod-bursts`` workload."""

    burst_packets: int
    burst_interval_s: float
    payload_bytes: int
    bursts_injected: int = 0
    packets_injected: int = 0
    processes: list = field(default_factory=list)

    def stop(self) -> None:
        for process in self.processes:
            process.stop()


@register_workload("cross-pod-bursts")
def cross_pod_bursts(experiment, *, burst_packets: int = 8,
                     burst_interval_s: float = 100e-6, payload_bytes: int = 700,
                     dport: int = 2000) -> BurstTraffic:
    """Periodic cross-pod UDP bursts from every host to a distant partner.

    The event-throughput benchmark's workload: host *i* bursts to host
    ``i + n/2 (mod n)`` every ``burst_interval_s``, through its shim's
    ``send_burst`` when the scenario built end-host stacks.
    """
    check_count("burst_packets", burst_packets)
    check_count("payload_bytes", payload_bytes)
    hosts = _host_objects(experiment, None)
    n = len(hosts)
    if n < 2:
        raise ValueError("cross-pod-bursts needs at least two hosts")
    handle = BurstTraffic(burst_packets=burst_packets,
                          burst_interval_s=burst_interval_s,
                          payload_bytes=payload_bytes)
    for i, host in enumerate(hosts):
        partner = hosts[(i + n // 2) % n].name
        shim = experiment.stacks[host.name].shim if experiment.stacks else None

        def burst(host=host, shim=shim, partner=partner) -> None:
            packets: list[Packet] = [
                udp_packet(host.name, partner, handle.payload_bytes, dport=dport)
                for _ in range(handle.burst_packets)]
            if shim is not None:
                shim.send_burst(packets)
            else:
                host.send_many(packets)
            handle.bursts_injected += 1
            handle.packets_injected += len(packets)

        handle.processes.append(
            experiment.sim.schedule_periodic(burst_interval_s, burst))
    return handle
