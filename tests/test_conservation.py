"""Packet conservation at every step of a faulted dataplane.

A hypothesis state machine drives a small-queue dumbbell through UDP
sends (some to an unroutable destination), link and port failures and
repairs, corruption, and time advances.  After every step it checks the
drop ledgers (``drops_by_reason`` / ``drop_bytes_by_reason`` on every port
and switch) against two things they do not compute:

* **the packets themselves** — the machine keeps every packet it sent, so
  the ledger totals must equal the number and bytes of packets stamped
  ``dropped``, and ``delivered + dropped + in_flight == sent``, where
  ``in_flight`` is read off the ports' queues, transmitters and the
  tx/rx gap on each wire;
* **an unfiltered flight recorder** — its per-category drop counts must
  equal the ledgers summed by category, pipeline drops included.

A drain (run until the simulator is idle) must leave nothing in flight.
``REPRO_HYPOTHESIS_PROFILE=quick`` shrinks the sweep for CI's docs job.
"""

import os

from hypothesis import settings, strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 invariant, rule)

from repro.net import mbps
from repro.net.packet import udp_packet
from repro.net.port import DROP_CORRUPTED, DROP_PEER_DOWN
from repro.net.sim import Simulator
from repro.net.topology import build_dumbbell
from repro.obs import FlightRecorder

HOSTS = ["h0", "h1", "h2", "h3"]
QUICK = os.environ.get("REPRO_HYPOTHESIS_PROFILE") == "quick"


def _in_flight(network) -> int:
    """Packets queued, serialising or propagating, from port state alone."""
    total = 0
    for node in network.nodes.values():
        for port in node.ports:
            peer = port.peer
            # Serialised by ``port`` but neither received, corrupted at the
            # peer nor dropped at a downed peer: still on the wire.
            propagating = (port.tx_packets - peer.rx_packets
                           - port.drops_by_reason.get(DROP_PEER_DOWN, 0)
                           - peer.drops_by_reason.get(DROP_CORRUPTED, 0))
            total += port.occupancy_packets + port.transmitting + propagating
    return total


class DumbbellLedger(RuleBasedStateMachine):
    @initialize()
    def build(self):
        self.sim = Simulator()
        self.network = build_dumbbell(self.sim, hosts_per_side=2,
                                      link_rate_bps=mbps(10), link_delay_s=1e-4,
                                      queue_capacity_packets=2)
        self.network.stop_switch_processes()
        self.recorder = FlightRecorder().attach(self.network)
        self.ports = [port for node in self.network.nodes.values()
                      for port in node.ports]
        self.sites = self.ports + list(self.network.switches.values())
        self.sent = []

    @rule(src=st.sampled_from(HOSTS),
          dst=st.sampled_from(HOSTS + ["nowhere"]),
          payloads=st.lists(st.integers(10, 1400), min_size=1, max_size=6))
    def send(self, src, dst, payloads):
        for payload in payloads:
            packet = udp_packet(src, dst, payload)
            self.sent.append(packet)
            self.network.hosts[src].send(packet)

    def _link(self, data):
        return data.draw(st.sampled_from(self.network.links), label="link")

    @rule(data=st.data(), up=st.booleans())
    def link_state(self, data, up):
        link = self._link(data)
        if up:
            link.set_up()
        else:
            link.set_down()

    @rule(data=st.data(), up=st.booleans())
    def port_state(self, data, up):
        data.draw(st.sampled_from(self.ports), label="port").up = up

    @rule(data=st.data(), loss_rate=st.sampled_from([0.0, 0.3, 1.0]))
    def set_loss(self, data, loss_rate):
        self._link(data).set_loss(loss_rate)

    @rule(data=st.data())
    def clear_loss(self, data):
        self._link(data).clear_loss()

    @rule(dt=st.sampled_from([1e-5, 1e-4, 1e-3, 5e-3]))
    def advance(self, dt):
        self.sim.run(until=self.sim.now + dt)

    @rule()
    def drain(self):
        self.sim.run_until_idle()
        assert _in_flight(self.network) == 0

    @invariant()
    def ledger_matches_the_packets(self):
        dropped = [p for p in self.sent if p.dropped]
        assert sum(sum(site.drops_by_reason.values())
                   for site in self.sites) == len(dropped)
        assert sum(sum(site.drop_bytes_by_reason.values())
                   for site in self.sites) == sum(p.size for p in dropped)

    @invariant()
    def every_packet_is_delivered_dropped_or_in_flight(self):
        delivered = [p for p in self.sent if p.delivered_at is not None]
        dropped = sum(p.dropped for p in self.sent)
        assert not any(p.dropped for p in delivered)
        assert len(delivered) == sum(host.packets_received
                                     for host in self.network.hosts.values())
        assert len(delivered) + dropped + _in_flight(self.network) \
            == len(self.sent)

    @invariant()
    def recorder_agrees_with_the_ledger(self):
        by_category = {}
        for site in self.sites:
            for category, count in site.drops_by_reason.items():
                by_category[category] = by_category.get(category, 0) + count
        assert self.recorder.drop_counts == by_category


TestDumbbellLedger = DumbbellLedger.TestCase
TestDumbbellLedger.settings = settings(max_examples=15 if QUICK else 60,
                                       stateful_step_count=30, deadline=None)
