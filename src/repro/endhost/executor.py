"""The TPP Executor library (§4.4).

The executor abstracts the common ways applications run TPPs:

* **reliable execution** — standalone probes are retried when no echo comes
  back within a timeout (TPPs are ordinary packets and can be dropped);
* **targeted execution** — a ``CEXEC`` on ``[Switch:SwitchID]`` makes the TPP
  execute only on one chosen switch;
* **reflective execution** — a probe marked for reflection is turned around
  by the target switch itself, halving the measurement latency;
* **scatter-gather** — run a TPP on a set of switches and collect all results;
* **large TPPs** — statistic lists that don't fit the five-instruction budget
  are split across multiple TPPs automatically.

All completion notification is callback-based because the library runs inside
the discrete-event simulator.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from repro.core import addressing
from repro.core.compiler import collector_tpp
from repro.core.isa import Instruction, MAX_INSTRUCTIONS, Opcode
from repro.core.packet_format import AddressingMode, TPP, make_tpp
from repro.net.packet import Packet, tpp_probe_packet

CompletionCallback = Callable[[Optional[TPP]], None]

#: Mask used by targeted execution: match the full 16-bit switch id.
FULL_MASK = 0xFFFF


@dataclass
class PendingRequest:
    """Book-keeping for one in-flight probe."""

    request_id: int
    dst: str
    template: TPP
    on_complete: CompletionCallback
    retries_left: int
    timeout_s: float
    reflect_at: Optional[int] = None
    timeout_event: object = None
    attempts: int = 0


@dataclass
class ExecutorStats:
    """Counters exposed for tests and benchmarks."""

    probes_sent: int = 0
    retries: int = 0
    completions: int = 0
    failures: int = 0


class TPPExecutor:
    """Reliable/targeted/scatter-gather execution of TPPs from one host."""

    def __init__(self, stack) -> None:
        # ``stack`` is an EndHostStack; typed loosely to avoid a circular import.
        self.stack = stack
        self.sim = stack.host.sim
        self.stats = ExecutorStats()
        self._pending: dict[int, PendingRequest] = {}
        self._request_ids = itertools.count(1)
        stack.shim.bind_application(stack.executor_app_id, on_tpp=self._on_tpp_result)

    # ------------------------------------------------------------- reliable
    def execute(self, tpp: TPP, dst: str, on_complete: CompletionCallback,
                retries: int = 3, timeout_s: float = 50e-3,
                reflect_at: Optional[int] = None) -> int:
        """Send ``tpp`` as a standalone probe to ``dst`` and await the echo.

        ``on_complete`` receives the executed TPP, or ``None`` when every
        retry timed out.  ``reflect_at`` asks the named switch (by switch id)
        to turn the probe around instead of the destination host (§4.4's
        reflective pattern).
        """
        request = self._register(tpp, dst, on_complete, retries, timeout_s,
                                 reflect_at=reflect_at)
        self._send_probe(request)
        return request.request_id

    def _register(self, tpp: TPP, dst: str, on_complete: CompletionCallback,
                  retries: int, timeout_s: float,
                  reflect_at: Optional[int] = None) -> PendingRequest:
        request = PendingRequest(request_id=next(self._request_ids), dst=dst,
                                 template=tpp, on_complete=on_complete,
                                 retries_left=retries, timeout_s=timeout_s,
                                 reflect_at=reflect_at)
        self._pending[request.request_id] = request
        return request

    def _build_probe(self, request: PendingRequest) -> Packet:
        probe_tpp = request.template.clone()
        probe_tpp.app_id = self.stack.executor_app_id
        probe = tpp_probe_packet(self.stack.host.name, request.dst, probe_tpp,
                                 created_at=self.sim.now)
        probe.metadata["request_id"] = request.request_id
        if request.reflect_at is not None:
            probe.metadata["tpp_reflect_switch"] = request.reflect_at
        request.attempts += 1
        self.stats.probes_sent += 1
        return probe

    def _send_probe(self, request: PendingRequest) -> None:
        probe = self._build_probe(request)
        request.timeout_event = self.sim.schedule(request.timeout_s, self._on_timeout,
                                                  request.request_id)
        self.stack.host.send(probe)

    def _send_probes(self, requests: Sequence[PendingRequest]) -> None:
        """Dispatch several probes as one burst: every retry timer is armed
        before the first probe leaves, then the probes go out together."""
        if not requests:
            return
        probes = [self._build_probe(request) for request in requests]
        for request in requests:
            request.timeout_event = self.sim.schedule(
                request.timeout_s, self._on_timeout, request.request_id)
        self.stack.host.send_many(probes)

    def _on_timeout(self, request_id: int) -> None:
        request = self._pending.get(request_id)
        if request is None:
            return
        if request.retries_left > 0:
            request.retries_left -= 1
            self.stats.retries += 1
            self._send_probe(request)
            return
        del self._pending[request_id]
        self.stats.failures += 1
        request.on_complete(None)

    def _on_tpp_result(self, tpp: TPP, packet: Packet) -> None:
        request_id = None
        if isinstance(packet.payload, dict):
            request_id = packet.payload.get("request_id")
        if request_id is None:
            request_id = packet.metadata.get("request_id")
        request = self._pending.pop(request_id, None) if request_id is not None else None
        if request is None:
            return
        if request.timeout_event is not None:
            request.timeout_event.cancel()
        self.stats.completions += 1
        request.on_complete(tpp)

    # -------------------------------------------------------------- targeted
    @staticmethod
    def build_targeted_tpp(statistics: Sequence[str], switch_id: int,
                           num_hops: int = 10, app_id: int = 0,
                           word_bytes: int = 2) -> TPP:
        """A hop-addressed TPP that only executes on the switch with ``switch_id``.

        The program is ``CEXEC [Switch:SwitchID], [Packet:Hop[0]]`` (mask at
        word 0, value at word 1 of each hop's slice) followed by LOADs of the
        requested statistics into words 2, 3, ….
        """
        if len(statistics) + 1 > MAX_INSTRUCTIONS:
            raise ValueError(
                f"targeted TPPs fit at most {MAX_INSTRUCTIONS - 1} statistics; "
                "use scatter_gather/split for more")
        instructions = [Instruction(Opcode.CEXEC,
                                    address=addressing.resolve("[Switch:SwitchID]"),
                                    packet_offset=0)]
        for index, statistic in enumerate(statistics):
            instructions.append(Instruction(Opcode.LOAD,
                                            address=addressing.resolve(statistic),
                                            packet_offset=2 + index))
        values_per_hop = 2 + len(statistics)
        tpp = make_tpp(instructions, num_hops=num_hops, mode=AddressingMode.HOP,
                       word_bytes=word_bytes, app_id=app_id,
                       values_per_hop=values_per_hop)
        # Every hop's slice carries the CEXEC operands (mask, expected value).
        for hop in range(num_hops):
            tpp.write_hop_word(0, FULL_MASK, hop=hop)
            tpp.write_hop_word(1, switch_id, hop=hop)
        return tpp

    def execute_targeted(self, statistics: Sequence[str], switch_id: int, dst: str,
                         on_complete: CompletionCallback, retries: int = 3,
                         timeout_s: float = 50e-3, reflect: bool = False) -> int:
        """Run a statistics-collection TPP on exactly one switch."""
        tpp = self.build_targeted_tpp(statistics, switch_id,
                                      app_id=self.stack.executor_app_id)
        return self.execute(tpp, dst, on_complete, retries=retries, timeout_s=timeout_s,
                            reflect_at=switch_id if reflect else None)

    # --------------------------------------------------------- scatter-gather
    def scatter_gather(self, statistics: Sequence[str], targets: dict[int, str],
                       on_complete: Callable[[dict[int, Optional[TPP]]], None],
                       retries: int = 3, timeout_s: float = 50e-3) -> None:
        """Execute the same statistics TPP on many switches; gather all results.

        ``targets`` maps switch id -> a destination host whose path traverses
        that switch.  ``on_complete`` receives {switch id: executed TPP or
        None (failed after retries)} once every target has reported.
        """
        results: dict[int, Optional[TPP]] = {}
        expected = len(targets)
        if expected == 0:
            on_complete({})
            return

        def _collect(switch_id: int, tpp: Optional[TPP]) -> None:
            results[switch_id] = tpp
            if len(results) == expected:
                on_complete(results)

        requests = []
        for switch_id, dst in targets.items():
            tpp = self.build_targeted_tpp(statistics, switch_id,
                                          app_id=self.stack.executor_app_id)
            requests.append(self._register(
                tpp, dst, lambda tpp, sid=switch_id: _collect(sid, tpp),
                retries=retries, timeout_s=timeout_s))
        self._send_probes(requests)

    # --------------------------------------------------------------- large TPPs
    @staticmethod
    def split_statistics(statistics: Iterable[str],
                         max_instructions: int = MAX_INSTRUCTIONS) -> list[list[str]]:
        """Split a statistics list into chunks that fit one TPP each."""
        stats_list = list(statistics)
        if max_instructions < 1:
            raise ValueError("max_instructions must be at least 1")
        return [stats_list[i:i + max_instructions]
                for i in range(0, len(stats_list), max_instructions)]

    def execute_split(self, statistics: Sequence[str], dst: str,
                      on_complete: Callable[[list[Optional[TPP]]], None],
                      num_hops: int = 10, retries: int = 3,
                      timeout_s: float = 50e-3) -> None:
        """Collect an arbitrarily long statistics list using multiple TPPs."""
        chunks = self.split_statistics(statistics)
        results: list[Optional[TPP]] = [None] * len(chunks)
        remaining = len(chunks)

        def _collect(index: int, tpp: Optional[TPP]) -> None:
            nonlocal remaining
            results[index] = tpp
            remaining -= 1
            if remaining == 0:
                on_complete(results)

        requests = []
        for index, chunk in enumerate(chunks):
            compiled = collector_tpp(chunk, num_hops=num_hops,
                                     app_id=self.stack.executor_app_id)
            requests.append(self._register(
                compiled.tpp, dst, lambda tpp, idx=index: _collect(idx, tpp),
                retries=retries, timeout_s=timeout_s))
        self._send_probes(requests)
