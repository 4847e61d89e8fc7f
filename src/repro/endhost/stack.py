"""The per-host end-host stack: shim + control-plane agent + executor (§4, Figure 9)."""

from __future__ import annotations

from typing import Optional

from repro.net.node import Host
from repro.net.topology import Network

from .control_plane import ControlPlaneAgent, TPPControlPlane
from .dataplane import DataplaneShim
from .executor import TPPExecutor


class EndHostStack:
    """Everything §4 installs on one end host.

    Attributes:
        host: the underlying simulated host.
        shim: the dataplane shim interposing on transmit/receive.
        agent: the TPP-CP agent exposing ``add_tpp``.
        executor: the TPP executor library (reliable / targeted / scatter-gather).
        executor_app_id: application id the executor's probes are stamped with.
    """

    def __init__(self, host: Host, control_plane: TPPControlPlane,
                 executor_app: Optional[int] = None) -> None:
        self.host = host
        self.control_plane = control_plane
        self.shim = DataplaneShim(host)
        self.agent = ControlPlaneAgent(control_plane, self.shim)
        if executor_app is None:
            executor_application = control_plane.register_application(
                f"executor@{host.name}")
            executor_app = executor_application.app_id
        self.executor_app_id = executor_app
        self.executor = TPPExecutor(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<EndHostStack {self.host.name} filters={len(self.shim.filters)}>"


def install_stacks(network: Network, control_plane: Optional[TPPControlPlane] = None,
                   hosts: Optional[list[str]] = None) -> dict[str, EndHostStack]:
    """Install an :class:`EndHostStack` on (a subset of) a network's hosts.

    Returns host name -> stack.  A fresh control plane is created when none is
    supplied; it is shared by every stack, mirroring the logically-central
    TPP-CP of §4.1.
    """
    if control_plane is None:
        control_plane = TPPControlPlane()
    selected = hosts if hosts is not None else list(network.hosts)
    missing = [name for name in selected if name not in network.hosts]
    if missing:
        raise ValueError(f"hosts {missing} are not hosts of the network; "
                         f"have {sorted(network.hosts)}")
    return {name: EndHostStack(network.hosts[name], control_plane) for name in selected}
