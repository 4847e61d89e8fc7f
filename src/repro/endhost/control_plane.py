"""The TPP control plane (TPP-CP, §4.1).

A logically central :class:`TPPControlPlane` keeps track of running TPP
applications and owns the allocation of the per-link application-specific
scratch registers (``Link:AppSpecific_k``).  Each application is granted a
contiguous set of addresses it may read/write — the analogue of the x86
global descriptor table the paper describes — and every TPP an application
wants to install is statically analysed against those grants before it is
admitted.

A per-host :class:`ControlPlaneAgent` fronts the central control plane: the
``add_tpp`` API it exposes is the one applications call, and it configures
the host's dataplane shim only after the TPP passes validation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core import addressing
from repro.core.exceptions import AccessControlError
from repro.core.packet_format import TPP
from repro.core.static_analysis import MemoryGrant, check_access, uses_write_instructions

from .filters import FilterEntry, PacketFilter

if TYPE_CHECKING:  # pragma: no cover
    from .dataplane import DataplaneShim


@dataclass
class Application:
    """A registered TPP application and its memory grants."""

    app_id: int
    name: str
    grants: list[MemoryGrant] = field(default_factory=list)
    link_registers: list[int] = field(default_factory=list)
    tpps_installed: int = 0


class TPPControlPlane:
    """Central registry of applications, grants and global policy knobs."""

    NUM_LINK_REGISTERS = 8

    def __init__(self, writes_allowed: bool = True) -> None:
        #: Global administrator switch: when False, no TPP containing a write
        #: instruction is admitted anywhere in the network (§4.3).
        self.writes_allowed = writes_allowed
        self.applications: dict[int, Application] = {}
        self._app_ids = itertools.count(1)
        self._allocated_link_registers: set[int] = set()

    # --------------------------------------------------------- registration
    def register_application(self, name: str) -> Application:
        """Create an application with no grants yet."""
        app = Application(app_id=next(self._app_ids), name=name)
        self.applications[app.app_id] = app
        return app

    def allocate_link_register(self, app: Application, writable: bool = True) -> int:
        """Allocate one of the eight per-link AppSpecific registers to ``app``.

        The grant covers the packet-relative alias (``[Link:AppSpecific_k]``)
        and the concrete ``Link$i`` blocks on every port, since the dynamic
        alias resolves to those addresses inside switches.
        """
        available = [r for r in range(self.NUM_LINK_REGISTERS)
                     if r not in self._allocated_link_registers]
        if not available:
            raise AccessControlError("all per-link application registers are allocated")
        register = available[0]
        self._allocated_link_registers.add(register)
        app.link_registers.append(register)

        field_offset = addressing.LINK_FIELDS["AppSpecific_0"] + register
        dynamic_address = addressing.DYNAMIC_LINK_BASE + field_offset
        operations = ["read", "write"] if writable else ["read"]
        for operation in operations:
            app.grants.append(MemoryGrant(operation, dynamic_address, dynamic_address))
            # Concrete per-port addresses: one stripe across the whole Link region.
            for port in range(addressing.MAX_LINKS):
                concrete = addressing.LINK_BASE + port * addressing.LINK_BLOCK_WORDS + field_offset
                app.grants.append(MemoryGrant(operation, concrete, concrete))
        return register

    def grant(self, app: Application, operation: str, start: int, end: int) -> MemoryGrant:
        """Add an explicit (operation, address range) grant."""
        if operation not in ("read", "write"):
            raise ValueError("operation must be 'read' or 'write'")
        grant = MemoryGrant(operation, start, end)
        app.grants.append(grant)
        return grant

    def release_application(self, app_id: int) -> None:
        app = self.applications.pop(app_id, None)
        if app is not None:
            for register in app.link_registers:
                self._allocated_link_registers.discard(register)

    # ------------------------------------------------------------ validation
    def validate(self, app_id: int, tpp: TPP) -> None:
        """Statically analyse ``tpp`` against the application's grants.

        Raises :class:`AccessControlError` when the TPP is not admissible; a
        validated TPP is stamped with the application's id.
        """
        app = self.applications.get(app_id)
        if app is None:
            raise AccessControlError(f"unknown application id {app_id}")
        if uses_write_instructions(tpp.instructions) and not self.writes_allowed:
            raise AccessControlError(
                "the administrator has disabled TPP write instructions network-wide (§4.3)")
        check_access(tpp.instructions, app.grants, app_id=app_id)
        tpp.app_id = app_id
        app.tpps_installed += 1


class ControlPlaneAgent:
    """The per-host TPP-CP agent (§4.1).

    It validates TPPs against the central control plane and programs the
    host's dataplane shim.  The agent is also the place where the
    hypervisor-style policy of §4.3 (e.g. "drop TPPs carrying writes from
    untrusted applications") is enforced, because the shim only accepts rules
    from its agent.
    """

    def __init__(self, control_plane: TPPControlPlane, shim: "DataplaneShim") -> None:
        self.control_plane = control_plane
        self.shim = shim
        self.api_calls = 0
        self.api_failures = 0

    def add_tpp(self, app_id: int, packet_filter: PacketFilter, tpp: TPP,
                sample_frequency: int = 1, priority: int = 0) -> FilterEntry:
        """The paper's ``add_tpp(filter, tpp_bytes, sample_frequency, priority)``.

        Raises :class:`AccessControlError` when validation fails; on success
        the rule is installed in the host's dataplane shim and returned.
        """
        self.api_calls += 1
        try:
            self.control_plane.validate(app_id, tpp)
        except AccessControlError:
            self.api_failures += 1
            raise
        entry = FilterEntry(filter=packet_filter, app_id=app_id, tpp_template=tpp,
                            sample_frequency=sample_frequency, priority=priority)
        self.shim.install_filter(entry)
        return entry

    def remove_app(self, app_id: int) -> int:
        """Remove all of an application's rules from this host's shim."""
        return self.shim.filters.remove_app(app_id)
