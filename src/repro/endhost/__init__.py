"""End-host stack (§4): TPP control plane, dataplane shim, executor, and the
per-host aggregators the session layer provisions for each piggy-backed app."""

from .aggregator import Aggregator, DeployedApplication
from .control_plane import Application, ControlPlaneAgent, TPPControlPlane
from .dataplane import AppBinding, DataplaneShim, TPP_ECHO_PORT
from .executor import ExecutorStats, TPPExecutor
from .filters import FilterEntry, FilterTable, PacketFilter, match_all
from .stack import EndHostStack, install_stacks

__all__ = [
    "Aggregator", "AppBinding", "Application", "ControlPlaneAgent",
    "DataplaneShim", "DeployedApplication", "EndHostStack", "ExecutorStats",
    "FilterEntry", "FilterTable", "PacketFilter", "TPPControlPlane",
    "TPPExecutor", "TPP_ECHO_PORT", "install_stacks", "match_all",
]
