"""Switch dataplane substrate: match-action pipeline, memory map, TPP execution."""

from .counters import PortStats, StatsBlock, UTILIZATION_SCALE, utilization_basis_points
from .memory import SwitchMemory
from .parser import ParseResult, parse, parse_graph_edges
from .pipeline import Pipeline, Stage
from .switch import DEFAULT_UTILIZATION_INTERVAL_S, TPPSwitch
from .tables import FlowEntry, FlowTable, Group, GroupTable

__all__ = [
    "DEFAULT_UTILIZATION_INTERVAL_S", "FlowEntry", "FlowTable", "Group", "GroupTable",
    "ParseResult", "Pipeline", "PortStats", "Stage", "StatsBlock",
    "SwitchMemory", "TPPSwitch", "UTILIZATION_SCALE",
    "parse", "parse_graph_edges", "utilization_basis_points",
]
