"""Hardware area model (§6.1, Table 4).

Two questions the paper answers about die area:

* what the TCPU costs on the NetFPGA prototype, measured by Xilinx synthesis
  reports — Table 4's slices / registers / LUTs / LUT-FF pairs for the
  4-pipeline reference router with and without the TCPU;
* what it would cost on a real switching ASIC, extrapolated from Bosshart et
  al.'s RMT numbers: 7 000 match-action processing units cost under 7 % of
  die area, and TPP support needs only 5 instructions × 64 stages = 320
  execution units, i.e. about 0.32 % of the die.

The NetFPGA numbers are synthesis outputs reproduced as calibration
constants; the ASIC number is a scaling argument that this module implements
as a function so its assumptions are explicit and testable.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ResourceCost:
    """One Table 4 row: baseline router usage and the extra the TCPU adds."""

    name: str
    router: float
    tcpu_extra: float

    @property
    def percent_extra(self) -> float:
        return 100.0 * self.tcpu_extra / self.router


#: Table 4: cost of TPP modules at 4 pipelines in the NetFPGA (thousands of units).
NETFPGA_TABLE4 = [
    ResourceCost("Slices", router=26.8e3, tcpu_extra=5.8e3),
    ResourceCost("Slice registers", router=64.7e3, tcpu_extra=14.0e3),
    ResourceCost("LUTs", router=69.1e3, tcpu_extra=20.8e3),
    ResourceCost("LUT-flip flop pairs", router=88.8e3, tcpu_extra=21.8e3),
]

#: Paper-reported percentage extras for the same rows (used as the check).
NETFPGA_TABLE4_PAPER_PERCENT = {
    "Slices": 21.6,
    "Slice registers": 21.6,
    "LUTs": 30.1,
    "LUT-flip flop pairs": 24.5,
}


def netfpga_percent_extra() -> dict[str, float]:
    """Percentage resource increase of adding the TCPU on the NetFPGA."""
    return {row.name: row.percent_extra for row in NETFPGA_TABLE4}


def asic_tcpu_area_percent(instructions_per_packet: int = 5,
                           stages: int = 64,
                           rmt_processing_units: int = 7000,
                           rmt_area_percent: float = 7.0) -> float:
    """Extrapolate the ASIC area cost of TCPU execution units (§6.1, "Die Area").

    Bosshart et al. report that ``rmt_processing_units`` RISC-like action
    units cost less than ``rmt_area_percent`` of a switching ASIC.  A TPP
    needs one execution unit per instruction per stage across the
    ingress/egress pipelines — 5 × 64 = 320 — so the area scales down
    proportionally (≈0.32 %).
    """
    if rmt_processing_units <= 0:
        raise ValueError("rmt_processing_units must be positive")
    tcpu_units = instructions_per_packet * stages
    return rmt_area_percent * tcpu_units / rmt_processing_units


@dataclass
class AreaReport:
    """Summary used by the Table 4 benchmark."""

    netfpga_percent_extra: dict[str, float]
    asic_tcpu_units: int
    asic_area_percent: float
    max_netfpga_percent_extra: float


def build_area_report(instructions_per_packet: int = 5, stages: int = 64) -> AreaReport:
    percents = netfpga_percent_extra()
    return AreaReport(
        netfpga_percent_extra=percents,
        asic_tcpu_units=instructions_per_packet * stages,
        asic_area_percent=asic_tcpu_area_percent(instructions_per_packet, stages),
        max_netfpga_percent_extra=max(percents.values()),
    )
