"""Per-benchmark workload profiles.

The paper's five benchmarks draw different power and reach different DPU
utilization (Figure 5 shows per-benchmark GOPs/W spread; Section 4.1 gives
the 12.59 W fleet average at Vnom).  A :class:`WorkloadProfile` carries the
calibrated per-benchmark operating characteristics:

* ``p_vnom_w`` — VCCINT power at (Vnom, 333 MHz, Tref).  The five values
  average exactly 12.59 W.
* ``dpu_utilization`` — effective fraction of the DPU's peak ops/cycle the
  benchmark sustains (conv-dominated nets run the MAC array hotter; the
  large-FC AlexNet is DDR-limited more often).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class WorkloadProfile:
    """Calibrated operating characteristics of one benchmark."""

    name: str
    p_vnom_w: float
    dpu_utilization: float

    def __post_init__(self):
        if self.p_vnom_w <= 0:
            raise ValueError(f"{self.name}: power must be positive")
        if not 0.0 < self.dpu_utilization <= 1.0:
            raise ValueError(f"{self.name}: utilization must be in (0, 1]")


#: Calibrated profiles; the p_vnom_w values average 12.59 W (Section 4.1).
PROFILES: dict[str, WorkloadProfile] = {
    "vggnet": WorkloadProfile("vggnet", p_vnom_w=12.20, dpu_utilization=0.62),
    "googlenet": WorkloadProfile("googlenet", p_vnom_w=11.90, dpu_utilization=0.45),
    "alexnet": WorkloadProfile("alexnet", p_vnom_w=13.30, dpu_utilization=0.55),
    "resnet50": WorkloadProfile("resnet50", p_vnom_w=12.90, dpu_utilization=0.58),
    "inception": WorkloadProfile("inception", p_vnom_w=12.65, dpu_utilization=0.52),
}


def profile_for(name: str) -> WorkloadProfile:
    try:
        return PROFILES[name]
    except KeyError:
        raise KeyError(
            f"no workload profile for {name!r}; known: {sorted(PROFILES)}"
        ) from None
