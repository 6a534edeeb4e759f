"""Fault-mitigation techniques for low-voltage operation.

Section 2.2 of the paper lists three ways to deal with undervolting faults;
Section 9 names fault mitigation at ``Fmax`` as future work.  This module
implements the standard techniques as composable *mitigation policies* that
wrap the fault-injection hook, so campaigns can measure the accuracy they
recover and the overhead they cost:

* :class:`EccMitigation` — SECDED-style correction: a fraction of faults
  (all single-bit upsets within a protection word) is corrected; the cost
  is a fixed power overhead for the extra check bits and logic.  This
  mirrors the built-in BRAM ECC the authors evaluated for memories
  [Salami et al., PDP'19].
* :class:`RazorMitigation` — shadow-latch detection with replay: detected
  timing violations are re-executed at a safe (half-rate) cycle, trading
  throughput for correctness [Ernst et al., MICRO'03].  Detection coverage
  is below 1.0 (paths without shadow latches escape).
* :class:`TmrMitigation` — triple modular redundancy on the datapath:
  faults are out-voted unless two copies fail together; costs ~3x dynamic
  power of the protected logic fraction.

Every policy exposes the same interface: ``effective_fault_scale`` (the
fraction of injected faults that survives), ``performance_scale`` (GOPs
multiplier) and ``power_scale`` (power multiplier).  ``MitigatedSession``
composes a policy with an :class:`~repro.core.session.AcceleratorSession`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.session import AcceleratorSession, Measurement


class MitigationPolicy:
    """Interface for undervolting-fault mitigation techniques."""

    name: str = "none"

    def surviving_fault_fraction(self, p_per_op: float) -> float:
        """Fraction of raw faults that escape the mitigation."""
        raise NotImplementedError

    def performance_scale(self, p_per_op: float) -> float:
        """GOPs multiplier (replay/retry overheads reduce it)."""
        return 1.0

    def power_scale(self) -> float:
        """Power multiplier (extra logic costs)."""
        return 1.0


@dataclass
class EccMitigation(MitigationPolicy):
    """SECDED-per-word correction of datapath/memory upsets.

    With one fault per protected word, ECC corrects it; multi-bit words
    escape.  For Poisson faults at per-op rate ``p`` and ``word_ops`` ops
    per protection word, the escape fraction is the probability that a
    faulty word carries more than one fault:
    ``1 - P(N=1 | N>=1)`` for ``N ~ Poisson(p * word_ops)``.
    """

    name: str = "ecc"
    word_ops: int = 64
    #: Check-bit storage/logic overhead: 8 bits on 64 -> ~12.5% of the
    #: protected structures, which are ~20% of rail power.
    power_overhead: float = 0.025

    def surviving_fault_fraction(self, p_per_op: float) -> float:
        lam = p_per_op * self.word_ops
        if lam <= 0.0:
            return 0.0
        if lam > 700.0:  # numerically saturated: everything is multi-bit
            return 1.0
        p_ge1 = 1.0 - math.exp(-lam)
        p_eq1 = lam * math.exp(-lam)
        return max(0.0, 1.0 - p_eq1 / p_ge1)

    def power_scale(self) -> float:
        return 1.0 + self.power_overhead


@dataclass
class RazorMitigation(MitigationPolicy):
    """Shadow-latch detection + replay [Ernst et al., MICRO'03].

    Detected violations replay at half rate; undetected ones (uncovered
    paths) corrupt the result as usual.
    """

    name: str = "razor"
    detection_coverage: float = 0.97
    #: Each detected violation costs one replayed cycle; the throughput
    #: cost is proportional to the violation rate per cycle.
    ops_per_cycle: int = 4096
    power_overhead: float = 0.03

    def __post_init__(self):
        if not 0.0 < self.detection_coverage <= 1.0:
            raise ValueError("detection coverage must be in (0, 1]")

    def surviving_fault_fraction(self, p_per_op: float) -> float:
        return 1.0 - self.detection_coverage

    def performance_scale(self, p_per_op: float) -> float:
        # Probability a cycle trips at least one shadow latch.
        lam = p_per_op * self.ops_per_cycle * self.detection_coverage
        p_replay = 1.0 - math.exp(-min(lam, 700.0))
        return 1.0 / (1.0 + p_replay)

    def power_scale(self) -> float:
        return 1.0 + self.power_overhead


@dataclass
class TmrMitigation(MitigationPolicy):
    """Triple modular redundancy with majority voting.

    A result is corrupted only when two of the three copies fail on the
    same op: survival fraction ~ 3p (two-of-three probability divided by
    the raw rate p).  Costs ~3x the power of the protected logic share.
    """

    name: str = "tmr"
    #: Fraction of rail power spent on the (now tripled) protected logic.
    protected_power_share: float = 0.60

    def surviving_fault_fraction(self, p_per_op: float) -> float:
        if p_per_op <= 0.0:
            return 0.0
        # P(>=2 of 3 copies faulty) / p  ~ 3p for small p.
        p = min(p_per_op, 1.0)
        p_two_of_three = 3 * p * p * (1 - p) + p**3
        return min(1.0, p_two_of_three / p)

    def power_scale(self) -> float:
        return 1.0 + 2.0 * self.protected_power_share


@dataclass(frozen=True)
class MitigatedMeasurement:
    """A measurement taken under a mitigation policy."""

    raw: Measurement
    policy_name: str
    accuracy: float
    gops: float
    power_w: float

    @property
    def gops_per_watt(self) -> float:
        return self.gops / self.power_w if self.power_w else 0.0

    @property
    def accuracy_recovered(self) -> float:
        """Accuracy gained over the unmitigated measurement."""
        return self.accuracy - self.raw.accuracy


class MitigatedSession:
    """Wraps an AcceleratorSession with a mitigation policy.

    The policy scales the fault rate seen by the injector (surviving
    fraction), the achieved GOPs (replay overhead) and the rail power
    (extra logic), so the recovered accuracy is *measured* through the
    same fault-injected forward passes as the baseline.
    """

    def __init__(self, session: AcceleratorSession, policy: MitigationPolicy):
        self.session = session
        self.policy = policy

    def run_at(
        self, vccint_mv: float, f_mhz: float | None = None
    ) -> MitigatedMeasurement:
        board = self.session.board
        f_mhz = board.cal.f_default_mhz if f_mhz is None else f_mhz
        raw = self.session.run_at(vccint_mv, f_mhz=f_mhz)

        v = vccint_mv / 1000.0
        p_raw = self.session.fault_model.p_per_op(v, f_mhz, raw.temperature_c)
        p_residual = p_raw * self.policy.surviving_fault_fraction(p_raw)

        # Control-logic collapse at the crash edge is not a datapath fault;
        # none of these datapath techniques recover it (the paper's future-
        # work motivation for dynamic voltage adjustment instead).
        collapse = (
            v < board.vcrash_v + board.cal.collapse_margin_v and p_raw > 0.0
        )
        if collapse or p_residual >= p_raw or p_raw == 0.0:
            accuracy = raw.accuracy
        else:
            rngs = [
                self.session._seeds.rng(
                    f"mitigated/{self.policy.name}/v{vccint_mv:.1f}/f{f_mhz:.0f}/r{r}"
                )
                for r in range(raw.repeats)
            ]
            (outcomes,) = self.session.engine.run_points(
                [(p_residual, f_mhz, rngs, False)],
                max_stacked=self.session.config.batch_budget,
            )
            accuracy = sum(outcome.accuracy for outcome in outcomes) / len(outcomes)

        return MitigatedMeasurement(
            raw=raw,
            policy_name=self.policy.name,
            accuracy=accuracy,
            gops=raw.gops * self.policy.performance_scale(p_raw),
            power_w=raw.power_w * self.policy.power_scale(),
        )

    def compare_policies(
        self,
        vccint_mv: float,
        policies: list[MitigationPolicy],
        f_mhz: float | None = None,
    ) -> list[MitigatedMeasurement]:
        """Measure several policies at one operating point."""
        results = []
        for policy in policies:
            self.policy = policy
            results.append(self.run_at(vccint_mv, f_mhz=f_mhz))
        return results
