"""Energy accounting for node devices.

Section 4.4 motivates the cost aspect with battery-powered nodes: "the
energy of a social IoT node may be limited because it is powered by a
battery ... the energy consumption of previous tasks greatly impacts the
willingness of this node to undertake any more similar tasks."  This
module gives devices a CC2530-flavoured energy model so experiments can
express cost in millijoules instead of milliseconds.

Current draws follow the CC2530 datasheet's orders of magnitude
(RX ≈ 24 mA, TX ≈ 29 mA at 1 dBm, active MCU ≈ 6.5 mA, sleep ≈ 1 µA at
3.3 V); values are configurable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.ids import validate_non_negative


@dataclass(frozen=True)
class EnergyProfile:
    """Power draw per radio/MCU state, in milliwatts (3.3 V CC2530)."""

    tx_mw: float = 95.7     # 29 mA * 3.3 V
    rx_mw: float = 79.2     # 24 mA * 3.3 V
    cpu_mw: float = 21.5    # 6.5 mA * 3.3 V
    sleep_mw: float = 0.0033

    def __post_init__(self) -> None:
        for name in ("tx_mw", "rx_mw", "cpu_mw", "sleep_mw"):
            validate_non_negative(getattr(self, name), name)


@dataclass
class EnergyMeter:
    """Tracks a device's remaining battery across activity phases.

    ``budget_mj`` is the battery capacity in millijoules (a CR2032-class
    coin cell is roughly 2.4 kJ; the small default keeps experiment
    numbers readable).  Drawing past the budget clamps at zero and marks
    the device depleted — a depleted trustee refuses further tasks,
    which is exactly the "willingness" coupling Section 4.4 describes.
    """

    profile: EnergyProfile = field(default_factory=EnergyProfile)
    budget_mj: float = 10_000.0
    consumed_mj: float = 0.0
    # Opt-in itemized ledger: one (state, duration_ms, energy_mj) entry
    # per draw.
    keep_ledger: bool = False
    ledger: Optional[List[Tuple[str, float, float]]] = None

    def __post_init__(self) -> None:
        validate_non_negative(self.budget_mj, "budget_mj")
        validate_non_negative(self.consumed_mj, "consumed_mj")
        if self.keep_ledger and self.ledger is None:
            self.ledger = []

    @property
    def remaining_mj(self) -> float:
        return max(0.0, self.budget_mj - self.consumed_mj)

    @property
    def depleted(self) -> bool:
        return self.remaining_mj <= 0.0

    @property
    def remaining_fraction(self) -> float:
        if self.budget_mj == 0.0:
            return 0.0
        return self.remaining_mj / self.budget_mj

    def _draw(self, power_mw: float, duration_ms: float,
              state: str) -> float:
        validate_non_negative(duration_ms, "duration_ms")
        energy_mj = power_mw * duration_ms / 1000.0
        self.consumed_mj += energy_mj
        if self.ledger is not None:
            self.ledger.append((state, duration_ms, energy_mj))
        return energy_mj

    def transmit(self, duration_ms: float) -> float:
        """Account a TX burst; returns the energy spent (mJ)."""
        return self._draw(self.profile.tx_mw, duration_ms, "tx")

    def receive(self, duration_ms: float) -> float:
        """Account an RX window; returns the energy spent (mJ)."""
        return self._draw(self.profile.rx_mw, duration_ms, "rx")

    def compute(self, duration_ms: float) -> float:
        """Account active-MCU time; returns the energy spent (mJ)."""
        return self._draw(self.profile.cpu_mw, duration_ms, "cpu")

    def sleep(self, duration_ms: float) -> float:
        """Account sleep time; returns the energy spent (mJ)."""
        return self._draw(self.profile.sleep_mw, duration_ms, "sleep")

    def willingness(self) -> float:
        """A [0, 1] willingness factor driven by remaining battery.

        Linear in the remaining fraction: a full battery is fully
        willing, a depleted one refuses.  Experiments fold this into the
        expected-cost aspect of Eq. 18 (an unwilling node is an
        expensive node).
        """
        return self.remaining_fraction


def account_exchange(
    sender: EnergyMeter,
    receiver: EnergyMeter,
    sender_active_ms: float,
    receiver_active_ms: float,
    tx_share: float = 0.5,
) -> Dict[str, float]:
    """Split measured active times into TX/RX/CPU energy on both sides.

    ``tx_share`` is the fraction of the sender's active time spent with
    the radio in TX (the remainder is MCU work); the receiver's radio is
    in RX for the same share.  Returns the energy spent per side in mJ.
    """
    if not 0.0 <= tx_share <= 1.0:
        raise ValueError("tx_share must be in [0, 1]")
    sender_energy = (
        sender.transmit(sender_active_ms * tx_share)
        + sender.compute(sender_active_ms * (1.0 - tx_share))
    )
    receiver_energy = (
        receiver.receive(receiver_active_ms * tx_share)
        + receiver.compute(receiver_active_ms * (1.0 - tx_share))
    )
    return {"sender_mj": sender_energy, "receiver_mj": receiver_energy}
