"""The experimental network topology of Section 5.2.

Five node groups, each with two trustors, two honest trustees and two
dishonest trustees, plus one coordinator that starts the network and
collects results.  Devices are laid out on a grid comfortably inside the
radio's reliable range so every experiment exchange is deliverable.

Two layouts are supported:

* ``"paper"`` — the seed grid (groups 40 m apart, 20 m device spacing),
  matching the hardware photos; comfortable for the 5-group testbed but
  it walks out of radio range past ~6 groups;
* ``"compact"`` — a golden-angle spiral that packs *any* device count
  inside a 115 m disc, so every pair stays within the 250 m reliable
  range (and far links past the 110 m auto-reconnect distance still
  exercise the retry path).

Addressing a device id the network has never admitted raises
:class:`UnknownDeviceError` — delivery to an unknown id must never
silently no-op (the exchange engine either propagates the error or
explicitly counts the exchange as unroutable).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.iotnet.device import Coordinator, NodeDevice
from repro.iotnet.energy import EnergyMeter, EnergyProfile
from repro.iotnet.radio import RadioChannel, RadioConfig

LAYOUTS = ("paper", "compact")

# Golden-angle spiral constant: successive device positions never
# collide and fill the disc evenly for any count.
_GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))
_COMPACT_RADIUS_M = 115.0


class UnknownDeviceError(KeyError):
    """A lookup or frame delivery addressed an unadmitted device id."""


@dataclass
class NodeGroup:
    """One experimental group: 2 trustors, 2 honest and 2 dishonest trustees."""

    index: int
    trustors: List[NodeDevice] = field(default_factory=list)
    honest_trustees: List[NodeDevice] = field(default_factory=list)
    dishonest_trustees: List[NodeDevice] = field(default_factory=list)

    @property
    def trustees(self) -> List[NodeDevice]:
        """All trustees, honest first (stable order for deterministic runs)."""
        return self.honest_trustees + self.dishonest_trustees

    def is_honest(self, device_id: str) -> bool:
        """Whether a trustee device id belongs to an honest node."""
        return any(d.device_id == device_id for d in self.honest_trustees)


class ExperimentalNetwork:
    """Builds and owns the grouped topology plus the coordinator."""

    def __init__(
        self,
        groups: int = 5,
        trustors_per_group: int = 2,
        honest_per_group: int = 2,
        dishonest_per_group: int = 2,
        radio_config: RadioConfig = RadioConfig(),
        seed: int = 0,
        layout: str = "paper",
    ) -> None:
        if groups < 1:
            raise ValueError("need at least one group")
        if layout not in LAYOUTS:
            raise ValueError(
                f"unknown layout {layout!r}; choose one of {LAYOUTS}"
            )
        self.layout = layout
        self.channel = RadioChannel(radio_config, seed=seed)
        self.coordinator = Coordinator(self.channel, seed=seed, x=0.0, y=0.0)
        self.groups: List[NodeGroup] = []
        self._devices: Dict[str, NodeDevice] = {}

        per_group = trustors_per_group + honest_per_group + dishonest_per_group
        total = groups * per_group + 1  # + coordinator at the origin

        self.coordinator.start_network()
        spacing = 20.0  # meters between devices; groups 40 m apart
        ordinal = 0  # device count so far, for the compact spiral
        for group_index in range(groups):
            group = NodeGroup(index=group_index)
            base_x = 40.0 * (group_index + 1)

            def _make(name: str, slot: int) -> NodeDevice:
                nonlocal ordinal
                ordinal += 1
                if self.layout == "compact":
                    x, y = _spiral_position(ordinal, total)
                else:
                    x, y = base_x, spacing * slot
                device = NodeDevice(
                    device_id=name, channel=self.channel, x=x, y=y,
                )
                self.coordinator.admit(device)
                self._devices[name] = device
                return device

            slot = 0
            for i in range(trustors_per_group):
                group.trustors.append(
                    _make(f"g{group_index}-trustor-{i}", slot)
                )
                slot += 1
            for i in range(honest_per_group):
                group.honest_trustees.append(
                    _make(f"g{group_index}-honest-{i}", slot)
                )
                slot += 1
            for i in range(dishonest_per_group):
                group.dishonest_trustees.append(
                    _make(f"g{group_index}-dishonest-{i}", slot)
                )
                slot += 1
            self.groups.append(group)

    # ------------------------------------------------------------------
    def device(self, device_id: str) -> NodeDevice:
        """Look up a device by id (the coordinator included).

        Raises :class:`UnknownDeviceError` (a ``KeyError`` subclass) for
        ids the network never admitted, so misaddressed frames fail
        loudly instead of silently dropping.
        """
        if device_id == self.coordinator.device_id:
            return self.coordinator
        try:
            return self._devices[device_id]
        except KeyError:
            raise UnknownDeviceError(
                f"no device {device_id!r} in the network"
            ) from None

    def __contains__(self, device_id: str) -> bool:
        return (
            device_id == self.coordinator.device_id
            or device_id in self._devices
        )

    @property
    def node_devices(self) -> List[NodeDevice]:
        """Every node device (coordinator excluded), in creation order."""
        return list(self._devices.values())

    @property
    def all_devices(self) -> List[NodeDevice]:
        """Coordinator first, then every node device in creation order."""
        return [self.coordinator, *self._devices.values()]

    @property
    def trustors(self) -> List[NodeDevice]:
        return [t for group in self.groups for t in group.trustors]

    @property
    def trustees(self) -> List[NodeDevice]:
        return [t for group in self.groups for t in group.trustees]

    def group_of(self, device_id: str) -> NodeGroup:
        """The group a device belongs to."""
        for group in self.groups:
            if any(
                d.device_id == device_id
                for d in group.trustors + group.trustees
            ):
                return group
        raise UnknownDeviceError(f"device {device_id!r} is in no group")

    def is_honest_trustee(self, device_id: str) -> bool:
        """Whether a device id names an honest trustee (anywhere)."""
        return any(group.is_honest(device_id) for group in self.groups)

    def reset_active_times(self) -> None:
        """Zero every device's active-time accumulator."""
        self.coordinator.reset_active_time()
        for device in self._devices.values():
            device.reset_active_time()

    def attach_energy(
        self,
        budget_mj: float = 10_000.0,
        profile: EnergyProfile = EnergyProfile(),
        keep_ledger: bool = False,
    ) -> None:
        """Give every device (coordinator included) a battery model.

        ``keep_ledger=True`` records every draw.
        """
        for device in self.all_devices:
            device.energy = EnergyMeter(
                profile=profile, budget_mj=budget_mj,
                keep_ledger=keep_ledger,
            )


def _spiral_position(ordinal: int, total: int) -> Tuple[float, float]:
    """Golden-angle spiral position for device ``ordinal`` of ``total``.

    Every device lands inside a :data:`_COMPACT_RADIUS_M` disc, so any
    pair is at most 230 m apart — inside the 250 m reliable range for
    arbitrarily large topologies.
    """
    radius = _COMPACT_RADIUS_M * math.sqrt(ordinal / max(1, total - 1))
    theta = _GOLDEN_ANGLE * ordinal
    return radius * math.cos(theta), radius * math.sin(theta)
