"""Distance-based radio channel for the simulated IoT network.

Models the CC2530's 2.4 GHz omnidirectional radio as described in the
paper: reliable transmission up to 250 m, automatic reconnection within
110 m.  Delivery within the reliable range always succeeds; between the
reconnection and reliable ranges a frame may need retries (each adding
latency); beyond the reliable range frames are dropped.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, Tuple

from repro.iotnet.messages import Frame


@dataclass(frozen=True)
class RadioConfig:
    """Channel parameters (defaults follow the paper's hardware notes)."""

    reliable_range_m: float = 250.0
    reconnect_range_m: float = 110.0
    base_latency_ms: float = 4.0
    per_byte_latency_ms: float = 0.08
    retry_latency_ms: float = 6.0
    retry_probability: float = 0.3

    def __post_init__(self) -> None:
        if self.reconnect_range_m > self.reliable_range_m:
            raise ValueError(
                "reconnect range must not exceed the reliable range"
            )
        for name in ("base_latency_ms", "per_byte_latency_ms",
                     "retry_latency_ms"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if not 0.0 <= self.retry_probability <= 1.0:
            raise ValueError("retry_probability must be in [0, 1]")


@dataclass(frozen=True)
class Delivery:
    """Outcome of transmitting one frame."""

    delivered: bool
    latency_ms: float
    retries: int = 0


class RadioChannel:
    """Positions devices on a plane and transmits frames between them."""

    def __init__(
        self, config: RadioConfig = RadioConfig(), seed: int = 0
    ) -> None:
        self.config = config
        self._positions: Dict[str, Tuple[float, float]] = {}
        self._rng = random.Random(("radio", seed).__repr__())

    def place(self, device_id: str, x: float, y: float) -> None:
        """Register (or move) a device at plane coordinates in meters."""
        self._positions[device_id] = (float(x), float(y))

    def position_of(self, device_id: str) -> Tuple[float, float]:
        try:
            return self._positions[device_id]
        except KeyError:
            raise KeyError(f"device {device_id!r} not placed") from None

    def distance(self, a: str, b: str) -> float:
        """Euclidean distance between two placed devices, in meters."""
        ax, ay = self.position_of(a)
        bx, by = self.position_of(b)
        return math.hypot(ax - bx, ay - by)

    def in_range(self, a: str, b: str) -> bool:
        """Whether two devices can communicate at all."""
        return self.distance(a, b) <= self.config.reliable_range_m

    def transmit(self, frame: Frame) -> Delivery:
        """Send one frame; latency grows with size and marginal links.

        Links longer than the automatic-reconnection distance are usable
        but may require retries — the paper's hardware reconnects
        automatically within 110 m and needs explicit rejoining beyond.
        """
        distance = self.distance(frame.source, frame.destination)
        config = self.config
        if distance > config.reliable_range_m:
            delivery = Delivery(delivered=False, latency_ms=0.0)
        else:
            latency = (
                config.base_latency_ms
                + config.per_byte_latency_ms * frame.size_bytes
            )
            retries = 0
            if distance > config.reconnect_range_m:
                while self._rng.random() < config.retry_probability:
                    retries += 1
                    latency += config.retry_latency_ms
                    if retries >= 5:
                        break
            delivery = Delivery(
                delivered=True, latency_ms=latency, retries=retries
            )
        return delivery
