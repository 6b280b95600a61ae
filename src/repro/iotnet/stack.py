"""The five-layer Z-Stack pipeline (Section 5.2).

The paper's node devices run TI Z-Stack 2.5.0, whose layers are the
ZigBee Device Objects (ZDO), the Application Framework (AF), the
Application Support Sublayer (APS), the ZigBee network layer (NWK) and
the ZMAC layer.  The simulator models each layer as a small processing
stage with a header overhead and a per-frame latency; a transmission
walks DOWN the sender's stack, crosses the radio, and walks UP the
receiver's stack.  The accumulated per-frame stack latency is what the
fragment-packet attack of Fig. 14 multiplies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Tuple

from repro.iotnet.messages import Frame


@dataclass(frozen=True)
class LayerSpec:
    """One stack layer: name, header bytes added, processing latency."""

    name: str
    header_bytes: int
    latency_ms: float

    def __post_init__(self) -> None:
        if self.header_bytes < 0:
            raise ValueError("header_bytes must be non-negative")
        if self.latency_ms < 0:
            raise ValueError("latency_ms must be non-negative")


# Header sizes follow typical ZigBee frame layouts (MAC 11 B, NWK 8 B,
# APS 8 B, AF 3 B, ZDO 2 B); latencies are per-frame processing costs on
# an 8051-class MCU — coarse but proportionate.
DEFAULT_LAYERS: Tuple[LayerSpec, ...] = (
    LayerSpec("ZDO", header_bytes=2, latency_ms=0.3),
    LayerSpec("AF", header_bytes=3, latency_ms=0.3),
    LayerSpec("APS", header_bytes=8, latency_ms=0.5),
    LayerSpec("NWK", header_bytes=8, latency_ms=0.6),
    LayerSpec("ZMAC", header_bytes=11, latency_ms=0.8),
)


@dataclass
class StackTrace:
    """Per-layer accounting of one stack traversal."""

    direction: str
    visited: List[str] = field(default_factory=list)
    latency_ms: float = 0.0
    overhead_bytes: int = 0


def _fold_latency(layers: Iterable[LayerSpec]) -> float:
    """Left fold of the layers' latencies from 0.0, in the given order."""
    latency = 0.0
    for layer in layers:
        latency += layer.latency_ms
    return latency


class ZStack:
    """A device's protocol stack: ZDO / AF / APS / NWK / ZMAC."""

    def __init__(self, layers: Tuple[LayerSpec, ...] = DEFAULT_LAYERS) -> None:
        if not layers:
            raise ValueError("a stack needs at least one layer")
        self._layers = layers
        # The traversal latencies depend on the layers alone, so each is
        # folded once, in the order the traversal visits the layers: the
        # same sums ``send_down`` / ``receive_up`` report per frame.
        self.down_latency_ms = _fold_latency(layers)
        self.up_latency_ms = _fold_latency(reversed(layers))

    @property
    def layers(self) -> Tuple[LayerSpec, ...]:
        """The layers, top (ZDO) to bottom (ZMAC); fixed at construction."""
        return self._layers

    @property
    def layer_names(self) -> List[str]:
        return [layer.name for layer in self.layers]

    @property
    def total_header_bytes(self) -> int:
        """Protocol overhead added to every frame."""
        return sum(layer.header_bytes for layer in self.layers)

    @property
    def per_frame_latency_ms(self) -> float:
        """Processing latency of one full traversal (all five layers)."""
        return sum(layer.latency_ms for layer in self.layers)

    def send_down(self, frame: Frame) -> StackTrace:
        """Walk a frame from the application down to the radio."""
        trace = StackTrace(direction="down")
        for layer in self.layers:
            trace.visited.append(layer.name)
            trace.latency_ms += layer.latency_ms
            trace.overhead_bytes += layer.header_bytes
        return trace

    def receive_up(self, frame: Frame) -> StackTrace:
        """Walk a frame from the radio up to the application."""
        trace = StackTrace(direction="up")
        for layer in reversed(self.layers):
            trace.visited.append(layer.name)
            trace.latency_ms += layer.latency_ms
            trace.overhead_bytes += layer.header_bytes
        return trace

    def on_air_bytes(self, frame: Frame) -> int:
        """Payload plus all protocol headers."""
        return frame.size_bytes + self.total_header_bytes
