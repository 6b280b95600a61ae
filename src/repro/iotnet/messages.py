"""Frames and fragmentation for the simulated ZigBee network.

The Fig. 14 attack ("dishonest trustees send some fragment packages to
prolong the interaction time") is modelled at this layer: a payload split
into many small fragments costs one per-frame overhead each, so a
fragmenting trustee inflates the trustor's active time without changing
the payload.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

_frame_counter = itertools.count(1)


class FrameKind(enum.Enum):
    """Application-level frame types used by the experiments."""

    DATA = "data"
    REQUEST = "request"
    RESPONSE = "response"
    REPORT = "report"
    BEACON = "beacon"


@dataclass(frozen=True)
class Frame:
    """One over-the-air frame.

    ``message_id`` groups fragments of one logical message;
    ``fragment_index`` / ``fragment_count`` describe the split.  An
    unfragmented message is a single frame with count 1.
    """

    source: str
    destination: str
    payload: str
    kind: FrameKind = FrameKind.DATA
    message_id: int = field(default_factory=lambda: next(_frame_counter))
    fragment_index: int = 0
    fragment_count: int = 1

    def __post_init__(self) -> None:
        if self.fragment_count < 1:
            raise ValueError("fragment_count must be at least 1")
        if not 0 <= self.fragment_index < self.fragment_count:
            raise ValueError(
                f"fragment_index {self.fragment_index} out of range for "
                f"{self.fragment_count} fragments"
            )

    @property
    def size_bytes(self) -> int:
        """Approximate on-air payload size."""
        return len(self.payload.encode("utf-8"))


def fragment_payload(
    source: str,
    destination: str,
    payload: str,
    max_fragment_size: int,
    kind: FrameKind = FrameKind.DATA,
    message_id: Optional[int] = None,
) -> List[Frame]:
    """Split a payload into frames of at most ``max_fragment_size`` bytes.

    An adversarial trustee passes a tiny ``max_fragment_size`` to multiply
    the number of frames (and therefore the per-frame latency the receiver
    pays).  An empty payload still produces one empty frame so every
    logical message is observable on air.

    ``message_id`` defaults to a process-global counter; the exchange
    engine passes an explicit engine-assigned id so a run labels its
    frames the same way no matter what ran earlier in the process.
    """
    if max_fragment_size < 1:
        raise ValueError("max_fragment_size must be at least 1")
    pieces: List[str] = []
    remaining = payload
    while remaining:
        pieces.append(remaining[:max_fragment_size])
        remaining = remaining[max_fragment_size:]
    if not pieces:
        pieces = [""]
    if message_id is None:
        message_id = next(_frame_counter)
    return [
        Frame(
            source=source,
            destination=destination,
            payload=piece,
            kind=kind,
            message_id=message_id,
            fragment_index=index,
            fragment_count=len(pieces),
        )
        for index, piece in enumerate(pieces)
    ]


class Reassembler:
    """Collects fragments and yields completed payloads.

    Reassembly is the identity on payloads:
    ``reassemble(fragment_payload(p)) == p`` for every p (a property test
    pins this invariant).
    """

    def __init__(self) -> None:
        self._pending: Dict[int, Dict[int, str]] = {}
        self._counts: Dict[int, int] = {}

    def accept(self, frame: Frame) -> Optional[str]:
        """Feed one frame; returns the payload when a message completes."""
        if frame.fragment_count == 1:
            return frame.payload
        slots = self._pending.setdefault(frame.message_id, {})
        self._counts[frame.message_id] = frame.fragment_count
        slots[frame.fragment_index] = frame.payload
        if len(slots) == frame.fragment_count:
            payload = "".join(
                slots[index] for index in range(frame.fragment_count)
            )
            del self._pending[frame.message_id]
            del self._counts[frame.message_id]
            return payload
        return None

    def accept_all(self, frames: Iterable[Frame]) -> List[str]:
        """Feed many frames; returns every completed payload in order."""
        completed: List[str] = []
        for frame in frames:
            payload = self.accept(frame)
            if payload is not None:
                completed.append(payload)
        return completed

    @property
    def pending_messages(self) -> int:
        """Messages with outstanding fragments."""
        return len(self._pending)
