"""The exchange engine: batches of message exchanges over the testbed.

The Fig. 8, 14 and 16 experiments queue up each round's frame
exchanges as :class:`ExchangeRequest` values and flush them through a
:class:`SyncExchangeEngine`, which runs one
:meth:`NodeDevice.send_message` per request in submission order — the
sequential oracle's exact sequence of radio draws, active-time
accumulations and inbox appends.

Two guarantees ride along.  Addressing a frame to an unknown device
raises :class:`~repro.iotnet.network.UnknownDeviceError` (or is
counted, with ``on_unknown="count"``) instead of silently dropping it,
and frame accounting is self-checking: every frame an exchange creates
is either delivered (and processed by the receiver) or counted as
dropped, and a frame that silently disappears raises
:class:`FrameLossError`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Tuple

from repro.iotnet.device import NodeDevice, TransmissionReport
from repro.iotnet.messages import FrameKind


class FrameLossError(RuntimeError):
    """Frame accounting does not balance: a frame was silently lost."""


@dataclass(frozen=True)
class ExchangeRequest:
    """One logical message exchange to run through the engine."""

    source: str
    destination: str
    payload: str
    max_fragment_size: int = 64
    kind: FrameKind = FrameKind.DATA

    def __post_init__(self) -> None:
        if self.max_fragment_size < 1:
            raise ValueError("max_fragment_size must be at least 1")


@dataclass
class ExchangeAccounting:
    """Self-checking frame ledger of one ``run_exchanges`` call."""

    exchanges: int = 0
    frames_created: int = 0
    frames_delivered: int = 0
    frames_dropped: int = 0  # radio loss
    frames_processed: int = 0
    unroutable_exchanges: int = 0

    def verify(self) -> None:
        """Raise :class:`FrameLossError` unless every frame is accounted."""
        if self.frames_created != self.frames_delivered + self.frames_dropped:
            raise FrameLossError(
                f"{self.frames_created} frames created but "
                f"{self.frames_delivered} delivered + "
                f"{self.frames_dropped} dropped"
            )
        if self.frames_processed != self.frames_delivered:
            raise FrameLossError(
                f"{self.frames_delivered} frames delivered but only "
                f"{self.frames_processed} processed by receivers"
            )


Resolver = Callable[[str], NodeDevice]


class SyncExchangeEngine:
    """The sequential oracle: one :meth:`NodeDevice.send_message` per
    request, in submission order.

    ``resolver`` maps device ids to devices (an
    :meth:`ExperimentalNetwork.device
    <repro.iotnet.network.ExperimentalNetwork.device>`).  Destinations
    are resolved up front, so a misaddressed request raises before
    *any* device mutates.
    """

    def __init__(self, resolver: Resolver, on_unknown: str = "raise") -> None:
        if on_unknown not in ("raise", "count"):
            raise ValueError("on_unknown must be 'raise' or 'count'")
        self._resolver = resolver
        self._on_unknown = on_unknown
        self._message_ids = itertools.count()
        self.accounting = ExchangeAccounting()

    def _resolve_pair(
        self, request: ExchangeRequest
    ) -> Optional[Tuple[NodeDevice, NodeDevice]]:
        """Sender/receiver, or ``None`` for a counted unroutable exchange.

        Addressing a frame to an unknown device id must raise (default)
        or be explicitly counted — never no-op.
        """
        from repro.iotnet.network import UnknownDeviceError

        try:
            return (self._resolver(request.source),
                    self._resolver(request.destination))
        except UnknownDeviceError:
            if self._on_unknown == "raise":
                raise
            self.accounting.unroutable_exchanges += 1
            return None

    def run_exchanges(
        self, requests: Iterable[ExchangeRequest]
    ) -> List[TransmissionReport]:
        self.accounting = ExchangeAccounting()
        resolved = []
        for request in requests:
            self.accounting.exchanges += 1
            resolved.append((request, self._resolve_pair(request)))
        reports: List[TransmissionReport] = []
        for request, pair in resolved:
            if pair is None:
                reports.append(TransmissionReport(
                    frames=0, delivered=False,
                    sender_active_ms=0.0, receiver_active_ms=0.0,
                ))
                continue
            sender, receiver = pair
            report = sender.send_message(
                receiver, request.payload,
                max_fragment_size=request.max_fragment_size,
                kind=request.kind,
                message_id=next(self._message_ids),
            )
            self.accounting.frames_created += report.frames
            self.accounting.frames_delivered += report.delivered_frames
            self.accounting.frames_dropped += (
                report.frames - report.delivered_frames
            )
            # Synchronous delivery processes inline: every delivered
            # frame has already walked the receiver's stack.
            self.accounting.frames_processed += report.delivered_frames
            reports.append(report)
        self.accounting.verify()
        return reports
