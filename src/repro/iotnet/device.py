"""Node devices and the coordinator of the experimental network.

A :class:`NodeDevice` models one CC2530 board: a protocol stack, a radio
binding, a device clock and an *active-time* accumulator (time spent
transmitting, receiving and processing — the Fig. 14 metric).  The
:class:`Coordinator` is the first device on the network: it scans the RF
environment, picks a channel and a PAN identifier, starts the network,
admits devices, and collects report frames for the host computer.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.iotnet.energy import EnergyMeter
from repro.iotnet.messages import FrameKind, Reassembler, fragment_payload
from repro.iotnet.radio import RadioChannel
from repro.iotnet.stack import ZStack


@dataclass
class TransmissionReport:
    """Cost accounting of one logical message exchange.

    The ``*_total_*`` fields snapshot the devices' active-time
    accumulators immediately before and after this exchange's commit.
    Consumers that need the exact float delta a run of interleaved
    exchanges observes (``after - before``, *not* the re-summed parts)
    read these instead of re-deriving.
    """

    frames: int
    delivered: bool
    sender_active_ms: float
    receiver_active_ms: float
    delivered_frames: int = 0
    sender_total_before_ms: float = 0.0
    sender_total_after_ms: float = 0.0
    receiver_total_before_ms: float = 0.0
    receiver_total_after_ms: float = 0.0


def commit_exchange(
    sender: "NodeDevice",
    receiver: "NodeDevice",
    *,
    frames: int,
    delivered_all: bool,
    delivered_frames: int,
    sender_active_ms: float,
    receiver_active_ms: float,
    completed_payload: Optional[str] = None,
) -> TransmissionReport:
    """Apply one exchange's effects to both devices and build its report.

    The commit point of :meth:`NodeDevice.send_message`: inbox
    delivery, active-time accumulation, the TX/CPU and RX/CPU energy
    split.
    """
    sender_total_before = sender.active_time_ms
    receiver_total_before = receiver.active_time_ms
    if completed_payload is not None:
        receiver.inbox.append(completed_payload)
    sender.active_time_ms += sender_active_ms
    receiver.active_time_ms += receiver_active_ms
    if sender.energy is not None:
        sender.energy.transmit(sender_active_ms * 0.5)
        sender.energy.compute(sender_active_ms * 0.5)
    if receiver.energy is not None:
        receiver.energy.receive(receiver_active_ms * 0.5)
        receiver.energy.compute(receiver_active_ms * 0.5)
    return TransmissionReport(
        frames=frames,
        delivered=delivered_all,
        sender_active_ms=sender_active_ms,
        receiver_active_ms=receiver_active_ms,
        delivered_frames=delivered_frames,
        sender_total_before_ms=sender_total_before,
        sender_total_after_ms=sender.active_time_ms,
        receiver_total_before_ms=receiver_total_before,
        receiver_total_after_ms=receiver.active_time_ms,
    )


class NodeDevice:
    """One simulated CC2530 node."""

    def __init__(
        self,
        device_id: str,
        channel: RadioChannel,
        stack: Optional[ZStack] = None,
        x: float = 0.0,
        y: float = 0.0,
        energy: Optional[EnergyMeter] = None,
    ) -> None:
        self.device_id = device_id
        self.channel = channel
        self.stack = stack if stack is not None else ZStack()
        self.active_time_ms = 0.0
        self.inbox: List[str] = []
        # Optional battery model (Section 4.4's energy-limited nodes);
        # when present, every exchange draws TX/RX energy for the time
        # the radio and MCU were active.
        self.energy = energy
        self._reassembler = Reassembler()
        channel.place(device_id, x, y)

    # ------------------------------------------------------------------
    def send_message(
        self,
        destination: "NodeDevice",
        payload: str,
        max_fragment_size: int = 64,
        kind: FrameKind = FrameKind.DATA,
        message_id: Optional[int] = None,
    ) -> TransmissionReport:
        """Send one logical message, possibly as multiple fragments.

        Both sides pay the full stack traversal per frame plus the air
        latency; completed payloads land in the receiver's ``inbox``.
        A small ``max_fragment_size`` multiplies the frame count — the
        Fig. 14 fragment-packet attack.  ``message_id`` lets an
        exchange engine assign deterministic ids (defaults to the
        process-global frame counter).
        """
        frames = fragment_payload(
            self.device_id, destination.device_id, payload,
            max_fragment_size, kind, message_id=message_id,
        )
        sender_active = 0.0
        receiver_active = 0.0
        delivered_all = True
        delivered_frames = 0
        completed_payload: Optional[str] = None
        # Every frame walks both stacks; the traversal latency is the
        # same per frame, so it is read once rather than traced per frame.
        down_ms = self.stack.down_latency_ms
        up_ms = destination.stack.up_latency_ms
        for frame in frames:
            sender_active += down_ms
            delivery = self.channel.transmit(frame)
            if not delivery.delivered:
                delivered_all = False
                continue
            delivered_frames += 1
            sender_active += delivery.latency_ms
            receiver_active += delivery.latency_ms
            receiver_active += up_ms
            completed = destination._reassembler.accept(frame)
            if completed is not None:
                completed_payload = completed
        return commit_exchange(
            self, destination,
            frames=len(frames),
            delivered_all=delivered_all,
            delivered_frames=delivered_frames,
            sender_active_ms=sender_active,
            receiver_active_ms=receiver_active,
            completed_payload=completed_payload,
        )

    def drain_inbox(self) -> List[str]:
        """Pop and return all completed messages."""
        messages, self.inbox = self.inbox, []
        return messages

    def reset_active_time(self) -> None:
        self.active_time_ms = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return f"NodeDevice({self.device_id!r})"


@dataclass(frozen=True)
class NetworkParameters:
    """Channel and PAN id the coordinator selected at start-up."""

    channel: int
    pan_id: int


class Coordinator(NodeDevice):
    """The first device on the network (Section 5.2).

    Scans the RF environment, chooses a channel (11–26, the 2.4 GHz
    IEEE 802.15.4 channels) and a PAN identifier, and starts the network.
    During experiments it collects REPORT frames; ``collected_reports``
    is what the host computer receives over the CP2102 serial bridge.
    """

    def __init__(
        self,
        channel: RadioChannel,
        device_id: str = "coordinator",
        seed: int = 0,
        x: float = 0.0,
        y: float = 0.0,
    ) -> None:
        super().__init__(device_id, channel, x=x, y=y)
        self._rng = random.Random(("coordinator", seed).__repr__())
        self.network_parameters: Optional[NetworkParameters] = None
        self.admitted: List[str] = []
        self.collected_reports: List[Tuple[str, str]] = []

    def start_network(self) -> NetworkParameters:
        """Scan the RF environment and bring the network up."""
        parameters = NetworkParameters(
            channel=self._rng.randint(11, 26),
            pan_id=self._rng.randint(0x0001, 0xFFFE),
        )
        self.network_parameters = parameters
        return parameters

    def admit(self, device: NodeDevice) -> None:
        """Join one device to the network (coordinator must be started)."""
        if self.network_parameters is None:
            raise RuntimeError("coordinator has not started the network")
        if not self.channel.in_range(self.device_id, device.device_id):
            raise ValueError(
                f"device {device.device_id!r} is out of radio range"
            )
        self.admitted.append(device.device_id)

    def receive_reports(self) -> List[Tuple[str, str]]:
        """Drain REPORT payloads from the inbox into the collected log.

        Report payloads are ``"<sender>:<body>"`` strings assembled by
        the experiment harnesses.
        """
        for message in self.drain_inbox():
            sender, _, body = message.partition(":")
            self.collected_reports.append((sender, body))
        return list(self.collected_reports)
