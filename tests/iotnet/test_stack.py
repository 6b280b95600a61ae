"""Tests for the five-layer Z-Stack pipeline."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.iotnet.device import NodeDevice
from repro.iotnet.messages import Frame
from repro.iotnet.radio import RadioChannel
from repro.iotnet.stack import DEFAULT_LAYERS, LayerSpec, ZStack


@pytest.fixture
def stack() -> ZStack:
    return ZStack()


def frame(payload="x" * 20) -> Frame:
    return Frame(source="a", destination="b", payload=payload)


class TestLayers:
    def test_default_layers_match_zstack(self, stack):
        # Z-Stack 2.5.0's five layers in top-down order.
        assert stack.layer_names == ["ZDO", "AF", "APS", "NWK", "ZMAC"]

    def test_empty_stack_rejected(self):
        with pytest.raises(ValueError):
            ZStack(layers=())

    def test_layer_validation(self):
        with pytest.raises(ValueError):
            LayerSpec("bad", header_bytes=-1, latency_ms=0.0)
        with pytest.raises(ValueError):
            LayerSpec("bad", header_bytes=0, latency_ms=-0.1)


class TestTraversal:
    def test_send_down_visits_top_to_bottom(self, stack):
        trace = stack.send_down(frame())
        assert trace.visited == ["ZDO", "AF", "APS", "NWK", "ZMAC"]
        assert trace.direction == "down"

    def test_receive_up_visits_bottom_to_top(self, stack):
        trace = stack.receive_up(frame())
        assert trace.visited == ["ZMAC", "NWK", "APS", "AF", "ZDO"]

    def test_latency_is_sum_of_layers(self, stack):
        trace = stack.send_down(frame())
        assert trace.latency_ms == pytest.approx(
            sum(layer.latency_ms for layer in DEFAULT_LAYERS)
        )
        assert trace.latency_ms == pytest.approx(stack.per_frame_latency_ms)

    def test_up_and_down_cost_the_same(self, stack):
        down = stack.send_down(frame())
        up = stack.receive_up(frame())
        assert down.latency_ms == pytest.approx(up.latency_ms)

    def test_overhead_is_total_headers(self, stack):
        trace = stack.send_down(frame())
        assert trace.overhead_bytes == stack.total_header_bytes

    def test_on_air_bytes(self, stack):
        f = frame(payload="x" * 10)
        assert stack.on_air_bytes(f) == 10 + stack.total_header_bytes

    def test_per_frame_latency_is_fragmentation_lever(self, stack):
        # N fragments cost N traversals: the Fig. 14 attack's mechanism.
        one = stack.per_frame_latency_ms
        assert 60 * one > 10 * (one * 5)


layer_tuples = st.lists(
    st.builds(
        LayerSpec,
        name=st.text(max_size=4),
        header_bytes=st.integers(min_value=0, max_value=64),
        latency_ms=st.floats(
            min_value=0.0, max_value=10.0,
            allow_nan=False, allow_infinity=False,
        ),
    ),
    min_size=1, max_size=8,
).map(tuple)


class TestTraversalLatency:
    """``send_message`` adds ``down_latency_ms`` / ``up_latency_ms`` per
    frame instead of tracing each traversal; they must be the traced
    latencies bit for bit."""

    @given(layer_tuples, st.text(max_size=30))
    def test_fixed_latencies_equal_the_traced_ones(self, layers, payload):
        stack = ZStack(layers)
        assert stack.down_latency_ms == stack.send_down(
            frame(payload)
        ).latency_ms
        assert stack.up_latency_ms == stack.receive_up(
            frame(payload)
        ).latency_ms

    def test_layers_are_fixed_at_construction(self, stack):
        with pytest.raises(AttributeError):
            stack.layers = DEFAULT_LAYERS[:1]

    @given(layer_tuples, layer_tuples, st.integers(1, 12))
    @settings(max_examples=30)
    def test_exchange_charges_the_traced_latencies(
        self, sender_layers, receiver_layers, fragment_size
    ):
        channel = _JournalledChannel(seed=0)
        sender = NodeDevice("s", channel, stack=ZStack(sender_layers))
        receiver = NodeDevice(
            "r", channel, stack=ZStack(receiver_layers), x=10.0
        )
        report = sender.send_message(
            receiver, "0123456789" * 3, max_fragment_size=fragment_size
        )
        # Rebuild the charges from per-frame traces and the journalled
        # deliveries, in the order the exchange adds them.
        sent = received = 0.0
        for sent_frame, delivery in channel.journal:
            sent += sender.stack.send_down(sent_frame).latency_ms
            if delivery.delivered:
                sent += delivery.latency_ms
                received += delivery.latency_ms
                received += receiver.stack.receive_up(sent_frame).latency_ms
        assert len(channel.journal) == report.frames
        assert report.sender_active_ms == sent
        assert report.receiver_active_ms == received


class _JournalledChannel(RadioChannel):
    def __init__(self, seed):
        super().__init__(seed=seed)
        self.journal = []

    def transmit(self, frame):
        delivery = super().transmit(frame)
        self.journal.append((frame, delivery))
        return delivery
