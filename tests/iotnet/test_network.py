"""Tests for the 5-group experimental topology."""

import pytest

from repro.iotnet.network import ExperimentalNetwork, UnknownDeviceError


@pytest.fixture(scope="module")
def network() -> ExperimentalNetwork:
    return ExperimentalNetwork(seed=0)


class TestTopology:
    def test_five_groups(self, network):
        assert len(network.groups) == 5

    def test_group_composition(self, network):
        for group in network.groups:
            assert len(group.trustors) == 2
            assert len(group.honest_trustees) == 2
            assert len(group.dishonest_trustees) == 2

    def test_thirty_devices_plus_coordinator(self, network):
        assert len(network.trustors) == 10
        assert len(network.trustees) == 20
        assert network.coordinator.network_parameters is not None

    def test_all_devices_admitted(self, network):
        assert len(network.coordinator.admitted) == 30

    def test_device_lookup(self, network):
        device = network.device("g0-trustor-0")
        assert device.device_id == "g0-trustor-0"
        assert network.device("coordinator") is network.coordinator

    def test_unknown_device_rejected(self, network):
        with pytest.raises(KeyError):
            network.device("ghost")

    def test_group_of(self, network):
        group = network.group_of("g2-honest-1")
        assert group.index == 2

    def test_group_of_unknown_rejected(self, network):
        with pytest.raises(KeyError):
            network.group_of("ghost")

    def test_honesty_classification(self, network):
        assert network.is_honest_trustee("g0-honest-0")
        assert not network.is_honest_trustee("g0-dishonest-0")
        assert not network.is_honest_trustee("g0-trustor-0")

    def test_all_devices_in_coordinator_range(self, network):
        for device in network.trustors + network.trustees:
            assert network.channel.in_range(
                "coordinator", device.device_id
            )

    def test_reset_active_times(self, network):
        trustor = network.trustors[0]
        trustee = network.trustees[0]
        trustor.send_message(trustee, "ping")
        network.reset_active_times()
        assert trustor.active_time_ms == 0.0
        assert trustee.active_time_ms == 0.0

    def test_invalid_group_count_rejected(self):
        with pytest.raises(ValueError):
            ExperimentalNetwork(groups=0)

    def test_membership_protocol(self, network):
        assert "coordinator" in network
        assert "g0-trustor-0" in network
        assert "ghost" not in network

    def test_device_listings(self, network):
        assert len(network.node_devices) == 30
        assert len(network.all_devices) == 31
        assert network.all_devices[0] is network.coordinator


class TestUnknownDeviceRegression:
    """Delivery to an unknown device id must raise, never no-op.

    ``UnknownDeviceError`` subclasses ``KeyError`` so pre-existing
    callers catching ``KeyError`` keep working, but the failure is now
    a named contract the exchange engines propagate (or count as
    unroutable) instead of a silent drop.
    """

    def test_device_lookup_raises_typed_error(self):
        network = ExperimentalNetwork(seed=0)
        with pytest.raises(UnknownDeviceError):
            network.device("ghost")

    def test_unknown_device_error_is_a_key_error(self):
        assert issubclass(UnknownDeviceError, KeyError)

    def test_group_of_unknown_raises_typed_error(self):
        network = ExperimentalNetwork(seed=0)
        with pytest.raises(UnknownDeviceError):
            network.group_of("ghost")

    def test_misaddressed_exchange_raises_through_engine(self):
        from repro.iotnet.aio import ExchangeRequest, SyncExchangeEngine

        network = ExperimentalNetwork(seed=0)
        engine = SyncExchangeEngine(network.device)
        with pytest.raises(UnknownDeviceError):
            engine.run_exchanges(
                [ExchangeRequest("g0-trustor-0", "ghost", "lost?")]
            )


class TestCompactLayout:
    def test_everything_in_range_at_scale(self):
        network = ExperimentalNetwork(
            groups=40, trustors_per_group=3, honest_per_group=3,
            dishonest_per_group=2, layout="compact", seed=0,
        )
        devices = network.all_devices
        assert len(devices) == 321
        channel = network.channel
        # Spot-check the extremes: first, middle and last devices all
        # reach each other (the spiral bounds any pair within 230 m).
        sample = [devices[0], devices[1], devices[160], devices[-1]]
        for a in sample:
            for b in sample:
                if a is not b:
                    assert channel.in_range(a.device_id, b.device_id)

    def test_paper_layout_overflows_radio_range_at_scale(self):
        # The seed grid walks out of the coordinator's range past ~6
        # groups — the compact layout exists precisely for this.
        with pytest.raises(ValueError):
            ExperimentalNetwork(groups=40, layout="paper")

    def test_unknown_layout_rejected(self):
        with pytest.raises(ValueError):
            ExperimentalNetwork(layout="hexgrid")

    def test_attach_energy_covers_every_device(self):
        network = ExperimentalNetwork(
            groups=1, layout="compact", seed=0
        )
        network.attach_energy(budget_mj=5.0, keep_ledger=True)
        for device in network.all_devices:
            assert device.energy is not None
            assert device.energy.budget_mj == 5.0
            assert device.energy.ledger == []
