"""Unit tests for the exchange engine the IoT experiments flush through."""

import pytest

from repro.iotnet.aio import ExchangeRequest, SyncExchangeEngine
from repro.iotnet.network import ExperimentalNetwork, UnknownDeviceError


def small_network(seed: int = 0) -> ExperimentalNetwork:
    return ExperimentalNetwork(
        groups=1, trustors_per_group=1, honest_per_group=1,
        dishonest_per_group=1, seed=seed,
    )


class TestUnknownDestination:
    """The silent-drop fix: unknown ids raise (or are counted), never no-op."""

    def test_raises_by_default(self):
        network = small_network()
        engine = SyncExchangeEngine(network.device)
        with pytest.raises(UnknownDeviceError):
            engine.run_exchanges(
                [ExchangeRequest("g0-trustor-0", "ghost", "boo")]
            )

    def test_count_mode_accounts_and_continues(self):
        network = small_network()
        engine = SyncExchangeEngine(network.device, on_unknown="count")
        reports = engine.run_exchanges([
            ExchangeRequest("g0-trustor-0", "ghost", "boo"),
            ExchangeRequest("g0-trustor-0", "g0-honest-0", "hello"),
        ])
        assert len(reports) == 2
        assert not reports[0].delivered and reports[0].frames == 0
        assert reports[1].delivered
        assert engine.accounting.unroutable_exchanges == 1
        assert network.device("g0-honest-0").inbox == ["hello"]


class TestSyncEngineGuards:
    def test_misaddressed_batch_mutates_nothing(self):
        """The engine resolves up front: a bad destination anywhere in
        the batch raises before any device state changes."""
        network = small_network()
        engine = SyncExchangeEngine(network.device)
        with pytest.raises(UnknownDeviceError):
            engine.run_exchanges([
                ExchangeRequest("g0-trustor-0", "g0-honest-0", "ok"),
                ExchangeRequest("g0-trustor-0", "ghost", "boo"),
            ])
        for device in network.all_devices:
            assert device.active_time_ms == 0.0
            assert device.inbox == []

    def test_bad_on_unknown(self):
        with pytest.raises(ValueError):
            SyncExchangeEngine(small_network().device, on_unknown="ignore")

    def test_bad_request_fields(self):
        with pytest.raises(ValueError):
            ExchangeRequest("a", "b", "x", max_fragment_size=0)


class TestSyncEngineAccounting:
    def test_sync_accounting_balances_and_verifies(self):
        network = small_network()
        engine = SyncExchangeEngine(network.device)
        engine.run_exchanges([
            ExchangeRequest("g0-trustor-0", "g0-honest-0", "a" * 100,
                            max_fragment_size=16),
        ])
        accounting = engine.accounting
        assert accounting.frames_created == 7
        assert accounting.frames_delivered == 7
        assert accounting.frames_processed == 7
        assert accounting.frames_dropped == 0
        accounting.verify()  # the documented self-check must pass

    def test_empty_batch(self):
        engine = SyncExchangeEngine(small_network().device)
        assert engine.run_exchanges([]) == []
        assert engine.accounting.exchanges == 0
        assert engine.accounting.frames_created == 0

    def test_accounting_covers_the_latest_batch_only(self):
        network = small_network()
        engine = SyncExchangeEngine(network.device)
        engine.run_exchanges([
            ExchangeRequest("g0-trustor-0", "g0-honest-0", "a" * 100,
                            max_fragment_size=16),
        ])
        engine.run_exchanges([
            ExchangeRequest("g0-trustor-0", "g0-honest-0", "b"),
        ])
        assert engine.accounting.exchanges == 1
        assert engine.accounting.frames_created == 1
        assert network.device("g0-honest-0").inbox == ["a" * 100, "b"]


class TestSyncEngineReportTotals:
    def test_totals_snapshot_accumulators(self):
        network = small_network()
        engine = SyncExchangeEngine(network.device)
        trustor = network.device("g0-trustor-0")
        honest = network.device("g0-honest-0")
        [first, second] = engine.run_exchanges([
            ExchangeRequest("g0-trustor-0", "g0-honest-0", "one"),
            ExchangeRequest("g0-honest-0", "g0-trustor-0", "two"),
        ])
        assert first.sender_total_before_ms == 0.0
        assert first.sender_total_after_ms == pytest.approx(
            first.sender_active_ms
        )
        # The response's receiver is the trustor again: its "after" is
        # the final accumulator value.
        assert second.receiver_total_after_ms == trustor.active_time_ms
        assert honest.active_time_ms == (
            first.receiver_total_after_ms
            + (second.sender_total_after_ms - second.sender_total_before_ms)
        )
