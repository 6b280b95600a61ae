"""Hypothesis properties of the IoT exchange engine.

Over random topologies, workloads and seeds:

* **Reproducibility** — the same seed and workload give the same device
  state (active times, energy totals, inboxes) and the same reports,
  and nothing that ran earlier in the process changes that;
* **Batching neutrality** — splitting a workload across several
  ``run_exchanges`` calls gives what one call gives (the experiments
  defer each round's exchanges into one batch);
* **Conservation** — every created frame is delivered-and-processed or
  counted dropped;
* **Addressing** — a misaddressed exchange raises before any device
  changes, or, when counted, is skipped without disturbing the rest.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.iotnet.aio import ExchangeRequest, SyncExchangeEngine
from repro.iotnet.messages import FrameKind
from repro.iotnet.network import ExperimentalNetwork, UnknownDeviceError

topologies = st.fixed_dictionaries({
    "groups": st.integers(min_value=1, max_value=2),
    "trustors_per_group": st.integers(min_value=1, max_value=2),
    "honest_per_group": st.integers(min_value=1, max_value=2),
    "dishonest_per_group": st.integers(min_value=0, max_value=2),
})


def build_network(shape, seed):
    network = ExperimentalNetwork(seed=seed, layout="compact", **shape)
    network.attach_energy(budget_mj=1e9)
    return network


def random_workload(network, rng_seed):
    """A seeded random workload over random device pairs."""
    rng = random.Random(repr(("iot-property-workload", rng_seed)))
    devices = network.all_devices
    requests = []
    for _ in range(rng.randint(1, 12)):
        source, destination = rng.sample(devices, 2)
        requests.append(ExchangeRequest(
            source=source.device_id,
            destination=destination.device_id,
            payload=rng.choice("xyz") * rng.randint(0, 120),
            max_fragment_size=rng.choice((4, 16, 64)),
            kind=rng.choice(list(FrameKind)),
        ))
    return requests


def device_state(network):
    return {
        device.device_id: (
            device.active_time_ms,
            device.energy.consumed_mj,
            tuple(device.inbox),
        )
        for device in network.all_devices
    }


def run(shape, seed, batches=None):
    """Run ``seed``'s workload on a fresh network, optionally split."""
    network = build_network(shape, seed)
    requests = random_workload(network, seed)
    engine = SyncExchangeEngine(network.device)
    cuts = [0, *(batches or []), len(requests)]
    reports = []
    for start, stop in zip(cuts, cuts[1:]):
        reports.extend(engine.run_exchanges(requests[start:stop]))
    return device_state(network), reports


@settings(max_examples=15, deadline=None)
@given(shape=topologies, seed=st.integers(0, 2**16))
def test_sync_run_is_reproducible(shape, seed):
    first = run(shape, seed)
    # Unrelated traffic in between must not leak into the rerun.
    run(shape, seed + 1)
    assert run(shape, seed) == first


@settings(max_examples=15, deadline=None)
@given(shape=topologies, seed=st.integers(0, 2**16),
       cut=st.floats(0.0, 1.0))
def test_batch_split_is_result_neutral(shape, seed, cut):
    whole = run(shape, seed)
    split_at = int(cut * len(whole[1]))
    assert run(shape, seed, batches=[split_at]) == whole


@settings(max_examples=20, deadline=None)
@given(shape=topologies, seed=st.integers(0, 2**16))
def test_frames_are_conserved(shape, seed):
    """created == delivered + dropped, and every delivered frame is
    processed by its receiver."""
    network = build_network(shape, seed)
    engine = SyncExchangeEngine(network.device)
    requests = random_workload(network, seed)
    reports = engine.run_exchanges(requests)
    accounting = engine.accounting
    assert len(reports) == accounting.exchanges == len(requests)
    assert accounting.frames_created == sum(r.frames for r in reports)
    assert accounting.frames_created == (
        accounting.frames_delivered + accounting.frames_dropped
    )
    assert accounting.frames_processed == accounting.frames_delivered
    accounting.verify()


@settings(max_examples=15, deadline=None)
@given(shape=topologies, seed=st.integers(0, 2**16),
       position=st.floats(0.0, 1.0))
def test_misaddressed_batch_mutates_nothing(shape, seed, position):
    network = build_network(shape, seed)
    requests = random_workload(network, seed)
    ghost = ExchangeRequest(requests[0].source, "ghost", "boo")
    requests.insert(int(position * len(requests)), ghost)
    before = device_state(network)
    with pytest.raises(UnknownDeviceError):
        SyncExchangeEngine(network.device).run_exchanges(requests)
    assert device_state(network) == before


@settings(max_examples=15, deadline=None)
@given(shape=topologies, seed=st.integers(0, 2**16),
       positions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3))
def test_count_mode_skips_only_the_unroutable(shape, seed, positions):
    """Counted ghosts leave the routable exchanges' outcome untouched."""
    expected_state, expected_reports = run(shape, seed)
    network = build_network(shape, seed)
    requests = random_workload(network, seed)
    for position in positions:
        ghost = ExchangeRequest(requests[0].source, "ghost", "boo")
        requests.insert(int(position * len(requests)), ghost)
    engine = SyncExchangeEngine(network.device, on_unknown="count")
    reports = engine.run_exchanges(requests)
    routed = [
        report for request, report in zip(requests, reports)
        if request.destination != "ghost"
    ]
    assert device_state(network) == expected_state
    assert routed == expected_reports
    assert engine.accounting.unroutable_exchanges == len(positions)
