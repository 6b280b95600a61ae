"""Golden digests: the exchange engine and the Figs. 8/14/16 experiments
reproduce, bit for bit, the outputs recorded before the engine was
reduced to its one sequential implementation.

Two kinds of golden:

* **captures** — a deterministic N-device topology runs a seeded
  canonical workload through :class:`SyncExchangeEngine`, and every
  observable effect (per-frame radio traces, per-device active times,
  inboxes, energy totals and itemized ledgers, per-exchange reports) is
  serialized to canonical JSON bytes;
* **published series** — the experiments' with/without-model series,
  the whole network's device state after Fig. 14, and the registered
  scenarios' per-seed results.

Each is pinned by the SHA-256 of its canonical JSON.  There is no
tolerance: a changed digest means a changed result.
"""

import hashlib
import json
import random
from dataclasses import asdict

import pytest

from repro.iotnet.aio import ExchangeRequest, SyncExchangeEngine
from repro.iotnet.experiments import (
    ActiveTimeExperiment,
    InferenceExperiment,
    LightingExperiment,
)
from repro.iotnet.messages import FrameKind
from repro.iotnet.network import ExperimentalNetwork
from repro.iotnet.sensors import LightEnvironment, LightPhase
from repro.simulation import registry


def digest(value) -> str:
    return hashlib.sha256(
        json.dumps(value, sort_keys=True, default=asdict).encode()
    ).hexdigest()


def make_topology(devices, seed=0):
    """A deterministic ``devices``-node network (coordinator excluded).

    Counts divisible by 8 build groups of (3 trustors, 3 honest,
    2 dishonest); divisible by 6, the paper's (2, 2, 2); anything else
    one all-trustor group.  The compact spiral layout keeps every pair
    in radio range at any scale.
    """
    if devices % 8 == 0:
        groups, composition = devices // 8, (3, 3, 2)
    elif devices % 6 == 0:
        groups, composition = devices // 6, (2, 2, 2)
    else:
        groups, composition = 1, (devices, 0, 0)
    network = ExperimentalNetwork(
        groups=groups,
        trustors_per_group=composition[0],
        honest_per_group=composition[1],
        dishonest_per_group=composition[2],
        seed=seed,
        layout="compact",
    )
    network.attach_energy(budget_mj=1e9, keep_ledger=True)
    return network


def exchange_workload(network, seed=0):
    """Every node messages its ring successor (seeded payload and
    fragment sizes, so reassembly and the fragment-latency path both
    run), then every trustor reports to the coordinator."""
    rng = random.Random(repr(("iot-golden-workload", seed)))
    nodes = network.node_devices
    requests = []
    for index, device in enumerate(nodes):
        peer = nodes[(index + 1) % len(nodes)]
        if peer is device:
            peer = network.coordinator
        payload = chr(ord("a") + index % 26) * rng.randint(1, 160)
        requests.append(ExchangeRequest(
            source=device.device_id,
            destination=peer.device_id,
            payload=payload,
            max_fragment_size=rng.choice((16, 64)),
        ))
    for trustor in network.trustors:
        requests.append(ExchangeRequest(
            source=trustor.device_id,
            destination=network.coordinator.device_id,
            payload=f"{trustor.device_id}:ok",
            kind=FrameKind.REPORT,
        ))
    return requests


def capture(devices, seed):
    """Run the canonical workload; every observable effect as a dict."""
    network = make_topology(devices, seed=seed)
    frames = []
    transmit = network.channel.transmit

    def journaled(frame):
        delivery = transmit(frame)
        frames.append({
            "source": frame.source,
            "destination": frame.destination,
            "kind": frame.kind.value,
            "message_id": frame.message_id,
            "fragment": [frame.fragment_index, frame.fragment_count],
            "size_bytes": frame.size_bytes,
            "delivered": delivery.delivered,
            "latency_ms": delivery.latency_ms,
            "retries": delivery.retries,
        })
        return delivery

    network.channel.transmit = journaled
    engine = SyncExchangeEngine(network.device)
    reports = engine.run_exchanges(exchange_workload(network, seed=seed))
    return {
        "devices": {
            device.device_id: {
                "active_time_ms": device.active_time_ms,
                "inbox": list(device.inbox),
                "energy_mj": device.energy.consumed_mj,
                "ledger": device.energy.ledger,
            }
            for device in network.all_devices
        },
        "frames": frames,
        "reports": [asdict(report) for report in reports],
    }


CAPTURE_GOLDENS = {
    (0, 1): "2d6607f6735f532880b77604001ab801cefa80d06cf773f5d9ff9513943f7658",
    (0, 6): "d18d65b7e47b891c468ce346f155b2bf3496367ed4a256dcb2af81f650c236c4",
    (0, 7): "3aa0ccc0b204d472f00e36d081ae445189c302f8deabed34417c0c15d7b244c4",
    (0, 8): "0de308ae0c5869cabd901503402b0f34da5dfc0bbea23f70b37d692de64b62bc",
    (0, 64): "c9bff3b15c14347e5a19af5e4bec927b3238c261afa8b38276d5790c1e787807",
    (11, 1): "b0c524758c287b10f0d5b930607111fbd36470564918c2e170dfdd14d615d156",
    (11, 6): "f69b0ec2f954ab8ced3185a5500086f4b2645c50c112ea0f204aaaf2bdd0731c",
    (11, 7): "a58f3eff39d0b3eeba0914f8b1c471dd094487d9ab1ee566e64cf067b3d2ea9a",
    (11, 8): "2686ee785163c254a6fd6002d58143c494f57c5d640f413835ed283b05ba8e1a",
    (11, 64): "b1245946182c4978d80b72c11855ca3d1ef2f4c78118871acfd96a361fff657b",
}


class TestCaptureGoldens:
    @pytest.mark.parametrize("seed, devices", sorted(CAPTURE_GOLDENS))
    def test_capture_matches_golden(self, seed, devices):
        blob = capture(devices, seed)
        assert digest(blob) == CAPTURE_GOLDENS[seed, devices]

    @pytest.mark.slow
    def test_thousand_device_golden(self):
        """The ROADMAP "thousands of devices" scale."""
        blob = capture(1000, seed=1)
        assert digest(blob) == (
            "ae123980ed6242db88af22a292fc11c2866b6a4d52db5953556eb558381862b5"
        )
        assert len(blob["frames"]) > 1000

    def test_capture_is_deterministic(self):
        assert digest(capture(8, seed=5)) == digest(capture(8, seed=5))

    def test_different_seeds_differ(self):
        assert digest(capture(8, seed=0)) != digest(capture(8, seed=1))

    def test_capture_observes_everything(self):
        """The golden really contains traces, ledgers and inboxes."""
        state = capture(8, seed=0)
        assert len(state["devices"]) == 9  # 8 nodes + coordinator
        assert state["frames"], "the radio trace must record transmissions"
        for device_state in state["devices"].values():
            assert device_state["ledger"]
        assert len(state["reports"]) == 8 + 3  # ring + trustor reports

    def test_workload_covers_every_device(self):
        network = make_topology(8, seed=0)
        requests = exchange_workload(network, seed=0)
        sources = {request.source for request in requests}
        assert sources == {d.device_id for d in network.node_devices}

    def test_far_links_exercise_retries(self):
        """The compact spiral leaves some links past the 110 m reconnect
        range, so the seeded retry path is part of what is pinned."""
        state = capture(64, seed=0)
        assert any(entry["retries"] > 0 for entry in state["frames"])


SHORT_SCHEDULE = LightEnvironment([
    LightPhase(4, 500.0, "LIGHT"),
    LightPhase(4, 15.0, "DARK"),
    LightPhase(4, 500.0, "LIGHT"),
])

SEEDS = [0, 3, 11]

FIG8_GOLDENS = {
    0: "bdaad6e5975c65b638d483d2358344a965a19d17057ff68b2dede8483762f38f",
    3: "9e4f3ce051b16642c1de937923bbc335f2bdf6c0f855862a728e779214ec3bc7",
    11: "6f73b6c9a72fb09906efa191bf9ac953092ca2e8da72eaf5d962fd0cc1fb027c",
}
FIG14_STATE_GOLDENS = {
    0: "b71935a378d7a25a9baa0f95b90814501dab4455779235a979ec2a72f2952a79",
    3: "56124e8e277a65c5d10bd703248aecb0b3f0b05b7183b25f928bca87bc019f05",
    11: "71abaa9164ea8b366943136c4aa0e3f17ad4a2c7e7d460a9ea0d500b70ee02c6",
}
FIG16_GOLDENS = {
    0: "106c63761a7ce7339d5f336e5af2f2e6279ce2ace752e6e5bba2fcfe1272babf",
    3: "c5ad851faa3ac7fe5ab697a594c7a287ff66aaeb992a520d34825a2dd1fc2920",
    11: "5414525dd4c3e7812af67993d0bc5327de294a10f490fba7fbab2004ef64807f",
}
SCENARIO_GOLDENS = {
    "fig8-inference":
        "16c39705d02643cfd7e0626dd462d0894e663ff6d5f6f867e118e0863d25a5ec",
    "fig14-activetime":
        "db7f0628db394aa5192c7949d4457b5e6413ee768c77509dbdf09f987bf1bd79",
    "fig16-light":
        "e2c6248e5e319840a4583fe762cfb824802c207b741c441967e5f7c8b2113486",
}


class TestExperimentGoldens:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_fig8_inference(self, seed):
        result = InferenceExperiment(runs=4, seed=seed).run()
        assert digest([result.with_model, result.without_model]) == (
            FIG8_GOLDENS[seed]
        )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_fig14_activetime(self, seed):
        """At this scale every exchange lands within the reconnect range,
        so the published per-task averages draw no radio randomness."""
        result = ActiveTimeExperiment(tasks_per_trustor=4, seed=seed).run()
        expected = [
            689.0600000000006, 689.0600000000006,
            689.0600000000005, 689.060000000001,
        ]
        assert result.with_model == expected
        assert result.without_model == expected

    @pytest.mark.parametrize("seed", SEEDS)
    def test_fig14_device_state(self, seed):
        """Not just the published series: the whole network is pinned."""
        network = ExperimentalNetwork(seed=seed)
        ActiveTimeExperiment(
            network=network, tasks_per_trustor=3, seed=seed,
        ).run()
        state = {
            d.device_id: [d.active_time_ms, list(d.inbox)]
            for d in network.all_devices
        }
        assert digest(state) == FIG14_STATE_GOLDENS[seed]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_fig16_lighting(self, seed):
        result = LightingExperiment(schedule=SHORT_SCHEDULE, seed=seed).run()
        assert digest(
            [result.with_model, result.without_model, result.labels]
        ) == FIG16_GOLDENS[seed]

    @pytest.mark.parametrize("name", sorted(SCENARIO_GOLDENS))
    def test_registered_scenario(self, name):
        """The registered scenarios' smoke results for seeds 1 and 2,
        so any sweep over them reproduces the recorded values."""
        spec = registry.get(name)
        results = [spec.run(seed, smoke=True) for seed in (1, 2)]
        assert digest(results) == SCENARIO_GOLDENS[name]
