"""Experimental IoT network substrate (Section 5.2).

The paper validates its trust model on a physical ZigBee network: CC2530
node devices running TI Z-Stack 2.5.0 (five layers: ZDO, AF, APS, NWK,
ZMAC), one coordinator that starts the IEEE 802.15.4 network and collects
results, and optical sensors for the lighting experiment.  This package
simulates that testbed:

* :mod:`repro.iotnet.messages` — frames and fragmentation/reassembly,
* :mod:`repro.iotnet.radio` — distance-based radio channel with latency,
* :mod:`repro.iotnet.stack` — the five-layer Z-Stack pipeline,
* :mod:`repro.iotnet.device` — node devices and the coordinator,
* :mod:`repro.iotnet.sensors` — optical sensors and light schedules,
* :mod:`repro.iotnet.network` — the 5-group experimental topology,
* :mod:`repro.iotnet.experiments` — the Fig. 8 / Fig. 14 / Fig. 16 runs,
* :mod:`repro.iotnet.aio` — the exchange engine the experiments flush
  their frame exchanges through.
"""

from repro.iotnet.aio import (
    ExchangeAccounting,
    ExchangeRequest,
    FrameLossError,
    SyncExchangeEngine,
)
from repro.iotnet.device import Coordinator, NodeDevice
from repro.iotnet.energy import EnergyMeter, EnergyProfile, account_exchange
from repro.iotnet.experiments import (
    ActiveTimeExperiment,
    InferenceExperiment,
    LightingExperiment,
)
from repro.iotnet.messages import Frame, FrameKind, Reassembler, fragment_payload
from repro.iotnet.network import (
    ExperimentalNetwork,
    NodeGroup,
    UnknownDeviceError,
)
from repro.iotnet.radio import RadioChannel, RadioConfig
from repro.iotnet.sensors import LightEnvironment, LightPhase, OpticalSensor
from repro.iotnet.stack import ZStack

__all__ = [
    "ActiveTimeExperiment",
    "Coordinator",
    "EnergyMeter",
    "EnergyProfile",
    "ExchangeAccounting",
    "ExchangeRequest",
    "ExperimentalNetwork",
    "Frame",
    "FrameKind",
    "FrameLossError",
    "InferenceExperiment",
    "LightEnvironment",
    "LightPhase",
    "LightingExperiment",
    "NodeDevice",
    "NodeGroup",
    "OpticalSensor",
    "RadioChannel",
    "RadioConfig",
    "Reassembler",
    "SyncExchangeEngine",
    "UnknownDeviceError",
    "ZStack",
    "account_exchange",
    "fragment_payload",
]
