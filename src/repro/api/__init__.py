"""The canonical public surface of the reproduction runtime.

Describe *what* to run with :class:`SweepSpec`, *how* to run it with
:class:`ExecutionProfile`, and hand both to a :class:`Client`::

    from repro.api import Client, ExecutionProfile, SweepSpec

    client = Client(ExecutionProfile(workers=4))
    handle = client.submit(SweepSpec("fig7-mutuality", seeds=range(1, 9)))
    sweep = handle.result()

    campaign = client.submit_campaign([
        SweepSpec(name, seeds=[1, 2, 3], smoke=True)
        for name in registry.names()
    ])
    campaign.result().write_exports("exports/")

Everything here drives :func:`repro.simulation.sweep.execute_sweep`,
the same engine as ``repro sweep`` and ``repro serve``, so results are
bit-identical across all surfaces — profiles change speed and
placement, never values.
"""

from repro.api.client import (
    CampaignHandle,
    CampaignResult,
    CancelledError,
    Client,
    SweepHandle,
)
from repro.api.spec import (
    EXECUTION_BACKENDS,
    ON_ERROR_MODES,
    CampaignManifest,
    ExecutionProfile,
    SweepSpec,
    campaign_labels,
    load_campaign_manifest,
    validate_execution,
)

__all__ = [
    "EXECUTION_BACKENDS",
    "ON_ERROR_MODES",
    "CampaignHandle",
    "CampaignManifest",
    "CampaignResult",
    "CancelledError",
    "Client",
    "ExecutionProfile",
    "SweepFailureError",
    "SweepHandle",
    "SweepSpec",
    "WorkerCrashError",
    "campaign_labels",
    "load_campaign_manifest",
    "validate_execution",
]


def __getattr__(name: str):
    # The failure types live next to the engines that raise them; pull
    # them in lazily so importing repro.api stays light (the client
    # defers its simulation imports for the same reason).
    if name == "SweepFailureError":
        from repro.simulation.sweep import SweepFailureError

        return SweepFailureError
    if name == "WorkerCrashError":
        from repro.simulation.parallel import WorkerCrashError

        return WorkerCrashError
    raise AttributeError(f"module 'repro.api' has no attribute {name!r}")
