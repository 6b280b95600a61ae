"""Every artifact command's numbers, pinned to the simulation classes.

Each case runs one ``repro <artifact> --json PATH`` command and checks
the export byte for byte against the same rows or curves computed
straight from the experiment classes, with the parameters the command
has always used: ``--seed`` seeds both the generated network and the
simulation, and the iotnet figures build their own default network.
"""

import pytest

from repro.analysis.export import rows_to_json, series_to_json
from repro.analysis.series import LabelledSeries
from repro.cli import main
from repro.core.policy import NetProfitPolicy, SuccessRatePolicy
from repro.core.transitivity import TransitivityMode
from repro.iotnet.experiments import (
    ActiveTimeExperiment,
    InferenceExperiment,
    LightingExperiment,
)
from repro.simulation.config import (
    DelegationConfig,
    EnvironmentConfig,
    MutualityConfig,
    TransitivityConfig,
)
from repro.simulation.delegation import DelegationSimulation
from repro.simulation.environment import EnvironmentSimulation
from repro.simulation.mutuality import MutualitySimulation
from repro.simulation.transitivity import TransitivitySimulation
from repro.socialnet.datasets import load_network
from repro.socialnet.metrics import connectivity_report

NETWORK = "twitter"
SEED = 2


def _graph():
    return load_network(NETWORK, seed=SEED)


def _table1():
    return rows_to_json([connectivity_report(_graph()).as_row()])


def _fig7():
    rows = []
    for theta in (0.0, 0.3, 0.6):
        result = MutualitySimulation(
            _graph(), MutualityConfig(threshold=theta), seed=SEED
        ).run()
        rows.append({
            "network": NETWORK, "theta": theta, **result.rates.as_row(),
        })
    return rows_to_json(rows)


def _fig9():
    rows = []
    for count in (4, 5, 6, 7):
        simulation = TransitivitySimulation(
            _graph(), TransitivityConfig(num_characteristics=count),
            seed=SEED,
        )
        rows.extend(
            simulation.run(mode).as_row() for mode in TransitivityMode
        )
    return rows_to_json(rows)


def _table2():
    simulation = TransitivitySimulation(
        _graph(), TransitivityConfig(), seed=SEED, property_based_tasks=True
    )
    return rows_to_json(
        [simulation.run(mode).as_row() for mode in TransitivityMode]
    )


def _fig13():
    simulation = DelegationSimulation(
        _graph(), DelegationConfig(iterations=30), seed=SEED
    )
    first = simulation.run(SuccessRatePolicy(), "first strategy")
    second = simulation.run(NetProfitPolicy(), "second strategy")
    return series_to_json([
        LabelledSeries(
            f"{NETWORK} (second strategy)", second.series.smoothed(50)
        ),
        LabelledSeries(
            f"{NETWORK} (first strategy)", first.series.smoothed(50)
        ),
    ])


def _fig15_result():
    return EnvironmentSimulation(EnvironmentConfig(runs=5), seed=1).run()


def _fig15():
    return series_to_json([
        LabelledSeries(series.label, series.values)
        for series in _fig15_result().curves().values()
    ])


def _experiment_curves(result, order):
    labels = {
        "with": ("With Proposed Model", result.with_model),
        "without": ("Without Proposed Model", result.without_model),
    }
    return series_to_json([LabelledSeries(*labels[key]) for key in order])


def _fig8():
    return _experiment_curves(
        InferenceExperiment(runs=50, seed=1).run(), ("with", "without")
    )


def _fig14():
    return _experiment_curves(
        ActiveTimeExperiment(seed=1).run(), ("without", "with")
    )


def _fig16():
    return _experiment_curves(
        LightingExperiment(seed=1).run(), ("with", "without")
    )


_NETWORK_ARGS = ["--network", NETWORK, "--seed", str(SEED)]

CASES = {
    "table1": (_NETWORK_ARGS, _table1),
    "fig7": (_NETWORK_ARGS, _fig7),
    "fig9": (_NETWORK_ARGS, _fig9),
    "table2": (_NETWORK_ARGS, _table2),
    "fig13": (_NETWORK_ARGS + ["--iterations", "30"], _fig13),
    "fig15": (["--runs", "5"], _fig15),
    "fig8": ([], _fig8),
    "fig14": ([], _fig14),
    "fig16": ([], _fig16),
}


@pytest.mark.parametrize("command", list(CASES))
def test_json_export_matches_the_simulation_classes(
    command, tmp_path, capsys
):
    args, expected = CASES[command]
    path = tmp_path / f"{command}.json"
    assert main([command, *args, "--json", str(path)]) == 0
    capsys.readouterr()
    assert path.read_text() == expected() + "\n"


def test_fig15_prints_the_tracking_errors(capsys):
    assert main(["fig15", "--runs", "5"]) == 0
    out = capsys.readouterr().out
    result = _fig15_result()

    def mae(series):
        return sum(abs(v - 0.8) for v in series.values) / len(series.values)

    assert (
        f"\nMAE: proposed {mae(result.proposed):.3f}, "
        f"traditional {mae(result.traditional):.3f}\n"
    ) in out
