"""Crowd sensing under a changing environment (Sections 4.5 / 5.7).

A fleet of optical-sensor devices serves image-acquisition tasks while
the ambient light changes (light -> dark -> light), and malicious
devices join only when conditions look favourable.  Compares trustors
that de-bias observations with the Cannikin r(.) rule (Eq. 29) against
trustors that take observations at face value — the Fig. 16 experiment
— and shows the Fig. 15 tracking curves behind it.

Run:  python examples/crowd_sensing_environment.py
"""

from repro.analysis.ascii_chart import ascii_chart
from repro.analysis.series import LabelledSeries
from repro.iotnet.experiments import LightingExperiment
from repro.simulation.config import EnvironmentConfig
from repro.simulation.environment import EnvironmentSimulation


def tracking_curves() -> None:
    print("=== Fig. 15: tracking intrinsic competence through weather ===")
    simulation = EnvironmentSimulation(EnvironmentConfig(runs=60), seed=4)
    result = simulation.run()
    print(ascii_chart(
        [
            LabelledSeries("proposed r(.)", result.proposed.values),
            LabelledSeries("traditional", result.traditional.values),
            LabelledSeries("effective rate", result.effective_rate.values),
        ],
        width=64, height=12,
        title="expected success rate; environment 1.0 -> 0.4 -> 0.7",
    ))
    errors = result.tracking_errors(simulation.config.actual_success_rate)
    print(f"mean absolute tracking error: proposed "
          f"{errors['proposed']:.3f} vs traditional "
          f"{errors['traditional']:.3f}\n")


def lighting_experiment() -> None:
    print("=== Fig. 16: optical sensors, LIGHT / DARK / LIGHT ===")
    result = LightingExperiment(seed=4).run()
    print(ascii_chart(
        [
            LabelledSeries("with proposed model", result.with_model),
            LabelledSeries("without proposed model", result.without_model),
        ],
        width=64, height=12,
        title="total net profit per experiment",
    ))
    with_final = result.final_phase_mean(result.with_model)
    without_final = result.final_phase_mean(result.without_model)
    print(f"final light period: with model {with_final:.0f} vs "
          f"without {without_final:.0f}")
    print("  -> de-biasing keeps trust in the normal devices through the"
          " dark period, so they are re-selected when light returns")


if __name__ == "__main__":
    tracking_curves()
    lighting_experiment()
