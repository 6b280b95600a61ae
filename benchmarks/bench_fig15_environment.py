"""Fig. 15 — expected-success-rate tracking under a changing environment
(perfect → degraded → partially recovered), comparing the control, the
traditional update and the proposed r(·) de-biased update (Section 5.7)."""

from repro.analysis.ascii_chart import ascii_chart
from repro.analysis.report import ComparisonReport
from repro.analysis.series import LabelledSeries
from repro.simulation.config import EnvironmentConfig
from repro.simulation.registry import get

SPEC = get("fig15-environment")


def _compute():
    return SPEC.run_full(seed=1, runs=100)


def test_fig15_environment_tracking(once):
    result = once(_compute)

    print()
    print(ascii_chart(
        [
            LabelledSeries(series.label, series.values)
            for series in result.curves().values()
        ],
        title="Fig. 15 — expected success rate over 300 iterations",
    ))

    actual = EnvironmentConfig().actual_success_rate
    errors = result.tracking_errors(actual)

    def window_mean(series, lo, hi):
        values = series.values[lo:hi]
        return sum(values) / len(values)

    report = ComparisonReport("Fig. 15")
    report.add(
        "control converges to 0.8",
        window_mean(result.no_influence, 80, 100), paper=0.8,
        shape_holds=abs(
            window_mean(result.no_influence, 80, 100) - actual
        ) < 0.05,
    )
    report.add(
        "traditional tracks degraded 0.32",
        window_mean(result.traditional, 180, 200), paper=0.32,
        shape_holds=abs(
            window_mean(result.traditional, 180, 200) - 0.32
        ) < 0.08,
        note="error+delay: follows S*minE, not the competence",
    )
    report.add(
        "proposed recovers 0.8 in hostile phase",
        window_mean(result.proposed, 170, 200), paper=0.8,
        shape_holds=abs(
            window_mean(result.proposed, 170, 200) - actual
        ) < 0.15,
    )
    report.add(
        "proposed MAE < traditional MAE", errors["proposed"],
        shape_holds=errors["proposed"] < 0.5 * errors["traditional"],
        note=f"traditional MAE {errors['traditional']:.3f}",
    )
    print(report.render())
    assert report.all_shapes_hold
