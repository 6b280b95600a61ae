"""Fig. 9 — task-delegation success rates vs number of characteristics,
for the traditional / conservative / aggressive transfer methods over the
three networks (Section 5.5)."""

from repro.analysis.ascii_chart import ascii_chart
from repro.analysis.report import ComparisonReport
from repro.analysis.series import LabelledSeries
from repro.core.transitivity import TransitivityMode
from repro.simulation.registry import get
from repro.socialnet.datasets import NETWORK_PROFILES

COUNTS = (4, 5, 6, 7)
SPEC = get("fig12-overhead")


def _compute():
    # All three methods run on one simulation per (network, K).
    return {
        name: [
            result
            for count in COUNTS
            for result in SPEC.run_full(
                seed=1, network=name, num_characteristics=count
            ).values()
        ]
        for name in NETWORK_PROFILES
    }


def test_fig9_success_rates(once):
    results = once(_compute)

    curves = []
    for name, sweep in results.items():
        for mode in TransitivityMode:
            values = [
                r.success_rate for r in sweep if r.mode is mode
            ]
            curves.append(LabelledSeries(f"{name} {mode.value}", values))
    print()
    print(ascii_chart(
        curves, title="Fig. 9 — success rate vs #characteristics (4..7)",
    ))

    report = ComparisonReport("Fig. 9")
    for name, sweep in results.items():
        by = {
            (r.mode, r.num_characteristics): r.success_rate for r in sweep
        }
        for k in COUNTS:
            report.add(
                f"{name} K={k} proposed > traditional",
                by[(TransitivityMode.AGGRESSIVE, k)],
                shape_holds=(
                    by[(TransitivityMode.AGGRESSIVE, k)]
                    > by[(TransitivityMode.TRADITIONAL, k)]
                    and by[(TransitivityMode.CONSERVATIVE, k)]
                    > by[(TransitivityMode.TRADITIONAL, k)]
                ),
            )
        report.add(
            f"{name} success decreasing in K",
            by[(TransitivityMode.AGGRESSIVE, 7)],
            shape_holds=by[(TransitivityMode.AGGRESSIVE, 7)]
            < by[(TransitivityMode.AGGRESSIVE, 4)],
        )
        improvement = (
            by[(TransitivityMode.AGGRESSIVE, 4)]
            - by[(TransitivityMode.TRADITIONAL, 4)]
        )
        report.add(
            f"{name} aggressive improvement @K=4", improvement, paper=0.2,
            shape_holds=improvement > 0.1,
            note="paper: improvement of more than 0.2",
        )
    print(report.render())
    assert report.all_shapes_hold
