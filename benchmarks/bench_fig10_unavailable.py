"""Fig. 10 — unavailable rates vs number of characteristics for the three
trust-transfer methods (Section 5.5)."""

from repro.analysis.ascii_chart import ascii_chart
from repro.analysis.report import ComparisonReport
from repro.analysis.series import LabelledSeries
from repro.core.transitivity import TransitivityMode
from repro.simulation.registry import get
from repro.socialnet.datasets import NETWORK_PROFILES

SPEC = get("fig12-overhead")
COUNTS = (4, 5, 6, 7)


def _compute():
    # All three methods run on one simulation per (network, K).
    return {
        name: [
            result
            for k in COUNTS
            for result in SPEC.run_full(
                seed=1, network=name, num_characteristics=k
            ).values()
        ]
        for name in NETWORK_PROFILES
    }


def test_fig10_unavailable_rates(once):
    results = once(_compute)

    curves = []
    for name, sweep in results.items():
        for mode in TransitivityMode:
            values = [
                r.unavailable_rate for r in sweep if r.mode is mode
            ]
            curves.append(LabelledSeries(f"{name} {mode.value}", values))
    print()
    print(ascii_chart(
        curves,
        title="Fig. 10 — unavailable rate vs #characteristics (4..7)",
    ))

    report = ComparisonReport("Fig. 10")
    for name, sweep in results.items():
        by = {
            (r.mode, r.num_characteristics): r.unavailable_rate
            for r in sweep
        }
        for k in COUNTS:
            report.add(
                f"{name} K={k} proposed < traditional",
                by[(TransitivityMode.AGGRESSIVE, k)],
                shape_holds=(
                    by[(TransitivityMode.AGGRESSIVE, k)]
                    < by[(TransitivityMode.TRADITIONAL, k)]
                    and by[(TransitivityMode.CONSERVATIVE, k)]
                    < by[(TransitivityMode.TRADITIONAL, k)]
                ),
            )
        report.add(
            f"{name} unavailable increasing in K",
            by[(TransitivityMode.AGGRESSIVE, 7)],
            shape_holds=by[(TransitivityMode.AGGRESSIVE, 7)]
            > by[(TransitivityMode.AGGRESSIVE, 4)],
        )
    print(report.render())
    assert report.all_shapes_hold
