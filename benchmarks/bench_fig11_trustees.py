"""Fig. 11 — average number of potential trustees vs number of
characteristics for the three trust-transfer methods (Section 5.5)."""

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


def test_fig11_potential_trustees(once):
    results = once(_compute)

    curves = []
    for name, sweep in results.items():
        for mode in TransitivityMode:
            values = [
                r.avg_potential_trustees for r in sweep if r.mode is mode
            ]
            curves.append(LabelledSeries(f"{name} {mode.value}", values))
    print()
    print(ascii_chart(
        curves,
        title="Fig. 11 — avg #potential trustees vs #characteristics",
    ))

    report = ComparisonReport("Fig. 11")
    for name, sweep in results.items():
        by = {
            (r.mode, r.num_characteristics): r.avg_potential_trustees
            for r in sweep
        }
        for k in COUNTS:
            report.add(
                f"{name} K={k} ordering",
                by[(TransitivityMode.AGGRESSIVE, k)],
                shape_holds=(
                    by[(TransitivityMode.AGGRESSIVE, k)]
                    >= by[(TransitivityMode.CONSERVATIVE, k)] * 0.8
                    and by[(TransitivityMode.CONSERVATIVE, k)]
                    > by[(TransitivityMode.TRADITIONAL, k)]
                ),
                note="aggressive ~>= conservative > traditional",
            )
        report.add(
            f"{name} count decreasing in K",
            by[(TransitivityMode.AGGRESSIVE, 7)],
            shape_holds=by[(TransitivityMode.AGGRESSIVE, 7)]
            < by[(TransitivityMode.AGGRESSIVE, 4)],
        )
    print(report.render())
    assert report.all_shapes_hold
