"""Table 2 — transitivity with real-world node properties as task
characteristics: success rate, unavailable rate and average number of
potential trustees per method and network (Section 5.5)."""

from repro.analysis.report import ComparisonReport
from repro.analysis.tables import render_table
from repro.core.transitivity import TransitivityMode
from repro.simulation.registry import get
from repro.socialnet.datasets import NETWORK_PROFILES

# Paper's Table 2 values, for side-by-side printing.
PAPER_TABLE2 = {
    ("traditional", "facebook"): (27.63, 66.45, 4.19),
    ("traditional", "gplus"): (28.39, 60.00, 2.37),
    ("traditional", "twitter"): (22.86, 73.33, 2.88),
    ("conservative", "facebook"): (57.89, 37.50, 10.63),
    ("conservative", "gplus"): (53.55, 32.90, 5.92),
    ("conservative", "twitter"): (48.57, 45.71, 5.99),
    ("aggressive", "facebook"): (67.11, 26.97, 11.60),
    ("aggressive", "gplus"): (59.35, 26.45, 6.53),
    ("aggressive", "twitter"): (52.38, 35.24, 6.35),
}


SPEC = get("fig12-overhead")


def _compute():
    # All three methods run on one property-based simulation per network.
    results = {}
    for name in NETWORK_PROFILES:
        by_mode = SPEC.run_full(
            seed=1, network=name, property_based_tasks=True
        )
        for mode, result in by_mode.items():
            results[(mode, name)] = result
    return results


def test_table2_property_based(once):
    results = once(_compute)

    rows = []
    for (mode, name), result in results.items():
        paper = PAPER_TABLE2[(mode.value, name)]
        rows.append({
            "method": mode.value,
            "network": name,
            "success %": round(100 * result.success_rate, 2),
            "paper success %": paper[0],
            "unavailable %": round(100 * result.unavailable_rate, 2),
            "paper unavail %": paper[1],
            "#trustees": round(result.avg_potential_trustees, 2),
            "paper #trustees": paper[2],
        })
    print()
    print(render_table(rows, title="Table 2 (measured vs paper)"))

    report = ComparisonReport("Table 2")
    for name in NETWORK_PROFILES:
        trad = results[(TransitivityMode.TRADITIONAL, name)]
        cons = results[(TransitivityMode.CONSERVATIVE, name)]
        aggr = results[(TransitivityMode.AGGRESSIVE, name)]
        report.add(
            f"{name} success ordering", aggr.success_rate,
            shape_holds=aggr.success_rate >= cons.success_rate * 0.9
            and cons.success_rate > trad.success_rate,
            note="aggr >= cons > traditional",
        )
        report.add(
            f"{name} unavailable ordering", aggr.unavailable_rate,
            shape_holds=aggr.unavailable_rate
            <= cons.unavailable_rate * 1.1
            and cons.unavailable_rate < trad.unavailable_rate,
        )
        report.add(
            f"{name} trustee-count ordering", aggr.avg_potential_trustees,
            shape_holds=aggr.avg_potential_trustees
            > trad.avg_potential_trustees
            and cons.avg_potential_trustees > trad.avg_potential_trustees,
        )
    print(report.render())
    assert report.all_shapes_hold
