"""Figure 2 (panel: data-transfer throughput).

Regenerates aggregate delivered messages/second under saturating load
vs the number of groups per set, for the three services.  The paper's
shape: the static service collapses as unrelated groups interfere on
the single shared HWG; the dynamic service stays close to running
without the service at all.
"""

import statistics

from conftest import FIGURE2_NS, FLAVOURS, SEED

from repro.metrics import series_table, shape_check
from repro.workloads import GROUP_SIZE, build_figure2, measure_throughput

BURST_PER_GROUP = 30


def run_throughput_scan():
    """Drain rate per flavour over n, plus every cell that lost messages.

    A cell that stops delivering still reports a (tiny) rate once the
    drain times out, so each (n, flavour) cell also counts its
    deliveries against the burst it owes at every group member.
    """
    results = {flavour: [] for flavour in FLAVOURS}
    incomplete = {}
    for n in FIGURE2_NS:
        for flavour in FLAVOURS:
            setup = build_figure2(n=n, flavour=flavour, seed=SEED)
            before = setup.hub.deliveries
            throughput = measure_throughput(setup, burst_per_group=BURST_PER_GROUP)
            results[flavour].append(throughput)
            owed = BURST_PER_GROUP * GROUP_SIZE * len(setup.all_groups)
            delivered = setup.hub.deliveries - before
            if delivered != owed:
                incomplete[(n, flavour)] = f"{delivered}/{owed}"
    return results, incomplete


def test_figure2_throughput(benchmark):
    results, incomplete = benchmark.pedantic(run_throughput_scan, rounds=1, iterations=1)
    print(
        series_table(
            "Figure 2 — throughput vs n (2 sets x n groups, 4 processes each)",
            "n",
            list(FIGURE2_NS),
            results,
            unit="msg/s",
            note="paper shape: static collapses with n; dynamic ~ none",
        )
    )
    # Compare at the largest configuration, where interference bites.
    static = results["static"][-1]
    dynamic = results["dynamic"][-1]
    none = results["none"][-1]
    checks = [
        shape_check(
            f"every (n, flavour) cell delivers every message (short: {incomplete})",
            not incomplete,
        ),
        shape_check(
            f"dynamic ({dynamic:.0f}/s) > 2x static ({static:.0f}/s) at n={FIGURE2_NS[-1]}",
            dynamic > 2 * static,
        ),
        shape_check(
            f"dynamic ({dynamic:.0f}/s) within 25% of none ({none:.0f}/s)",
            dynamic >= 0.75 * none,
        ),
        shape_check(
            "static throughput does not grow with n (saturated shared HWG)",
            results["static"][-1] <= results["static"][0] * 1.5,
        ),
    ]
    print("\n".join(checks))
    assert all(c.startswith("[PASS]") for c in checks)
