"""Figure 2 (panel: data-transfer latency).

Paper: "In data transfer, a static LWG service is much worse than
dynamic LWG service or even no LWG service at all due to problems of
interference among unrelated groups."

Regenerates mean message latency vs the number of groups per set (n)
for the three services and checks the paper's ordering: static is
clearly worse; dynamic tracks the no-service baseline closely.
"""

import statistics

from conftest import FIGURE2_NS, FLAVOURS, SEED

from repro.metrics import series_table, shape_check
from repro.workloads import GROUP_SIZE, build_figure2, measure_latency

PROBES_PER_GROUP = 6


def run_latency_scan():
    """Mean latency per flavour over n, plus every cell that lost probes.

    A mean over whatever happened to arrive hides a cell that stopped
    delivering, so each (n, flavour) cell also counts its deliveries
    against the probes it owes (every probe at every group member).
    """
    results = {flavour: [] for flavour in FLAVOURS}
    incomplete = {}
    for n in FIGURE2_NS:
        for flavour in FLAVOURS:
            setup = build_figure2(n=n, flavour=flavour, seed=SEED)
            before = setup.hub.deliveries
            stats = measure_latency(setup, probes_per_group=PROBES_PER_GROUP)
            results[flavour].append(stats.mean_us / 1000.0)
            owed = PROBES_PER_GROUP * GROUP_SIZE * len(setup.all_groups)
            delivered = setup.hub.deliveries - before
            if delivered != owed:
                incomplete[(n, flavour)] = f"{delivered}/{owed}"
    return results, incomplete


def test_figure2_latency(benchmark):
    results, incomplete = benchmark.pedantic(run_latency_scan, rounds=1, iterations=1)
    print(
        series_table(
            "Figure 2 — latency vs n (2 sets x n groups, 4 processes each)",
            "n",
            list(FIGURE2_NS),
            results,
            unit="ms",
            note="paper shape: static >> dynamic ~ none",
        )
    )
    static = statistics.fmean(results["static"])
    dynamic = statistics.fmean(results["dynamic"])
    none = statistics.fmean(results["none"])
    checks = [
        shape_check(
            f"every (n, flavour) cell delivers every probe (short: {incomplete})",
            not incomplete,
        ),
        shape_check(
            f"static latency ({static:.2f}ms) > 1.2x dynamic ({dynamic:.2f}ms)",
            static > 1.2 * dynamic,
        ),
        shape_check(
            f"dynamic ({dynamic:.2f}ms) within 25% of none ({none:.2f}ms)",
            dynamic <= 1.25 * none,
        ),
    ]
    print("\n".join(checks))
    assert all(c.startswith("[PASS]") for c in checks)
