"""Golden signature of the Figure-2 data path, pinned exactly.

A short paced phase on the converged n=4 dynamic Figure-2 cluster: every
member of every LWG sends one probe per period from a seeded phase.  The
run's deliveries, latency quantiles and fabric counts are deterministic
for the seed, so they are pinned to the last digit.  A refactor of the
hot path (fabric, transport, total order, stack dispatch, LWG service)
that claims bit-identity proves it here, in tier-1, not only through the
fuzz digest pins in CI.  A change that moves these numbers on purpose
must say which protocol behaviour changed and re-pin.
"""

import random

from repro.metrics.collectors import nearest_rank
from repro.sim import MS, SECOND
from repro.workloads import build_figure2
from repro.workloads.traffic import probe_payload

PERIOD_US = 40 * MS
SEND_US = 1 * SECOND
DRAIN_US = 1 * SECOND

#: Measured before the fabric-to-application fast paths went in; they
#: kept every value bit-identical.
EXPECTED = {
    "sends": 800,
    "deliveries": 3200,
    "latency_p50_us": 1866,
    "latency_p99_us": 3287,
    "latency_sum_us": 5803119,
    "fabric_messages": 2273,
    "fabric_bytes": 528848,
    "fabric_delivered": 4986,
    "fabric_dropped": 0,
}


def paced_signature(seed: int = 1) -> dict:
    setup = build_figure2(n=4, flavour="dynamic", seed=seed)
    cluster = setup.cluster
    env = cluster.env
    fabric = env.network
    hub = setup.hub
    start = (
        fabric.messages_sent,
        fabric.bytes_sent,
        fabric.messages_delivered,
        fabric.messages_dropped,
        hub.deliveries,
    )
    rng = random.Random(seed)
    sends = 0
    for group in setup.all_groups:
        for node in setup.members_of(group):
            handle = setup.handles[(group, node)]
            phase = rng.randrange(PERIOD_US)
            for seq in range(SEND_US // PERIOD_US):
                env.scheduler.schedule(
                    phase + seq * PERIOD_US,
                    lambda h=handle, s=seq: h.send(probe_payload(env, s)),
                )
                sends += 1
    cluster.run_for(SEND_US + DRAIN_US)
    latencies = sorted(hub.latency.samples())
    return {
        "sends": sends,
        "deliveries": hub.deliveries - start[4],
        "latency_p50_us": nearest_rank(latencies, 0.50),
        "latency_p99_us": nearest_rank(latencies, 0.99),
        "latency_sum_us": sum(latencies),
        "fabric_messages": fabric.messages_sent - start[0],
        "fabric_bytes": fabric.bytes_sent - start[1],
        "fabric_delivered": fabric.messages_delivered - start[2],
        "fabric_dropped": fabric.messages_dropped - start[3],
    }


def test_paced_data_path_signature_is_pinned():
    assert paced_signature(seed=1) == EXPECTED
