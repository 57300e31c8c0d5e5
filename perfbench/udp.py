"""The ``udp`` workload: the LWG stack over real loopback UDP sockets.

Four processes and two LWGs (every process in both) run in this one OS
process on one event-loop thread, over ``AsyncioRuntime`` with the
``compact`` codec.  Every member sends one probe per period for a fixed
wall duration; each probe is stamped with the instant it was due, so a
late generator shows up as latency.  Latencies are wall time.
"""

from __future__ import annotations

import random
import statistics
import time
from typing import Dict, List, Sequence, Tuple

from repro.core.ids import lwg_id
from repro.runtime.asyncio_backend import AsyncioRuntime
from repro.sim.engine import MS, SECOND
from repro.workloads.cluster import Cluster

from figure2 import PROBE_BYTES, Ledger, ProbeListener, fabric_counts, latency_stats, percentile
from workloads import Outcome, measure, owed_latencies

PROCESSES = 4
GROUPS = ["u0", "u1"]
PERIOD_US = 20 * MS
SETTLE_DEADLINE_US = 20 * SECOND
DRAIN_US = 500 * MS


class UdpCluster:
    """Four processes on loopback UDP, joined to both LWGs."""

    def __init__(self, seed: int):
        self.env = AsyncioRuntime.create(seed=seed, keep_trace=False, codec="compact")
        self.cluster = Cluster(
            num_processes=PROCESSES, seed=seed, env=self.env,
            keep_trace=False, checkers=False,
        )
        self.ledger = Ledger(lambda: self.env.now)
        self.handles: Dict[Tuple[str, str], object] = {}
        self.seq: Dict[Tuple[str, str], int] = {}
        self.late_us: List[int] = []
        for node in self.cluster.process_ids:
            for group in GROUPS:
                listener = ProbeListener(self.ledger, node)
                self.handles[(group, node)] = self.cluster.services[node].join(group, listener)

    def full_views(self) -> bool:
        for group in GROUPS:
            views = [self.handles[(group, n)].view for n in self.cluster.process_ids]
            if any(v is None or len(v.members) != PROCESSES for v in views):
                return False
            if len({v.view_id for v in views}) != 1:
                return False
        return True

    def alive(self, node: str) -> bool:
        return True

    def send_probe(self, group: str, node: str, due_us: int) -> None:
        self.late_us.append(self.env.now - due_us)
        seq = self.seq.get((group, node), 0)
        self.seq[(group, node)] = seq + 1
        view = self.handles[(group, node)].view
        owed = tuple(view.members) if view is not None else tuple(self.cluster.process_ids)
        self.ledger.note_send((lwg_id(group), node, seq), due_us, owed)
        self.cluster.services[node].send(group, ("probe", seq, due_us), PROBE_BYTES)

    def close(self) -> None:
        self.env.close()


def _converge(seed: int) -> Tuple[UdpCluster, bool, float]:
    started = time.perf_counter()
    udp = UdpCluster(seed)
    converged = udp.cluster.run_until(udp.full_views, SETTLE_DEADLINE_US)
    return udp, converged, time.perf_counter() - started


def run_udp(seed: int, seconds: float, setups: int = 3, hooks: Sequence = ()) -> Outcome:
    """Set up ``setups`` times (the last cluster is kept), send for
    ``seconds`` of wall time, drain, check."""
    setup_times = []
    for _ in range(setups - 1):
        udp, _, elapsed = _converge(seed)
        udp.close()
        setup_times.append(elapsed)
    udp, converged, elapsed = _converge(seed)
    setup_times.append(elapsed)
    try:
        env = udp.env
        rng = random.Random(seed)
        send_us = int(seconds * SECOND)
        start = env.now + PERIOD_US
        for group in GROUPS:
            for node in udp.cluster.process_ids:
                due = start + rng.randrange(PERIOD_US)
                while due < start + send_us:
                    env.scheduler.schedule_at(
                        due, lambda g=group, n=node, d=due: udp.send_probe(g, n, d)
                    )
                    due += PERIOD_US
        cpu_s = measure(udp.cluster, start + send_us + DRAIN_US - env.now, hooks)
        owed, missing, latencies = owed_latencies(udp)
        out = Outcome(statistics.median(setup_times), cpu_s, udp.ledger.deliveries,
                      owed=owed, delivered=owed - missing)
        out.sim.update(latency_stats(latencies))
        out.sim["goodput_dps"] = udp.ledger.deliveries_between(start, start + send_us) * SECOND / send_us
        out.sim.update(fabric_counts(env.fabric))
        out.sim["generator_late_ms_p99"] = percentile(sorted(udp.late_us), 0.99) / 1000.0
        out.ops = {"setup_converged": converged, "final_full_views": udp.full_views()}
        out.violations += list(udp.ledger.duplicates) + udp.ledger.order_violations()
        return out
    finally:
        udp.close()
