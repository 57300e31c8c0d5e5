"""The three simulator workloads: ``paced``, ``ramp`` and ``faults``.

Each is an open loop generated from the seed: the seed picks every
sender's phase and is the root seed of the simulated cluster, so one seed
gives bit-identical sim-time results.  ``run_<workload>(seed)`` performs
one repetition and returns an :class:`Outcome`; the timed quantities
(set-up wall time, CPU of the measured phase) sit beside the
deterministic ``sim`` dictionary that the determinism check compares.
"""

from __future__ import annotations

import gc
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.core.ids import lwg_id
from repro.sim.engine import MS, SECOND

from figure2 import (GROUP_SIZE, GROUPS, GROUPS_A, Figure2, fabric_counts, latency_stats,
                     percentile)

#: paced: every member sends one probe per period.
PACED_PERIOD_US = 40 * MS
#: Each process's phase is redrawn every epoch, so one run averages over
#: many alignments of the 8 processes instead of the one its seed drew.
PACED_EPOCH_US = 120 * MS
PACED_SEND_US = 6 * SECOND
DRAIN_US = 1 * SECOND

#: ramp: every member offers k back-to-back probes at a random instant
#: of every burst period.
RAMP_BURST_PERIOD_US = 100 * MS
RAMP_KS = (1, 2, 4, 8, 16)
RAMP_SEND_US = 3 * SECOND
RAMP_DRAIN_US = 2 * SECOND
#: The step whose latency is the workload's latency (640 msg/s, pairs).
RAMP_REFERENCE_K = 2
#: A step meets the limit when its p99 over owed pairs, a missing
#: delivery counting as infinitely late, is at most this.
LATENCY_LIMIT_MS = 20.0

#: faults: schedule in sim time from the start of traffic.
CRASH_AT_US = 1 * SECOND
RESTART_AT_US = 4 * SECOND
PARTITION_AT_US = 10 * SECOND
HEAL_AT_US = 15 * SECOND
HEAL_DEADLINE_US = 15 * SECOND
FAULTS_SEND_US = HEAL_AT_US + HEAL_DEADLINE_US
VICTIM = "p1"
BLOCKS = (("p0", "p2", "p4", "p5", "ns0"), ("p1", "p3", "p6", "p7", "ns1"))


@dataclass
class Outcome:
    """One repetition of a workload."""

    setup_s: float
    cpu_s: float
    deliveries: int
    #: Sim-time metrics and counts: identical for every run of one seed.
    sim: Dict[str, float] = field(default_factory=dict)
    #: Liveness operations: name -> succeeded.
    ops: Dict[str, bool] = field(default_factory=dict)
    owed: int = 0
    delivered: int = 0
    violations: List[str] = field(default_factory=list)

    @property
    def cpu_us_per_delivery(self) -> float:
        return self.cpu_s * 1e6 / max(1, self.deliveries)


def measure(cluster, duration_us: int, hooks: Sequence = ()) -> float:
    """Run the measured phase; returns its process CPU seconds.

    ``hooks`` have ``begin(cluster)`` / ``end(cluster)`` called around the
    phase (the traced run passes its :class:`spans.LayerTrace`).
    """
    gc.collect()
    for hook in hooks:
        hook.begin(cluster)
    started = time.process_time()
    cluster.run_for(duration_us)
    cpu_s = time.process_time() - started
    for hook in hooks:
        hook.end(cluster)
    return cpu_s


def owed_latencies(fig):
    """(owed pairs, missing pairs, delivered latencies in us) of a run."""
    delivered: List[int] = []
    owed = missing = 0
    for _, _, latency in fig.ledger.owed_pairs(fig.alive):
        owed += 1
        if latency is None:
            missing += 1
        else:
            delivered.append(latency)
    return owed, missing, delivered


def _schedule_paced(fig: Figure2, rng: random.Random, duration_us: int) -> None:
    """Every sender, one probe per period.

    A process's senders are spread evenly over the period, so each payload
    sits alone in its process's batch window (no coalescing); every epoch
    redraws each process's phase.
    """
    per_epoch = PACED_EPOCH_US // PACED_PERIOD_US
    for epoch in range(0, duration_us, PACED_EPOCH_US):
        for node in fig.cluster.process_ids:
            phase = rng.randrange(PACED_PERIOD_US)
            groups = fig.groups_of(node)
            for slot, group in enumerate(groups):
                offset = (phase + slot * PACED_PERIOD_US // len(groups)) % PACED_PERIOD_US
                for index in range(per_epoch):
                    fig.schedule_probe(epoch + offset + index * PACED_PERIOD_US, group, node)


def run_paced(seed: int, checkers: bool = False, hooks: Sequence = ()) -> Outcome:
    fig = Figure2(seed, checkers=checkers)
    setup_s = fig.setup()
    start = fig.env.now
    _schedule_paced(fig, random.Random(seed), PACED_SEND_US)
    cpu_s = measure(fig.cluster, PACED_SEND_US + DRAIN_US, hooks)
    owed, missing, latencies = owed_latencies(fig)
    out = Outcome(setup_s, cpu_s, fig.ledger.deliveries, owed=owed, delivered=owed - missing)
    out.sim.update(latency_stats(latencies))
    out.sim["goodput_dps"] = fig.ledger.deliveries_between(start, start + PACED_SEND_US) * SECOND / PACED_SEND_US
    out.ops = {"setup_converged": fig.converged, "final_full_views": fig.full_views()}
    out.sim.update(fabric_counts(fig.env.fabric))
    out.violations += fig.safety_violations()
    return out


def run_ramp(seed: int, checkers: bool = False, hooks: Sequence = ()) -> Outcome:
    out = Outcome(0.0, 0.0, 0)
    steps = []
    for k in RAMP_KS:
        fig = Figure2(seed, checkers=checkers)
        out.setup_s += fig.setup()
        rng = random.Random(seed * 1000 + k)
        start = fig.env.now
        for group, node in fig.senders():
            for burst in range(RAMP_SEND_US // RAMP_BURST_PERIOD_US):
                at = burst * RAMP_BURST_PERIOD_US + rng.randrange(RAMP_BURST_PERIOD_US)
                for _ in range(k):
                    fig.schedule_probe(at, group, node)
        delivered_before = fig.ledger.deliveries
        out.cpu_s += measure(fig.cluster, RAMP_SEND_US + RAMP_DRAIN_US, hooks)
        out.deliveries += fig.ledger.deliveries - delivered_before
        owed, missing, latencies = owed_latencies(fig)
        out.owed += owed
        out.delivered += owed - missing
        ordered = sorted(latencies)
        # A missing delivery misses any limit: it ranks above every latency.
        p99_all = percentile(ordered + [float("inf")] * missing, 0.99) / 1000.0
        rate = k * len(fig.senders()) * SECOND // RAMP_BURST_PERIOD_US
        goodput = fig.ledger.deliveries_between(start, start + RAMP_SEND_US) * SECOND / RAMP_SEND_US
        step = {"k": k, "rate_mps": rate, "goodput_dps": goodput,
                "delivered_share": (owed - missing) / max(1, owed),
                "p99_with_missing_ms": p99_all, **latency_stats(latencies)}
        steps.append(step)
        for key, value in step.items():
            out.sim[f"step{rate}.{key}"] = value
        out.sim.update({f"step{rate}.{k_}": v for k_, v in fabric_counts(fig.env.fabric).items()})
        out.ops[f"step{rate}.setup_converged"] = fig.converged
        out.ops[f"step{rate}.final_full_views"] = fig.full_views()
        out.violations += fig.safety_violations()
    passing = [s for s in steps if s["p99_with_missing_ms"] <= LATENCY_LIMIT_MS]
    best = max(passing, key=lambda s: s["rate_mps"]) if passing else None
    reference = next(s for s in steps if s["k"] == RAMP_REFERENCE_K)
    for key in ("latency_p50_ms", "latency_p99_ms", "latency_max_ms", "latency_samples"):
        out.sim[key] = reference[key]
    out.sim["max_rate_mps"] = best["rate_mps"] if best else 0
    out.sim["max_rate_goodput_dps"] = best["goodput_dps"] if best else 0.0
    out.sim["overload_goodput_dps"] = steps[-1]["goodput_dps"]
    out.sim["goodput_dps"] = steps[-1]["goodput_dps"]
    return out


def run_faults(seed: int, checkers: bool = False, hooks: Sequence = ()) -> Outcome:
    fig = Figure2(seed, checkers=checkers, name_servers=2)
    setup_s = fig.setup()
    env = fig.env
    start = env.now
    _schedule_paced(fig, random.Random(seed), FAULTS_SEND_US)
    victim_groups = fig.groups_of(VICTIM)

    def restart() -> None:
        fig.cluster.recover(VICTIM)
        for group in victim_groups:
            fig.join(group, VICTIM)

    schedule = env.scheduler.schedule
    schedule(CRASH_AT_US, lambda: fig.cluster.crash(VICTIM))
    schedule(RESTART_AT_US, restart)
    schedule(PARTITION_AT_US, lambda: fig.cluster.partition(*BLOCKS))
    schedule(HEAL_AT_US, fig.cluster.heal)
    cpu_s = measure(fig.cluster, FAULTS_SEND_US + DRAIN_US, hooks)
    owed, missing, latencies = owed_latencies(fig)
    out = Outcome(setup_s, cpu_s, fig.ledger.deliveries, owed=owed, delivered=owed - missing)
    out.sim.update(latency_stats(latencies))
    out.sim["goodput_dps"] = fig.ledger.deliveries_between(start, start + FAULTS_SEND_US) * SECOND / FAULTS_SEND_US
    out.sim.update(fabric_counts(fig.env.fabric))

    ledger = fig.ledger
    survivors = [n for n in fig.members_of(GROUPS_A[0]) if n != VICTIM]
    crash, restart_at = start + CRASH_AT_US, start + RESTART_AT_US
    heal = start + HEAL_AT_US

    def victim_free(state) -> bool:
        return all(
            (lwg_id(g), n) in state and VICTIM not in state[(lwg_id(g), n)].members
            for g in victim_groups for n in survivors
        )

    def rejoined(state) -> bool:
        return all(
            (event := state.get((lwg_id(g), VICTIM))) is not None
            and event.at > restart_at and len(event.members) == GROUP_SIZE
            for g in victim_groups
        )

    def merged(state) -> bool:
        for group in GROUPS:
            events = [state.get((lwg_id(group), n)) for n in fig.members_of(group)]
            if any(e is None or len(e.members) != GROUP_SIZE for e in events):
                return False
            if len({e.view_id for e in events}) != 1:
                return False
        return True

    windows = {
        "crash_reconfig_ms": (crash, victim_free, start + RESTART_AT_US),
        "rejoin_ms": (restart_at, rejoined, start + PARTITION_AT_US),
        "heal_merge_ms": (heal, merged, heal + HEAL_DEADLINE_US),
    }
    for name, (since, predicate, deadline) in windows.items():
        at = ledger.first_time(since, predicate, deadline)
        out.ops[name] = at is not None
        out.sim[name] = ((at if at is not None else deadline) - since) / 1000.0
    out.ops["setup_converged"] = fig.converged
    out.violations += fig.safety_violations()
    return out


SIM_WORKLOADS = {"paced": run_paced, "ramp": run_ramp, "faults": run_faults}
