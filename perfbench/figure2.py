"""The Figure-2 topology, probe bookkeeping and the checks shared by workloads.

Topology: two disjoint sets of four processes, four LWGs per set, every
process a member of its set's four LWGs, dynamic service.  The set-up
schedule is the one ``repro.workloads.build_figure2`` uses (staggered
creators, then followers), but the cluster is built through ``Cluster``
directly so timed runs use the perf configuration (no checkers, no kept
trace).

A probe is ``("probe", seq, due_us)``: ``seq`` is unique per (LWG, sender)
and ``due_us`` is the time the open-loop generator meant to send it.  The
:class:`Ledger` records, per probe, which receivers it is owed to and
when each delivered it, and per (LWG, receiver) the interleaving of view
installations and deliveries, from which the safety checks and the
recovery times are computed after the run.
"""

from __future__ import annotations

import math
import time
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.core.ids import lwg_id
from repro.core.service import LwgListener
from repro.sim.engine import MS, SECOND
from repro.workloads.cluster import Cluster
from repro.workloads.scenarios import _scaled_lwg_config

GROUP_SIZE = 4
GROUPS_PER_SET = 4
GROUPS_A = [f"a{i}" for i in range(GROUPS_PER_SET)]
GROUPS_B = [f"b{i}" for i in range(GROUPS_PER_SET)]
GROUPS = GROUPS_A + GROUPS_B
PROBE_BYTES = 256
#: build_figure2's schedule for n=4.
CREATOR_STAGGER_US = 150 * MS
FOLLOWER_STAGGER_US = 40 * MS
SETTLE_DEADLINE_US = int((6.0 + 0.75 * GROUPS_PER_SET) * SECOND)
DUST_US = 1 * SECOND

ProbeKey = Tuple[str, str, int]  # (lwg id, sender, seq)


class ViewEvent(NamedTuple):
    """A view installed at one (LWG, receiver)."""

    view_id: str
    members: Tuple[str, ...]
    at: int


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an already sorted sequence."""
    if not sorted_values:
        return math.nan
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


class Ledger:
    """Every probe sent, who owes it, and what each receiver did."""

    def __init__(self, now: Callable[[], int]):
        self.now = now
        #: probe -> (due_us, owed receivers)
        self.sent: Dict[ProbeKey, Tuple[int, Tuple[str, ...]]] = {}
        #: probe -> {receiver: delivery time}
        self.delivered: Dict[ProbeKey, Dict[str, int]] = {}
        #: (lwg, receiver) -> view installations and delivered probes, in order
        self.history: Dict[Tuple[str, str], List[object]] = {}
        self.deliveries = 0
        self.duplicates: List[str] = []

    def note_send(self, key: ProbeKey, due_us: int, owed: Tuple[str, ...]) -> None:
        self.sent[key] = (due_us, owed)

    def note_view(self, lwg: str, node: str, view) -> None:
        self.history.setdefault((lwg, node), []).append(
            ViewEvent(str(view.view_id), tuple(sorted(view.members)), self.now())
        )

    def note_data(self, lwg: str, node: str, src: str, payload) -> None:
        if not (isinstance(payload, tuple) and len(payload) == 3 and payload[0] == "probe"):
            return
        self.deliveries += 1
        key = (lwg, src, payload[1])
        receivers = self.delivered.setdefault(key, {})
        if node in receivers:
            self.duplicates.append(f"{node} delivered {key} twice")
            return
        receivers[node] = self.now()
        self.history.setdefault((lwg, node), []).append(key)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def owed_pairs(self, alive: Callable[[str], bool]):
        """Yield (probe, receiver, latency_us or None) for every owed pair."""
        for key, (due, owed) in self.sent.items():
            got = self.delivered.get(key, {})
            for receiver in owed:
                if not alive(receiver):
                    continue
                at = got.get(receiver)
                yield key, receiver, (None if at is None else at - due)

    def deliveries_between(self, start: int, end: int) -> int:
        return sum(
            1 for receivers in self.delivered.values()
            for at in receivers.values() if start <= at < end
        )

    def order_violations(self) -> List[str]:
        """Receivers with the same view sequence must agree on delivery order.

        Within every view two such receivers installed, one delivery
        sequence must be a prefix of the other, and before a later common
        view they must be equal.
        """
        by_lwg: Dict[str, Dict[tuple, List[List[tuple]]]] = {}
        for (lwg, node), events in self.history.items():
            views: List[str] = []
            per_view: List[List[ProbeKey]] = []
            for event in events:
                if isinstance(event, ViewEvent):
                    views.append(event.view_id)
                    per_view.append([])
                elif per_view:
                    per_view[-1].append(event)
            by_lwg.setdefault(lwg, {}).setdefault(tuple(views), []).append(per_view)
        problems: List[str] = []
        for lwg, groups in by_lwg.items():
            for views, receivers in groups.items():
                first = receivers[0]
                for other in receivers[1:]:
                    for index, (a, b) in enumerate(zip(first, other)):
                        last = index == len(views) - 1
                        short, long_ = (a, b) if len(a) <= len(b) else (b, a)
                        if long_[: len(short)] != short or (not last and a != b):
                            problems.append(f"{lwg}: delivery order differs in view {views[index]}")
                            break
        return problems

    def first_time(self, start: int, predicate: Callable[[Dict[Tuple[str, str], ViewEvent]], bool],
                   until: int) -> Optional[int]:
        """Earliest t in [start, until] at which ``predicate(latest views)`` holds.

        The state maps (lwg, node) to the last view event at or before t;
        events are replayed in time order, so the answer is exact, not
        polled.
        """
        state: Dict[Tuple[str, str], ViewEvent] = {}
        later: List[tuple] = []
        for slot, events in self.history.items():
            for event in events:
                if not isinstance(event, ViewEvent):
                    continue
                if event.at <= start:
                    state[slot] = event
                elif event.at <= until:
                    later.append((event.at, slot, event))
        if predicate(state):
            return start
        later.sort(key=lambda item: item[0])
        index = 0
        while index < len(later):
            at = later[index][0]
            while index < len(later) and later[index][0] == at:
                state[later[index][1]] = later[index][2]
                index += 1
            if predicate(state):
                return at
        return None


class ProbeListener(LwgListener):
    """Feeds one (node, LWG) membership's upcalls into the ledger."""

    def __init__(self, ledger: Ledger, node: str):
        self.ledger = ledger
        self.node = node

    def on_view(self, lwg, view) -> None:
        self.ledger.note_view(lwg, self.node, view)

    def on_data(self, lwg, src, payload, size) -> None:
        self.ledger.note_data(lwg, self.node, src, payload)


class Figure2:
    """A built Figure-2 cluster with its ledger and application handles."""

    def __init__(self, seed: int, checkers: bool = False, name_servers: int = 1):
        self.cluster = Cluster(
            num_processes=2 * GROUP_SIZE,
            seed=seed,
            flavour="dynamic",
            num_name_servers=name_servers,
            lwg_config=_scaled_lwg_config(),
            keep_trace=False,
            checkers=checkers,
        )
        if self.cluster.checkers is not None:
            # Collect violations instead of raising inside the event loop.
            self.cluster.checkers.raise_immediately = False
        self.env = self.cluster.env
        self.ledger = Ledger(lambda: self.env.now)
        self.handles: Dict[Tuple[str, str], object] = {}
        self.seq: Dict[Tuple[str, str], int] = {}
        self.converged = False

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def members_of(self, group: str) -> List[str]:
        ids = self.cluster.process_ids
        return ids[:GROUP_SIZE] if group in GROUPS_A else ids[GROUP_SIZE:]

    def groups_of(self, node: str) -> List[str]:
        return [g for g in GROUPS if node in self.members_of(g)]

    def join(self, group: str, node: str) -> None:
        service = self.cluster.services[node]
        self.handles[(group, node)] = service.join(group, ProbeListener(self.ledger, node))

    def full_views(self) -> bool:
        """Every member of every LWG holds the same four-member view."""
        for group in GROUPS:
            ids = set()
            for node in self.members_of(group):
                handle = self.handles.get((group, node))
                view = handle.view if handle is not None else None
                if view is None or len(view.members) != GROUP_SIZE:
                    return False
                ids.add(view.view_id)
            if len(ids) != 1:
                return False
        return True

    def setup(self) -> float:
        """Build and converge; returns wall seconds (to the deadline if stuck)."""
        started = time.perf_counter()
        schedule = self.env.scheduler.schedule
        for index, group in enumerate(GROUPS):
            creator = self.members_of(group)[0]
            delay = (index % GROUPS_PER_SET) * CREATOR_STAGGER_US
            schedule(delay, lambda g=group, c=creator: self.join(g, c))
        self.cluster.run_for(GROUPS_PER_SET * CREATOR_STAGGER_US + SECOND)
        for index, group in enumerate(GROUPS):
            for node in self.members_of(group)[1:]:
                delay = (index % GROUPS_PER_SET) * FOLLOWER_STAGGER_US
                schedule(delay, lambda g=group, c=node: self.join(g, c))
        self.cluster.run_for(GROUPS_PER_SET * FOLLOWER_STAGGER_US)
        self.converged = self.cluster.run_until(self.full_views, SETTLE_DEADLINE_US)
        self.cluster.run_for(DUST_US)
        return time.perf_counter() - started

    # ------------------------------------------------------------------
    # Traffic
    # ------------------------------------------------------------------
    def alive(self, node: str) -> bool:
        return self.env.fabric.is_alive(node)

    def send_probe(self, group: str, node: str, due_us: int) -> None:
        """Send one probe now from ``node`` to ``group`` (skipped if crashed)."""
        service = self.cluster.services[node]
        if not self.alive(node) or lwg_id(group) not in service.groups():
            return  # crashed, or restarted and not re-joined yet
        seq = self.seq.get((group, node), 0)
        self.seq[(group, node)] = seq + 1
        view = self.handles[(group, node)].view
        owed = tuple(view.members) if view is not None else tuple(self.members_of(group))
        self.ledger.note_send((lwg_id(group), node, seq), due_us, owed)
        service.send(group, ("probe", seq, due_us), PROBE_BYTES)

    def schedule_probe(self, delay_us: int, group: str, node: str) -> None:
        due = self.env.now + delay_us
        self.env.scheduler.schedule(delay_us, lambda: self.send_probe(group, node, due))

    def senders(self) -> List[Tuple[str, str]]:
        return [(group, node) for group in GROUPS for node in self.members_of(group)]

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def safety_violations(self) -> List[str]:
        problems = list(self.ledger.duplicates) + self.ledger.order_violations()
        if self.cluster.checkers is not None:
            problems += [str(v) for v in self.cluster.checkers.violations]
        return problems


def fabric_counts(fabric) -> Dict[str, int]:
    """The message fabric's own counters (simulated or UDP)."""
    return {
        "fabric_messages": fabric.messages_sent,
        "fabric_bytes": fabric.bytes_sent,
        "fabric_dropped": fabric.messages_dropped,
        "fabric_delivered": fabric.messages_delivered,
    }


def latency_stats(latencies_us: List[int]) -> Dict[str, float]:
    """p50/p99/max in ms of delivered (probe, receiver) latencies."""
    ordered = sorted(latencies_us)
    return {
        "latency_p50_ms": percentile(ordered, 0.50) / 1000.0,
        "latency_p99_ms": percentile(ordered, 0.99) / 1000.0,
        "latency_max_ms": (ordered[-1] / 1000.0) if ordered else math.nan,
        "latency_samples": len(ordered),
    }
