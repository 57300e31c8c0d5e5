"""The benchmark suite: deterministic workloads timed with a wall clock.

Each benchmark is a pure function ``(seed) -> (events, extra)`` where
``events`` is the unit count the events/sec figure is computed from and
``extra`` carries workload-specific counters (messages delivered, sim
time).  The harness times the function, repeats it, and keeps the best
run — wall time is the only non-deterministic quantity; every workload
replays the exact same event sequence for a given seed.

The workload shapes deliberately mirror the pytest-benchmark files under
``benchmarks/`` (``bench_engine.py``, ``bench_fabric.py``) so the two
views of performance — interactive pytest runs and the CI-gated
trajectory — measure the same hot paths:

* ``engine.chain`` — per-event cost of the discrete-event loop;
* ``engine.timer_heap`` — heap push/pop cost with a deep queue;
* ``fabric.multicast_fanout`` — ``Network.multicast`` to a wide,
  repeated destination set (the LWG stack's dominant call shape);
* ``fabric.unicast_storm`` — ``Network.send`` point-to-point traffic;
* ``tracer.gated_emit`` — emit cost when nobody listens to a category;
* ``cluster.steady_traffic`` — end-to-end ordered delivery through the
  full LWG stack (checkers off, records off: the perf configuration).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Tuple

from ..runtime.rng import RngRegistry
from ..runtime.trace import Tracer
from ..sim.engine import MS, SECOND, Simulation
from ..sim.network import LinkModel, Network

BenchFn = Callable[[int], Tuple[int, Dict[str, Any]]]


@dataclass(frozen=True)
class BenchSpec:
    """One registered benchmark."""

    name: str
    fn: BenchFn
    fast: bool
    description: str


@dataclass
class BenchResult:
    """Timed outcome of one benchmark (best of ``repeat`` runs)."""

    name: str
    events: int
    wall_s: float
    events_per_sec: float
    seed: int
    repeat: int
    extra: Dict[str, Any] = field(default_factory=dict)

    def to_json(self) -> Dict[str, Any]:
        return {
            "events": self.events,
            "wall_s": round(self.wall_s, 6),
            "events_per_sec": round(self.events_per_sec, 1),
            "seed": self.seed,
            "repeat": self.repeat,
            **{k: v for k, v in sorted(self.extra.items())},
        }


SUITE: List[BenchSpec] = []


def _register(name: str, fast: bool, description: str) -> Callable[[BenchFn], BenchFn]:
    def deco(fn: BenchFn) -> BenchFn:
        SUITE.append(BenchSpec(name=name, fn=fn, fast=fast, description=description))
        return fn

    return deco


def run_benchmark(spec: BenchSpec, seed: int = 2000, repeat: int = 3) -> BenchResult:
    """Run ``spec`` ``repeat`` times and keep the fastest wall time."""
    best_wall = float("inf")
    events = 0
    extra: Dict[str, Any] = {}
    for _ in range(max(1, repeat)):
        start = time.perf_counter()
        events, extra = spec.fn(seed)
        wall = time.perf_counter() - start
        if wall < best_wall:
            best_wall = wall
    best_wall = max(best_wall, 1e-9)
    return BenchResult(
        name=spec.name,
        events=events,
        wall_s=best_wall,
        events_per_sec=events / best_wall,
        seed=seed,
        repeat=max(1, repeat),
        extra=extra,
    )


# ----------------------------------------------------------------------
# Engine benchmarks (mirror benchmarks/bench_engine.py)
# ----------------------------------------------------------------------
CHAIN_EVENTS = 20_000


def chain_workload(sim: Simulation, n_events: int) -> None:
    """Each event schedules its successor: a pure event-loop workload."""
    remaining = [n_events]

    def tick() -> None:
        if remaining[0] > 0:
            remaining[0] -= 1
            sim.schedule(MS, tick)

    sim.schedule(MS, tick)
    sim.run_until(n_events * 2 * MS)
    assert remaining[0] == 0


@_register("engine.chain", fast=True, description="per-event cost of run_until")
def bench_engine_chain(seed: int) -> Tuple[int, Dict[str, Any]]:
    sim = Simulation()
    chain_workload(sim, CHAIN_EVENTS)
    return CHAIN_EVENTS, {"sim_time_us": sim.now}


TIMER_HEAP_EVENTS = 30_000


def timer_heap_workload(sim: Simulation, n_events: int) -> None:
    """Schedule a deep, shuffled timer heap up front, then drain it."""
    for i in range(n_events):
        # Deterministic pseudo-shuffle keeps push order != pop order, so
        # every push/pop pays real sift comparisons.
        sim.schedule(1 + (i * 7919) % n_events, lambda: None)
    sim.run()


@_register("engine.timer_heap", fast=True, description="deep-heap push/pop cost")
def bench_engine_timer_heap(seed: int) -> Tuple[int, Dict[str, Any]]:
    sim = Simulation()
    timer_heap_workload(sim, TIMER_HEAP_EVENTS)
    return TIMER_HEAP_EVENTS, {"sim_time_us": sim.now}


# ----------------------------------------------------------------------
# Fabric benchmarks (mirror benchmarks/bench_fabric.py)
# ----------------------------------------------------------------------
FANOUT_NODES = 24
FANOUT_ROUNDS = 1_500


def multicast_fanout_workload(
    seed: int, nodes: int = FANOUT_NODES, rounds: int = FANOUT_ROUNDS
) -> Network:
    """One sender multicasts to the same wide destination set repeatedly.

    This is the LWG stack's dominant fabric call shape: ``Ordered`` /
    beacon traffic to a stable view membership.
    """
    sim = Simulation()
    net = Network(
        sim, RngRegistry(seed), link=LinkModel(jitter_us=0), shared_medium=False
    )
    sink = lambda src, payload, size: None  # noqa: E731
    names = [f"n{i}" for i in range(nodes)]
    for name in names:
        net.attach(name, sink)
    dsts = set(names[1:])

    def blast() -> None:
        if net.messages_sent < rounds:
            net.multicast("n0", dsts, payload="m", size=256)
            sim.schedule(MS, blast)

    sim.schedule(0, blast)
    sim.run()
    return net


@_register(
    "fabric.multicast_fanout", fast=True, description="wide repeated multicast"
)
def bench_fabric_multicast(seed: int) -> Tuple[int, Dict[str, Any]]:
    net = multicast_fanout_workload(seed)
    return net.messages_delivered, {
        "messages_delivered": net.messages_delivered,
        "messages_sent": net.messages_sent,
    }


STORM_PAIRS = 8
STORM_MESSAGES = 12_000


def unicast_storm_workload(
    seed: int, pairs: int = STORM_PAIRS, messages: int = STORM_MESSAGES
) -> Network:
    """Point-to-point sends round-robining over several node pairs."""
    sim = Simulation()
    net = Network(
        sim, RngRegistry(seed), link=LinkModel(jitter_us=0), shared_medium=False
    )
    sink = lambda src, payload, size: None  # noqa: E731
    for i in range(pairs):
        net.attach(f"a{i}", sink)
        net.attach(f"b{i}", sink)

    sent = [0]

    def blast() -> None:
        if sent[0] < messages:
            i = sent[0] % pairs
            net.send(f"a{i}", f"b{i}", payload="m", size=256)
            sent[0] += 1
            sim.schedule(100, blast)

    sim.schedule(0, blast)
    sim.run()
    return net


@_register("fabric.unicast_storm", fast=True, description="point-to-point sends")
def bench_fabric_unicast(seed: int) -> Tuple[int, Dict[str, Any]]:
    net = unicast_storm_workload(seed)
    return net.messages_delivered, {
        "messages_delivered": net.messages_delivered,
        "messages_sent": net.messages_sent,
    }


# ----------------------------------------------------------------------
# Tracer benchmark
# ----------------------------------------------------------------------
TRACE_EMITS = 60_000


def gated_emit_workload(n_emits: int = TRACE_EMITS) -> Tracer:
    """Emit into a category nobody records or listens to.

    With ``keep_records=False`` and a listener on a *different* category
    this is the benchmark/soak configuration: the hot layers' events
    must cost as close to nothing as the API allows.
    """
    tracer = Tracer(clock=lambda: 0, keep_records=False)
    seen = []
    try:
        tracer.subscribe(seen.append, categories=("network",))
    except TypeError:  # pre-category-subscription Tracer
        tracer.subscribe(
            lambda record: seen.append(record) if record.category == "network" else None
        )
    enabled = getattr(tracer, "enabled", None)
    for i in range(n_emits):
        if enabled is None or enabled("hwg"):
            tracer.emit("hwg", "data_delivered", node="p0", seq=i, sender="p1")
    assert not seen
    return tracer


@_register("tracer.gated_emit", fast=True, description="emit with no audience")
def bench_tracer_gated(seed: int) -> Tuple[int, Dict[str, Any]]:
    gated_emit_workload()
    return TRACE_EMITS, {}


# ----------------------------------------------------------------------
# End-to-end cluster benchmark
# ----------------------------------------------------------------------
TRAFFIC_PROCESSES = 6
TRAFFIC_BURSTS = 40
TRAFFIC_BURST_SIZE = 5


def steady_traffic_workload(
    seed: int,
    processes: int = TRAFFIC_PROCESSES,
    bursts: int = TRAFFIC_BURSTS,
    burst_size: int = TRAFFIC_BURST_SIZE,
):
    """Ordered traffic through the full LWG stack, perf configuration.

    Checkers and record keeping are off — the documented setup for
    timing-sensitive runs — so the tracer's category gating and the
    fabric fast paths both sit on the measured path.
    """
    from ..workloads.cluster import Cluster

    cluster = Cluster(
        num_processes=processes, seed=seed, keep_trace=False, checkers=False
    )
    group = "bench"
    for node in cluster.process_ids:
        cluster.services[node].join(group)
    cluster.run_for(8 * SECOND)
    for burst in range(bursts):
        for node in cluster.process_ids:
            for k in range(burst_size):
                cluster.services[node].send(group, f"m:{burst}:{k}")
        cluster.run_for(SECOND // 2)
    cluster.run_for(2 * SECOND)
    return cluster


@_register(
    "cluster.steady_traffic", fast=False, description="end-to-end ordered delivery"
)
def bench_cluster_traffic(seed: int) -> Tuple[int, Dict[str, Any]]:
    cluster = steady_traffic_workload(seed)
    delivered = cluster.env.network.messages_delivered
    return delivered, {
        "messages_delivered": delivered,
        "messages_sent": cluster.env.network.messages_sent,
        "sim_time_us": cluster.env.now,
    }


# ----------------------------------------------------------------------
# Co-mapped LWG traffic: the batching win
# ----------------------------------------------------------------------
COMAPPED_PROCESSES = 4
COMAPPED_GROUPS = 6
COMAPPED_BURSTS = 25
COMAPPED_BURST_SIZE = 4


def comapped_traffic_workload(seed: int, enable_batching: bool):
    """Several LWGs statically co-mapped on ONE shared HWG, all chatty.

    This is the shape the paper's amortization argument lives on — and
    the shape where the PR-5 packer pays off: every process's per-burst
    payloads (across all its LWGs) coalesce into a couple of HWG
    multicasts instead of ``groups x burst_size`` of them.
    """
    from ..core.config import LwgConfig
    from ..workloads.cluster import Cluster

    config = LwgConfig(enable_batching=enable_batching)
    cluster = Cluster(
        num_processes=COMAPPED_PROCESSES,
        seed=seed,
        flavour="static",
        lwg_config=config,
        keep_trace=False,
        checkers=False,
    )
    groups = [f"g{i}" for i in range(COMAPPED_GROUPS)]
    for node in cluster.process_ids:
        for group in groups:
            cluster.services[node].join(group)
    cluster.run_for(8 * SECOND)
    for burst in range(COMAPPED_BURSTS):
        for node in cluster.process_ids:
            for group in groups:
                for k in range(COMAPPED_BURST_SIZE):
                    cluster.services[node].send(group, f"m:{burst}:{k}")
        cluster.run_for(SECOND // 2)
    cluster.run_for(2 * SECOND)
    return cluster


def _app_deliveries(cluster) -> int:
    """User-payload deliveries summed over every process and LWG."""
    return sum(
        entry.delivered
        for service in cluster.services.values()
        for entry in service.table.locals.values()
    )


@_register(
    "lwg.comapped_traffic",
    fast=True,
    description="N LWGs on one HWG, batching on vs off",
)
def bench_lwg_comapped(seed: int) -> Tuple[int, Dict[str, Any]]:
    start = time.perf_counter()
    batched = comapped_traffic_workload(seed, enable_batching=True)
    wall_on = max(time.perf_counter() - start, 1e-9)
    start = time.perf_counter()
    unbatched = comapped_traffic_workload(seed, enable_batching=False)
    wall_off = max(time.perf_counter() - start, 1e-9)
    events_on, events_off = _app_deliveries(batched), _app_deliveries(unbatched)
    eps_on, eps_off = events_on / wall_on, events_off / wall_off
    return events_on, {
        "batching_on_eps": round(eps_on, 1),
        "batching_off_eps": round(eps_off, 1),
        "speedup": round(eps_on / eps_off, 2),
        "deliveries_on": events_on,
        "deliveries_off": events_off,
        "fabric_msgs_on": batched.env.network.messages_sent,
        "fabric_msgs_off": unbatched.env.network.messages_sent,
    }


# ----------------------------------------------------------------------
# Naming reconciliation: Merkle descent vs flat-digest exchange
# ----------------------------------------------------------------------
RECONCILE_SHARED = 100_000
RECONCILE_DIVERGED = 64  # fresh records per side
RECONCILE_UPDATED = 16  # shared records one side holds in a newer version

#: Flat-design costing (PR 5's retired 3-message push-pull): 48 bytes
#: per digest entry, 96 per record, 96 per message envelope — the same
#: rates the Merkle messages are costed at, so the comparison is about
#: *which* entries travel, not the encoding.
_FLAT_DIGEST_ENTRY = 48
_RECORD_BYTES = 96
_ENVELOPE_BYTES = 96

#: Prebuilt shared base per seed — building 100k records dominates the
#: workload's first run, so repeats fork cheap clones instead (the
#: harness keeps the best run, i.e. a warm one).
_RECONCILE_BASE: Dict[int, Any] = {}


def _reconcile_record(lwg: str, coord: str, i: int, version: int = 1):
    from ..naming.records import MappingRecord
    from ..vsync.view import ViewId

    return MappingRecord(
        lwg=lwg, lwg_view=ViewId(coord, i), lwg_members=(coord,),
        hwg=f"hwg:{i % 9}", hwg_view=ViewId("h", i), version=version, writer=coord,
    )


def _reconcile_pair(seed: int):
    """Two 100k-record replicas with a small, realistic divergence.

    Each side holds ``RECONCILE_DIVERGED`` fresh records the other
    lacks (with a genealogy edge each) and ``RECONCILE_UPDATED``
    shared records re-registered at a newer version — the remote-newer
    digest case a pure "missing keys" exchange would miss.
    """
    from ..naming.database import NamingDatabase
    from ..vsync.view import ViewId

    base = _RECONCILE_BASE.get(seed)
    if base is None:
        base = NamingDatabase()
        for i in range(RECONCILE_SHARED):
            base.apply(_reconcile_record(f"lwg:s{i}", "ps", i))
        base.content_hash()  # pre-warm the Merkle hash cache
        _RECONCILE_BASE[seed] = base
    left, right = base.clone(), base.clone()
    for i in range(RECONCILE_DIVERGED):
        left.apply(
            _reconcile_record(f"lwg:l{i}", "pl", i + 1),
            parents=[ViewId("pl", i)],
        )
        right.apply(
            _reconcile_record(f"lwg:r{i}", "pr", i + 1),
            parents=[ViewId("pr", i)],
        )
    for i in range(RECONCILE_UPDATED):
        left.apply(_reconcile_record(f"lwg:s{2 * i}", "ps", 2 * i, version=2))
        right.apply(_reconcile_record(f"lwg:s{2 * i + 1}", "ps", 2 * i + 1, version=2))
    return left, right


def reconcile_delta_workload(seed: int) -> Tuple[int, Dict[str, Any]]:
    """Wire cost of the Merkle-prefix descent at 100k-record scale.

    Runs the real descent engine (the same :class:`MerkleSession` loop
    the server drives, one message per step) between two replicas that
    diverge by a few dozen records, weighs every step with the actual
    ``SyncRequest``/``SyncReply`` sizes, and compares against what PR
    5's flat-digest 3-message exchange would have shipped for the same
    divergence.  The workload *asserts* the design's acceptance bounds —
    ≤0.1x flat bytes, O(log n) rounds, byte-identical fixed point — so
    a regression fails the benchmark loudly, not just the baseline gate.
    """
    from ..naming.merkle import DEFAULT_DEPTH
    from ..naming.messages import SyncReply, SyncRequest
    from ..naming.reconciliation import databases_identical, merkle_exchange

    left, right = _reconcile_pair(seed)
    flat_digest_entries = len(left) + len(right)

    transcript = merkle_exchange(left, right)
    merkle_bytes = 0
    merkle_records = 0
    for step_no, (sender_label, delta) in enumerate(transcript):
        sender = "nsA" if sender_label == "left" else "nsB"
        if step_no == 0:
            message = SyncRequest(
                sender=sender, sync_id=1, db_hash="x" * 16,
                expansions=delta.expansions,
                genealogy_children=delta.genealogy_children,
            )
        else:
            message = SyncReply(
                sender=sender, sync_id=1, round_no=step_no,
                expansions=delta.expansions,
                leaf_digests=delta.leaf_digests,
                records=delta.records,
                genealogy=delta.genealogy,
                genealogy_children=delta.genealogy_children,
            )
        merkle_bytes += message.size_bytes()
        merkle_records += len(delta.records)
    rounds = len(transcript)

    # What the retired design would pay: both full digests travel, then
    # the records — regardless of how small the divergence is.  The
    # record set is identical in both designs (the LWW delta), so the
    # descent's own shipment count prices the flat exchange too.
    flat_bytes = (
        3 * _ENVELOPE_BYTES
        + _FLAT_DIGEST_ENTRY * flat_digest_entries
        + _RECORD_BYTES * merkle_records
    )

    assert databases_identical([left, right])
    assert rounds <= 2 * (DEFAULT_DEPTH + 1), f"descent took {rounds} rounds"
    assert merkle_bytes <= 0.1 * flat_bytes, (
        f"merkle exchange shipped {merkle_bytes}B vs flat {flat_bytes}B"
    )

    # Converged replicas short-circuit the next exchange on the hash:
    # one opener, one in_sync acknowledgement.
    steady_bytes = (
        SyncRequest(
            sender="nsA", sync_id=2, db_hash=left.content_hash(),
            expansions={"": left.merkle.children("")},
            genealogy_children=tuple(left.genealogy_edges()),
        ).size_bytes()
        + SyncReply(sender="nsB", sync_id=2, in_sync=True).size_bytes()
    )

    return len(left) + len(right), {
        "records": len(left),
        "merkle_bytes": merkle_bytes,
        "flat_bytes": flat_bytes,
        "bytes_ratio": round(merkle_bytes / flat_bytes, 4),
        "rounds": rounds,
        "records_shipped": merkle_records,
        "steady_bytes": steady_bytes,
    }


@_register(
    "naming.reconcile_delta",
    fast=True,
    description="Merkle descent vs flat-digest reconciliation at 100k records",
)
def bench_naming_reconcile_delta(seed: int) -> Tuple[int, Dict[str, Any]]:
    return reconcile_delta_workload(seed)


# ----------------------------------------------------------------------
# Naming scale-out: sharded replica sets vs full replication
# ----------------------------------------------------------------------
SCALEOUT_SWEEP = (4, 16, 64)
SCALEOUT_RF = 3
SCALEOUT_WRITES = 192
SCALEOUT_SETTLE_S = 4


def shard_scaleout_workload(
    seed: int, num_servers: int, replication_factor: int
) -> Dict[str, float]:
    """Per-server naming load for one deployment shape.

    ``replication_factor=0`` means the whole roster — full replication
    (the comparison baseline).  One client writes
    :data:`SCALEOUT_WRITES` distinct LWG mappings (no parents, so the
    exchange cost is records, not genealogy), the cluster settles
    through several gossip periods, and every server's outbound naming
    traffic is metered at its own ``send``/``multicast`` seam — a
    multicast to ``k`` destinations counts ``k`` times its size, the
    same accounting the fabric uses.
    """
    from ..naming.client import NamingClient
    from ..naming.records import MappingRecord
    from ..naming.server import NameServer
    from ..naming.sharding import ShardMap
    from ..sim.process import SimRuntime
    from ..vsync.stack import ProtocolStack
    from ..vsync.view import ViewId

    env = SimRuntime.create(seed=seed, keep_trace=False)
    server_ids = [f"ns{i}" for i in range(num_servers)]
    shard_map = ShardMap(server_ids, replication_factor or num_servers)
    bytes_sent = {node: 0 for node in server_ids}
    msgs_sent = {node: 0 for node in server_ids}
    servers = {}
    for node in server_ids:
        server = NameServer(env, node, shard_map)
        servers[node] = server
        original_send, original_multicast = server.send, server.multicast

        def send(dst, msg, size=256, _n=node, _s=original_send):
            bytes_sent[_n] += size
            msgs_sent[_n] += 1
            return _s(dst, msg, size)

        def multicast(dsts, msg, size=256, _n=node, _m=original_multicast):
            targets = list(dsts)
            bytes_sent[_n] += size * len(targets)
            msgs_sent[_n] += len(targets)
            return _m(targets, msg, size)

        server.send = send
        server.multicast = multicast
    stack = ProtocolStack(env, "p0", env.group_addressing())
    client = NamingClient(stack, shard_map)
    acked = [0]
    for i in range(SCALEOUT_WRITES):
        record = MappingRecord(
            lwg=f"lwg:{i}", lwg_view=ViewId("p0", 1), lwg_members=("p0",),
            hwg=f"hwg:{i % 7}", hwg_view=ViewId("h", 1),
            version=client.next_version(), writer="p0",
        )
        client.set(record, on_reply=lambda _r: acked.__setitem__(0, acked[0] + 1))
        env.run_for(10 * MS)
    env.run_for(SCALEOUT_SETTLE_S * SECOND)
    assert acked[0] == SCALEOUT_WRITES, f"{acked[0]} of {SCALEOUT_WRITES} acked"
    resident = [len(s.db) for s in servers.values()]
    if not shard_map.fully_replicated:
        # Each write must live on exactly its replica set, nowhere else.
        assert sum(resident) == SCALEOUT_WRITES * replication_factor
    return {
        "bytes_per_server": sum(bytes_sent.values()) / num_servers,
        "msgs_per_server": sum(msgs_sent.values()) / num_servers,
        "records_per_server": sum(resident) / num_servers,
        "records_max": max(resident),
        "client_retries": client.retries,
    }


@_register(
    "naming.shard_scaleout",
    fast=False,
    description="per-server naming load, 4->64 sharded servers vs full replication",
)
def bench_naming_shard_scaleout(seed: int) -> Tuple[int, Dict[str, Any]]:
    """Sweep the roster at rf=3 and price full replication at 16 servers.

    Asserts the PR's acceptance bounds: at 16 servers the sharded
    deployment's per-server naming bytes and resident records are
    ≤0.35x the fully-replicated equivalent, and growing the roster
    4 -> 64 keeps per-server load flat (scale-out, not scale-up).
    """
    sweep = {n: shard_scaleout_workload(seed, n, SCALEOUT_RF) for n in SCALEOUT_SWEEP}
    full = shard_scaleout_workload(seed, 16, 0)
    bytes_ratio = sweep[16]["bytes_per_server"] / full["bytes_per_server"]
    records_ratio = sweep[16]["records_per_server"] / full["records_per_server"]
    assert bytes_ratio <= 0.35, f"per-server bytes ratio {bytes_ratio:.3f} > 0.35"
    assert records_ratio <= 0.35, (
        f"per-server records ratio {records_ratio:.3f} > 0.35"
    )
    assert sweep[64]["records_per_server"] <= 1.1 * sweep[4]["records_per_server"]
    assert sweep[64]["msgs_per_server"] <= 1.1 * sweep[4]["msgs_per_server"]
    events = SCALEOUT_WRITES * (len(SCALEOUT_SWEEP) + 1)
    return events, {
        "bytes_ratio_16": round(bytes_ratio, 4),
        "records_ratio_16": round(records_ratio, 4),
        "bytes_per_server_4": round(sweep[4]["bytes_per_server"], 1),
        "bytes_per_server_16": round(sweep[16]["bytes_per_server"], 1),
        "bytes_per_server_64": round(sweep[64]["bytes_per_server"], 1),
        "bytes_per_server_full_16": round(full["bytes_per_server"], 1),
        "records_per_server_64": round(sweep[64]["records_per_server"], 1),
        "records_per_server_full_16": round(full["records_per_server"], 1),
    }


# ----------------------------------------------------------------------
# Policy-engine benchmarks (mirror benchmarks/bench_policies.py)
# ----------------------------------------------------------------------
POLICY_EVALS = 12
POLICY_LWGS = 200
POLICY_PROCS = 24
POLICY_HWGS = 12


def policy_scale_snapshot(seed: int):
    """A high-group-count local state: 200 LWGs over 24 processes.

    Deterministic from ``seed`` alone (a dedicated RNG stream — never
    Python's hash order), shaped like the placement workload: nested
    member windows per 12-process zone, LWG counts skewed toward the
    narrow windows.
    """
    from ..core import PolicySnapshot
    from ..runtime.rng import RngRegistry

    rng = RngRegistry(seed).stream("bench:policy_scale")
    procs = [f"p{i}" for i in range(POLICY_PROCS)]
    hwgs = {}
    for i in range(POLICY_HWGS):
        zone = (i % 2) * 12
        width = 4 + (i * 5) % 9  # 4..12
        hwgs[f"hwg:{i:02d}"] = frozenset(procs[zone : zone + width])
    hwg_names = sorted(hwgs)
    coordinated = {}
    for g in range(POLICY_LWGS):
        hwg = hwg_names[rng.randrange(POLICY_HWGS)]
        pool = sorted(hwgs[hwg])
        width = max(1, len(pool) - rng.randrange(3))
        coordinated[f"lwg:g{g:03d}"] = (frozenset(pool[:width]), hwg)
    return PolicySnapshot(
        node="p0",
        now_us=60 * SECOND,
        coordinated_lwgs=coordinated,
        hwg_members=hwgs,
        local_lwgs_per_hwg={
            h: sum(1 for _, (_, u) in coordinated.items() if u == h)
            for h in hwg_names
        },
        hwg_idle_since={h: 0 for h in hwg_names},
        hwg_pinned={h: () for h in hwg_names},
    )


@_register(
    "lwg.policy_eval_scale",
    fast=True,
    description="policy evaluation over 200 LWGs / 12 HWGs, paper vs optimizer",
)
def bench_policy_eval_scale(seed: int) -> Tuple[int, Dict[str, Any]]:
    """Per-evaluation cost of both placement policies at high group count.

    Each evaluation builds a fresh snapshot (the cached-property derived
    data is part of the cost being measured, exactly as in production
    where every policy tick starts from a new snapshot).
    """
    from ..core import LwgConfig, PolicyEngine

    paper = PolicyEngine(LwgConfig())
    optimizer = PolicyEngine(LwgConfig(placement_policy="optimizer"))
    counts = {"paper": 0, "optimizer": 0}
    for _ in range(POLICY_EVALS):
        snap = policy_scale_snapshot(seed)
        counts["paper"] += len(paper.evaluate(snap))
        snap = policy_scale_snapshot(seed)
        counts["optimizer"] += len(
            optimizer.evaluate(snap, mint=lambda: "hwg:minted")
        )
    return 2 * POLICY_EVALS, {
        "lwgs": POLICY_LWGS,
        "hwgs": POLICY_HWGS,
        "paper_actions_per_eval": counts["paper"] // POLICY_EVALS,
        "optimizer_actions_per_eval": counts["optimizer"] // POLICY_EVALS,
    }


# ----------------------------------------------------------------------
# Membership scale: flat vs zoned failure detection (PROTOCOLS.md §20)
# ----------------------------------------------------------------------
FD_SCALE_SWEEP = (64, 256, 1024)
FD_SCALE_ZONES = {64: 4, 256: 4, 1024: 8}
FD_SCALE_STEADY_N = 256
FD_SCALE_HEAL_N = 64


def _fd_rounds(population) -> int:
    """FD rounds actually driven across the population."""
    return sum(fd.heartbeats_sent for fd in population.detectors.values())


def _fd_steady(seed: int, n: int, topology: str, zones: int):
    """Wall-time one steady-state stretch of the dynamics population.

    Both topologies simulate the identical population for the identical
    sim duration, so rounds/wall-second is the substrate's CPU price at
    that scale — the 'steady-state events/sec' figure of the node-axis
    sweep.
    """
    from ..workloads.scale import _Population

    population = _Population(seed, n, topology, zones)
    start = time.perf_counter()
    population.run_for(2 * SECOND)
    wall = time.perf_counter() - start
    rounds = _fd_rounds(population)
    return rounds, wall, population


@_register(
    "membership.fd_scale",
    fast=True,
    description="flat vs zoned failure detection at 64/256/1024 nodes",
)
def bench_membership_fd_scale(seed: int) -> Tuple[int, Dict[str, Any]]:
    """The zoned-membership scale story, gated on its acceptance bounds.

    Census (networkless) prices FD datagrams/period and tracked-peer
    state across the sweep; the steady-state run prices CPU per FD round
    at n=256; the heal run measures partition-heal convergence at n=64.
    Asserts the PR's acceptance criteria: zoned ≤0.25x flat FD message
    volume at n=256, zoned ≥0.9x flat steady-state events/sec, and both
    topologies re-converging after a heal.
    """
    from ..workloads.scale import fd_census, fd_dynamics

    census: Dict[str, Any] = {}
    for n in FD_SCALE_SWEEP:
        flat = fd_census(seed, n, "flat")
        zoned = fd_census(seed, n, "zoned", FD_SCALE_ZONES[n])
        census[n] = {
            "ratio": zoned["datagrams_per_period"] / flat["datagrams_per_period"],
            "flat": flat,
            "zoned": zoned,
        }
    ratio_256 = census[FD_SCALE_STEADY_N]["ratio"]
    assert ratio_256 <= 0.25, f"zoned/flat FD datagram ratio {ratio_256:.3f} > 0.25"

    flat_rounds, flat_wall, _ = _fd_steady(
        seed, FD_SCALE_STEADY_N, "flat", 0
    )
    zoned_rounds, zoned_wall, _ = _fd_steady(
        seed, FD_SCALE_STEADY_N, "zoned", FD_SCALE_ZONES[FD_SCALE_STEADY_N]
    )
    steady_ratio = (zoned_rounds / zoned_wall) / (flat_rounds / flat_wall)
    assert steady_ratio >= 0.9, (
        f"zoned steady-state events/sec {steady_ratio:.3f}x flat < 0.9x"
    )

    heal = {
        topology: fd_dynamics(
            seed, FD_SCALE_HEAL_N, topology, FD_SCALE_ZONES[FD_SCALE_HEAL_N]
        )
        for topology in ("flat", "zoned")
    }
    for topology, outcome in heal.items():
        assert outcome["heal_convergence_us"] > 0, f"{topology} heal never converged"

    events = flat_rounds + zoned_rounds
    return events, {
        "fd_datagram_ratio_64": round(census[64]["ratio"], 4),
        "fd_datagram_ratio_256": round(ratio_256, 4),
        "fd_datagram_ratio_1024": round(census[1024]["ratio"], 4),
        "flat_datagrams_per_period_256": census[256]["flat"]["datagrams_per_period"],
        "zoned_datagrams_per_period_256": census[256]["zoned"]["datagrams_per_period"],
        "flat_tracked_peers_1024": census[1024]["flat"]["tracked_peers_max"],
        "zoned_tracked_peers_1024": census[1024]["zoned"]["tracked_peers_max"],
        "steady_events_per_sec_ratio_256": round(steady_ratio, 3),
        "flat_heal_convergence_us_64": heal["flat"]["heal_convergence_us"],
        "zoned_heal_convergence_us_64": heal["zoned"]["heal_convergence_us"],
    }
