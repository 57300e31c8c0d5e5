"""Traced runs: spans around each layer's public calls, plus layer counters.

:class:`LayerTrace` wraps, from outside the program, the entry points of
every layer (``Network.send``, ``OrderedChannel.on_ordered``,
``BatchPacker.flush``, ``NamingClient._call``, codec ``encode`` ...) and
subscribes to the program's ``Tracer`` stream.  Each wrapped call is a
span: layer name, start, end and the span that was open when it began.
Spans nest strictly (one thread, synchronous calls), so a layer's self
time is its spans' durations minus the time covered by their children.

Only the measured phase is recorded (:meth:`begin` / :meth:`end`); spans
stay in memory and :meth:`write` dumps them when the run ends.  Call
:meth:`restore` to unwrap everything.
"""

from __future__ import annotations

import functools
import gzip
import time
from array import array
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, List

from repro.core.batching import BatchPacker
from repro.core.service import LwgService, _HwgAdapter
from repro.naming.client import NamingClient
from repro.naming.persistence import DurableStore, MemoryStorage
from repro.naming.server import NameServer
from repro.runtime.asyncio_backend import AsyncioRuntime, AsyncioScheduler, UdpFabric
from repro.runtime.codec import CompactCodec
from repro.sim.engine import Simulation
from repro.sim.network import Network
from repro.sim.process import Process
from repro.vsync.failure_detector import FailureDetector
from repro.vsync.flush import BranchFlushLeader, FlushParticipant
from repro.vsync.membership import ViewChangeManager
from repro.vsync.stack import ProtocolStack
from repro.vsync.total_order import OrderedChannel

from figure2 import percentile

#: (class, method, layer) of every call recorded as a span.
SPANS = [
    (Simulation, "run_until", "sim.engine"),
    (Network, "send", "sim.network"),
    (Network, "multicast", "sim.network"),
    (Network, "_deliver", "sim.network"),
    (ProtocolStack, "on_message", "vsync.stack"),
    (OrderedChannel, "send", "vsync.total_order"),
    (OrderedChannel, "on_publish", "vsync.total_order"),
    (OrderedChannel, "on_nack", "vsync.total_order"),
    (OrderedChannel, "on_ordered", "vsync.total_order"),
    (OrderedChannel, "tick_stability", "vsync.total_order"),
    (OrderedChannel, "on_stability_ack", "vsync.total_order"),
    (OrderedChannel, "on_stability_announce", "vsync.total_order"),
    (FailureDetector, "tick_heartbeat", "vsync.failure_detector"),
    (FailureDetector, "tick_check", "vsync.failure_detector"),
    (FailureDetector, "on_heartbeat", "vsync.failure_detector"),
    (BranchFlushLeader, "start", "vsync.flush"),
    (BranchFlushLeader, "on_flush_state", "vsync.flush"),
    (BranchFlushLeader, "on_flush_done", "vsync.flush"),
    (BranchFlushLeader, "abort", "vsync.flush"),
    (FlushParticipant, "on_stop", "vsync.flush"),
    (FlushParticipant, "on_fill", "vsync.flush"),
    (ViewChangeManager, "on_join_request", "vsync.membership"),
    (ViewChangeManager, "on_leave_request", "vsync.membership"),
    (ViewChangeManager, "on_suspicion_change", "vsync.membership"),
    (ViewChangeManager, "on_presence", "vsync.membership"),
    (ViewChangeManager, "maybe_start", "vsync.membership"),
    (ViewChangeManager, "on_branch_flushed", "vsync.membership"),
    (ViewChangeManager, "on_merge_request", "vsync.membership"),
    (LwgService, "send", "core.service"),
    (LwgService, "join", "core.service"),
    (_HwgAdapter, "on_data", "core.service"),
    (_HwgAdapter, "on_view", "core.service"),
    (BatchPacker, "enqueue", "core.batching"),
    (BatchPacker, "flush", "core.batching"),
    (LwgService, "start_switch", "core.switching"),
    (LwgService, "run_policies_once", "core.policies"),
    (NamingClient, "_call", "naming.client"),
    (NamingClient, "_handle_message", "naming.client"),
    (NameServer, "on_message", "naming.server"),
    (NameServer, "gossip_tick", "naming.server"),
    (MemoryStorage, "append", "naming.persistence"),
    (DurableStore, "load", "naming.persistence"),
    (DurableStore, "load_meta", "naming.persistence"),
    (DurableStore, "write_snapshot", "naming.persistence"),
    (CompactCodec, "encode", "runtime.codec"),
    (CompactCodec, "decode", "runtime.codec"),
    (AsyncioRuntime, "run_for", "runtime.asyncio_backend"),
    (UdpFabric, "send", "runtime.asyncio_backend"),
    (UdpFabric, "multicast", "runtime.asyncio_backend"),
    (UdpFabric, "_on_readable", "runtime.asyncio_backend"),
]

_MODULE_LAYER_PREFIX = "repro."


def _layer_of(callback: Callable) -> str:
    """Layer of a timer callback: the module that defined it."""
    func = getattr(callback, "__func__", callback)
    module = getattr(func, "__module__", None) or "unknown"
    return module[len(_MODULE_LAYER_PREFIX):] if module.startswith(_MODULE_LAYER_PREFIX) else module


class LayerTrace:
    """Instruments the program's layers for one traced repetition."""

    def __init__(self) -> None:
        self.active = False
        self.clock: Callable[[], int] = lambda: 0
        self._patched: List[tuple] = []
        # Spans, as parallel arrays: layer id, start ns, end ns, parent.
        self.layers: List[str] = []
        self._layer_ids: Dict[str, int] = {}
        self.span_layer = array("H")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("q")
        self._open: List[list] = []
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.call_ns: Dict[str, int] = defaultdict(int)
        self.calls: Counter = Counter()
        # Layer counters gathered at the boundaries.
        self.counts: Counter = Counter()
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self._batch_first: Dict[tuple, int] = {}
        self._flush_started: Dict[int, int] = {}
        self._begin_counts: Dict[str, int] = {}
        self._install()

    # ------------------------------------------------------------------
    # Instrumentation
    # ------------------------------------------------------------------
    def _patch(self, owner: type, attr: str, replacement: Callable) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _spanned(self, fn: Callable, layer: str, key: str) -> Callable:
        trace = self
        layer_id = self._layer_id(layer)

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not trace.active:
                return fn(*args, **kwargs)
            stack = trace._open
            index = len(trace.span_start)
            trace.span_layer.append(layer_id)
            trace.span_parent.append(stack[-1][0] if stack else -1)
            frame = [index, 0]
            stack.append(frame)
            started = time.perf_counter_ns()
            trace.span_start.append(started)
            trace.span_end.append(0)
            try:
                return fn(*args, **kwargs)
            finally:
                ended = time.perf_counter_ns()
                stack.pop()
                trace.span_end[index] = ended
                duration = ended - started
                trace.self_ns[layer] += duration - frame[1]
                trace.call_ns[key] += duration
                trace.calls[key] += 1
                if stack:
                    stack[-1][1] += duration

        return wrapper

    def _layer_id(self, layer: str) -> int:
        if layer not in self._layer_ids:
            self._layer_ids[layer] = len(self.layers)
            self.layers.append(layer)
        return self._layer_ids[layer]

    def _install(self) -> None:
        for owner, attr, layer in SPANS:
            original = owner.__dict__[attr]
            self._patch(owner, attr, self._spanned(original, layer, f"{owner.__name__}.{attr}"))
        trace = self

        # Timer callbacks run straight from the engine: give each a span
        # named after the module that defined it.
        def timed(callback: Callable) -> Callable:
            layer = _layer_of(callback)
            return self._spanned(callback, layer, f"timer:{layer}")

        set_timer, set_periodic = Process.set_timer, Process.set_periodic
        self._patch(Process, "set_timer",
                    lambda proc, delay, callback: set_timer(proc, delay, timed(callback)))
        self._patch(Process, "set_periodic",
                    lambda proc, period, callback, jitter_stream="":
                    set_periodic(proc, period, timed(callback), jitter_stream))

        # Event counts (no span: the engine's own loop is the root span).
        for attr in ("schedule", "schedule_at"):
            original = Simulation.__dict__[attr]

            def counted(sim, *args, _original=original):
                if trace.active:
                    trace.counts["sim.engine.events"] += 1
                return _original(sim, *args)

            self._patch(Simulation, attr, counted)

        # Asyncio timers: how late each fires against its due time.
        schedule = AsyncioScheduler.__dict__["schedule"]

        def late_schedule(sched, delay, callback):
            due = sched._clock.now + delay

            def fire():
                if trace.active:
                    trace.samples["timer_late_us"].append(sched._clock.now - due)
                callback()

            return schedule(sched, delay, fire)

        self._patch(AsyncioScheduler, "schedule", late_schedule)

        # Batching: entries per flush and how long the first entry waited.
        enqueue, flush = BatchPacker.enqueue, BatchPacker.flush

        def batch_enqueue(packer, hwg, message):
            if trace.active and not packer.pending_entries(hwg):
                trace._batch_first[(id(packer), hwg)] = trace.clock()
            return enqueue(packer, hwg, message)

        def batch_flush(packer, hwg):
            entries = packer.pending_entries(hwg)
            if trace.active and entries:
                first = trace._batch_first.pop((id(packer), hwg), None)
                trace.samples["batch_entries"].append(entries)
                if first is not None:
                    trace.samples["batch_wait_us"].append(trace.clock() - first)
            return flush(packer, hwg)

        self._patch(BatchPacker, "enqueue", batch_enqueue)
        self._patch(BatchPacker, "flush", batch_flush)

        # Naming RPCs: round trip in runtime time, from call to reply.
        call = NamingClient._call

        def rpc(client, op, lwg, record, parents, on_reply):
            if not trace.active:
                return call(client, op, lwg, record, parents, on_reply)
            sent = trace.clock()

            def replied(records):
                trace.samples["rpc_ms"].append((trace.clock() - sent) / 1000.0)
                if on_reply is not None:
                    on_reply(records)

            return call(client, op, lwg, record, parents, replied)

        self._patch(NamingClient, "_call", rpc)

        # Flushes: count, duration to completion, aborts.
        start, done, abort = (BranchFlushLeader.start, BranchFlushLeader.on_flush_done,
                              BranchFlushLeader.abort)

        def flush_start(leader):
            if trace.active:
                trace._flush_started[id(leader)] = trace.clock()
            return start(leader)

        def flush_done(leader, msg):
            result = done(leader, msg)
            began = trace._flush_started.get(id(leader))
            if trace.active and leader.finished and began is not None:
                del trace._flush_started[id(leader)]
                trace.samples["flush_ms"].append((trace.clock() - began) / 1000.0)
            return result

        def flush_abort(leader):
            # Round clean-up aborts finished flushes too; count real aborts.
            if trace.active and not (leader.aborted or leader.finished):
                trace.counts["vsync.flush.aborted"] += 1
            return abort(leader)

        self._patch(BranchFlushLeader, "start", flush_start)
        self._patch(BranchFlushLeader, "on_flush_done", flush_done)
        self._patch(BranchFlushLeader, "abort", flush_abort)

        # LWG service trace points (merge rounds) and call counters.
        service_trace = LwgService.trace

        def lwg_trace(service, event, **fields):
            if trace.active:
                trace.counts[f"lwg.{event}"] += 1
            return service_trace(service, event, **fields)

        self._patch(LwgService, "trace", lwg_trace)

        encode = CompactCodec.encode
        server_message = NameServer.on_message

        def codec_encode(codec, src, payload, size):
            data = encode(codec, src, payload, size)
            if trace.active:
                trace.samples["datagram_bytes"].append(len(data))
            return data

        self._patch(CompactCodec, "encode", codec_encode)

        def server_on_message(server, src, msg, size):
            if trace.active:
                trace.counts["naming.server.bytes"] += size
            return server_message(server, src, msg, size)

        self._patch(NameServer, "on_message", server_on_message)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # ------------------------------------------------------------------
    # Measured phase
    # ------------------------------------------------------------------
    def _cluster_counts(self, cluster) -> Dict[str, int]:
        fabric = cluster.env.fabric
        stats = [s.stats for s in cluster.services.values()]
        if isinstance(fabric, UdpFabric):
            layer = {"runtime.asyncio_backend.datagrams": fabric.messages_delivered}
        else:
            layer = {
                "sim.network.msgs": fabric.messages_sent,
                "sim.network.bytes": fabric.bytes_sent,
                "sim.network.dropped": fabric.messages_dropped,
            }
        return {
            **layer,
            "core.service.data_stale": sum(s.data_stale for s in stats),
            "core.service.lwg_views_installed": sum(s.lwg_views_installed for s in stats),
            "core.switching.started": sum(s.switches_started for s in stats),
            "core.switching.committed": sum(s.switches_committed for s in stats),
            "naming.client.retries": sum(c.retries for c in cluster.clients.values()),
        }

    def _on_record(self, record) -> None:
        if self.active and record.event == "view_installed":
            self.counts["vsync.membership.views_installed"] += 1

    def begin(self, cluster) -> None:
        """Start recording the measured phase of ``cluster``."""
        env = cluster.env
        self.clock = lambda: env.now
        # Every cluster has one measured phase, so subscribe once here.
        for node, stack in cluster.stacks.items():
            stack.fd.subscribe(
                lambda peer, suspected, node=node: self._on_suspicion(env, node, peer, suspected)
            )
        env.tracer.subscribe(self._on_record, categories=["hwg"])
        self._begin_counts = self._cluster_counts(cluster)
        self.active = True

    def end(self, cluster) -> None:
        self.active = False
        cluster.env.tracer.unsubscribe(self._on_record)
        for name, value in self._cluster_counts(cluster).items():
            self.counts[name] += value - self._begin_counts[name]

    def _on_suspicion(self, env, node: str, peer: str, suspected: bool) -> None:
        if not (self.active and suspected):
            return
        self.counts["vsync.failure_detector.suspicions"] += 1
        if env.fabric.reachable(node, peer):
            self.counts["vsync.failure_detector.false_suspicions"] += 1

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def write(self, path: str) -> int:
        """Write every span as TSV (layer, start ns, end ns, parent index)."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("index\tlayer\tstart_ns\tend_ns\tparent\n")
            layers = self.layers
            for index in range(len(self.span_start)):
                out.write(
                    f"{index}\t{layers[self.span_layer[index]]}\t{self.span_start[index]}"
                    f"\t{self.span_end[index]}\t{self.span_parent[index]}\n"
                )
        return len(self.span_start)

    def metrics(self, deliveries: int) -> Dict[str, float]:
        """Every per-layer metric, normalised by ``deliveries`` where per delivery."""
        per = max(1, deliveries)
        counts, calls, samples = self.counts, self.calls, self.samples

        def self_us(layer: str) -> float:
            return self.self_ns.get(layer, 0) / 1000.0 / per

        def mean_us(key: str) -> float:
            calls = self.calls.get(key, 0)
            return self.call_ns.get(key, 0) / 1000.0 / calls if calls else 0.0

        def share(part: float, whole: float) -> float:
            return part / whole if whole else 0.0

        def p(name: str, q: float) -> float:
            values = sorted(samples.get(name, ()))
            return percentile(values, q) if values else 0.0

        entries = samples.get("batch_entries", [])
        datagrams = samples.get("datagram_bytes", [])
        return {
            "sim.engine.events_per_delivery": counts["sim.engine.events"] / per,
            "sim.engine.self_us_per_delivery": self_us("sim.engine"),
            "sim.network.msgs_per_delivery": counts["sim.network.msgs"] / per,
            "sim.network.bytes_per_delivery": counts["sim.network.bytes"] / per,
            "sim.network.dropped": counts["sim.network.dropped"],
            "sim.network.self_us_per_delivery": self_us("sim.network"),
            "vsync.total_order.sends": calls["OrderedChannel.send"],
            "vsync.total_order.nacks_per_ordered": share(
                calls["OrderedChannel.on_nack"], calls["OrderedChannel.on_ordered"]),
            "vsync.total_order.self_us_per_delivery": self_us("vsync.total_order"),
            "vsync.stack.self_us_per_delivery": self_us("vsync.stack"),
            "vsync.failure_detector.suspicions": counts["vsync.failure_detector.suspicions"],
            "vsync.failure_detector.false_suspicions": counts["vsync.failure_detector.false_suspicions"],
            "vsync.flush.flushes": calls["BranchFlushLeader.start"],
            "vsync.flush.duration_ms_p50": p("flush_ms", 0.5),
            "vsync.flush.aborted": counts["vsync.flush.aborted"],
            "vsync.membership.views_installed": counts["vsync.membership.views_installed"],
            "core.service.send_us": mean_us("LwgService.send"),
            "core.service.self_us_per_delivery": self_us("core.service"),
            "core.service.data_stale": counts["core.service.data_stale"],
            "core.service.lwg_views_installed": counts["core.service.lwg_views_installed"],
            "core.batching.entries_per_flush": share(sum(entries), len(entries)),
            "core.batching.singleton_share": share(sum(1 for e in entries if e == 1), len(entries)),
            "core.batching.window_wait_us_p50": p("batch_wait_us", 0.5),
            "core.switching.started": counts["core.switching.started"],
            "core.switching.committed_share": share(
                counts["core.switching.committed"], counts["core.switching.started"]),
            "core.merge.rounds": counts["lwg.merge_views_triggered"],
            # A round whose flush never comes is retried (and re-triggered).
            "core.merge.completed_share": share(
                counts["lwg.merge_views_triggered"] - counts["lwg.merge_round_retry"],
                counts["lwg.merge_views_triggered"]),
            "core.policies.evals": calls["LwgService.run_policies_once"],
            "core.policies.eval_us": mean_us("LwgService.run_policies_once"),
            "naming.client.rpcs": calls["NamingClient._call"],
            "naming.client.retries": counts["naming.client.retries"],
            "naming.client.rpc_ms_p50": p("rpc_ms", 0.5),
            "naming.client.rpc_ms_max": p("rpc_ms", 1.0),
            "naming.server.msgs": calls["NameServer.on_message"],
            "naming.server.bytes": counts["naming.server.bytes"],
            "naming.server.self_us": self.self_ns.get("naming.server", 0) / 1000.0,
            "naming.persistence.appends": calls["MemoryStorage.append"],
            "naming.persistence.load_ms": (self.call_ns.get("DurableStore.load", 0)
                                           + self.call_ns.get("DurableStore.load_meta", 0)) / 1e6,
            "runtime.codec.encode_us": mean_us("CompactCodec.encode"),
            "runtime.codec.decode_us": mean_us("CompactCodec.decode"),
            "runtime.codec.bytes_per_datagram": share(sum(datagrams), len(datagrams)),
            "runtime.asyncio_backend.datagrams_per_delivery": (
                counts["runtime.asyncio_backend.datagrams"] / per),
            "runtime.asyncio_backend.timer_late_us_p99": p("timer_late_us", 0.99),
        }
