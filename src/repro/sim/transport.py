"""Reliable unicast transport over the lossy network.

Provides per-peer FIFO reliable delivery using sliding-window
retransmission with cumulative acknowledgements.  Protocol control
traffic (membership rounds, naming-service RPC) rides on this; bulk data
uses raw multicast with protocol-level gap repair instead.

Messages to unreachable peers are retransmitted until ``max_retries``
and then silently discarded — reachability tracking is the failure
detector's job, not the transport's.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, Tuple

from ..runtime.interfaces import NodeId, Runtime


@dataclass(frozen=True)
class _Segment:
    """Wire envelope for reliable transport payloads.

    ``floor`` is the smallest sequence number the sender still retains:
    when the sender gives up on a segment (peer unreachable beyond
    ``max_retries``), later segments carry a raised floor so the receiver
    skips the abandoned gap instead of waiting forever.  Without this, a
    single drop during a partition would permanently wedge the channel —
    exactly what must NOT happen to the post-heal merge traffic.
    """

    kind: str  # "data" | "ack"
    seq: int
    payload: Any = None
    size: int = 0
    floor: int = 0
    incarnation: int = 0


@dataclass
class _PeerState:
    """Sliding-window sender + receiver state for one remote peer."""

    next_send_seq: int = 0
    acked_up_to: int = -1  # highest cumulatively acked seq
    # Keys are inserted in ascending seq order (a retry rewrites its
    # entry in place), so the first key is always the smallest.
    unacked: Dict[int, Tuple[Any, int, int]] = field(default_factory=dict)
    # receiver side
    delivered_up_to: int = -1
    out_of_order: Dict[int, Tuple[Any, int]] = field(default_factory=dict)
    peer_incarnation: int = 0


class _Retry:
    """The retransmission timer of one segment.

    A slotted callable instead of a closure per transmitted segment:
    cheaper to build, and re-armed as the same object after each retry.
    """

    __slots__ = ("transport", "dst", "seq")

    def __init__(self, transport: "ReliableTransport", dst: NodeId, seq: int):
        self.transport = transport
        self.dst = dst
        self.seq = seq

    def __call__(self) -> None:
        self.transport._retry(self)


class ReliableTransport:
    """FIFO reliable unicast channels from one node to every peer.

    The owner process must route incoming :class:`_Segment` payloads to
    :meth:`on_segment`; deliveries surface through ``deliver(src,
    payload, size)``.
    """

    ACK_SIZE = 32

    def __init__(
        self,
        env: Runtime,
        node: NodeId,
        deliver: Callable[[NodeId, Any, int], None],
        retransmit_timeout_us: int = 20_000,
        max_retries: int = 10,
        window: int = 64,
    ):
        self.env = env
        self.node = node
        self.deliver = deliver
        self.retransmit_timeout_us = retransmit_timeout_us
        self.max_retries = max_retries
        self.window = window
        self._peers: Dict[NodeId, _PeerState] = {}
        self._queued: Dict[NodeId, Deque[Tuple[Any, int]]] = {}
        self.retransmissions = 0
        self.gave_up = 0
        self._stopped = False
        #: Bumped on restart so peers reset their receive state for us.
        self.incarnation = 0

    def _peer(self, peer: NodeId) -> _PeerState:
        state = self._peers.get(peer)
        if state is None:
            state = self._peers[peer] = _PeerState()
        return state

    def stop(self) -> None:
        """Stop all retransmission activity (owner crashed)."""
        self._stopped = True

    def restart(self) -> None:
        """Clear all channel state after a recovery (fresh incarnation)."""
        self._peers.clear()
        self._queued.clear()
        self._stopped = False
        self.incarnation += 1

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def send(self, dst: NodeId, payload: Any, size: int = 256) -> None:
        """Queue ``payload`` for FIFO reliable delivery to ``dst``."""
        if self._stopped:
            return
        state = self._peer(dst)
        in_flight = state.next_send_seq - state.acked_up_to - 1
        if in_flight >= self.window:
            self._queued.setdefault(dst, deque()).append((payload, size))
            return
        self._transmit(dst, payload, size)

    def _sender_floor(self, state: _PeerState) -> int:
        return next(iter(state.unacked)) if state.unacked else state.next_send_seq

    def _transmit(self, dst: NodeId, payload: Any, size: int) -> None:
        state = self._peer(dst)
        seq = state.next_send_seq
        state.next_send_seq += 1
        state.unacked[seq] = (payload, size, 0)
        segment = _Segment(
            "data", seq, payload, size, self._sender_floor(state), self.incarnation
        )
        self.env.fabric.send(self.node, dst, segment, size)
        self._arm_retransmit(dst, seq)

    #: Exponential-backoff cap for retransmissions, microseconds.
    MAX_BACKOFF_US = 1_000_000

    def _backoff(self, attempts: int) -> int:
        """Retransmission delay for the given attempt count.

        Exponential backoff is essential on a shared medium: a fixed
        timeout shorter than the congestion-induced ACK delay turns every
        burst into a retransmission storm that further congests the
        medium (measured: thousands of spurious retransmissions and even
        give-ups with zero real loss).
        """
        return min(self.retransmit_timeout_us << attempts, self.MAX_BACKOFF_US)

    def _arm_retransmit(self, dst: NodeId, seq: int) -> None:
        self.env.scheduler.schedule(self._backoff(0), _Retry(self, dst, seq))

    def _retry(self, retry: "_Retry") -> None:
        """One retransmission timer fired for ``(retry.dst, retry.seq)``."""
        if self._stopped:
            return
        dst = retry.dst
        seq = retry.seq
        state = self._peer(dst)
        entry = state.unacked.get(seq)
        if entry is None:
            return  # acked meanwhile
        payload, size, attempts = entry
        if attempts >= self.max_retries:
            del state.unacked[seq]
            self.gave_up += 1
            self._drain_queue(dst)
            return
        state.unacked[seq] = (payload, size, attempts + 1)
        self.retransmissions += 1
        segment = _Segment(
            "data", seq, payload, size, self._sender_floor(state), self.incarnation
        )
        self.env.fabric.send(self.node, dst, segment, size)
        self.env.scheduler.schedule(self._backoff(attempts + 1), retry)

    def _drain_queue(self, dst: NodeId) -> None:
        state = self._peer(dst)
        queued = self._queued.get(dst)
        while queued and (state.next_send_seq - state.acked_up_to - 1) < self.window:
            payload, size = queued.popleft()
            self._transmit(dst, payload, size)

    # ------------------------------------------------------------------
    # Receiving
    # ------------------------------------------------------------------
    def on_segment(self, src: NodeId, segment: _Segment) -> None:
        """Process an incoming transport segment from ``src``."""
        if self._stopped:
            return
        if segment.kind == "ack":
            if segment.incarnation == self.incarnation:
                self._on_ack(src, segment.seq)
            return
        state = self._peer(src)
        if segment.incarnation > state.peer_incarnation:
            # The peer restarted: its numbering begins afresh.
            state.peer_incarnation = segment.incarnation
            state.delivered_up_to = -1
            state.out_of_order.clear()
        elif segment.incarnation < state.peer_incarnation:
            return  # stale segment from a previous incarnation
        if segment.floor - 1 > state.delivered_up_to:
            # The sender abandoned everything below its floor: skip the gap.
            state.delivered_up_to = segment.floor - 1
            for seq in [s for s in state.out_of_order if s <= state.delivered_up_to]:
                del state.out_of_order[seq]
        if segment.seq <= state.delivered_up_to:
            # Duplicate; re-ack so the sender can advance.
            self._send_ack(src, state.delivered_up_to)
            return
        state.out_of_order[segment.seq] = (segment.payload, segment.size)
        while state.delivered_up_to + 1 in state.out_of_order:
            seq = state.delivered_up_to + 1
            payload, size = state.out_of_order.pop(seq)
            state.delivered_up_to = seq
            self.deliver(src, payload, size)
        self._send_ack(src, state.delivered_up_to)

    def _send_ack(self, dst: NodeId, up_to: int) -> None:
        # The ack echoes the *peer's* incarnation so a restarted sender
        # never credits acknowledgements meant for its previous life.
        state = self._peer(dst)
        ack = _Segment("ack", up_to, incarnation=state.peer_incarnation)
        self.env.fabric.send(self.node, dst, ack, self.ACK_SIZE)

    def _on_ack(self, src: NodeId, up_to: int) -> None:
        state = self._peer(src)
        if up_to > state.acked_up_to:
            # Everything at or below the previous ack is already gone.
            for seq in range(state.acked_up_to + 1, up_to + 1):
                state.unacked.pop(seq, None)
            state.acked_up_to = up_to
            if self._queued.get(src):
                self._drain_queue(src)

    @staticmethod
    def is_segment(payload: Any) -> bool:
        """True if a raw network payload belongs to the reliable transport."""
        return isinstance(payload, _Segment)
