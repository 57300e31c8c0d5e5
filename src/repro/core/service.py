"""The transparent, dynamic, partitionable light-weight group service.

One :class:`LwgService` runs per process, layered over that process's
:class:`~repro.vsync.stack.ProtocolStack` (heavy-weight groups) and
:class:`~repro.naming.client.NamingClient`.  It gives applications the
same virtually-synchronous interface an HWG would (join / leave / send
downcalls, View / Data upcalls) while multiplexing many user groups over
a small pool of HWGs:

* the **data path** encapsulates each user message as ``<DATA, lwg_id,
  view, data>`` multicast on the underlying HWG, and filters on receipt
  (Section 3.1);
* **join/leave** are coordinated by each LWG view's coordinator through
  LWG view messages riding the HWG's total order;
* the **mapping policies** of Figure 1 run periodically and trigger the
  switch protocol (:mod:`repro.core.switching`);
* **partition reconciliation** (Section 6) combines naming-service
  callbacks, the deterministic highest-gid switch, and the Figure-5
  merge-views protocol (:mod:`repro.core.merge`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from ..naming.client import NamingClient
from ..naming.messages import MultipleMappings
from ..naming.records import HwgId, LwgId, MappingRecord
from ..vsync.hwg import HwgEndpoint, HwgListener
from ..vsync.membership import EndpointState
from ..vsync.view import View, ViewId
from .batching import BatchPacker
from .config import LwgConfig
from .ids import lwg_id as canonical_lwg_id
from .ids import hwg_in_zone, is_hwg_id, mint_hwg_id
from .join_leave import JoinDriver
from .lwg_view import restrict_view
from .mapping_policy import DynamicMappingPolicy, InitialMappingPolicy
from .mapping_table import LocalLwg, LwgState, MappingTable
from .merge import MergeManager, ReconciliationHandler
from .messages import (
    AllViewsMsg,
    LwgBatch,
    LwgData,
    LwgDissolved,
    LwgJoinReq,
    LwgLeaveReq,
    LwgMessage,
    LwgStateMsg,
    LwgViewMsg,
    MergeViewsMsg,
    RedirectLwg,
    SwitchAbort,
    SwitchCommit,
    SwitchReady,
    SwitchStart,
)
from .policies import LeaveHwgAction, PolicyEngine, PolicySnapshot, SwitchAction
from .switching import SwitchDriver


class LwgListener:
    """User-facing upcalls for one light-weight group (Table 1 shape)."""

    def on_view(self, lwg: LwgId, view: View) -> None:
        """A new LWG view was installed."""

    def on_data(self, lwg: LwgId, src: str, payload: Any, size: int) -> None:
        """A totally-ordered LWG multicast was delivered."""

    def on_left(self, lwg: LwgId) -> None:
        """Our Leave completed."""

    # -- optional state transfer ---------------------------------------
    def get_state(self, lwg: LwgId) -> Any:
        """Snapshot the group's application state for a joining member.

        Called at the LWG coordinator at the exact total-order position
        where the joiner's view installs.  Return None (default) to
        disable state transfer for this group.
        """
        return None

    def on_state(self, lwg: LwgId, state: Any) -> None:
        """Receive the coordinator's snapshot on join, before any data."""


class LwgHandle:
    """Application-side handle to one joined LWG."""

    def __init__(self, service: "LwgService", lwg: LwgId):
        self._service = service
        self.lwg = lwg

    def send(self, payload: Any, size: Optional[int] = None) -> None:
        self._service.send(self.lwg, payload, size)

    def leave(self) -> None:
        self._service.leave(self.lwg)

    @property
    def view(self) -> Optional[View]:
        local = self._service.table.local(self.lwg)
        return local.view if local else None

    @property
    def is_member(self) -> bool:
        local = self._service.table.local(self.lwg)
        return bool(local and local.is_member)

    @property
    def hwg(self) -> Optional[HwgId]:
        local = self._service.table.local(self.lwg)
        return local.hwg if local else None


@dataclass
class LwgStats:
    """Per-process counters of the LWG layer."""

    data_sent: int = 0
    data_delivered: int = 0
    data_filtered: int = 0
    data_stale: int = 0
    batches_sent: int = 0
    batch_entries_sent: int = 0
    batches_unpacked: int = 0
    batch_entries_unpacked: int = 0
    lwg_views_installed: int = 0
    switches_started: int = 0
    switches_committed: int = 0
    switches_aborted: int = 0
    rejoin_recoveries: int = 0


class _HwgAdapter(HwgListener):
    """Routes one HWG endpoint's upcalls into the LWG service."""

    def __init__(self, service: "LwgService", hwg: HwgId):
        self.service = service
        self.hwg = hwg

    def on_view(self, group, view: View) -> None:
        self.service._on_hwg_view(self.hwg, view)

    def on_data(self, group, src, payload, size) -> None:
        self.service._on_hwg_data(self.hwg, src, payload, size)

    def on_stop(self, group, stop_ok) -> None:
        # Flush-before-view-change: hand any payloads still sitting in
        # the batch packer to the ordered channel of the closing view —
        # they are either ordered before the cut or queued and
        # re-published in the next view.  Beyond that the LWG layer
        # keeps nothing in flight outside the channel itself.
        self.service.packer.flush(self.hwg)
        stop_ok()

    def on_left(self, group) -> None:
        self.service._on_hwg_left(self.hwg)


class LwgService:
    """The light-weight group layer of one process."""

    def __init__(
        self,
        stack,
        naming: NamingClient,
        config: Optional[LwgConfig] = None,
        mapping_policy: Optional[InitialMappingPolicy] = None,
    ):
        self.stack = stack
        self.env = stack.env
        self.node = stack.node
        self.naming = naming
        self.config = config or LwgConfig()
        if mapping_policy is None:
            # The optimizer pairs with the least-damage initial guess;
            # the paper rules pair with the paper's optimistic reuse.
            if self.config.placement_policy == "optimizer":
                from .mapping_policy import OptimizerMappingPolicy

                mapping_policy = OptimizerMappingPolicy()
            else:
                mapping_policy = DynamicMappingPolicy()
        self.mapping_policy = mapping_policy
        #: (endpoint epoch, sorted member HWGs) — the cached member-HWG
        #: set the mapping policies consult on every join.
        self._member_hwgs_cache: Optional[Tuple[int, Tuple[HwgId, ...]]] = None
        self.table = MappingTable()
        self.merge_mgr = MergeManager(self)
        self.reconciler = ReconciliationHandler(self)
        self.policy_engine = PolicyEngine(self.config)
        self.stats = LwgStats()
        self.packer = BatchPacker(
            node=self.node,
            transmit=self._transmit_packed,
            in_flight=self._hwg_in_flight,
            max_bytes=self.config.batch_max_bytes,
        )
        self._join_drivers: Dict[LwgId, JoinDriver] = {}
        self._switch_drivers: Dict[LwgId, SwitchDriver] = {}
        self._hwg_counter = 0
        self._switch_epoch_counter = 0
        self._hwg_last_views: Dict[HwgId, View] = {}
        self._rejoin_after_leave: Set[HwgId] = set()
        naming.on_multiple_mappings = self._on_multiple_mappings
        stack.register_handler(self._handle_unicast)
        stack.env.failures.on_transition(self.node, self._on_crash_transition)
        if self.config.enable_policies:
            stack.set_periodic(
                self.config.policy_period_us,
                self.run_policies_once,
                jitter_stream=f"policy:{self.node}",
            )
        stack.set_periodic(
            self.config.announce_period_us,
            self._tick_announcements,
            jitter_stream=f"announce:{self.node}",
        )
        if self.config.enable_reconciliation:
            stack.set_periodic(
                self.config.mapping_audit_period_us,
                self._tick_mapping_audit,
                jitter_stream=f"audit:{self.node}",
            )

    def _on_crash_transition(self, crashed: bool) -> None:
        """Fail-stop semantics: a crashed process loses all LWG state.

        Recovery starts from a clean slate — the application re-joins its
        groups, receiving fresh views (and state transfer) like any new
        member.
        """
        if not crashed:
            return
        for driver in self._join_drivers.values():
            driver.cancel()
        self._join_drivers.clear()
        self._switch_drivers.clear()
        self.packer.reset()
        self.table = MappingTable()
        self.merge_mgr = MergeManager(self)
        self._hwg_last_views.clear()
        self._rejoin_after_leave.clear()
        self.naming.cancel_all()

    # ==================================================================
    # Public API
    # ==================================================================
    def join(self, name: str, listener: Optional[LwgListener] = None) -> LwgHandle:
        """Join (creating if needed) the user group ``name``."""
        lwg = canonical_lwg_id(name)
        local = self.table.ensure_local(lwg, listener or LwgListener())
        if local.state is LwgState.IDLE:
            local.state = LwgState.JOINING
            driver = JoinDriver(self, local)
            self._join_drivers[lwg] = driver
            driver.start()
        return LwgHandle(self, lwg)

    def leave(self, name: str) -> None:
        """Leave the user group ``name`` (async, completes via on_left)."""
        lwg = canonical_lwg_id(name)
        local = self.table.local(lwg)
        if local is None or not local.is_member:
            return
        assert local.view is not None and local.hwg is not None
        if local.view.members == (self.node,):
            # Last member: dissolve the LWG entirely.
            self.hwg_send(local.hwg, LwgDissolved(lwg=lwg, view_id=local.view.view_id))
            self._unregister_mapping(local)
            self._finish_lwg_leave(local)
            return
        local.state = LwgState.LEAVING
        self._send_leave_request(local)

    def groups(self) -> List[str]:
        """Names of every group this process currently belongs to."""
        return sorted(
            entry.lwg for entry in self.table.locals.values()
            if entry.state is not LwgState.IDLE
        )

    def members(self, name: str) -> Tuple[str, ...]:
        """Current membership of ``name`` as seen locally (empty if none)."""
        local = self.table.local(canonical_lwg_id(name))
        if local is None or local.view is None:
            return ()
        return local.view.members

    def describe(self) -> Dict[str, Dict[str, Any]]:
        """Debug snapshot: per-group state, view, mapping and role."""
        out: Dict[str, Dict[str, Any]] = {}
        for lwg, entry in sorted(self.table.locals.items()):
            out[lwg] = {
                "state": entry.state.value,
                "view": str(entry.view.view_id) if entry.view else None,
                "members": list(entry.view.members) if entry.view else [],
                "hwg": entry.hwg,
                "coordinator": entry.coordinator() == self.node,
                "switching": entry.switch_epoch is not None,
            }
        return out

    def shutdown(self) -> None:
        """Gracefully leave every group (async; upcalls still fire)."""
        for name in self.groups():
            self.leave(name)

    def send(self, name: str, payload: Any, size: Optional[int] = None) -> None:
        """Virtually synchronous multicast to the user group ``name``."""
        lwg = canonical_lwg_id(name)
        local = self.table.local(lwg)
        if local is None or local.state is LwgState.IDLE:
            raise RuntimeError(f"send to {lwg} before join")
        size = size if size is not None else self.config.default_payload_bytes
        self.stats.data_sent += 1
        if not local.is_member or local.switch_epoch is not None:
            local.pending_sends.append((payload, size))
            return
        self._transmit_data(local, payload, size)

    def _transmit_data(self, local: LocalLwg, payload: Any, size: int) -> None:
        assert local.view is not None and local.hwg is not None
        message = LwgData(
            lwg=local.lwg,
            view_id=local.view.view_id,
            sender=self.node,
            payload=payload,
            payload_size=size,
        )
        if self.config.enable_batching:
            self.packer.enqueue(local.hwg, message)
        else:
            self.hwg_send(local.hwg, message)

    def _transmit_packed(self, hwg: HwgId, message: Any) -> None:
        """Packer flush sink: hand one LwgData/LwgBatch to the channel.

        Deliberately does *not* go through :meth:`hwg_send`, whose
        flush-before-control rule would recurse into the packer.
        """
        if isinstance(message, LwgBatch):
            self.stats.batches_sent += 1
            self.stats.batch_entries_sent += len(message.entries)
            if self.env.tracer.enabled("lwg"):
                self.trace(
                    "batch_sent",
                    hwg=hwg,
                    batch_seq=message.batch_seq,
                    entries=len(message.entries),
                    lwgs=message.lwg_counts(),
                )
        endpoint = self.ensure_hwg(hwg)
        endpoint.send(message, message.size_bytes())

    def _hwg_in_flight(self, hwg: HwgId) -> bool:
        """Packer clock: is a send of ours on ``hwg`` not yet delivered back?"""
        endpoint = self.stack.endpoints.get(hwg)
        return endpoint is not None and bool(endpoint.channel.pending)

    # ==================================================================
    # Helpers used across the service and its drivers
    # ==================================================================
    def mint_hwg_id(self) -> HwgId:
        self._hwg_counter += 1
        zone = self.zone
        minted = mint_hwg_id(self.node, self._hwg_counter, zone=zone)
        if zone is not None and self.stack.env.tracer.enabled("zones"):
            self.stack.env.tracer.emit(
                "zones", "hwg_minted", node=self.node, hwg=minted, zone=zone
            )
        return minted

    @property
    def zone(self) -> Optional[int]:
        """This node's zone under the zoned topology, else None."""
        zones = getattr(self.stack, "zones", None)
        return zones.zone if zones is not None else None

    def mint_view_id(self) -> ViewId:
        return ViewId(self.node, self.stack.next_view_seq())

    def next_switch_epoch(self) -> int:
        self._switch_epoch_counter += 1
        return self._switch_epoch_counter

    def ensure_hwg(self, hwg: HwgId) -> HwgEndpoint:
        """Return this node's endpoint for ``hwg``, joining if needed.

        If the endpoint is mid-leave (e.g. the shrink rule drained it just
        as a join driver re-targeted it), the join is queued and re-issued
        the moment the leave completes.
        """
        endpoint = self.stack.endpoints.get(hwg)
        if endpoint is None:
            endpoint = self.stack.endpoint(hwg, _HwgAdapter(self, hwg))
        if endpoint.state is EndpointState.IDLE:
            endpoint.join()
        elif endpoint.state is EndpointState.LEAVING:
            self._rejoin_after_leave.add(hwg)
        return endpoint

    def hwg_endpoint(self, hwg: HwgId) -> Optional[HwgEndpoint]:
        return self.stack.endpoints.get(hwg)

    def member_hwgs(self) -> Tuple[HwgId, ...]:
        """Sorted HWGs this process is currently a member of.

        Cached against the stack's endpoint epoch (bumped on every
        endpoint state change), so the mapping policies stop rescanning
        every endpoint on every join.
        """
        epoch = self.stack.endpoint_epoch
        cached = self._member_hwgs_cache
        if cached is not None and cached[0] == epoch:
            return cached[1]
        zone = self.zone
        hwgs = tuple(
            sorted(
                group
                for group, endpoint in self.stack.endpoints.items()
                if is_hwg_id(group)
                and endpoint.state is EndpointState.MEMBER
                # Zone-local pools: never co-map onto a foreign zone's
                # HWG even when a cross-zone LWG made us a member of it.
                and hwg_in_zone(group, zone)
            )
        )
        self._member_hwgs_cache = (epoch, hwgs)
        return hwgs

    def hwg_send(self, hwg: HwgId, message: LwgMessage) -> None:
        # Control-messages-flush-first: data buffered before this control
        # message must not be reordered after it in the HWG total order.
        self.packer.flush(hwg)
        endpoint = self.ensure_hwg(hwg)
        endpoint.send(message, message.size_bytes())

    def trace(self, event: str, **fields: Any) -> None:
        self.env.tracer.emit("lwg", event, node=self.node, **fields)

    # ==================================================================
    # HWG upcalls
    # ==================================================================
    def _on_hwg_data(self, hwg: HwgId, src: str, payload: Any, size: int) -> None:
        if src == self.node:
            self.packer.release(hwg)
        if isinstance(payload, LwgData):
            self._on_lwg_data(hwg, payload)
        elif isinstance(payload, LwgBatch):
            self._on_lwg_batch(hwg, payload)
        elif isinstance(payload, LwgViewMsg):
            self._on_lwg_view_msg(hwg, payload)
        elif isinstance(payload, LwgJoinReq):
            self._on_lwg_join_req(hwg, payload)
        elif isinstance(payload, LwgLeaveReq):
            self._on_lwg_leave_req(hwg, payload)
        elif isinstance(payload, LwgStateMsg):
            self._on_lwg_state(hwg, payload)
        elif isinstance(payload, LwgDissolved):
            self.table.dir_for(hwg).remove_lwg(payload.lwg)
        elif isinstance(payload, MergeViewsMsg):
            self.merge_mgr.on_merge_views(hwg, payload)
        elif isinstance(payload, AllViewsMsg):
            self.merge_mgr.on_all_views(hwg, payload)
        elif isinstance(payload, SwitchStart):
            self._on_switch_start(hwg, payload)
        elif isinstance(payload, SwitchReady):
            self._on_switch_ready(hwg, payload)
        elif isinstance(payload, SwitchCommit):
            self._on_switch_commit(hwg, payload)
        elif isinstance(payload, SwitchAbort):
            self._on_switch_abort(hwg, payload)

    # -- data path -------------------------------------------------------
    def _on_lwg_batch(self, hwg: HwgId, batch: LwgBatch) -> None:
        """Demultiplex a packed multicast: one LwgData at a time, in order.

        Each entry runs the full per-message delivery machinery (view
        filtering, state-transfer buffering, stale restamp, merge
        triggering) exactly as if it had arrived unbatched.
        """
        self.stats.batches_unpacked += 1
        self.stats.batch_entries_unpacked += len(batch.entries)
        if self.env.tracer.enabled("lwg"):
            self.trace(
                "batch_unpacked",
                hwg=hwg,
                sender=batch.sender,
                batch_seq=batch.batch_seq,
                entries=len(batch.entries),
                lwgs=batch.lwg_counts(),
            )
        for entry in batch.entries:
            self._on_lwg_data(hwg, entry)

    def _on_lwg_data(self, hwg: HwgId, message: LwgData) -> None:
        local = self.table.locals.get(message.lwg)
        if local is None or not local.is_member or local.hwg != hwg:
            self.stats.data_filtered += 1
            return
        view = local.view
        assert view is not None
        view_id = view.view_id
        # ``is`` first: the message carries the installed view's id object
        # almost always, and then no ``ViewId.__eq__`` call is needed.
        if message.view_id is view_id or message.view_id == view_id:
            awaiting = local.awaiting_state_for
            if awaiting is not None and awaiting == view_id:
                # Fresh joiner: hold data until the state snapshot lands.
                local.state_buffer.append(
                    (message.sender, message.payload, message.payload_size)
                )
                return
            self.stats.data_delivered += 1
            local.delivered += 1
            if message.sender == view.members[0]:
                local.last_coordinator_heard = self.env.now
            if self.env.tracer.enabled("lwg"):
                self.trace(
                    "lwg_data_delivered",
                    lwg=message.lwg,
                    view=str(view_id),
                    sender=message.sender,
                )
            local.listener.on_data(
                message.lwg, message.sender, message.payload, message.payload_size
            )
        elif local.ancestors.is_stale(message.view_id):
            self.stats.data_stale += 1
            if message.sender == self.node and local.is_member:
                # Our own send raced a view change: it was ordered after
                # the cut but stamped with the superseded view, so every
                # member (including us) discards it identically.  Re-send
                # it under the current view — delivered exactly once.
                self.trace("data_restamped", lwg=message.lwg)
                self._transmit_data(local, message.payload, message.payload_size)
        else:
            # A concurrent view of our LWG shares this HWG: Figure 5, 106.
            self.merge_mgr.trigger(hwg, message.lwg)

    # -- view messages ----------------------------------------------------
    def _on_lwg_view_msg(self, hwg: HwgId, message: LwgViewMsg) -> None:
        view = message.view
        assert view is not None
        directory = self.table.dir_for(hwg)
        # Keep an active merge round's collected set complete: ordered
        # view messages are common knowledge at the coming flush point.
        self.merge_mgr.observe_view(hwg, view)
        # And lift any departure block: a view message delivered after a
        # SWITCH-COMMIT proves the view returned to this HWG.
        self.merge_mgr.observe_view_msg(hwg, view.view_id)
        local = self.table.local(view.group)
        if local is not None and local.view is not None and local.state in (
            LwgState.MEMBER,
            LwgState.LEAVING,
        ):
            current = local.view
            if view.view_id == current.view_id:
                if local.hwg == hwg:
                    # Our coordinator's (re-)announce on the HWG we map
                    # the view on: the view is alive.  An announce on a
                    # *different* HWG deliberately does not count — it
                    # means our mapping diverged from the coordinator's
                    # (e.g. a switch committed asymmetrically across a
                    # partition heal), which is exactly what the
                    # coordinator-silence backstop must detect.
                    local.last_coordinator_heard = self.env.now
                directory.record_view(view)
                return
            if local.ancestors.is_stale(view.view_id):
                return
            if current.view_id in view.parents:
                # Direct successor of our view.
                directory.record_view(view)
                local.minted_head = None
                if self.node in view.members:
                    self.install_local_view(local, view, reason="progress")
                elif local.state is LwgState.LEAVING:
                    self._finish_lwg_leave(local)
                else:
                    self._forced_out(local, hwg)
                return
            # Neither our view, nor stale, nor a successor: concurrent.
            directory.record_view(view)
            if local.hwg == hwg and local.is_member:
                self.merge_mgr.trigger(hwg, view.group)
            return
        if (
            local is not None
            and local.state is LwgState.JOINING
            and self.node in view.members
            and local.hwg == hwg
        ):
            directory.record_view(view)
            self._complete_join(local, view)
            return
        # Pure observer (an HWG member with no stake in this LWG).
        directory.record_view(view)
        if self.node in view.members and (
            local is None or local.state is LwgState.IDLE
        ):
            # A merge of concurrent branches resurrected us into a group
            # we already left (a leave raced a partition or a merge).
            # Ask the coordinator to take us out again.
            self.trace("ghost_eviction", lwg=view.group, view=str(view.view_id))
            self.hwg_send(
                hwg,
                LwgLeaveReq(lwg=view.group, leaver=self.node, view_id=view.view_id),
            )

    def _forced_out(self, local: LocalLwg, hwg: HwgId) -> None:
        """The coordinator dropped us (it believed us dead): rejoin."""
        self.stats.rejoin_recoveries += 1
        self.trace("lwg_forced_out", lwg=local.lwg, hwg=hwg)
        # A switch in flight for this LWG cannot survive our reset: abort
        # it while the view is still readable (the SwitchAbort unblocks
        # the other members), and clear our own switch markers so the
        # rejoined record starts clean.
        driver = self._switch_drivers.pop(local.lwg, None)
        if driver is not None and not driver.finished:
            driver.abort("coordinator reset")
        self._clear_switch_state(local)
        local.state = LwgState.JOINING
        local.view = None
        driver = JoinDriver(self, local)
        self._join_drivers[local.lwg] = driver
        driver.start()

    # -- join/leave requests (we may be the coordinator) -------------------
    def _acting_coordinator_of(self, local: Optional[LocalLwg], hwg: HwgId) -> bool:
        """True if we currently coordinate ``local``'s view on ``hwg``.

        A LEAVING coordinator still serves — it must process its own
        leave request (and any interleaved joins) until the view that
        excludes it installs, or the group wedges.
        """
        return (
            local is not None
            and local.state in (LwgState.MEMBER, LwgState.LEAVING)
            and local.view is not None
            and local.hwg == hwg
            and local.coordinator() == self.node
            and local.switch_epoch is None
        )

    def _on_lwg_join_req(self, hwg: HwgId, message: LwgJoinReq) -> None:
        if self.merge_mgr.round_active(hwg):
            # No view minting during a merge round: the minted message
            # would land after the flush and diverge from the merge.
            self.merge_mgr.defer(hwg, "join", message)
            return
        local = self.table.local(message.lwg)
        directory = self.table.dir_for(hwg)
        if self._acting_coordinator_of(local, hwg):
            assert local is not None
            base = local.minted_head or local.view
            assert base is not None
            if message.joiner in base.members:
                return  # duplicate request
            new_view = View(
                group=message.lwg,
                view_id=self.mint_view_id(),
                members=base.members + (message.joiner,),
                parents=(base.view_id,),
            )
            local.minted_head = new_view
            self.hwg_send(hwg, LwgViewMsg(lwg=message.lwg, view=new_view))
            return
        forward = directory.forward.get(message.lwg)
        if forward is not None and message.joiner != self.node:
            redirect = RedirectLwg(lwg=message.lwg, to_hwg=forward)
            self.stack.send(message.joiner, redirect, redirect.size_bytes())

    def _on_lwg_leave_req(self, hwg: HwgId, message: LwgLeaveReq) -> None:
        if self.merge_mgr.round_active(hwg):
            self.merge_mgr.defer(hwg, "leave", message)
            return
        local = self.table.local(message.lwg)
        if not self._acting_coordinator_of(local, hwg):
            return
        assert local is not None
        base = local.minted_head or local.view
        assert base is not None
        if message.leaver not in base.members:
            return
        remaining = tuple(m for m in base.members if m != message.leaver)
        if not remaining:
            return  # sole-member leaves are handled locally as dissolution
        new_view = View(
            group=message.lwg,
            view_id=self.mint_view_id(),
            members=remaining,
            parents=(base.view_id,),
        )
        local.minted_head = new_view
        self.hwg_send(hwg, LwgViewMsg(lwg=message.lwg, view=new_view))

    def _send_leave_request(self, local: LocalLwg) -> None:
        if local.state is not LwgState.LEAVING or local.hwg is None:
            return
        assert local.view is not None
        self.hwg_send(
            local.hwg,
            LwgLeaveReq(lwg=local.lwg, leaver=self.node, view_id=local.view.view_id),
        )
        self.stack.set_timer(self.config.join_retry_us, lambda: self._send_leave_request(local))

    def _finish_lwg_leave(self, local: LocalLwg) -> None:
        self.table.locals.pop(local.lwg, None)
        local.state = LwgState.IDLE
        self.trace("lwg_left", lwg=local.lwg)
        local.listener.on_left(local.lwg)

    # ==================================================================
    # View installation and naming registration
    # ==================================================================
    def install_local_view(self, local: LocalLwg, view: View, reason: str) -> None:
        """Adopt ``view`` as our current view of ``local.lwg``."""
        if local.awaiting_state_for is not None and local.awaiting_state_for != view.view_id:
            # The admission view was superseded before its snapshot
            # arrived: release the held data in order before moving on.
            self._release_state_buffer(local)
        old = local.view
        local.ancestors.advance(old, view)
        local.view = view
        local.minted_head = None
        local.views_installed += 1
        local.last_coordinator_heard = self.env.now
        local.last_view_change_us = self.env.now
        self.stats.lwg_views_installed += 1
        if local.hwg is not None:
            self.table.dir_for(local.hwg).record_view(view)
        if local.state is not LwgState.LEAVING:
            local.state = LwgState.MEMBER
        self.trace(
            "lwg_view_installed",
            lwg=local.lwg,
            view=str(view.view_id),
            members=list(view.members),
            hwg=local.hwg,
            reason=reason,
        )
        local.listener.on_view(local.lwg, view)
        if (
            old is not None
            and view.parents == (old.view_id,)
            and view.members[0] == self.node
        ):
            joiners = tuple(m for m in view.members if m not in old.members)
            if joiners:
                # State transfer: this total-order position is exactly the
                # joiners' admission point.
                state = local.listener.get_state(local.lwg)
                snapshot = LwgStateMsg(
                    lwg=local.lwg,
                    view_id=view.view_id,
                    targets=joiners,
                    state=state,
                    state_size=256 if state is not None else 0,
                )
                assert local.hwg is not None
                self.hwg_send(local.hwg, snapshot)
        if old is not None and old.members[0] == self.node:
            # We owned the naming record of the superseded view: retire it
            # explicitly.  (Genealogy GC also covers this when the full
            # parent chain reaches the servers, but the direct tombstone
            # keeps the database tight even when intermediate merge views
            # were never registered by their coordinators.)
            self._tombstone_view(local, old)
        if local.coordinator() == self.node:
            self.register_mapping(local)
        if local.switch_epoch is None and local.pending_sends:
            queued, local.pending_sends = local.pending_sends, []
            for payload, size in queued:
                self._transmit_data(local, payload, size)
        driver = self._switch_drivers.get(local.lwg)
        if driver is not None:
            driver.on_lwg_view_changed()

    def _complete_join(self, local: LocalLwg, view: View) -> None:
        if view.parents and len(view.members) > 1:
            # Admitted into an existing group: the coordinator's state
            # snapshot follows in the same total order.  Buffer data for
            # this view until it arrives (with a timeout guard in case
            # the coordinator dies at exactly this moment).
            local.awaiting_state_for = view.view_id
            expected = view.view_id

            def give_up() -> None:
                if local.awaiting_state_for == expected:
                    self.trace("state_transfer_timeout", lwg=local.lwg)
                    self._release_state_buffer(local)

            self.stack.set_timer(self.config.join_retry_us, give_up)
        self.install_local_view(local, view, reason="join")
        driver = self._join_drivers.pop(local.lwg, None)
        if driver is not None:
            driver.complete()

    def _on_lwg_state(self, hwg: HwgId, message: LwgStateMsg) -> None:
        local = self.table.local(message.lwg)
        if (
            local is None
            or not local.is_member
            or local.hwg != hwg
            or local.awaiting_state_for != message.view_id
            or self.node not in message.targets
        ):
            return
        if message.state is not None:
            local.listener.on_state(message.lwg, message.state)
        self._release_state_buffer(local)

    def _release_state_buffer(self, local: LocalLwg) -> None:
        local.awaiting_state_for = None
        buffered, local.state_buffer = local.state_buffer, []
        for sender, payload, size in buffered:
            self.stats.data_delivered += 1
            local.delivered += 1
            self.trace(
                "lwg_data_delivered",
                lwg=local.lwg,
                view=str(local.view.view_id) if local.view else None,
                sender=sender,
            )
            local.listener.on_data(local.lwg, sender, payload, size)

    def adopt_created_view(self, local: LocalLwg, view: View, hwg: HwgId) -> None:
        """JoinDriver won the creation race: we are the founding member."""
        local.hwg = hwg
        self._complete_join(local, view)
        # Tell the HWG about the newborn LWG (directory + discovery).
        self.hwg_send(hwg, LwgViewMsg(lwg=local.lwg, view=view, announce=True))

    def register_mapping(self, local: LocalLwg) -> None:
        """Coordinator duty: (re-)register our view-to-view mapping."""
        if local.view is None or local.hwg is None:
            return
        endpoint = self.hwg_endpoint(local.hwg)
        if endpoint is None or endpoint.current_view is None:
            return
        record = MappingRecord(
            lwg=local.lwg,
            lwg_view=local.view.view_id,
            lwg_members=local.view.members,
            hwg=local.hwg,
            hwg_view=endpoint.current_view.view_id,
            version=self.naming.next_version(),
            writer=self.node,
        )
        self.naming.set(record, parents=local.view.parents)

    def _tombstone_view(self, local: LocalLwg, old_view: View) -> None:
        """Delete the naming record of a view we coordinated, now superseded."""
        tombstone = MappingRecord(
            lwg=local.lwg,
            lwg_view=old_view.view_id,
            lwg_members=old_view.members,
            hwg=local.hwg or "",
            hwg_view=ViewId("", 0),
            version=self.naming.next_version(),
            writer=self.node,
            deleted=True,
        )
        self.naming.unset(tombstone)

    def _unregister_mapping(self, local: LocalLwg) -> None:
        if local.view is None or local.hwg is None:
            return
        endpoint = self.hwg_endpoint(local.hwg)
        hwg_view = (
            endpoint.current_view.view_id
            if endpoint is not None and endpoint.current_view is not None
            else ViewId("", 0)
        )
        tombstone = MappingRecord(
            lwg=local.lwg,
            lwg_view=local.view.view_id,
            lwg_members=local.view.members,
            hwg=local.hwg,
            hwg_view=hwg_view,
            version=self.naming.next_version(),
            writer=self.node,
            deleted=True,
        )
        self.naming.unset(tombstone)

    # ==================================================================
    # Switch protocol
    # ==================================================================
    def start_switch(self, local: LocalLwg, to_hwg: Optional[HwgId], reason: str) -> None:
        """Begin switching ``local`` to ``to_hwg`` (None mints a fresh HWG)."""
        if (
            not local.is_member
            or local.switch_epoch is not None
            or local.lwg in self._switch_drivers
            or local.coordinator() != self.node
        ):
            return
        driver = SwitchDriver(self, local, to_hwg, reason)
        self._switch_drivers[local.lwg] = driver
        self.stats.switches_started += 1
        self.ensure_hwg(driver.to_hwg)
        driver.start()

    def _on_switch_start(self, hwg: HwgId, message: SwitchStart) -> None:
        # Ordered at every HWG member: mark the view switch-in-flight so
        # a concurrent merge round excludes it (see MergeManager).
        self.merge_mgr.observe_switch_start(hwg, message.view_id)
        local = self.table.local(message.lwg)
        if (
            local is None
            or not local.is_member
            or local.hwg != hwg
            or local.view is None
            or local.view.view_id != message.view_id
        ):
            return
        local.switch_epoch = message.epoch
        local.switch_target = message.to_hwg
        self.ensure_hwg(message.to_hwg)
        epoch = message.epoch

        def stale_guard() -> None:
            # A dead switch coordinator must not wedge us forever.
            if local.switch_epoch == epoch:
                self.trace("switch_stale_guard", lwg=local.lwg, epoch=epoch)
                self._resume_after_failed_switch(local)

        self.stack.set_timer(2 * self.config.switch_timeout_us, stale_guard)
        self._check_switch_ready(local)

    def _check_switch_ready(self, local: LocalLwg) -> None:
        if local.switch_epoch is None or local.switch_target is None:
            return
        if getattr(local, "switch_ready_epoch", None) == local.switch_epoch:
            return
        endpoint = self.hwg_endpoint(local.switch_target)
        if (
            endpoint is None
            or endpoint.state is not EndpointState.MEMBER
            or endpoint.current_view is None
            or self.node not in endpoint.current_view.members
        ):
            return
        assert local.view is not None and local.hwg is not None
        local.switch_ready_epoch = local.switch_epoch
        self.hwg_send(
            local.hwg,
            SwitchReady(
                lwg=local.lwg,
                view_id=local.view.view_id,
                to_hwg=local.switch_target,
                member=self.node,
                epoch=local.switch_epoch,
            ),
        )

    def _on_switch_ready(self, hwg: HwgId, message: SwitchReady) -> None:
        driver = self._switch_drivers.get(message.lwg)
        if driver is not None:
            driver.on_ready(message)

    def _on_switch_commit(self, hwg: HwgId, message: SwitchCommit) -> None:
        # Ordered cut: the view left this HWG — no merge round here may
        # ever include it again (see MergeManager serialisation note).
        self.merge_mgr.observe_switch_commit(hwg, message.view_id)
        local = self.table.local(message.lwg)
        directory = self.table.dir_for(hwg)
        # A commit whose epoch we no longer track can still bind us: if
        # our stale guard gave up on a slow (not dead) switch
        # coordinator and resumed on the old HWG, the commit for our
        # *current* view arriving afterwards is the real cut — it is
        # totally ordered on this HWG, and the other members moved at
        # it.  Ignoring it would strand us on an HWG where nobody
        # listens to this LWG anymore (and the naming record of our
        # branch is garbage-collected once the movers merge, so no
        # MULTIPLE-MAPPINGS conflict would ever pull us back).
        late_commit = (
            local is not None
            and local.switch_epoch is None
            and local.view is not None
            and local.view.view_id == message.view_id
        )
        if (
            local is not None
            and local.state in (LwgState.MEMBER, LwgState.LEAVING)
            and local.hwg == hwg
            and (local.switch_epoch == message.epoch or late_commit)
        ):
            if late_commit:
                self.trace(
                    "switch_commit_late",
                    lwg=message.lwg,
                    to_hwg=message.to_hwg,
                    epoch=message.epoch,
                )
            local.hwg = message.to_hwg
            self._clear_switch_state(local)
            directory.remove_lwg(message.lwg, forward_to=message.to_hwg)
            if local.view is not None:
                self.table.dir_for(message.to_hwg).record_view(local.view)
            self.trace(
                "switch_committed",
                lwg=message.lwg,
                from_hwg=hwg,
                to_hwg=message.to_hwg,
            )
            if local.pending_sends:
                queued, local.pending_sends = local.pending_sends, []
                for payload, size in queued:
                    self._transmit_data(local, payload, size)
            if local.coordinator() == self.node:
                self.stats.switches_committed += 1
                self.register_mapping(local)
                assert local.view is not None
                self.hwg_send(
                    message.to_hwg,
                    LwgViewMsg(lwg=message.lwg, view=local.view, announce=True),
                )
                self._switch_drivers.pop(message.lwg, None)
        else:
            # Pure observer on the old HWG: install the forward pointer.
            directory.remove_lwg(message.lwg, forward_to=message.to_hwg)

    def _on_switch_abort(self, hwg: HwgId, message: SwitchAbort) -> None:
        self.merge_mgr.observe_switch_abort(hwg, message.view_id)
        local = self.table.local(message.lwg)
        if local is not None and local.switch_epoch == message.epoch:
            self._resume_after_failed_switch(local)
        if self._switch_drivers.get(message.lwg) is not None:
            if self._switch_drivers[message.lwg].epoch == message.epoch:
                self.stats.switches_aborted += 1
                self._switch_drivers.pop(message.lwg, None)

    def _clear_switch_state(self, local: LocalLwg) -> None:
        local.switch_epoch = None
        local.switch_target = None
        local.switch_ready_epoch = None

    def _resume_after_failed_switch(self, local: LocalLwg) -> None:
        """Abort path: resume LWG traffic on the old HWG, releasing any
        sends buffered while the switch was in flight."""
        self._clear_switch_state(local)
        if local.is_member and local.pending_sends:
            queued, local.pending_sends = local.pending_sends, []
            for payload, size in queued:
                self._transmit_data(local, payload, size)

    # ==================================================================
    # HWG view changes
    # ==================================================================
    def _on_hwg_view(self, hwg: HwgId, view: View) -> None:
        old_view = self._hwg_last_views.get(hwg)
        self._hwg_last_views[hwg] = view
        alive = set(view.members)
        directory = self.table.dir_for(hwg)
        # 1. The Figure-5 flush point: merge collected concurrent views.
        self.merge_mgr.on_hwg_view(hwg, view)
        # 2. Restrict local LWG views that lost members with this change.
        for local in self.table.local_lwgs_on(hwg):
            if local.view is None:
                continue
            survivors = [m for m in local.view.members if m in alive]
            if len(survivors) < len(local.view.members) and survivors:
                if survivors[0] == self.node:
                    restricted = restrict_view(local.view, survivors, self.mint_view_id())
                    self.hwg_send(hwg, LwgViewMsg(lwg=local.lwg, view=restricted))
        # 3. Directory entries whose members all vanished are dead views.
        directory.prune_members(alive)
        # 4. Coordinator duty: refresh view-to-view mappings (the HWG view
        #    identifier under our LWG views just changed — Table 4 step 2).
        for local in self.table.local_lwgs_on(hwg):
            if local.is_member and local.coordinator() == self.node and local.switch_epoch is None:
                self.register_mapping(local)
        # 5. State transfer + concurrent-view discovery towards newcomers.
        added = alive - set(old_view.members) if old_view is not None else set()
        if added:
            for local in self.table.local_lwgs_on(hwg):
                if local.is_member and local.coordinator() == self.node:
                    assert local.view is not None
                    self.hwg_send(
                        hwg, LwgViewMsg(lwg=local.lwg, view=local.view, announce=True)
                    )
        # 6. Joiners waiting for this HWG.
        if self.node in alive:
            for driver in list(self._join_drivers.values()):
                if driver.target_hwg == hwg:
                    driver.on_hwg_ready(hwg)
        # 7. Switch members waiting to reach their target HWG.
        for local in list(self.table.locals.values()):
            if local.switch_target == hwg:
                self._check_switch_ready(local)
        # 8. Shrink-rule bookkeeping.
        if self.table.local_lwgs_on(hwg):
            directory.last_useful_at = self.env.now
        # 9. Replay join/leave requests deferred during the merge round.
        for kind, message in self.merge_mgr.take_deferred(hwg):
            if kind == "join":
                self._on_lwg_join_req(hwg, message)
            else:
                self._on_lwg_leave_req(hwg, message)

    def _on_hwg_left(self, hwg: HwgId) -> None:
        self.table.directory.pop(hwg, None)
        self._hwg_last_views.pop(hwg, None)
        self.stack.drop_endpoint(hwg)
        self.trace("hwg_left", hwg=hwg)
        if hwg in self._rejoin_after_leave:
            # Someone asked for this HWG while we were leaving it.
            self._rejoin_after_leave.discard(hwg)
            self.ensure_hwg(hwg)

    # ==================================================================
    # Policies (Figure 1)
    # ==================================================================
    def build_policy_snapshot(self) -> PolicySnapshot:
        coordinated = {}
        for local in self.table.coordinated_lwgs(self.node):
            if local.switch_epoch is None and local.hwg is not None:
                assert local.view is not None
                coordinated[local.lwg] = (frozenset(local.view.members), local.hwg)
        hwg_members = {}
        local_per_hwg = {}
        idle_since = {}
        hwg_pinned = {}
        want_pinned = self.config.placement_policy == "optimizer"
        for hwg, endpoint in self.stack.endpoints.items():
            if not hwg.startswith("hwg:"):
                continue
            if endpoint.state is not EndpointState.MEMBER or endpoint.current_view is None:
                continue
            hwg_members[hwg] = frozenset(endpoint.current_view.members)
            used_by = self.table.local_lwgs_on(hwg)
            local_per_hwg[hwg] = len(used_by)
            directory = self.table.dir_for(hwg)
            if used_by:
                directory.last_useful_at = self.env.now
            idle_since[hwg] = directory.last_useful_at
            if want_pinned:
                # Every LWG view the directory pins on this HWG; the
                # optimizer filters out the ones it may move itself.
                hwg_pinned[hwg] = tuple(
                    (lwg, frozenset(v.members))
                    for lwg, v in sorted(directory.views.items())
                )
        busy = {l.lwg for l in self.table.locals.values() if l.switch_epoch is not None}
        busy |= set(self._switch_drivers)
        if want_pinned:
            # Stability hysteresis: the optimizer must not move a group
            # whose view is still settling (joins in flight) — churning
            # two HWGs' member sets at once races the joiners' own HWG
            # joins.  The paper rules never see this set.
            settle = self.config.placement_settle_us
            busy |= {
                lwg
                for lwg, local in self.table.locals.items()
                if local.is_member
                and self.env.now - local.last_view_change_us < settle
            }
        busy = frozenset(busy)
        return PolicySnapshot(
            node=self.node,
            now_us=self.env.now,
            coordinated_lwgs=coordinated,
            hwg_members=hwg_members,
            local_lwgs_per_hwg=local_per_hwg,
            hwg_idle_since=idle_since,
            busy_lwgs=busy,
            hwg_pinned=hwg_pinned,
            zone=self.zone,
        )

    def run_policies_once(self) -> List[object]:
        """Evaluate the Figure-1 rules and execute the resulting actions."""
        snapshot = self.build_policy_snapshot()
        actions = self.policy_engine.evaluate(snapshot, mint=self.mint_hwg_id)
        for action in actions:
            if isinstance(action, SwitchAction):
                local = self.table.local(action.lwg)
                if local is not None:
                    self.trace(
                        "policy_switch",
                        lwg=action.lwg,
                        to_hwg=action.to_hwg,
                        reason=action.reason,
                    )
                    self.start_switch(local, action.to_hwg, reason=action.reason)
            elif isinstance(action, LeaveHwgAction):
                self._leave_hwg_if_unused(action.hwg)
        return actions

    def _tick_announcements(self) -> None:
        """Periodic LWG view beacons (local peer discovery liveness).

        Each coordinator re-announces its current view on its HWG.  A
        member of a concurrent co-mapped view that hears it triggers the
        Figure-5 merge — even when the groups carry no data traffic.
        """
        for local in self.table.coordinated_lwgs(self.node):
            if local.switch_epoch is not None or local.hwg is None:
                continue
            if self.merge_mgr.round_active(local.hwg):
                continue
            assert local.view is not None
            self.hwg_send(
                local.hwg,
                LwgViewMsg(lwg=local.lwg, view=local.view, announce=True),
            )
        # Coordinator-silence backstop: a member whose coordinator has
        # gone quiet for several announce periods is holding an
        # abandoned view (the coordinator adopted a different lineage
        # via a racing switch or an asymmetric partition-heal merge, so
        # it will never announce — or tombstone — this one).  The HWG
        # layer cannot flag it: the coordinator is alive and still an
        # HWG member.  Rejoin through the naming service.
        now = self.env.now
        for local in list(self.table.locals.values()):
            if (
                not local.is_member
                or local.switch_epoch is not None
                or local.hwg is None
                or local.coordinator() == self.node
            ):
                continue
            if now - local.last_coordinator_heard >= self.config.coordinator_silence_us:
                self.trace(
                    "coordinator_silence",
                    lwg=local.lwg,
                    hwg=local.hwg,
                    view=str(local.view.view_id) if local.view else None,
                )
                self._forced_out(local, local.hwg)

    def _tick_mapping_audit(self) -> None:
        """Self-healing backstop: verify our registered mappings exist.

        A record written to one name-server replica inside a partition
        can be destroyed — crash plus corrupted store — before
        anti-entropy replicates it.  A missing record raises no
        MULTIPLE-MAPPINGS conflict, so no callback covers the loss; the
        coordinator, as the record's authoritative writer, periodically
        re-reads the naming service and re-registers.  The fresh write
        also supersedes a joiner's same-version burial tombstone (its
        version is strictly higher), un-burying mappings that were
        declared dead while we were merely unreachable.
        """
        for local in self.table.coordinated_lwgs(self.node):
            if (
                local.switch_epoch is not None
                or local.hwg is None
                or local.view is None
            ):
                continue
            expect = local.view.view_id

            def check(records, lwg=local.lwg, expect=expect):
                current = self.table.local(lwg)
                if (
                    current is None
                    or not current.is_member
                    or current.view is None
                    or current.view.view_id != expect
                    or current.switch_epoch is not None
                    or current.coordinator() != self.node
                ):
                    return  # state moved on while the read was in flight
                # The record must cite our view AND our actual HWG: a
                # surviving older record for the same view with a stale
                # hwg field (the newer write was destroyed) hides the
                # branch just as thoroughly as a missing record.
                if any(
                    not r.deleted
                    and r.lwg_view == expect
                    and r.hwg == current.hwg
                    for r in records
                ):
                    return
                self.trace("mapping_reasserted", lwg=lwg, view=str(expect))
                self.register_mapping(current)

            self.naming.read(local.lwg, check)

    def _leave_hwg_if_unused(self, hwg: HwgId) -> None:
        if hwg in self.table.hwgs_in_use():
            return
        endpoint = self.hwg_endpoint(hwg)
        if endpoint is None or endpoint.state is not EndpointState.MEMBER:
            return
        self.trace("shrink_leave", hwg=hwg)
        endpoint.leave()

    # ==================================================================
    # Naming-service callback and unicast handling
    # ==================================================================
    def _on_multiple_mappings(self, message: MultipleMappings) -> None:
        if self.config.enable_reconciliation:
            self.reconciler.on_multiple_mappings(message)

    def _handle_unicast(self, src: str, msg: Any) -> bool:
        if isinstance(msg, RedirectLwg):
            driver = self._join_drivers.get(msg.lwg)
            if driver is not None:
                driver.on_redirect(msg.to_hwg)
            return True
        return False
