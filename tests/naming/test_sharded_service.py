"""End-to-end tests of the sharded naming service (PROTOCOLS.md §18)."""

from tests.helpers import run_until

from repro.naming import MappingRecord, NameServer, NamingClient, ShardMap
from repro.naming.messages import NsRequest, NsResponse
from repro.naming.sharding import shard_of_lwg
from repro.sim import SECOND
from repro.vsync import GroupAddressing, ProtocolStack
from repro.vsync.view import ViewId


def setup(env, num_servers=4, replication_factor=2, clients=("p0",)):
    server_ids = [f"ns{i}" for i in range(num_servers)]
    shard_map = ShardMap(server_ids, replication_factor)
    servers = {i: NameServer(env, i, shard_map) for i in server_ids}
    addressing = GroupAddressing()
    stacks = {c: ProtocolStack(env, c, addressing) for c in clients}
    naming_clients = {c: NamingClient(stacks[c], shard_map) for c in clients}
    return shard_map, servers, naming_clients


def rec(client, lwg, view, hwg, members=("p0",)):
    return MappingRecord(
        lwg=lwg, lwg_view=view, lwg_members=members, hwg=hwg,
        hwg_view=ViewId("h", 1), version=client.next_version(), writer=client.node,
    )


def holders(servers, lwg):
    return sorted(
        node for node, s in servers.items() if s.db.live_records(lwg)
    )


def test_write_lands_only_on_owners(env):
    shard_map, servers, clients = setup(env)
    client = clients["p0"]
    client.set(rec(client, "lwg:a", ViewId("p0", 1), "hwg:1"))
    env.sim.run_until(3 * SECOND)
    owners = sorted(shard_map.owners_for_lwg("lwg:a"))
    assert holders(servers, "lwg:a") == owners
    # Single-owner fast path: exactly one request, zero retries.
    assert client.requests_sent == 1
    assert client.retries == 0


def test_read_routes_to_replica_set(env):
    shard_map, servers, clients = setup(env)
    client = clients["p0"]
    client.set(rec(client, "lwg:a", ViewId("p0", 1), "hwg:1"))
    env.sim.run_until(2 * SECOND)
    replies = []
    client.read("lwg:a", lambda records: replies.append(records))
    env.sim.run_until(3 * SECOND)
    assert replies and replies[0][0].hwg == "hwg:1"
    # Only the owners ever served a request.
    for node, server in servers.items():
        if node not in shard_map.owners_for_lwg("lwg:a"):
            assert server.requests_served == 0


def test_client_fails_over_when_replica_dies_mid_request(env):
    shard_map, servers, clients = setup(env)
    client = clients["p0"]
    owners = shard_map.owners_for_lwg("lwg:a")
    first = owners[client._server_offset % len(owners)]
    replies = []
    client.set(
        rec(client, "lwg:a", ViewId("p0", 1), "hwg:1"),
        on_reply=lambda records: replies.append(records),
    )
    # The request is in flight; its target dies before answering.
    env.failures.crash_now(first)
    assert run_until(env, lambda: bool(replies), timeout_s=5)
    assert client.retries >= 1
    # The surviving co-replica served and stored the write.
    survivor = [o for o in owners if o != first][0]
    assert servers[survivor].db.live_records("lwg:a")


def test_requests_at_non_owners_are_forwarded_to_owners(env):
    # A request that lands on a non-owner (the client's roster fallback)
    # is relayed to the replica set, and the owner answers the client
    # directly.
    shard_map, servers, clients = setup(env)
    client = clients["p0"]
    lwg = "lwg:a"
    owners = shard_map.owners_for_lwg(lwg)
    non_owner = next(node for node in servers if node not in owners)
    answered_by = []

    def spy(src, msg):
        if isinstance(msg, NsResponse):
            answered_by.append(msg.server)
        return False

    client.stack.extra_handlers.insert(0, spy)
    request = NsRequest(
        request_id=1, client="p0", op="set", lwg=lwg,
        record=rec(client, lwg, ViewId("p0", 1), "hwg:1"),
    )
    client.stack.send(non_owner, request, request.size_bytes())
    assert run_until(env, lambda: bool(answered_by), timeout_s=5)
    assert answered_by[0] in owners
    assert servers[non_owner].requests_forwarded == 1
    assert servers[non_owner].requests_served == 0
    env.sim.run_until(env.sim.now + 2 * SECOND)
    assert holders(servers, lwg) == sorted(owners)


def test_scoped_gossip_converges_owners_after_partition(env):
    shard_map, servers, clients = setup(env, clients=("p0",))
    client = clients["p0"]
    lwg = "lwg:a"
    owners = shard_map.owners_for_lwg(lwg)
    assert len(owners) == 2
    client.set(rec(client, lwg, ViewId("p0", 1), "hwg:1"))
    env.sim.run_until(2 * SECOND)
    # Isolate one owner, overwrite the mapping on the other side.
    isolated = owners[-1]
    rest = [n for n in servers if n != isolated] + ["p0"]
    env.network.set_partitions([rest, [isolated]])
    client.set(rec(client, lwg, ViewId("p0", 2), "hwg:2"), parents=(ViewId("p0", 1),))
    env.sim.run_until(4 * SECOND)
    env.network.heal()

    shard = shard_of_lwg(lwg)

    def owners_identical():
        hashes = {servers[o].db.merkle.node_hash(shard) for o in owners}
        return len(hashes) == 1

    assert run_until(env, owners_identical, timeout_s=10)
    for owner in owners:
        live = servers[owner].db.live_records(lwg)
        assert [(str(r.lwg_view), r.hwg) for r in live] == [("p0#2", "hwg:2")]
    # Non-owners never absorbed the shard.
    for node, server in servers.items():
        if node not in owners:
            assert not server.db.live_records(lwg)


def test_scoped_sync_short_circuits_on_scope_hash(env):
    shard_map, servers, clients = setup(env)
    client = clients["p0"]
    client.set(rec(client, "lwg:a", ViewId("p0", 1), "hwg:1"))
    env.sim.run_until(3 * SECOND)
    before = {i: s.syncs_short_circuited for i, s in servers.items()}
    env.sim.run_until(env.sim.now + 5 * SECOND)
    shorted = sum(s.syncs_short_circuited - before[i] for i, s in servers.items())
    # Quiet cluster: every scoped exchange ends at the hash handshake.
    assert shorted >= 4
