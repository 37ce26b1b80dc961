"""The two simulated workloads: ``sim_geo_chat`` and ``sim_session_fanout``.

Both worlds come from the program's own builders
(``repro.serve.builder.build_sim_world`` and
``repro.bench.scale.build_scale_world``); this module only chooses their
parameters, generates the posts from the seed and measures.  Counts,
bytes and simulated times repeat exactly for a seed; commit latency,
set-up time and CPU are host measurements.
"""

from __future__ import annotations

import gc
import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.bench.scale import ScaleConfig, build_scale_world
from repro.core.txn import ObjectKey
from repro.serve.builder import build_sim_world
from repro.serve.topology import parse_topology

from .common import (Check, Post, VisibilityProbe, check_dcs, check_delivery,
                     check_reads, dcs_converged, fold, mat_totals, ratio_since,
                     poisson_posts, posts_by_key, read_body, start_reads,
                     transaction_body, visibility_ms)
from .rounds import RoundResult
from .tracing import Tracer, check_attribution, instrument, layer_metrics

#: Simulated time allowed for every pair to be observed after the last
#: post, for DCs to converge, and for the final reads.
DRAIN_MAX_MS = 30_000.0
POLL_MS = 50.0


@dataclass
class SimWorld:
    """A built, warmed world plus what the benchmark needs to drive it."""

    sim: Any
    clients: Dict[str, Any]
    dcs: List[Any]
    posts: List[Post]
    seq_key: Callable[[str], ObjectKey]
    #: observer node -> writers whose sequence counters it watches
    watch: List[Tuple[Any, List[str]]]
    #: every key the oracle folds, with its CRDT type
    keys: Dict[ObjectKey, str]
    #: client name -> the fold keys its final read transaction checks
    check_keys: Dict[str, List[Tuple[ObjectKey, str]]]
    #: (offset from the posting start, action) fault events
    events: List[Tuple[float, Callable[[], None]]] = field(
        default_factory=list)
    isolated: Optional[str] = None
    #: peer-group member name -> group id
    groups: Dict[str, str] = field(default_factory=dict)


def _settle(sim: Any, done: Callable[[], bool], limit_ms: float) -> bool:
    waited = 0.0
    while not done():
        if waited >= limit_ms:
            return False
        sim.run_for(POLL_MS)
        waited += POLL_MS
    return True


def _warm(sim: Any, clients: Dict[str, Any]) -> None:
    """Read every key each client is interested in, inside a transaction."""
    pending = {"n": 0}

    def done(_result: Any, _stats: Any) -> None:
        pending["n"] -= 1

    for node in clients.values():
        keys = list(node._interest_types.items())
        pending["n"] += 1
        node.run_transaction(read_body(keys), on_done=done)
    if not _settle(sim, lambda: pending["n"] == 0, DRAIN_MAX_MS):
        raise RuntimeError("warm-up reads did not complete")


# ---------------------------------------------------------------------------
# sim_geo_chat
# ---------------------------------------------------------------------------

GEO_DCS = 5
GEO_K = 3
GEO_GROUPS = (("ga", "dc0"), ("gb", "dc2"))
GEO_GROUP_SIZE = 4
#: Far edges and their DCs; dc3 is the one isolated mid-run.
GEO_EDGE_DCS = ("dc1", "dc3", "dc4", "dc1", "dc2", "dc3", "dc4", "dc0",
                "dc1", "dc4")
GEO_CHANNELS = 3
GEO_POSTS = 600
GEO_RATE = 30.0
GEO_ISOLATED = "dc3"
#: Isolation window as shares of the nominal posting window.
GEO_ISOLATE_FROM = 0.45
GEO_ISOLATE_TO = 0.55


def _geo_clients() -> List[Tuple[str, str, Optional[str]]]:
    """(name, dc, group) of every client, in a fixed order."""
    clients = []
    for group, dc in GEO_GROUPS:
        for i in range(GEO_GROUP_SIZE):
            clients.append((f"{group[1]}{i}", dc, group))
    for i, dc in enumerate(GEO_EDGE_DCS):
        clients.append((f"e{i}", dc, None))
    return clients


def _seq_key(writer: str) -> ObjectKey:
    return ObjectKey("seq", writer)


def build_geo(seed: int) -> SimWorld:
    clients = _geo_clients()
    channels = [ObjectKey("chat", f"ch{i}") for i in range(GEO_CHANNELS)]
    keys: Dict[ObjectKey, str] = {key: "orset" for key in channels}
    for name, _dc, _group in clients:
        keys[_seq_key(name)] = "counter"
    sites: List[Dict[str, Any]] = [
        {"name": f"dc{i}", "role": "dc", "listen": "127.0.0.1:0",
         "n_shards": 2, "k_target": GEO_K} for i in range(GEO_DCS)]
    for name, dc, group in clients:
        site = {"name": name, "listen": "127.0.0.1:0", "dc": dc}
        if group is None:
            site["role"] = "edge"
        else:
            site.update(role="member", group=group,
                        parent=f"{group[1]}0", commit_variant="async")
        sites.append(site)
    topo = parse_topology({
        "deployment": {"name": "sim-geo-chat", "seed": seed},
        "keys": [{"bucket": k.bucket, "key": k.key, "type": t}
                 for k, t in keys.items()],
        "sites": sites})
    world = build_sim_world(topo)
    nodes = {name: world.actors[name] for name, _, _ in clients}
    _warm(world.sim, nodes)

    rng = random.Random(f"perfbench/sim_geo_chat/{seed}")

    def content(rng: random.Random, writer: str, seq: int):
        channel = channels[rng.randrange(len(channels))]
        return ((channel, "orset", "add", (f"{writer}#{seq}",)),)

    writers = [name for name, _, _ in clients]
    posts = poisson_posts(rng, writers, GEO_POSTS, GEO_RATE, _seq_key,
                          content)
    nominal = GEO_POSTS / GEO_RATE * 1000.0
    network = world.sim.network
    events = [
        (nominal * GEO_ISOLATE_FROM,
         lambda: network.isolate(GEO_ISOLATED)),
        (nominal * GEO_ISOLATE_TO, lambda: network.restore(GEO_ISOLATED)),
    ]
    all_keys = list(keys.items())
    return SimWorld(
        sim=world.sim, clients=nodes, dcs=world.dcs, posts=posts,
        seq_key=_seq_key,
        watch=[(node, writers) for node in nodes.values()],
        keys=keys, check_keys={name: all_keys for name in nodes},
        events=events, isolated=GEO_ISOLATED,
        groups={name: group for name, _dc, group in clients
                if group is not None})


# ---------------------------------------------------------------------------
# sim_session_fanout
# ---------------------------------------------------------------------------

FANOUT_NODES = 3000
FANOUT_DCS = 4
FANOUT_WRITERS = 8        # one scale-world edge in each of 8 cells
FANOUT_POSTS = 120
FANOUT_RATE = 80.0


class FanoutConfig(ScaleConfig):
    """The scale world at a fixed DC count."""

    def resolved_dcs(self) -> int:
        return FANOUT_DCS


def _cell_key(cell: int) -> ObjectKey:
    return ObjectKey("scale", f"cell{cell}")


def build_fanout(seed: int) -> SimWorld:
    config = FanoutConfig(n_nodes=FANOUT_NODES, seed=seed)
    sim = build_scale_world(config)
    n_cells = -(-config.n_nodes // config.cell_size)
    rng = random.Random(f"perfbench/sim_session_fanout/{seed}")

    # One writer per chosen cell: the cell counter is that writer's own
    # sequence counter, and the cell's idle sessions are its observers.
    writer_cell: Dict[str, int] = {}
    for cell in rng.sample(range(n_cells), FANOUT_WRITERS):
        index = cell * config.cell_size + rng.randrange(config.cell_size)
        index = min(index, config.n_nodes - 1)
        writer_cell[f"n{index}"] = cell

    sim.run_for(config.settle_ms)
    clients = {name: actor for name, actor in sim.actors.items()
               if hasattr(actor, "run_transaction")}
    _warm(sim, clients)

    def seq_key(writer: str) -> ObjectKey:
        return _cell_key(writer_cell[writer])

    def own_key(writer: str) -> ObjectKey:
        return ObjectKey("scale", f"own{writer[1:]}")

    def content(rng: random.Random, writer: str, seq: int):
        return ((own_key(writer), "counter", "increment",
                 (rng.randint(1, 5),)),)

    writers = sorted(writer_cell, key=lambda w: int(w[1:]))
    posts = poisson_posts(rng, writers, FANOUT_POSTS, FANOUT_RATE,
                          seq_key, content)
    watch: List[Tuple[Any, List[str]]] = []
    for writer in writers:
        cell = writer_cell[writer]
        first = cell * config.cell_size
        for index in range(first, min(first + config.cell_size,
                                      config.n_nodes)):
            watch.append((sim.actors[f"n{index}"], [writer]))
    keys: Dict[ObjectKey, str] = {}
    for writer in writers:
        keys[seq_key(writer)] = "counter"
        keys[own_key(writer)] = "counter"
    check_keys: Dict[str, List[Tuple[ObjectKey, str]]] = {}
    for node, _ in watch:
        check_keys[node.node_id] = [
            (key, "counter") for key in node._interest_types
            if key in keys]
    return SimWorld(
        sim=sim, clients=clients, dcs=[sim.actors[f"dc{i}"]
                                       for i in range(FANOUT_DCS)],
        posts=posts, seq_key=seq_key, watch=watch,
        keys=keys, check_keys=check_keys)


BUILDERS = {"sim_geo_chat": build_geo, "sim_session_fanout": build_fanout}


# ---------------------------------------------------------------------------
# one round
# ---------------------------------------------------------------------------

def run_round(workload: str, seed: int,
              tracer: Optional[Tracer] = None) -> RoundResult:
    # The previous round's world is garbage by now; collecting it here
    # keeps it out of this round's set-up time.
    gc.collect()
    if tracer is None:
        return _run_round(workload, seed, None)
    with instrument(tracer):
        return _run_round(workload, seed, tracer)


def _run_round(workload: str, seed: int,
               tracer: Optional[Tracer]) -> RoundResult:
    t0 = time.perf_counter()
    world = BUILDERS[workload](seed)
    setup_s = time.perf_counter() - t0
    sim = world.sim
    posts = world.posts
    check = Check()
    result = RoundResult(setup_s=setup_s, attempted=len(posts),
                         check=check, simulated=True)

    bench_wrap = (lambda fn: tracer.wrap("bench.probe", fn)) \
        if tracer else None
    probe = VisibilityProbe(lambda: sim.now, world.seq_key, bench_wrap)
    for node, writers in world.watch:
        probe.watch(node, writers)

    aborted: List[int] = []

    # The simulator runs a post exactly when it is due, so its commit
    # latency is the host's CPU time to execute the commit.
    def fire(post: Post) -> None:
        started = time.thread_time()

        def done(_result: Any, _stats: Any) -> None:
            result.committed += 1
            result.commit_ms.append(
                (time.thread_time() - started) * 1000.0)

        def abort(_exc: Exception) -> None:
            aborted.append(post.index)

        world.clients[post.writer].run_transaction(
            transaction_body(post.updates), on_done=done, on_abort=abort)

    if tracer is not None:
        fire = tracer.wrap("bench.fire", fire)
    start = sim.now + 1.0
    for post in posts:
        sim.loop.schedule_at(start + post.due_ms,
                             lambda post=post: fire(post))
    for offset, action in world.events:
        sim.loop.schedule_at(start + offset, action)

    catchup = {"ms": 0.0}
    if world.isolated is not None:
        _arm_catchup(world, start, catchup)

    gc.collect()
    gc.freeze()
    try:
        net0 = sim.network.stats.snapshot()
        events0 = sim.loop.processed_events
        dup0 = sum(dc.stats["repl_dup_in"] for dc in world.dcs)
        mat0 = mat_totals(world.clients.values())
        if tracer is not None:
            tracer.reset()
        cpu0 = time.process_time()
        last_due = start + posts[-1].due_ms
        deadline = last_due + DRAIN_MAX_MS

        def advance(until: float) -> None:
            if tracer is None:
                sim.run(until=until)
            else:
                with tracer.span("sim.loop"):
                    sim.run(until=until)

        advance(last_due)
        while probe.pairs_missing(posts) and sim.now < deadline:
            advance(sim.now + POLL_MS)
        result.cpu_s = time.process_time() - cpu0
        phase = sim.network.stats.since(net0)
        txns = max(result.committed, 1)
        mat1 = mat_totals(world.clients.values())
        result.counters = {
            "sim.events_per_txn":
                (sim.loop.processed_events - events0) / txns,
            "sim.deliveries_per_txn": phase.messages_delivered / txns,
            "dc.repl_dup_in": float(
                sum(dc.stats["repl_dup_in"] for dc in world.dcs) - dup0),
            "dc.catchup_ms": catchup["ms"],
            "store.mat_hit_ratio": ratio_since(mat0, mat1),
            "transport.dropped_frames": 0.0,
        }
        if tracer is not None:
            result.layers = layer_metrics(tracer, result.committed)
            check_attribution(check, tracer, result.cpu_s)
        result.wire_bytes = phase.bytes_sent
    finally:
        gc.unfreeze()

    result.group_visible_ms, result.remote_visible_ms = visibility_ms(
        probe, posts, lambda post: start + post.due_ms, world.groups)
    _verify(world, probe, aborted, check)
    return result


def _arm_catchup(world: SimWorld, start: float,
                 catchup: Dict[str, float]) -> None:
    """Time from the restore until the isolated DC holds everything the
    other DCs held at the restore."""
    sim = world.sim
    restore_at = start + max(offset for offset, _ in world.events)
    isolated = next(dc for dc in world.dcs
                    if dc.node_id == world.isolated)

    def at_restore() -> None:
        target = None
        for dc in world.dcs:
            if dc is not isolated:
                target = dc.state_vector if target is None \
                    else target.merge(dc.state_vector)

        def poll() -> None:
            if target.leq(isolated.state_vector):
                catchup["ms"] = sim.now - restore_at
            else:
                sim.loop.schedule(5.0, poll)
        poll()

    sim.loop.schedule_at(restore_at, at_restore)


def _verify(world: SimWorld, probe: VisibilityProbe, aborted: List[int],
            check: Check) -> None:
    sim = world.sim
    posts = world.posts
    by_key = posts_by_key(posts)
    check_delivery(check, probe, posts, aborted)
    expected = fold(posts, world.keys)
    _settle(sim, lambda: dcs_converged(world.dcs, expected), DRAIN_MAX_MS)
    check_dcs(check, world.dcs, expected, by_key)
    reads = start_reads(world.clients, world.check_keys)
    wanted = sum(1 for keys in world.check_keys.values() if keys)
    _settle(sim, lambda: len(reads) == wanted, DRAIN_MAX_MS)
    check_reads(check, reads, world.check_keys, expected, by_key)
