"""``live_group_chat``: the serve topology over real TCP, in one process.

Every site gets its own ``AsyncioTransport`` with a listener on an
ephemeral localhost port and its own TCP links, exactly as
``python -m repro.serve`` runs it, but all transports share one asyncio
event loop here.  That keeps eight processes from contending for a
small host's cores and gives one clock for visibility across sites.
Sites are built by ``repro.serve.builder.build_site``.

Posts arrive open-loop (seeded Poisson) at a rate well below the knee;
each is a ``run_transaction`` adding a unique token to an ORSet channel
and incrementing the writer's sequence counter.  Latencies are
wall-clock milliseconds from the post's due time.
"""

from __future__ import annotations

import asyncio
import gc
import random
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.core.txn import ObjectKey
from repro.serve.builder import bootstrap_group, build_site
from repro.serve.topology import parse_topology
from repro.transport.asyncio_backend import AsyncioTransport

from .common import (Check, Post, VisibilityProbe, check_dcs, check_delivery,
                     check_reads, dcs_converged, fold, mat_totals, ratio_since,
                     poisson_posts, posts_by_key, start_reads,
                     transaction_body, visibility_ms)
from .rounds import RoundResult
from .tracing import Tracer, check_attribution, instrument, layer_metrics

LIVE_DCS = 3
LIVE_K = 2
GROUP_ID = "g"
GROUP = ("m0", "m1", "m2")            # async peer group on dc0
FAR_EDGES = (("f1", "dc1"), ("f2", "dc2"))
CHANNELS = 2
LIVE_POSTS = 120
LIVE_RATE = 20.0
#: Wall-clock limits for set-up, delivery and the final checks.
SETUP_MAX_S = 20.0
DRAIN_MAX_S = 20.0
POLL_S = 0.01


def _seq_key(writer: str) -> ObjectKey:
    return ObjectKey("seq", writer)


def _topology(seed: int) -> Tuple[Any, Dict[ObjectKey, str], List[str]]:
    writers = list(GROUP) + [name for name, _ in FAR_EDGES]
    channels = [ObjectKey("chat", f"ch{i}") for i in range(CHANNELS)]
    keys: Dict[ObjectKey, str] = {key: "orset" for key in channels}
    for writer in writers:
        keys[_seq_key(writer)] = "counter"
    sites: List[Dict[str, Any]] = [
        {"name": f"dc{i}", "role": "dc", "listen": "127.0.0.1:0",
         "n_shards": 2, "k_target": LIVE_K} for i in range(LIVE_DCS)]
    for name in GROUP:
        sites.append({"name": name, "role": "member",
                      "listen": "127.0.0.1:0", "dc": "dc0", "group": GROUP_ID,
                      "parent": GROUP[0], "commit_variant": "async"})
    for name, dc in FAR_EDGES:
        sites.append({"name": name, "role": "edge",
                      "listen": "127.0.0.1:0", "dc": dc})
    topo = parse_topology({
        "deployment": {"name": "live-group-chat", "seed": seed},
        "keys": [{"bucket": k.bucket, "key": k.key, "type": t}
                 for k, t in keys.items()],
        "sites": sites})
    return topo, keys, writers


def make_posts(seed: int, writers: List[str],
               channels: List[ObjectKey]) -> List[Post]:
    rng = random.Random(f"perfbench/live_group_chat/{seed}")

    def content(rng: random.Random, writer: str, seq: int):
        channel = channels[rng.randrange(len(channels))]
        return ((channel, "orset", "add", (f"{writer}#{seq}",)),)

    return poisson_posts(rng, writers, LIVE_POSTS, LIVE_RATE, _seq_key,
                         content)


async def _wait(predicate, limit_s: float) -> bool:
    deadline = time.monotonic() + limit_s
    while not predicate():
        if time.monotonic() >= deadline:
            return False
        await asyncio.sleep(POLL_S)
    return True


def run_round(seed: int, tracer: Optional[Tracer] = None) -> RoundResult:
    gc.collect()
    if tracer is None:
        return asyncio.run(_round(seed, None))
    with instrument(tracer):
        return asyncio.run(_round(seed, tracer))


async def _round(seed: int, tracer: Optional[Tracer]) -> RoundResult:
    loop = asyncio.get_running_loop()
    began = time.perf_counter()
    topo, keys, writers = _topology(seed)
    transports: Dict[str, AsyncioTransport] = {}
    actors: Dict[str, Any] = {}
    try:
        for site in topo.sites:
            transport = AsyncioTransport(site.name, seed=topo.seed,
                                         homes=topo.homes(),
                                         listen=(site.host, site.port))
            transports[site.name] = transport
            await transport.start()
        addrs = {name: t.listen_addr for name, t in transports.items()}
        for transport in transports.values():
            transport.peer_addrs.update(addrs)
        for site in topo.sites:
            actors[site.name] = build_site(transports[site.name], topo,
                                           site)
        for site in topo.sites:
            if site.role == "edge":
                actors[site.name].connect()
            elif site.role == "member":
                bootstrap_group(topo, actors[site.name])
        clients = {name: actors[name] for name in writers}
        dcs = [actors[s.name] for s in topo.dcs]
        await _warm(clients)
        setup_s = time.perf_counter() - began
        return await _measure(loop, seed, tracer, transports, clients, dcs,
                              keys, writers, setup_s)
    finally:
        # Crashed actors neither send nor run timers, so nothing opens a
        # new connection while the transports close.
        for actor in actors.values():
            actor.crash()
            for shard in getattr(actor, "shards", {}).values():
                shard.crash()
        for transport in transports.values():
            await transport.stop()


async def _warm(clients: Dict[str, Any]) -> None:
    """Open every session and read every key at every client."""
    reads = start_reads(clients, {
        name: list(node._interest_types.items())
        for name, node in clients.items()})

    def ready() -> bool:
        sessions = all(node.session_open for node in clients.values()
                       if getattr(node, "is_parent", True))
        return sessions and len(reads) == len(clients)

    if not await _wait(ready, SETUP_MAX_S):
        raise RuntimeError("live set-up did not finish: sessions or "
                           "warm-up reads incomplete")


def _dropped(transports: Dict[str, AsyncioTransport]) -> int:
    return sum(t.unroutable + sum(link.dropped
                                  for link in t._links.values())
               for t in transports.values())


async def _measure(loop: Any, seed: int, tracer: Optional[Tracer],
                   transports: Dict[str, AsyncioTransport],
                   clients: Dict[str, Any], dcs: List[Any],
                   keys: Dict[ObjectKey, str], writers: List[str],
                   setup_s: float) -> RoundResult:
    channels = [key for key, type_name in keys.items()
                if type_name == "orset"]
    posts = make_posts(seed, writers, channels)
    check = Check()
    result = RoundResult(setup_s=setup_s, attempted=len(posts),
                         check=check)

    def clock_ms() -> float:
        return loop.time() * 1000.0

    bench_wrap = (lambda fn: tracer.wrap("bench.probe", fn)) \
        if tracer else None
    probe = VisibilityProbe(clock_ms, _seq_key, bench_wrap)
    for node in clients.values():
        probe.watch(node, writers)
    aborted: List[int] = []

    def fire(post: Post, due_ms: float) -> None:
        result.lag_ms.append(clock_ms() - due_ms)

        def done(_result: Any, _stats: Any) -> None:
            result.committed += 1
            result.commit_ms.append(clock_ms() - due_ms)

        def abort(_exc: Exception) -> None:
            aborted.append(post.index)

        clients[post.writer].run_transaction(
            transaction_body(post.updates), on_done=done, on_abort=abort)

    if tracer is not None:
        fire = tracer.wrap("bench.fire", fire)

    gc.collect()
    gc.freeze()
    try:
        bytes0 = sum(t.stats.bytes_sent for t in transports.values())
        dup0 = sum(dc.stats["repl_dup_in"] for dc in dcs)
        dropped0 = _dropped(transports)
        mat0 = mat_totals(clients.values())
        if tracer is not None:
            tracer.reset()
            root = tracer.enter(tracer.index("transport.loop"))
        cpu0 = time.process_time()
        start_ms = clock_ms() + 20.0
        for post in posts:
            due = start_ms + post.due_ms
            loop.call_at(due / 1000.0, fire, post, due)
        await asyncio.sleep((posts[-1].due_ms + 20.0) / 1000.0)

        def delivered() -> bool:
            return (not probe.pairs_missing(posts)
                    and len(result.lag_ms) == len(posts))

        if tracer is not None:
            delivered = tracer.wrap("bench.poll", delivered)
        await _wait(delivered, DRAIN_MAX_S)
        result.cpu_s = time.process_time() - cpu0
        if tracer is not None:
            tracer.exit(root)
        result.wire_bytes = sum(t.stats.bytes_sent
                                for t in transports.values()) - bytes0
        mat1 = mat_totals(clients.values())
        dropped = _dropped(transports) - dropped0
        result.counters = {
            "sim.events_per_txn": 0.0,
            "sim.deliveries_per_txn": 0.0,
            "dc.repl_dup_in": float(
                sum(dc.stats["repl_dup_in"] for dc in dcs) - dup0),
            "dc.catchup_ms": 0.0,
            "store.mat_hit_ratio": ratio_since(mat0, mat1),
            "transport.dropped_frames": float(dropped),
        }
        if tracer is not None:
            result.layers = layer_metrics(tracer, result.committed)
            check_attribution(check, tracer, result.cpu_s)
    finally:
        gc.unfreeze()

    result.group_visible_ms, result.remote_visible_ms = visibility_ms(
        probe, posts, lambda post: start_ms + post.due_ms,
        {name: GROUP_ID for name in GROUP})
    if dropped:
        check.fail(f"{dropped} frames dropped by the transport")
    by_key = posts_by_key(posts)
    check_delivery(check, probe, posts, aborted)
    expected = fold(posts, keys)
    await _wait(lambda: dcs_converged(dcs, expected), DRAIN_MAX_S)
    check_dcs(check, dcs, expected, by_key)
    check_keys = {name: list(keys.items()) for name in clients}
    reads = start_reads(clients, check_keys)
    await _wait(lambda: len(reads) == len(clients), DRAIN_MAX_S)
    check_reads(check, reads, check_keys, expected, by_key)
    return result
