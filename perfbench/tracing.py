"""Per-layer tracing for the traced run (``--trace 1``).

The tracer wraps public entry points of each layer from the outside:
nothing in ``src/`` records a span.  Every wrapped call becomes a span
with a name, a start, an end and a parent link, kept in flat in-memory
arrays.  Times are thread CPU time, so a span's *self time* (its
duration minus the part its child spans cover) is CPU the layer itself
spent, and the self times of all spans inside a root span add up to the
CPU of that root.

The layer of a span is the first component of its name:

``transport``  codec, ``AsyncioTransport.send``, the asyncio loop (root)
``sim``        ``Network.send``, the simulator's event loop (root)
``dc``         ``DataCenter``/``ShardServer`` handlers and timers
``edge``       ``EdgeNode`` handlers, ``run_transaction`` and timers
``group``      ``GroupMember`` group-message handling and timers
``epaxos``     ``EPaxosReplica.handle``
``store``      ``VersionedStore``/``InterestCache`` reads and applies,
               ``EdgeNode.read_value``
``bench``      the benchmark's own post generator and probe

End-to-end runs never call :func:`instrument`, so they run unwrapped.
"""

from __future__ import annotations

import contextlib
import time
from array import array
from typing import Any, Callable, Dict, Iterator, List, Tuple

from repro.dc.datacenter import DataCenter
from repro.dc.messages import (EdgeCommit, EdgeCommitBatch,
                               ReplicateBatch, ReplicatePartialBatch,
                               UpdatePush)
from repro.dc.server import ShardServer
from repro.edge.node import EdgeNode
from repro.epaxos.messages import Accept, Commit, PreAccept
from repro.epaxos.replica import EPaxosReplica
from repro.groups.peergroup import GroupMember
from repro.sim.actor import Actor
from repro.sim.network import Network
from repro.store.cache import InterestCache
from repro.store.kv import VersionedStore
from repro.transport import asyncio_backend
from repro.transport.asyncio_backend import AsyncioTransport

from .common import Check

LAYERS = ("transport", "sim", "dc", "edge", "group", "epaxos", "store",
          "bench")

_clock = time.thread_time


class Tracer:
    """Span recorder: flat arrays plus running per-name totals."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._index: Dict[str, int] = {}
        self._stack: List[list] = []
        self.reset()

    def reset(self) -> None:
        """Forget every span (call between phases, with no span open)."""
        if self._stack:
            raise RuntimeError("reset with an open span")
        self.span_name = array("H")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.self_s: List[float] = [0.0] * len(self.names)
        self.total_s: List[float] = [0.0] * len(self.names)
        self.calls: List[int] = [0] * len(self.names)
        self.counts: Dict[str, float] = {}
        self.sets: Dict[str, set] = {}

    def index(self, name: str) -> int:
        idx = self._index.get(name)
        if idx is None:
            idx = self._index[name] = len(self.names)
            self.names.append(name)
            self.self_s.append(0.0)
            self.total_s.append(0.0)
            self.calls.append(0)
        return idx

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def member(self, name: str, item: Any) -> None:
        self.sets.setdefault(name, set()).add(item)

    # -- spans -------------------------------------------------------------
    def enter(self, idx: int) -> list:
        span = len(self.span_name)
        stack = self._stack
        self.span_name.append(idx)
        self.span_parent.append(stack[-1][3] if stack else -1)
        start = _clock()
        self.span_start.append(start)
        self.span_end.append(0.0)
        frame = [idx, start, 0.0, span]
        stack.append(frame)
        return frame

    def exit(self, frame: list) -> None:
        end = _clock()
        stack = self._stack
        stack.pop()
        idx, start, child, span = frame
        duration = end - start
        self.span_end[span] = end
        self.self_s[idx] += duration - child
        self.total_s[idx] += duration
        self.calls[idx] += 1
        if stack:
            stack[-1][2] += duration

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        frame = self.enter(self.index(name))
        try:
            yield
        finally:
            self.exit(frame)

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` recorded as a span named ``name`` on every call."""
        idx = self.index(name)
        enter, exit_ = self.enter, self.exit

        def traced(*args: Any, **kwargs: Any) -> Any:
            frame = enter(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(frame)
        return traced

    # -- summaries ---------------------------------------------------------
    def layer_self_s(self) -> Dict[str, float]:
        totals = {layer: 0.0 for layer in LAYERS}
        for idx, name in enumerate(self.names):
            layer = name.split(".", 1)[0]
            totals[layer] = totals.get(layer, 0.0) + self.self_s[idx]
        return totals

    def mean_us(self, name: str) -> float:
        idx = self._index.get(name)
        if idx is None or not self.calls[idx]:
            return 0.0
        return self.total_s[idx] / self.calls[idx] * 1e6

    def calls_of(self, name: str) -> int:
        idx = self._index.get(name)
        return self.calls[idx] if idx is not None else 0


def _actor_layer(actor: Any) -> str:
    if isinstance(actor, (DataCenter, ShardServer)):
        return "dc"
    if isinstance(actor, GroupMember):
        return "group"
    return "edge"


def _dot_key(txn: dict) -> Tuple:
    dot = txn["dot"]
    return tuple(sorted(dot.items())) if isinstance(dot, dict) else dot


@contextlib.contextmanager
def instrument(tracer: Tracer) -> Iterator[Tracer]:
    """Patch the layer entry points for the duration of the block."""
    patches: List[Tuple[Any, str, Any]] = []

    def patch(owner: Any, attr: str, replacement: Any) -> None:
        patches.append((owner, attr, owner.__dict__[attr]
                        if isinstance(owner, type)
                        else getattr(owner, attr)))
        setattr(owner, attr, replacement)

    enter, exit_, index = tracer.enter, tracer.exit, tracer.index
    count, member = tracer.count, tracer.member

    # -- transport: codec and sends ---------------------------------------
    encode = asyncio_backend.encode_frame
    decode = asyncio_backend.decode_frame
    encode_idx = index("transport.encode")

    def traced_encode(*args: Any) -> bytes:
        frame = enter(encode_idx)
        try:
            data = encode(*args)
        finally:
            exit_(frame)
        count("transport.frame_bytes", len(data))
        return data

    patch(asyncio_backend, "encode_frame", traced_encode)
    patch(asyncio_backend, "decode_frame",
          tracer.wrap("transport.decode", decode))
    patch(AsyncioTransport, "send",
          tracer.wrap("transport.send", AsyncioTransport.send))
    patch(Network, "send", tracer.wrap("sim.send", Network.send))

    # -- dc ---------------------------------------------------------------
    dc_on_message = DataCenter.on_message
    dc_idx = index("dc.on_message")

    def traced_dc_message(self: DataCenter, message: Any,
                          sender: str) -> None:
        count("dc.messages_in")
        kind = type(message)
        if kind is ReplicateBatch or kind is ReplicatePartialBatch:
            count("dc.repl_frames")
            count("dc.repl_bytes", message.wire_size())
        elif kind is EdgeCommit:
            count("edge.commit_msgs")
            member("edge.commit_dots", _dot_key(message.txn))
        elif kind is EdgeCommitBatch:
            for txn in message.txns:
                count("edge.commit_msgs")
                member("edge.commit_dots", _dot_key(txn))
        frame = enter(dc_idx)
        try:
            dc_on_message(self, message, sender)
        finally:
            exit_(frame)

    patch(DataCenter, "on_message", traced_dc_message)
    # Client-facing requests queue behind the DC's service time and run
    # later through _dispatch, outside on_message.
    patch(DataCenter, "_dispatch",
          tracer.wrap("dc.dispatch", DataCenter._dispatch))
    patch(ShardServer, "on_message",
          tracer.wrap("dc.shard", ShardServer.on_message))

    # -- edge and group ---------------------------------------------------
    edge_on_message = EdgeNode.on_message
    edge_idx = index("edge.on_message")
    group_idx = index("group.on_message")

    def traced_edge_message(self: EdgeNode, message: Any,
                            sender: str) -> None:
        if type(message) is UpdatePush:
            count("dc.pushes")
            if message.txns:
                count("dc.pushes_useful")
            idx = edge_idx
        elif isinstance(self, GroupMember) \
                and type(message).__module__.startswith("repro.groups"):
            idx = group_idx
        else:
            idx = edge_idx
        frame = enter(idx)
        try:
            edge_on_message(self, message, sender)
        finally:
            exit_(frame)

    patch(EdgeNode, "on_message", traced_edge_message)
    patch(EdgeNode, "run_transaction",
          tracer.wrap("edge.run_transaction", EdgeNode.run_transaction))
    patch(EdgeNode, "read_value",
          tracer.wrap("store.read_value", EdgeNode.read_value))

    # -- epaxos -----------------------------------------------------------
    handle = EPaxosReplica.handle
    epaxos_idx = index("epaxos.handle")

    def traced_handle(self: EPaxosReplica, message: Any,
                      sender: str) -> None:
        count("epaxos.messages")
        kind = type(message)
        if kind is PreAccept:
            count("epaxos.preaccepts")
            count("epaxos.preaccept_deps", len(message.deps))
            member("epaxos.proposed", message.instance)
        elif kind is Accept:
            member("epaxos.accepted", message.instance)
        elif kind is Commit:
            inst = self.instances.get(message.instance)
            if inst is not None and inst.is_committed:
                count("epaxos.commit_dups")
        frame = enter(epaxos_idx)
        try:
            handle(self, message, sender)
        finally:
            exit_(frame)

    patch(EPaxosReplica, "handle", traced_handle)

    # -- store ------------------------------------------------------------
    patch(VersionedStore, "apply_transaction",
          tracer.wrap("store.apply", VersionedStore.apply_transaction))
    patch(VersionedStore, "read_with_dots",
          tracer.wrap("store.read", VersionedStore.read_with_dots))
    patch(InterestCache, "apply_transaction",
          tracer.wrap("store.cache_apply",
                      InterestCache.apply_transaction))

    # -- timers: periodic work (stability, push, maintenance) -------------
    every = Actor.every
    set_timer = Actor.set_timer

    def traced_every(self: Actor, period: float,
                     callback: Callable[[], None],
                     jitter: float = 0.0) -> None:
        every(self, period, tracer.wrap(f"{_actor_layer(self)}.timer",
                                        callback), jitter)

    def traced_set_timer(self: Actor, delay: float,
                         callback: Callable[[], None]) -> Any:
        return set_timer(self, delay, tracer.wrap(
            f"{_actor_layer(self)}.timer", callback))

    patch(Actor, "every", traced_every)
    patch(Actor, "set_timer", traced_set_timer)
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)


def layer_metrics(tracer: Tracer, txns: int) -> Dict[str, float]:
    """The per-layer numbers of one traced phase, keyed by metric name."""
    per_txn = 1.0 / max(txns, 1)
    layers = tracer.layer_self_s()
    counts = tracer.counts
    sets = tracer.sets
    frames = tracer.calls_of("transport.encode")
    proposed = len(sets.get("epaxos.proposed", ()))
    preaccepts = counts.get("epaxos.preaccepts", 0)
    pushes = counts.get("dc.pushes", 0)
    commit_msgs = counts.get("edge.commit_msgs", 0)
    metrics = {
        "transport.frames_per_txn": frames * per_txn,
        "transport.frame_bytes_per_txn":
            counts.get("transport.frame_bytes", 0) * per_txn,
        "transport.encode_us_per_frame": tracer.mean_us("transport.encode"),
        "transport.decode_us_per_frame": tracer.mean_us("transport.decode"),
        "sim.self_ms_per_txn": layers["sim"] * 1000 * per_txn,
        "dc.messages_in_per_txn": counts.get("dc.messages_in", 0) * per_txn,
        "dc.repl_frames_per_txn": counts.get("dc.repl_frames", 0) * per_txn,
        "dc.repl_bytes_per_txn": counts.get("dc.repl_bytes", 0) * per_txn,
        "dc.pushes_per_txn": pushes * per_txn,
        "dc.push_useful_ratio":
            counts.get("dc.pushes_useful", 0) / pushes if pushes else 0.0,
        "edge.commit_resends_per_txn":
            (commit_msgs - len(sets.get("edge.commit_dots", ())))
            * per_txn,
        "epaxos.messages_per_txn": counts.get("epaxos.messages", 0)
        * per_txn,
        "epaxos.deps_per_preaccept":
            counts.get("epaxos.preaccept_deps", 0) / preaccepts
            if preaccepts else 0.0,
        "epaxos.slow_path_ratio":
            len(sets.get("epaxos.accepted", ())) / proposed
            if proposed else 0.0,
        "epaxos.commit_resends_per_txn":
            counts.get("epaxos.commit_dups", 0) * per_txn,
        "store.read_us": tracer.mean_us("store.read_value"),
    }
    for layer in ("transport", "dc", "edge", "group", "epaxos", "store",
                  "bench"):
        metrics[f"{layer}.self_ms_per_txn"] = \
            layers[layer] * 1000 * per_txn
    return metrics


#: How far the layers' self times may sum from the phase's process CPU.
SELF_SUM_TOLERANCE = 0.005


def check_attribution(check: Check, tracer: Tracer, cpu_s: float) -> None:
    """Fail ``check`` unless the self times of all layers add up to the
    phase's process CPU ``cpu_s`` within :data:`SELF_SUM_TOLERANCE`."""
    ratio = sum(tracer.layer_self_s().values()) / cpu_s if cpu_s else 0.0
    if abs(ratio - 1.0) > SELF_SUM_TOLERANCE:
        check.fail(f"layer self times sum to {ratio:.4f} of the phase's "
                   "process CPU")
