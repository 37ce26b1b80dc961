"""Pieces every workload shares: seeded posts, the oracle, the probe.

* :func:`poisson_posts` turns a seed into an open-loop list of posts.
  Each post is one transaction: its content updates plus ``+1`` on the
  writer's own sequence counter.
* :func:`fold` computes the expected value of every key from that list
  alone.  It never calls into the program.
* :class:`VisibilityProbe` dates every (post, observer) sighting with one
  counter read per notification: causal order makes a writer's posts
  visible as a prefix, so the counter value says which posts became
  visible.  The probe also checks that no counter ever decreases.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import (Any, Callable, Dict, Iterable, List, Optional,
                    Sequence, Tuple)

from repro.core.txn import ObjectKey

#: One update: (key, CRDT type, method, args).
Update = Tuple[ObjectKey, str, str, Tuple[Any, ...]]


@dataclass(frozen=True)
class Post:
    """One generated post: a transaction issued at ``due_ms``."""

    index: int
    writer: str
    due_ms: float            # offset from the start of the posting phase
    seq: int                 # the writer's own post number, from 1
    updates: Tuple[Update, ...]


def poisson_posts(rng: random.Random, writers: Sequence[str],
                  n_posts: int, rate_per_s: float,
                  seq_key: Callable[[str], ObjectKey],
                  content: Callable[[random.Random, str, int],
                                    Tuple[Update, ...]]) -> List[Post]:
    """``n_posts`` posts with exponential gaps (mean ``1/rate_per_s``).

    Writers take turns in a seeded order, so every writer issues the
    same number of posts (give or take one) whatever the seed: the mix
    of group and far-edge posts, which sets the cost of a post, does not
    drift between seeds.  ``content(rng, writer, seq)`` gives the post's
    own updates; the increment of ``seq_key(writer)`` is appended to
    every post.
    """
    turns = balanced(rng, writers, n_posts)
    posts: List[Post] = []
    counts = {w: 0 for w in writers}
    due = 0.0
    for index in range(n_posts):
        due += rng.expovariate(rate_per_s) * 1000.0
        writer = turns[index]
        counts[writer] += 1
        seq = counts[writer]
        updates = content(rng, writer, seq) + (
            (seq_key(writer), "counter", "increment", (1,)),)
        posts.append(Post(index, writer, due, seq, updates))
    return posts


def balanced(rng: random.Random, items: Sequence[Any], n: int) -> List[Any]:
    """``n`` picks from ``items``, each picked equally often (within one),
    in a seeded order."""
    picks = list(items) * (n // len(items))
    picks += rng.sample(list(items), n - len(picks))
    rng.shuffle(picks)
    return picks


def fold(posts: Iterable[Post],
         keys: Dict[ObjectKey, str]) -> Dict[ObjectKey, Any]:
    """Expected final value of every key in ``keys`` after ``posts``."""
    state: Dict[ObjectKey, Any] = {
        key: (0 if type_name == "counter" else set())
        for key, type_name in keys.items()}
    for post in posts:
        for key, _type_name, method, args in post.updates:
            if method == "increment":
                state[key] += args[0]
            elif method == "add":
                state[key].add(args[0])
            else:
                raise ValueError(f"oracle cannot fold {method!r}")
    return state


def transaction_body(updates: Sequence[Update]):
    """A generator transaction body applying ``updates``."""
    def body(tx):
        for key, type_name, method, args in updates:
            yield tx.update(key, type_name, method, *args)
    return body


def read_body(keys: Sequence[Tuple[ObjectKey, str]]):
    """A read-only transaction body returning ``{key: value}``."""
    def body(tx):
        values = {}
        for key, type_name in keys:
            values[key] = yield tx.read(key, type_name)
        return values
    return body


def normalise(value: Any) -> Any:
    """CRDT value in the oracle's shape (sets as sets, None as empty)."""
    if value is None:
        return None
    if isinstance(value, (set, frozenset, list, tuple)):
        return set(value)
    return value


class VisibilityProbe:
    """Dates the first sighting of every (post, observer) pair.

    ``clock()`` is the workload's clock in milliseconds.  ``wrap``
    lets the tracer attribute the probe's own cost to the benchmark.
    """

    def __init__(self, clock: Callable[[], float],
                 seq_key: Callable[[str], ObjectKey],
                 wrap: Optional[Callable[[Callable], Callable]] = None):
        self.clock = clock
        self.seq_key = seq_key
        self.wrap = wrap or (lambda fn: fn)
        #: (writer, observer) -> sighting time of post seq s at [s - 1]
        self.sightings: Dict[Tuple[str, str], List[float]] = {}
        self.rollbacks = 0

    def watch(self, observer: Any, writers: Iterable[str]) -> None:
        """Subscribe ``observer`` to the sequence counter of each writer."""
        for writer in writers:
            if writer == observer.node_id:
                continue
            seen: List[float] = []
            self.sightings[(writer, observer.node_id)] = seen
            key = self.seq_key(writer)
            observer.subscribe(key, self.wrap(
                self._callback(observer, key, seen)))

    def _callback(self, node: Any, key: ObjectKey, seen: List[float]):
        def on_visible(_key: ObjectKey) -> None:
            value = node.read_value(key, "counter") or 0
            if value < len(seen):
                self.rollbacks += 1
            elif value > len(seen):
                now = self.clock()
                seen.extend([now] * (value - len(seen)))
        return on_visible

    def pairs_missing(self, posts: Sequence[Post]) -> int:
        """Pairs not observed yet (0 once every post reached everyone)."""
        expected: Dict[str, int] = {}
        for post in posts:
            expected[post.writer] = max(expected.get(post.writer, 0),
                                        post.seq)
        missing = 0
        for (writer, _observer), seen in self.sightings.items():
            missing += max(0, expected.get(writer, 0) - len(seen))
        return missing

    def unseen_posts(self, posts: Sequence[Post]) -> List[int]:
        """Indices of posts that some observer has not seen."""
        lag = {}
        for (writer, _observer), seen in self.sightings.items():
            lag[writer] = min(lag.get(writer, 1 << 60), len(seen))
        return [p.index for p in posts
                if p.writer in lag and p.seq > lag[p.writer]]


def visibility_ms(probe: VisibilityProbe, posts: Sequence[Post],
                  due_at: Callable[[Post], float],
                  groups: Dict[str, str]) -> Tuple[List[float], List[float]]:
    """Time from each post's due time to its first sighting, for every
    observed (post, observer) pair: ``(group pairs, remote pairs)``.

    A pair is a group pair when the observer is a member of the writer's
    own group (``groups`` maps member names to group ids).
    """
    by_writer: Dict[str, List[Post]] = {}
    for post in posts:
        by_writer.setdefault(post.writer, []).append(post)
    group: List[float] = []
    remote: List[float] = []
    for (writer, observer), seen in probe.sightings.items():
        same = groups.get(writer) is not None \
            and groups.get(writer) == groups.get(observer)
        into = group if same else remote
        for post in by_writer.get(writer, ()):
            if post.seq <= len(seen):
                into.append(seen[post.seq - 1] - due_at(post))
    return group, remote


def mat_totals(clients: Iterable[Any]) -> Tuple[int, int]:
    """(materialisations served from the cache, all materialisations)
    summed over the clients' ``CacheStats``."""
    hits = total = 0
    for node in clients:
        stats = node.cache.stats
        hits += stats.mat_hits + stats.mat_incremental
        total += stats.mat_hits + stats.mat_incremental + stats.mat_misses
    return hits, total


def ratio_since(before: Tuple[int, int], after: Tuple[int, int]) -> float:
    total = after[1] - before[1]
    return (after[0] - before[0]) / total if total else 0.0


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` in (0, 100]: the smallest sample with
    at least ``q``% of the samples at or below it.  Pooling identical
    rounds leaves it unchanged, so simulated figures repeat exactly
    whatever the number of rounds."""
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    rank = math.ceil(len(ordered) * q / 100.0)
    return ordered[max(rank, 1) - 1]


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


class Check:
    """Collects failed correctness checks and the posts they affect."""

    def __init__(self) -> None:
        self.problems: List[str] = []
        self.failed_posts: set = set()

    def fail(self, message: str, posts: Iterable[int] = ()) -> None:
        self.problems.append(message)
        self.failed_posts.update(posts)

    @property
    def ok(self) -> bool:
        return not self.problems


def compare_values(check: Check, where: str,
                   actual: Dict[ObjectKey, Any],
                   expected: Dict[ObjectKey, Any],
                   by_key: Dict[ObjectKey, List[int]]) -> None:
    """Record a failure for every key whose value differs from the fold."""
    for key, want in expected.items():
        got = normalise(actual.get(key))
        if got is None:
            got = set() if isinstance(want, set) else 0
        if got != want:
            check.fail(f"{where}: {key.bucket}/{key.key} differs from "
                       "the fold", by_key.get(key, ()))


def posts_by_key(posts: Iterable[Post]) -> Dict[ObjectKey, List[int]]:
    index: Dict[ObjectKey, List[int]] = {}
    for post in posts:
        for key, *_ in post.updates:
            index.setdefault(key, []).append(post.index)
    return index


def dc_values(dc: Any, keys: Iterable[ObjectKey]) -> Dict[ObjectKey, Any]:
    """Every key's value at the shard that owns it in ``dc``.

    ``DataCenter.state_digest()`` is not used: every shard a multi-key
    transaction touches journals all of its writes, so a non-owner shard
    holds a partial journal of the other keys and can overwrite the
    owner's value in the digest.
    """
    values: Dict[ObjectKey, Any] = {}
    for key in keys:
        journal = dc.shards[dc.ring.lookup(key)].store.journal(key)
        if journal is not None:
            values[key] = journal.materialise(None).value()
    return values


# -- end-of-round checks (the waiting is backend-specific) -----------------

def check_delivery(check: Check, probe: VisibilityProbe,
                   posts: Sequence[Post], aborted: List[int]) -> None:
    """Every post committed, reached every observer, never rolled back."""
    if aborted:
        check.fail(f"{len(aborted)} posts aborted", aborted)
    unseen = probe.unseen_posts(posts)
    if unseen:
        check.fail(f"{probe.pairs_missing(posts)} (post, observer) pairs "
                   "never observed", unseen)
    if probe.rollbacks:
        check.fail(f"{probe.rollbacks} sequence counter rollbacks",
                   [p.index for p in posts])


def check_dcs(check: Check, dcs: Iterable[Any],
              expected: Dict[ObjectKey, Any],
              by_key: Dict[ObjectKey, List[int]]) -> None:
    for dc in dcs:
        compare_values(check, dc.node_id, dc_values(dc, expected),
                       expected, by_key)


def dcs_converged(dcs: Iterable[Any], expected: Dict[ObjectKey, Any]) \
        -> bool:
    trial = Check()
    check_dcs(trial, dcs, expected, {})
    return trial.ok


def start_reads(clients: Dict[str, Any],
                check_keys: Dict[str, List[Tuple[ObjectKey, str]]]) \
        -> Dict[str, Dict[ObjectKey, Any]]:
    """Issue each client's final read transaction; results fill in later."""
    reads: Dict[str, Dict[ObjectKey, Any]] = {}
    for name, keys in check_keys.items():
        if keys:
            clients[name].run_transaction(
                read_body(keys),
                on_done=lambda values, _stats, name=name:
                    reads.__setitem__(name, values))
    return reads


def check_reads(check: Check, reads: Dict[str, Dict[ObjectKey, Any]],
                check_keys: Dict[str, List[Tuple[ObjectKey, str]]],
                expected: Dict[ObjectKey, Any],
                by_key: Dict[ObjectKey, List[int]]) -> None:
    """Each client's transactional read equals the fold."""
    for name, keys in check_keys.items():
        if not keys:
            continue
        if name not in reads:
            check.fail(f"{name}: final read transaction never finished",
                       [i for key, _ in keys for i in by_key.get(key, ())])
            continue
        compare_values(check, name, reads[name],
                       {key: expected[key] for key, _ in keys}, by_key)
