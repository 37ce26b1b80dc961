"""What one round of any workload reports, and how rounds aggregate.

A run repeats whole rounds of the same seeded posts on a freshly built
world until its time is used up, so every round attempts the same
operations.  End-to-end figures are medians over rounds (set-up, CPU,
bytes) or percentiles over the pooled samples (commit latency).  The
visibility latencies are per-layer figures of the traced run, taken
from its untraced rounds.
"""

from __future__ import annotations

import resource
from dataclasses import dataclass, field
from typing import Dict, List

from .common import Check, median, percentile


@dataclass
class RoundResult:
    setup_s: float
    attempted: int
    check: Check
    committed: int = 0
    cpu_s: float = 0.0
    wire_bytes: int = 0
    #: Wall-clock milliseconds from a post's due time to its commit.
    commit_ms: List[float] = field(default_factory=list)
    #: How late the generator fired posts (ms, live only).
    lag_ms: List[float] = field(default_factory=list)
    #: Milliseconds from a post's due time to its first sighting, per
    #: observed (post, observer) pair, on the probe's clock.
    group_visible_ms: List[float] = field(default_factory=list)
    remote_visible_ms: List[float] = field(default_factory=list)
    #: Whether the probe's clock is simulated time (else wall clock).
    simulated: bool = False
    #: Per-layer numbers of a traced round.
    layers: Dict[str, float] = field(default_factory=dict)
    #: Per-layer numbers every round measures without wrappers.
    counters: Dict[str, float] = field(default_factory=dict)
    #: The process's peak resident set size when the round ended (MB).
    rss_mb: float = 0.0

    @property
    def failed(self) -> int:
        return len(self.check.failed_posts)

    @property
    def cpu_ms_per_txn(self) -> float:
        return self.cpu_s * 1000.0 / max(self.committed, 1)


END_TO_END_UNITS = {
    "setup_s": "s",
    "cpu_ms_per_txn": "ms",
    "wire_bytes_per_txn": "bytes",
    "peak_rss_mb": "MB",
    "commit_p50_ms": "ms",
}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(rounds: List[RoundResult]) -> Dict[str, float]:
    first = rounds[0]
    commit = [v for r in rounds for v in r.commit_ms]
    return {
        "setup_s": median([r.setup_s for r in rounds]),
        "cpu_ms_per_txn": median([r.cpu_ms_per_txn for r in rounds]),
        "wire_bytes_per_txn": median(
            [r.wire_bytes / max(r.committed, 1) for r in rounds]),
        # The first round's peak: later rounds only add allocator
        # fragmentation, and how many fit in a run depends on the host.
        "peak_rss_mb": first.rss_mb,
        "commit_p50_ms": percentile(commit, 50),
    }


#: Visibility latencies: (metric, group or remote pairs, percentile,
#: whether it is measured in simulated time).  The live ones are wall-clock time, the ``sim_`` ones simulated time;
#: a workload reports 0 for the clock it does not use, and for group
#: pairs where it has no peer group.
VISIBILITY = (
    ("group_visible_p50_ms", "group", 50, False),
    ("group_visible_p90_ms", "group", 90, False),
    ("remote_visible_p50_ms", "remote", 50, False),
    ("remote_visible_p90_ms", "remote", 90, False),
    ("sim_group_visible_p50_ms", "group", 50, True),
    ("sim_group_visible_p99_ms", "group", 99, True),
    ("sim_remote_visible_p50_ms", "remote", 50, True),
    ("sim_remote_visible_p99_ms", "remote", 99, True),
)


def visibility(rounds: List[RoundResult]) -> Dict[str, float]:
    """Percentiles of the visibility latencies pooled over ``rounds``."""
    pooled = {
        "group": [v for r in rounds for v in r.group_visible_ms],
        "remote": [v for r in rounds for v in r.remote_visible_ms],
    }
    simulated = rounds[0].simulated
    return {name: percentile(pooled[pairs], q)
            if simulated == sim_clock and pooled[pairs] else 0.0
            for name, pairs, q, sim_clock in VISIBILITY}


PER_LAYER_UNITS = {
    **{name: "ms" for name, *_ in VISIBILITY},
    "commit_p90_ms": "ms",
    "transport.frames_per_txn": "count",
    "transport.frame_bytes_per_txn": "bytes",
    "transport.encode_us_per_frame": "us",
    "transport.decode_us_per_frame": "us",
    "transport.self_ms_per_txn": "ms",
    "transport.loop_lag_p50_ms": "ms",
    "transport.loop_lag_p99_ms": "ms",
    "transport.dropped_frames": "count",
    "sim.events_per_txn": "count",
    "sim.deliveries_per_txn": "count",
    "sim.self_ms_per_txn": "ms",
    "dc.self_ms_per_txn": "ms",
    "dc.messages_in_per_txn": "count",
    "dc.repl_frames_per_txn": "count",
    "dc.repl_bytes_per_txn": "bytes",
    "dc.repl_dup_in": "count",
    "dc.catchup_ms": "ms",
    "dc.pushes_per_txn": "count",
    "dc.push_useful_ratio": "ratio",
    "edge.self_ms_per_txn": "ms",
    "edge.commit_resends_per_txn": "count",
    "group.self_ms_per_txn": "ms",
    "epaxos.self_ms_per_txn": "ms",
    "epaxos.messages_per_txn": "count",
    "epaxos.deps_per_preaccept": "count",
    "epaxos.slow_path_ratio": "ratio",
    "epaxos.commit_resends_per_txn": "count",
    "store.self_ms_per_txn": "ms",
    "store.read_us": "us",
    "store.mat_hit_ratio": "ratio",
    "bench.self_ms_per_txn": "ms",
    "trace.overhead_ratio": "ratio",
}


def per_layer(plain: List[RoundResult],
              traced: List[RoundResult]) -> Dict[str, float]:
    """Medians of the traced rounds, plus what untraced rounds measure."""
    metrics: Dict[str, float] = {}
    for name in PER_LAYER_UNITS:
        values = [r.layers[name] for r in traced if name in r.layers]
        values += [r.counters[name] for r in traced if name in r.counters]
        if values:
            metrics[name] = median(values)
    lag = [v for r in plain for v in r.lag_ms]
    metrics["transport.loop_lag_p50_ms"] = percentile(lag, 50) if lag \
        else 0.0
    metrics["transport.loop_lag_p99_ms"] = percentile(lag, 99) if lag \
        else 0.0
    metrics.update(visibility(plain))
    metrics["commit_p90_ms"] = percentile(
        [v for r in plain for v in r.commit_ms], 90)
    metrics["trace.overhead_ratio"] = (
        median([r.cpu_ms_per_txn for r in traced])
        / median([r.cpu_ms_per_txn for r in plain]))
    missing = set(PER_LAYER_UNITS) - set(metrics)
    if missing:
        raise RuntimeError(f"per-layer metrics not measured: {missing}")
    return metrics
