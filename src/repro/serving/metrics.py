"""Serving metrics: throughput of correct predictions, SLA violations,
switching breakdowns, and energy (Section 5.4).

Two aggregation modes share one metric vocabulary:

:class:`ServingResult`
    Exact, record-backed — holds every :class:`QueryRecord` and computes
    percentiles from the full latency distribution. The right tool for
    paper-figure reproductions (thousands of queries).
:class:`StreamingMetrics`
    Constant-memory — running counters plus P² (Jain & Chlamtac 1985)
    percentile estimators and a bounded latency reservoir, so
    million-query scenarios never materialize per-query records.

Dropped (shed) queries count toward ``violation_rate`` and ``drop_rate``
but are **excluded from latency percentiles** in both modes: a shed query
was never answered, so it has no latency — folding its ``finish == arrival``
record in would inject 0 s samples and make overloaded runs look *faster*
the more they drop. For the same reason they are excluded from
``total_samples`` (and therefore ``raw_throughput`` and
``mean_accuracy``): a dropped query's samples were never served, and
counting them while the makespan shrinks would make a failing,
drop-heavy cluster report *higher* samples/s than a healthy one.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np


@dataclass
class CacheStats:
    """Hit/miss/fill accounting for one cache (or a merged fleet view).

    The cluster's MP-Cache tier (:mod:`repro.serving.cache`) counts row
    lookups, not queries: every hot-row gather a node cannot serve from
    shard-local memory either **hits** its cache (a DRAM read, priced in
    ``hit_s``) or **misses** and fills over the cluster fabric
    (``fill_bytes``).  The identities every run must satisfy — pinned in
    the cache benchmark — are ``hits + misses == lookups`` and
    ``fill_bytes == misses * row_bytes``; warm, re-warm, and donation
    traffic is tallied separately so every byte that moved is visible.
    """

    lookups: int = 0  # hot-row gathers offered to the cache
    hits: int = 0
    misses: int = 0
    hit_bytes: int = 0  # payload served from cache (DRAM reads)
    fill_bytes: int = 0  # demand fills pulled over the fabric on misses
    warm_bytes: int = 0  # provisioning fills (static preload, join warm)
    rewarm_bytes: int = 0  # re-fetches after a representation switch
    donated_bytes: int = 0  # hot-set bytes received from a draining peer
    invalidated_entries: int = 0  # entries dropped by switch/re-key/eviction
    invalidations: int = 0  # invalidation events (switches + re-keys)
    hit_s: float = 0.0  # device time charged for cache reads
    rewarm_s: float = 0.0  # device time blocked by post-switch re-warms

    @property
    def hit_rate(self) -> float:
        """Fraction of offered lookups served from cache."""
        return self.hits / self.lookups if self.lookups else 0.0

    def merge(self, other: "CacheStats") -> None:
        """Fold another cache's counters into this one (fleet roll-up)."""
        self.lookups += other.lookups
        self.hits += other.hits
        self.misses += other.misses
        self.hit_bytes += other.hit_bytes
        self.fill_bytes += other.fill_bytes
        self.warm_bytes += other.warm_bytes
        self.rewarm_bytes += other.rewarm_bytes
        self.donated_bytes += other.donated_bytes
        self.invalidated_entries += other.invalidated_entries
        self.invalidations += other.invalidations
        self.hit_s += other.hit_s
        self.rewarm_s += other.rewarm_s

    def summary(self) -> dict[str, float]:
        """The cache metric vocabulary as one printable dict."""
        return {
            "cache_lookups": self.lookups,
            "cache_hits": self.hits,
            "cache_misses": self.misses,
            "cache_hit_rate": self.hit_rate,
            "cache_fill_bytes": self.fill_bytes,
            "cache_warm_bytes": self.warm_bytes,
            "cache_rewarm_bytes": self.rewarm_bytes,
        }


@dataclass(frozen=True)
class QueryRecord:
    """One served query's outcome."""

    index: int
    size: int
    arrival_s: float
    start_s: float
    finish_s: float
    path_label: str
    accuracy: float  # percent
    energy_j: float = 0.0
    dropped: bool = False  # shed by an overload policy before execution
    # Per-query SLA override (multi-tenant); None means the run-level target.
    sla_s: float | None = None

    @property
    def latency_s(self) -> float:
        """Arrival-to-finish latency — what the SLA target judges."""
        return self.finish_s - self.arrival_s

    @property
    def correct_samples(self) -> float:
        """Expected correct predictions this query contributed (0 if shed)."""
        if self.dropped:
            return 0.0
        return self.size * self.accuracy / 100.0


class _MetricVocabulary:
    """The accessors both aggregation modes derive the same way from
    their own ``makespan_s`` / ``total_samples`` / ``latency_percentile``
    and headline metrics."""

    @property
    def raw_throughput(self) -> float:
        """Samples served per second."""
        span = self.makespan_s
        return self.total_samples / span if span > 0 else 0.0

    @property
    def p50_latency_s(self) -> float:
        """Median served latency, in seconds."""
        return self.latency_percentile(50)

    @property
    def p95_latency_s(self) -> float:
        """95th-percentile served latency, in seconds."""
        return self.latency_percentile(95)

    @property
    def p99_latency_s(self) -> float:
        """99th-percentile served latency, in seconds."""
        return self.latency_percentile(99)

    def summary(self) -> dict[str, float]:
        """The headline metric vocabulary as one printable dict."""
        return {
            "correct_tput": self.correct_prediction_throughput,
            "raw_tput": self.raw_throughput,
            "qps": self.achieved_qps,
            "accuracy": self.mean_accuracy,
            "violation_rate": self.violation_rate,
            "drop_rate": self.drop_rate,
            "p99_latency_ms": self.p99_latency_s * 1e3,
            "energy_j": self.total_energy_j,
        }


@dataclass
class ServingResult(_MetricVocabulary):
    """Aggregated outcome of one simulated serving run."""

    scheduler_name: str
    sla_s: float
    records: list[QueryRecord] = field(default_factory=list)

    # ---- core paper metrics ----------------------------------------------

    @property
    def makespan_s(self) -> float:
        """Time from the epoch to the last recorded finish."""
        if not self.records:
            return 0.0
        return max(r.finish_s for r in self.records)

    @property
    def total_samples(self) -> int:
        """Samples actually served (dropped queries were never answered)."""
        return sum(r.size for r in self.records if not r.dropped)

    @property
    def correct_prediction_throughput(self) -> float:
        """QPS x QuerySize x Accuracy, aggregated (Section 5.4)."""
        span = self.makespan_s
        if span <= 0:
            return 0.0
        return _weighted(self._samples_by_accuracy()) / 100.0 / span

    def _sla_of(self, record: QueryRecord) -> float:
        """The SLA target governing one record (per-tenant aware)."""
        return self.sla_s if record.sla_s is None else record.sla_s

    def _samples_by_accuracy(self, compliant: bool = False) -> Counter:
        """Served samples per accuracy value (only SLA-compliant ones
        when ``compliant``): the exact form :class:`StreamingMetrics`
        keeps, so both modes read the same correct-prediction floats."""
        counts: Counter[float] = Counter()
        for r in self.records:
            if not r.dropped and not (
                compliant and r.latency_s > self._sla_of(r)
            ):
                counts[r.accuracy] += r.size
        return counts

    @property
    def compliant_correct_throughput(self) -> float:
        """Correct predictions per second counting only SLA-compliant
        queries — a late recommendation response is worthless to the
        requesting page, so tight targets penalize slow deployments even
        when their raw throughput keeps up (Figure 13, right)."""
        span = self.makespan_s
        if span <= 0:
            return 0.0
        compliant = self._samples_by_accuracy(compliant=True)
        return _weighted(compliant) / 100.0 / span

    @property
    def achieved_qps(self) -> float:
        """Queries handled per second of makespan (served and dropped)."""
        span = self.makespan_s
        return len(self.records) / span if span > 0 else 0.0

    @property
    def violation_rate(self) -> float:
        """Fraction of queries exceeding the SLA latency target (dropped
        queries count as violations — they were never answered)."""
        if not self.records:
            return 0.0
        violated = sum(
            1 for r in self.records if r.dropped or r.latency_s > self._sla_of(r)
        )
        return violated / len(self.records)

    @property
    def drop_rate(self) -> float:
        """Fraction of queries shed by the overload policy."""
        if not self.records:
            return 0.0
        return sum(1 for r in self.records if r.dropped) / len(self.records)

    @property
    def mean_accuracy(self) -> float:
        """Sample-weighted accuracy of served predictions (percent)."""
        total = self.total_samples
        if total == 0:
            return 0.0
        return _weighted(self._samples_by_accuracy()) / total

    @property
    def total_energy_j(self) -> float:
        """Device energy spent on served queries, in joules."""
        return sum(r.energy_j for r in self.records)

    # ---- distributions ------------------------------------------------------

    def latency_percentile(self, q: float) -> float:
        """Latency percentile over *served* queries; shed queries were never
        answered and must not deflate the tail with 0 s samples."""
        served = [r.latency_s for r in self.records if not r.dropped]
        if not served:
            return 0.0
        return float(np.percentile(served, q))

    def switching_breakdown(self) -> dict[str, float]:
        """Fraction of queries served by each path (Figure 15)."""
        counts = Counter(r.path_label for r in self.records)
        total = len(self.records)
        return {label: count / total for label, count in sorted(counts.items())}


class P2Quantile:
    """Streaming quantile via the P² algorithm (Jain & Chlamtac, 1985).

    Tracks five markers whose heights approximate the ``q``-quantile with
    O(1) memory and O(1) update — the standard record-free percentile
    estimator for long-running serving telemetry.
    """

    def __init__(self, q: float) -> None:
        if not 0.0 < q < 1.0:
            raise ValueError("q must be in (0, 1)")
        self.q = q
        self._initial: list[float] = []
        self._heights: list[float] = []
        self._pos: list[float] = []
        self._desired: list[float] = []
        self._inc = [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0]
        self.count = 0

    def observe(self, x: float) -> None:
        """Fold one sample into the five-marker state."""
        self.count += 1
        if self._heights:
            self._update(x)
            return
        self._initial.append(x)
        if len(self._initial) == 5:
            self._initial.sort()
            self._heights = list(self._initial)
            self._pos = [1.0, 2.0, 3.0, 4.0, 5.0]
            self._desired = [
                1.0, 1.0 + 2.0 * self.q, 1.0 + 4.0 * self.q,
                3.0 + 2.0 * self.q, 5.0,
            ]

    def _update(self, x: float) -> None:
        h, pos = self._heights, self._pos
        if x < h[0]:
            h[0] = x
            cell = 0
        elif x >= h[4]:
            h[4] = x
            cell = 3
        else:
            cell = next(i for i in range(4) if h[i] <= x < h[i + 1])
        for i in range(cell + 1, 5):
            pos[i] += 1.0
        for i in range(5):
            self._desired[i] += self._inc[i]
        self._adjust()

    def _adjust(self) -> bool:
        """One sweep of interior-marker adjustment; True if any marker moved."""
        h, pos = self._heights, self._pos
        moved = False
        for i in (1, 2, 3):
            d = self._desired[i] - pos[i]
            if (d >= 1.0 and pos[i + 1] - pos[i] > 1.0) or (
                d <= -1.0 and pos[i - 1] - pos[i] < -1.0
            ):
                step = 1.0 if d > 0 else -1.0
                candidate = self._parabolic(i, step)
                if not h[i - 1] < candidate < h[i + 1]:
                    candidate = self._linear(i, step)
                h[i] = candidate
                pos[i] += step
                moved = True
        return moved

    _CHUNK_MIN = 256

    @staticmethod
    def _quantile_sorted(xs: np.ndarray, frac: float) -> float:
        """Linear-interpolated quantile of an already-sorted array."""
        idx = frac * (xs.size - 1)
        lo = int(idx)
        rem = idx - lo
        if rem == 0.0:
            return float(xs[lo])
        return float(xs[lo] + rem * (xs[lo + 1] - xs[lo]))

    def observe_sorted(self, xs: np.ndarray) -> None:
        """Fold a pre-sorted chunk of samples in O(log m) marker updates.

        Chunked update (the ``observe_many`` hot path): a sorted block is
        itself an excellent quantile estimate, so each interior marker
        height moves toward the block's empirical quantile weighted by the
        block's share of all observations, while marker positions advance
        by exact below-marker counts so later per-sample ``observe`` calls
        stay coherent. Per-sample and chunked folding therefore agree to
        estimator accuracy, not bit-for-bit — counters stay exact either
        way. Intended for blocks of at least ``_CHUNK_MIN`` samples;
        ``observe_many`` routes smaller chunks through ``observe``.
        """
        m = int(xs.size)
        if m == 0:
            return
        if not self._heights:
            if len(self._initial) + m < 5:
                self._initial.extend(float(v) for v in xs)
                self.count += m
                return
            if self._initial:
                xs = np.sort(np.concatenate([self._initial, xs]))
                self._initial = []
            self.count += m
            n = self.count
            self._heights = [
                self._quantile_sorted(xs, frac) for frac in self._inc
            ]
            self._pos = [1.0 + frac * (n - 1) for frac in self._inc]
            self._desired = [1.0 + frac * (n - 1) for frac in self._inc]
            return
        h, pos = self._heights, self._pos
        self.count += m
        weight = m / self.count
        if xs[0] < h[0]:
            h[0] = float(xs[0])
        if xs[-1] > h[4]:
            h[4] = float(xs[-1])
        for i in (1, 2, 3):
            h[i] += weight * (self._quantile_sorted(xs, self._inc[i]) - h[i])
        below = np.searchsorted(xs, h[1:4], side="left")
        for i in (1, 2, 3):
            pos[i] += float(below[i - 1])
        pos[4] += float(m)
        for i in range(5):
            self._desired[i] += self._inc[i] * m

    def observe_many(self, xs) -> None:
        """Fold a chunk of samples (one sort per 4096-sample block).

        Chunks smaller than ``_CHUNK_MIN`` replay through per-sample
        ``observe`` — a tiny block's empirical tail quantile is too noisy
        to blend, and the per-sample loop is cheap at that size.
        """
        xs = np.asarray(xs, dtype=np.float64)
        if xs.size < self._CHUNK_MIN:
            for x in xs.tolist():
                self.observe(x)
            return
        block = 4096
        for start in range(0, xs.size, block):
            self.observe_sorted(np.sort(xs[start:start + block]))

    def _parabolic(self, i: int, d: float) -> float:
        h, n = self._heights, self._pos
        return h[i] + d / (n[i + 1] - n[i - 1]) * (
            (n[i] - n[i - 1] + d) * (h[i + 1] - h[i]) / (n[i + 1] - n[i])
            + (n[i + 1] - n[i] - d) * (h[i] - h[i - 1]) / (n[i] - n[i - 1])
        )

    def _linear(self, i: int, d: float) -> float:
        h, n = self._heights, self._pos
        j = i + int(d)
        return h[i] + d * (h[j] - h[i]) / (n[j] - n[i])

    @property
    def value(self) -> float:
        """The current estimate of the tracked quantile."""
        if self._heights:
            return self._heights[2]
        if not self._initial:
            return 0.0
        return float(np.percentile(self._initial, self.q * 100.0))


class ReservoirSampler:
    """Uniform bounded-memory sample of a stream (Vitter's Algorithm R)."""

    _BLOCK = 4096

    def __init__(self, capacity: int, seed: int = 0) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._rng = np.random.default_rng(seed)
        self._sample: list[float] = []
        self.count = 0
        # Uniforms are drawn in blocks: one Generator call per 4096
        # observations instead of one per observation (hot streaming path).
        self._uniforms = self._rng.random(self._BLOCK)
        self._cursor = 0

    def observe(self, x: float) -> None:
        """Offer one sample; it survives with probability capacity/count."""
        self.count += 1
        if len(self._sample) < self.capacity:
            self._sample.append(x)
            return
        if self._cursor == self._BLOCK:
            self._uniforms = self._rng.random(self._BLOCK)
            self._cursor = 0
        j = int(self._uniforms[self._cursor] * self.count)
        self._cursor += 1
        if j < self.capacity:
            self._sample[j] = x

    def observe_many(self, xs) -> None:
        """Offer a chunk of samples, bit-identical to per-sample ``observe``.

        Consumes the block-drawn uniforms in exactly the per-sample order
        and computes all replacement slots vectorized; Python touches only
        the ~``capacity * ln(count/capacity)`` surviving samples, so 10M
        observations cost thousands of list writes, not millions.
        """
        xs = np.asarray(xs, dtype=np.float64)
        i = 0
        n = int(xs.size)
        fill = self.capacity - len(self._sample)
        if fill > 0:
            take = min(fill, n)
            self._sample.extend(xs[:take].tolist())
            self.count += take
            i = take
        while i < n:
            if self._cursor == self._BLOCK:
                self._uniforms = self._rng.random(self._BLOCK)
                self._cursor = 0
            take = min(self._BLOCK - self._cursor, n - i)
            uniforms = self._uniforms[self._cursor:self._cursor + take]
            counts = self.count + 1 + np.arange(take, dtype=np.float64)
            slots = (uniforms * counts).astype(np.int64)
            self._cursor += take
            self.count += take
            survivors = np.flatnonzero(slots < self.capacity)
            values = xs[i:i + take]
            sample = self._sample
            for k in survivors.tolist():
                sample[slots[k]] = float(values[k])
            i += take

    def percentile(self, q: float) -> float:
        """Percentile estimate over the reservoir's current sample."""
        if not self._sample:
            return 0.0
        return float(np.percentile(self._sample, q))


class StreamingMetrics(_MetricVocabulary):
    """Record-free aggregation with the :class:`ServingResult` vocabulary.

    ``observe`` ingests one query outcome; every paper metric is then
    available as a property. Named percentiles (p50/p95/p99) come from P²
    estimators; arbitrary ``latency_percentile(q)`` queries fall back to a
    uniform reservoir over served latencies. Memory is O(reservoir), not
    O(queries).

    The accuracy-weighted sums (correct predictions, SLA-compliant
    correct predictions, mean accuracy) are kept as integer sample
    counts keyed by accuracy and summed at read time over the sorted
    keys, so they are exact and independent of ingestion order: any
    mix of :meth:`observe` and :meth:`observe_many` over the same
    outcomes reads the same floats.
    """

    PERCENTILES = (50.0, 95.0, 99.0)

    def __init__(
        self,
        scheduler_name: str,
        sla_s: float,
        reservoir_size: int = 2048,
        seed: int = 0,
    ) -> None:
        self.scheduler_name = scheduler_name
        self.sla_s = sla_s
        self.n = 0
        self.n_dropped = 0
        self.n_violations = 0
        self.total_samples = 0
        # accuracy -> served samples / SLA-compliant served samples.
        self._served_by_accuracy: Counter[float] = Counter()
        self._compliant_by_accuracy: Counter[float] = Counter()
        self._energy_sum = 0.0
        self._max_finish = 0.0
        self._path_counts: Counter[str] = Counter()
        self._estimators = {p: P2Quantile(p / 100.0) for p in self.PERCENTILES}
        self._reservoir = ReservoirSampler(reservoir_size, seed=seed)

    def observe(
        self,
        size: int,
        arrival_s: float,
        start_s: float,
        finish_s: float,
        path_label: str,
        accuracy: float,
        energy_j: float = 0.0,
        dropped: bool = False,
        sla_s: float | None = None,
    ) -> None:
        """Fold one query outcome into the running aggregates.

        ``sla_s`` overrides the run-level target for this query (multi-tenant
        scenarios carry per-tenant SLAs)."""
        sla = self.sla_s if sla_s is None else sla_s
        self.n += 1
        self._path_counts[path_label] += 1
        self._max_finish = max(self._max_finish, finish_s)
        if dropped:
            self.n_dropped += 1
            self.n_violations += 1
            return
        self.total_samples += size
        latency = finish_s - arrival_s
        self._served_by_accuracy[accuracy] += size
        self._energy_sum += energy_j
        if latency > sla:
            self.n_violations += 1
        else:
            self._compliant_by_accuracy[accuracy] += size
        for estimator in self._estimators.values():
            estimator.observe(latency)
        self._reservoir.observe(latency)

    def observe_many(
        self,
        sizes,
        arrivals,
        starts,
        finishes,
        path_label: str,
        accuracies,
        energies=0.0,
        dropped: bool = False,
        slas=None,
        block: int = 4096,
    ) -> None:
        """Fold a chunk of same-path outcomes in vectorized passes.

        Array counterpart of :meth:`observe` for one ``path_label`` at a
        time (callers group outcomes by path; a dispatch batch shares its
        path by construction). ``accuracies``/``energies``/``slas`` accept
        scalars or per-query arrays; ``slas=None`` applies the run-level
        target. ``dropped`` marks the whole chunk as shed.

        Counter metrics (throughput, violation/drop rates, breakdowns)
        and the accuracy-weighted sums (correct-prediction throughputs,
        mean accuracy) are exactly the per-sample values; the reservoir
        consumes its uniforms bit-identically.  The energy total is a
        float sum, equal only up to accumulation order, and P²
        percentile estimates agree to estimator accuracy — pinned in
        ``tests/property/test_prop_engine_parity.py``.
        """
        sizes = np.asarray(sizes, dtype=np.int64)
        m = int(sizes.size)
        if m == 0:
            return
        finishes = np.asarray(finishes, dtype=np.float64)
        self.n += m
        self._path_counts[path_label] += m
        self._max_finish = max(self._max_finish, float(finishes.max()))
        if dropped:
            self.n_dropped += m
            self.n_violations += m
            return
        arrivals = np.asarray(arrivals, dtype=np.float64)
        del starts  # observe() never reads start_s either
        sla = np.broadcast_to(
            np.asarray(
                self.sla_s if slas is None else slas, dtype=np.float64
            ),
            (m,),
        )
        accuracy = np.broadcast_to(
            np.asarray(accuracies, dtype=np.float64), (m,)
        )
        self.total_samples += int(sizes.sum())
        latency = finishes - arrivals
        _tally(self._served_by_accuracy, accuracy, sizes)
        if np.ndim(energies):
            self._energy_sum += float(
                np.asarray(energies, dtype=np.float64).sum()
            )
        else:
            self._energy_sum += float(energies) * m
        violated = latency > sla
        self.n_violations += int(violated.sum())
        _tally(
            self._compliant_by_accuracy, accuracy[~violated], sizes[~violated]
        )
        if m < P2Quantile._CHUNK_MIN:
            # Small folds replay the per-sample estimators (bit-equal to
            # a plain observe() loop), mirroring P2Quantile.observe_many.
            for x in latency.tolist():
                for estimator in self._estimators.values():
                    estimator.observe(x)
            self._reservoir.observe_many(latency)
            return
        for start in range(0, m, block):
            chunk = latency[start:start + block]
            ordered = np.sort(chunk)
            for estimator in self._estimators.values():
                estimator.observe_sorted(ordered)
            self._reservoir.observe_many(chunk)

    def observe_record(self, record: QueryRecord, sla_s: float | None = None) -> None:
        """Fold one materialized :class:`QueryRecord` (record-sink shim)."""
        self.observe(
            record.size, record.arrival_s, record.start_s, record.finish_s,
            record.path_label, record.accuracy, energy_j=record.energy_j,
            dropped=record.dropped,
            sla_s=record.sla_s if sla_s is None else sla_s,
        )

    # ---- core paper metrics ----------------------------------------------

    @property
    def makespan_s(self) -> float:
        """Time from the epoch to the latest observed finish."""
        return self._max_finish

    @property
    def correct_prediction_throughput(self) -> float:
        """QPS x QuerySize x Accuracy, aggregated (Section 5.4)."""
        span = self.makespan_s
        correct = _weighted(self._served_by_accuracy) / 100.0
        return correct / span if span > 0 else 0.0

    @property
    def compliant_correct_throughput(self) -> float:
        """Correct predictions per second over SLA-compliant queries only."""
        span = self.makespan_s
        correct = _weighted(self._compliant_by_accuracy) / 100.0
        return correct / span if span > 0 else 0.0

    @property
    def achieved_qps(self) -> float:
        """Queries handled per second of makespan (served and dropped)."""
        span = self.makespan_s
        return self.n / span if span > 0 else 0.0

    @property
    def violation_rate(self) -> float:
        """Fraction of queries late or dropped against their SLA target."""
        return self.n_violations / self.n if self.n else 0.0

    @property
    def drop_rate(self) -> float:
        """Fraction of queries shed before execution."""
        return self.n_dropped / self.n if self.n else 0.0

    @property
    def mean_accuracy(self) -> float:
        """Sample-weighted accuracy of served predictions (percent)."""
        if self.total_samples == 0:
            return 0.0
        return _weighted(self._served_by_accuracy) / self.total_samples

    @property
    def total_energy_j(self) -> float:
        """Device energy spent on served queries, in joules."""
        return self._energy_sum

    # ---- distributions ------------------------------------------------------

    def latency_percentile(self, q: float) -> float:
        """Percentile over served latencies: P² for the named percentiles,
        reservoir estimate otherwise."""
        estimator = self._estimators.get(float(q))
        if estimator is not None:
            return estimator.value
        return self._reservoir.percentile(q)

    def switching_breakdown(self) -> dict[str, float]:
        """Fraction of queries served by each path (Figure 15)."""
        if not self.n:
            return {}
        return {
            label: count / self.n
            for label, count in sorted(self._path_counts.items())
        }


def _tally(counts: Counter, accuracy: np.ndarray, sizes: np.ndarray) -> None:
    """Add each accuracy value's sample count (parallel arrays)."""
    if sizes.size and (accuracy == accuracy[0]).all():
        counts[float(accuracy[0])] += int(sizes.sum())  # one shared path
        return
    keys, inverse = np.unique(accuracy, return_inverse=True)
    totals = np.bincount(inverse, weights=sizes, minlength=keys.size)
    counts.update(dict(zip(keys.tolist(), totals.astype(np.int64).tolist())))


def _weighted(counts: Counter) -> float:
    """Sum of accuracy x samples, in key order: one float per multiset."""
    return sum(accuracy * n for accuracy, n in sorted(counts.items()))
