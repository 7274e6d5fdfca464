"""Metric table: names and units from ``BENCHMARK.json``, effects from here.

``BENCHMARK.json`` at the repository root is the one place that names the
metrics and gives their units, directions and bounds.  ``END_TO_END`` are
reported by an untraced run, ``PER_LAYER`` by a traced one, in the order
the file lists them.  What this module adds is the end-to-end effect each
per-layer metric is expected to have, printed beside its value.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str


def _load(section: str) -> tuple[Metric, ...]:
    table = json.loads(BENCHMARK_JSON.read_text())[section]
    return tuple(Metric(m["name"], m["unit"]) for m in table)


END_TO_END = _load("end_to_end")
PER_LAYER = _load("per_layer")

_IMPORTS = "setup_s, wall_s on every workload; largest share on node"
_SETUP = "setup_s and peak_rss_mb; most on geo"
_GEN = "wall_s on node; ~0 elsewhere"
_FAST = "sim_qps on node; absent elsewhere"
_KERNEL = "sim_qps on fleet and geo; 0 on node"
_GEO_HOST = "sim_qps on geo only"
_GEO_MODEL = "sla_miss_rate and cost_mj_per_query on geo"
_CACHE = ("correct_tput and p99_ms on fleet (LRU) and geo (static); the "
          "lazy CDF build moves wall_s on fleet, not sim_qps")
_CONTROL = "sim_qps, cost_mj_per_query and sla_miss_rate on fleet only"

# The end-to-end effect each per-layer metric predicts.
EFFECTS = {
    "imports.s": _IMPORTS,
    "imports.scipy_modules": _IMPORTS,
    "experiments.setup.cache_effect.calls":
        _SETUP + " (4 / 4 / 12 on node / fleet / geo)",
    "experiments.setup.cache_effect.s": _SETUP,
    "data.zipf.samplers": _SETUP,
    "data.zipf.rows": _SETUP,
    "core.offline.plan.calls": _SETUP,
    "core.offline.plan.s": _SETUP,
    "experiments.setup.build_s": _SETUP,
    "data.queries.gen_s": _GEN,
    "data.queries.queries": _GEN,
    "serving.fastpath.run.s": _FAST,
    "serving.fastpath.plan_batches.s": _FAST,
    "serving.fastpath.batches": _FAST,
    "serving.metrics.observe_many.calls": _FAST,
    "serving.metrics.observe_many.s": _FAST,
    "serving.engine.events": _KERNEL,
    "serving.engine.dispatch.calls": _KERNEL,
    "serving.engine.dispatch.s": _KERNEL,
    "serving.engine.queries_per_batch": _KERNEL,
    "serving.engine.host_us_per_event": _KERNEL,
    "core.online.select_batch.calls": _KERNEL,
    "core.online.select_batch.s": _KERNEL,
    "core.paths.latency.calls": _KERNEL,
    "core.paths.latency.s": _KERNEL,
    "serving.routing.select_node.calls": _KERNEL,
    "serving.routing.select_node.s": _KERNEL,
    "serving.metrics.observe.calls": _KERNEL,
    "serving.metrics.observe.s": _KERNEL,
    "serving.engine.free_probe.calls": _GEO_HOST,
    "serving.region.self_s": _GEO_HOST,
    "serving.region.select_region.calls": _GEO_HOST,
    "serving.region.spills": _GEO_MODEL,
    "serving.region.spill_ok_ratio": _GEO_MODEL,
    "serving.wan.bytes": _GEO_MODEL,
    "serving.cache.lookups": _CACHE,
    "serving.cache.hit_rate": _CACHE,
    "serving.cache.fill_bytes": _CACHE,
    "serving.cache.s": _CACHE,
    "core.mp_cache.popularity_cdf.calls": _CACHE,
    "core.mp_cache.popularity_cdf.s": _CACHE,
    "serving.controlplane.ticks": _CONTROL,
    "serving.controlplane.tick_s": _CONTROL,
    "serving.controlplane.decisions": _CONTROL,
    "serving.controlplane.commit_ratio": _CONTROL,
    "serving.cluster.scale_ups": _CONTROL,
    "serving.cluster.node_seconds": _CONTROL,
    "serving.policies.shed": "sla_miss_rate on every workload",
    "serving.metrics.summary.s": "wall_s",
    "trace.overhead_pct": "traced wall_s against untraced wall_s",
}

# Units of host-time measurements; every other per-layer value is a work
# count or a simulated quantity and must repeat exactly between traces.
TIMED_UNITS = ("s", "us", "%")


def deterministic(metric: Metric) -> bool:
    """True when two traced runs of one seed must agree exactly."""
    return metric.unit not in TIMED_UNITS
