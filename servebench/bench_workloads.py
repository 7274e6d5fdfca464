"""The benchmark's three workloads: build, generate, simulate, check.

Each workload drives the serving simulator through the public entry
points ``repro serve`` uses — an ``experiments.setup`` builder, then the
simulator's ``run_streaming`` — on inputs generated from the run's seed.
The ``repro`` imports sit inside the functions so that the parent
process (which never simulates) stays free of them; a child process
imports ``repro`` once, under its own timer, before calling in here.

See README.md in this directory for why each workload was chosen and
which layers it loads or bypasses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

MiB = 2**20
POSITIVE = "> 0"


@dataclass(frozen=True)
class Workload:
    """One fixed serving configuration and how to measure it."""

    name: str
    cli: str  # the closest `repro serve` command line
    queries: int  # simulated queries generated per pass
    cold_runs: int  # fresh interpreters that make the whole cold pass
    warm_repeats: int  # sim_qps samples per run, dealt over those
    build: object  # () -> simulator
    generate: object  # (seed, n_queries) -> (scenario, region_of | None)
    simulate: object  # (simulator, inputs) -> result
    warm_group: int = 1  # back-to-back warm simulates timed as one sample
    # Work counts this workload must show: a number, or POSITIVE.
    expect: dict = field(default_factory=dict)


# ---- node-fastpath-day -----------------------------------------------------


def _build_node():
    from repro.experiments.setup import build_schedulers
    from repro.models.configs import KAGGLE
    from repro.serving.simulator import ServingSimulator

    return ServingSimulator(
        build_schedulers(KAGGLE)["mp-rec"], shed_policy="deadline-aware",
        max_batch_size=256, batch_timeout_s=0.004, engine="fast",
    )


def _generate_node(seed: int, n_queries: int):
    from repro.serving.workload import ServingScenario

    scenario = ServingScenario.with_process(
        "diurnal", n_queries=n_queries, qps=24000.0, sla_s=0.010, seed=seed,
    )
    return scenario, None


def _simulate_node(sim, inputs):
    return sim.run_streaming(inputs[0])


# ---- fleet-autopilot-burst -------------------------------------------------


def _build_fleet():
    from repro.experiments.setup import build_autopilot_cluster
    from repro.hardware.topology import CLUSTER_LINKS
    from repro.models.configs import KAGGLE

    return build_autopilot_cluster(
        KAGGLE, min_nodes=1, max_nodes=8, router="least-loaded",
        replication=1, link=CLUSTER_LINKS["eth-100g"],
        shed_policy="deadline-aware", max_batch_size=32,
        batch_timeout_s=0.002, max_queue=0,
        cache_bytes=64 * MiB, cache_policy="lru",
    )


def _generate_fleet(seed: int, n_queries: int):
    from repro.serving.workload import ServingScenario

    # A 0.5 s day at 0.8 amplitude: the load swings 0.2x..1.8x of the
    # mean twice a simulated second, so one pass holds 15 bursts of the
    # same shape (see README.md for why not MMPP).
    scenario = ServingScenario.with_process(
        "diurnal", n_queries=n_queries, qps=20000.0, sla_s=0.010, seed=seed,
        period_s=0.5, amplitude=0.8,
    )
    return scenario, None


def _simulate_cluster(sim, inputs):
    return sim.run_streaming(inputs[0])


# ---- geo-spill-day ---------------------------------------------------------

_GEO_REGIONS = 3


def _build_geo():
    from repro.experiments.setup import build_regions
    from repro.hardware.topology import CLUSTER_LINKS
    from repro.models.configs import KAGGLE

    return build_regions(
        KAGGLE, _GEO_REGIONS, nodes_per_region=4, wan="wan-metro",
        geo_router="spill", region_replication=1, scheduler="mp-rec",
        router="least-loaded", replication=1, link=CLUSTER_LINKS["eth-100g"],
        shed_policy="deadline-aware", max_batch_size=32,
        batch_timeout_s=0.002, max_queue=0,
        cache_bytes=64 * MiB, cache_policy="static",
    )


def _generate_geo(seed: int, n_queries: int):
    from repro.experiments.setup import follow_the_sun_scenario

    per_region, qps = n_queries // _GEO_REGIONS, 6000.0
    # Two follow-the-sun days per pass: every region's peak comes round
    # twice, so the mix of hot and calm regions is the same for every seed.
    return follow_the_sun_scenario(
        n_regions=_GEO_REGIONS, n_queries=per_region, qps=qps, sla_s=0.050,
        period_s=per_region / qps / 2, seed=seed,
    )


def _simulate_geo(sim, inputs):
    scenario, region_of = inputs
    return sim.run_streaming(scenario, region_of)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="node-fastpath-day",
            cli="repro serve --fastpath --streaming --arrivals diurnal "
                "--qps 24000 --max-batch 256 --batch-timeout-ms 4 "
                "--shed-policy deadline-aware --queries 1000000",
            queries=1_000_000, cold_runs=2, warm_repeats=3, warm_group=4,
            build=_build_node, generate=_generate_node,
            simulate=_simulate_node,
            expect={"experiments.setup.cache_effect.calls": 4,
                    "serving.fastpath.batches": POSITIVE,
                    "serving.metrics.observe_many.calls": POSITIVE,
                    "serving.engine.events": 0,
                    "serving.controlplane.ticks": 0,
                    "serving.routing.select_node.calls": 0,
                    "serving.cache.lookups": 0},
        ),
        Workload(
            name="fleet-autopilot-burst",
            cli="repro serve --autopilot --nodes 8 --min-nodes 1 "
                "--router least-loaded --cache-mb 64 --arrivals diurnal "
                "--qps 20000 --max-batch 32 --batch-timeout-ms 2 "
                "--shed-policy deadline-aware --streaming "
                "--trace-decisions 0 --queries 110000 "
                "(diurnal period 0.5 s, amplitude 0.8)",
            queries=110_000, cold_runs=2, warm_repeats=4,
            build=_build_fleet, generate=_generate_fleet,
            simulate=_simulate_cluster,
            expect={"experiments.setup.cache_effect.calls": 4,
                    "serving.engine.events": POSITIVE,
                    "serving.controlplane.ticks": POSITIVE,
                    "serving.cluster.scale_ups": POSITIVE,
                    "serving.cache.fill_bytes": POSITIVE,
                    "serving.fastpath.batches": 0,
                    "serving.region.select_region.calls": 0},
        ),
        Workload(
            name="geo-spill-day",
            cli="repro serve --regions 3 --nodes 4 --router least-loaded "
                "--sla-ms 50 --cache-mb 64 --cache-policy static "
                "--max-batch 32 --batch-timeout-ms 2 "
                "--shed-policy deadline-aware --streaming --qps 6000 "
                "--queries 36000 (two days per pass: period 3 s)",
            queries=108_000, cold_runs=1, warm_repeats=3,
            build=_build_geo, generate=_generate_geo, simulate=_simulate_geo,
            expect={"experiments.setup.cache_effect.calls": 12,
                    "serving.engine.events": POSITIVE,
                    "serving.region.spills": POSITIVE,
                    "serving.engine.free_probe.calls": POSITIVE,
                    "serving.fastpath.batches": 0,
                    "serving.controlplane.ticks": 0},
        ),
    )
}


# ---- reading a result --------------------------------------------------------


@dataclass
class Outcome:
    """What every workload's result reduces to, whatever its type."""

    metrics: object  # the global StreamingMetrics
    served: int
    shed: int  # dropped by the shed policy at dispatch
    lost: int  # displaced by a failure and unservable
    edge_drops: int  # refused at a cluster or region edge
    cost_j: float  # fleet J-eq: device, idle, waste and WAN, as applicable
    counters: dict  # layer counts read off the result
    per_region: list = field(default_factory=list)  # by home region (geo)


def outcome(result) -> Outcome:
    """Reduce a ``StreamingMetrics`` / ``ClusterResult`` / ``RegionResult``."""
    from repro.serving.cluster import ClusterResult
    from repro.serving.region import RegionResult

    if isinstance(result, RegionResult):
        m = result.result
        cross = result.cross_region
        counters = {
            "serving.region.spills": result.spills,
            "serving.region.spill_ok_ratio": (
                1.0 - cross.violation_rate if cross is not None and cross.n
                else 0.0
            ),
            "serving.wan.bytes": result.wan_bytes,
            "serving.cluster.node_seconds": result.node_seconds,
        }
        out = Outcome(
            m, sum(result.per_region_served), sum(result.per_region_dropped),
            result.lost, result.edge_drops, result.total_cost_j, counters,
            per_region=list(result.per_region),
        )
    elif isinstance(result, ClusterResult):
        m = result.result
        counters = {
            "serving.controlplane.decisions": len(result.control_decisions),
            "serving.cluster.scale_ups": result.scale_ups,
            "serving.cluster.node_seconds": result.node_seconds,
        }
        out = Outcome(
            m, sum(result.per_node_served), sum(result.per_node_dropped),
            result.lost, result.edge_drops,
            m.total_energy_j + result.idle_energy_j + result.wasted_energy_j,
            counters,
        )
    else:
        m = result
        out = Outcome(m, m.n - m.n_dropped, m.n_dropped, 0, 0,
                      m.total_energy_j, {})
    cache = getattr(result, "cache", None)
    if cache is None:  # no cache tier: nothing looked up or filled
        out.counters.update({"serving.cache.lookups": 0,
                             "serving.cache.hit_rate": 0.0,
                             "serving.cache.fill_bytes": 0})
    else:
        out.counters.update({"serving.cache.lookups": cache.lookups,
                             "serving.cache.hit_rate": cache.hit_rate,
                             "serving.cache.fill_bytes": cache.fill_bytes})
    out.counters["serving.policies.shed"] = out.shed
    return out


# Every counter ``outcome`` can read off a result; the others need a trace.
RESULT_COUNTERS = frozenset({
    "serving.region.spills", "serving.region.spill_ok_ratio",
    "serving.wan.bytes", "serving.cluster.node_seconds",
    "serving.controlplane.decisions", "serving.cluster.scale_ups",
    "serving.cache.lookups", "serving.cache.hit_rate",
    "serving.cache.fill_bytes", "serving.policies.shed",
})


def modelled(out: Outcome) -> dict:
    """The modelled system's end-to-end metrics (simulated time)."""
    m = out.metrics
    return {
        "correct_tput": m.correct_prediction_throughput,
        "p50_ms": m.p50_latency_s * 1e3,
        "p99_ms": m.p99_latency_s * 1e3,
        "sla_miss_rate": m.violation_rate,
        "accuracy_pct": m.mean_accuracy,
        "cost_mj_per_query": out.cost_j / m.n * 1e3 if m.n else 0.0,
    }


def fingerprint(result, out: Outcome) -> dict:
    """Every simulated number a repeat must reproduce bit for bit."""
    m = out.metrics
    return {
        "summary": result.summary(),
        "modelled": modelled(out),
        "n": m.n,
        "n_dropped": m.n_dropped,
        "n_violations": m.n_violations,
        "served": out.served,
        "shed": out.shed,
        "lost": out.lost,
        "edge_drops": out.edge_drops,
        "counters": out.counters,
    }


def check(
    workload: Workload, out: Outcome, inputs, n_queries: int,
    layers: dict | None = None,
) -> list[str]:
    """Output violations of one pass; an empty list means correct.

    ``layers`` adds a traced pass's per-layer counts to the ones read off
    the result, so the mechanism checks cover both."""
    scenario, region_of = inputs
    generated = len(scenario.queries)
    m = out.metrics
    problems = []
    if generated != n_queries:
        problems.append(f"generated {generated} queries, asked for {n_queries}")
    if m.n != generated:
        problems.append(f"metrics saw {m.n} outcomes for {generated} queries")
    accounted = out.served + out.shed + out.lost + out.edge_drops
    if accounted != generated:
        problems.append(
            f"served {out.served} + shed {out.shed} + lost {out.lost} + "
            f"edge drops {out.edge_drops} = {accounted} != generated "
            f"{generated}"
        )
    if m.n_dropped != out.shed + out.lost + out.edge_drops:
        problems.append(
            f"metrics dropped {m.n_dropped} != shed + lost + edge drops "
            f"{out.shed + out.lost + out.edge_drops}"
        )
    if region_of is not None:
        homes = region_of.tolist()
        for home, metrics in enumerate(out.per_region):
            expected = homes.count(home)
            if metrics.n != expected:
                problems.append(
                    f"region {home}: {metrics.n} outcomes for {expected} "
                    "home queries"
                )
    for name, value in modelled(out).items():
        if not math.isfinite(value):
            problems.append(f"{name} is {value}")
    counts = {**out.counters, **(layers or {})}
    for name, want in workload.expect.items():
        if name not in counts:
            # An untraced pass only has the counts read off the result.
            if layers is not None or name in RESULT_COUNTERS:
                problems.append(f"{name} is missing, expected {want}")
            continue
        got = counts[name]
        if (got <= 0) if want == POSITIVE else (got != want):
            problems.append(f"{name} is {got}, expected {want}")
    return problems
