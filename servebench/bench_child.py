"""One fresh interpreter's pass over one workload (run by ``run.py``).

The argument is a JSON spec: ``workload``, ``seed``, ``queries``,
``warm`` (timed warm samples after the cold pass), ``group`` (warm
simulates per sample), ``trace`` (bool),
``t_spawn`` (the parent's ``time.monotonic()`` just before it started
this process — CLOCK_MONOTONIC is system-wide, so host times count from
interpreter start), ``run_id`` and ``trace_path``.

The pass: import ``repro`` -> build the simulator (``setup_s``) ->
generate the inputs -> simulate once, cold -> build the summary
(``wall_s``) -> check the outputs -> ``warm`` samples of ``group``
warm simulates each: build a fresh simulator, simulate the same inputs
again, timed, and require the same simulated numbers; a sample's time is
the sum of its simulate calls.  The last stdout line is the result as
JSON.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import sys
import time
from contextlib import nullcontext

from bench_metrics import PER_LAYER
from bench_tracer import Tracer, instrument
from bench_workloads import WORKLOADS, check, fingerprint, modelled, outcome


def _layers(tracer: Tracer, out, imports_s: float, n_scipy: int,
            n_queries: int) -> dict:
    """Every per-layer metric this pass can give (the parent adds the two
    that compare against an untraced pass)."""
    totals = tracer.totals()
    counters = tracer.counters

    def calls(key):
        return totals.get(key, (0, 0.0))[0]

    def seconds(key):
        return totals.get(key, (0, 0.0))[1]

    def spans(name):
        found = tracer.named(name)
        return len(found), sum(s.duration for s in found)

    effect_calls, effect_s = spans("experiments.setup.cache_effect")
    plan_calls, plan_s = spans("core.offline.plan")
    ticks, tick_s = spans("serving.controlplane.tick")
    arbitrations = calls("serving.controlplane.arbitrate")
    dispatches = calls("serving.engine.dispatch")
    simulate = tracer.named("simulate")[0]
    layers = {
        "imports.s": imports_s,
        "imports.scipy_modules": n_scipy,
        "experiments.setup.cache_effect.calls": effect_calls,
        "experiments.setup.cache_effect.s": effect_s,
        "data.zipf.samplers": counters.get("data.zipf.samplers", 0),
        "data.zipf.rows": counters.get("data.zipf.rows", 0),
        "core.offline.plan.calls": plan_calls,
        "core.offline.plan.s": plan_s,
        "experiments.setup.build_s": tracer.named("setup")[0].duration,
        "data.queries.gen_s": tracer.named("generate")[0].duration,
        "data.queries.queries": n_queries,
        "serving.fastpath.run.s": spans("serving.fastpath.run")[1],
        "serving.fastpath.plan_batches.s":
            seconds("serving.fastpath.plan_batches"),
        "serving.fastpath.batches":
            counters.get("serving.fastpath.batches", 0),
        "serving.engine.queries_per_batch":
            (out.served + out.shed) / dispatches if dispatches else 0.0,
        # Self time of the region simulate call; only geo has one.
        "serving.region.self_s":
            simulate.self_s if "serving.region.spills" in out.counters
            else 0.0,
        "serving.cache.s": seconds("serving.cache"),
        "serving.controlplane.ticks": ticks,
        "serving.controlplane.tick_s": tick_s,
        "serving.controlplane.commit_ratio":
            counters.get("serving.controlplane.commits", 0) / arbitrations
            if arbitrations else 0.0,
        "serving.metrics.summary.s": tracer.named("summary")[0].duration,
    }
    for key in ("serving.metrics.observe_many", "serving.engine.dispatch",
                "core.online.select_batch", "core.paths.latency",
                "serving.routing.select_node", "serving.metrics.observe",
                "core.mp_cache.popularity_cdf"):
        layers[f"{key}.calls"] = calls(key)
        layers[f"{key}.s"] = seconds(key)
    for key in ("serving.engine.events", "serving.engine.free_probe.calls",
                "serving.region.select_region.calls"):
        layers[key] = calls(key.removesuffix(".calls"))
    for metric in PER_LAYER:
        layers.setdefault(metric.name, out.counters.get(metric.name, 0))
    return layers


def _record_cache_effects():
    """Record the cold build's analytic MP-Cache effects for warm rebuilds.

    ``default_cache_effect`` is a pure function of its arguments and most
    of a build's cost (seconds on geo).  Installed before the cold build,
    the wrapper computes every call as the program would (the builders
    repeat arguments, so it must not dedupe them there) and keeps the
    results.  Calling the returned function switches it to replaying
    them: the untimed warm rebuilds share the cold build's frozen
    results, so every other object of the simulator is still built fresh
    while a rebuild stays cheap.  The fingerprint check proves the rebuilt
    simulator simulates the same numbers."""
    from repro.experiments import setup

    compute = setup.default_cache_effect
    memo, replaying = {}, []

    def recorded(*args, **kwargs):
        key = repr((args, sorted(kwargs.items())))
        if not (replaying and key in memo):
            memo[key] = compute(*args, **kwargs)
        return memo[key]

    setup.default_cache_effect = recorded
    return lambda: replaying.append(True)


def main(spec: dict) -> dict:
    workload = WORKLOADS[spec["workload"]]
    n_queries = spec["queries"]
    tracer = Tracer(spec["run_id"]) if spec["trace"] else None

    def phase(name):
        return tracer.span(name) if tracer else nullcontext()

    with phase("run"):
        with phase("imports"):
            import numpy
            import repro.cli  # noqa: F401  (what `repro serve` loads)
            import repro.experiments.setup  # noqa: F401
        imports_s = time.monotonic() - spec["t_spawn"]
        n_scipy = sum(1 for m in sys.modules if m.split(".")[0] == "scipy")
        if tracer:
            instrument(tracer)
        if spec["warm"]:
            replay_cache_effects = _record_cache_effects()
        with phase("setup"):
            sim = workload.build()
        setup_s = time.monotonic() - spec["t_spawn"]
        gc.freeze()
        with phase("generate"):
            inputs = workload.generate(spec["seed"], n_queries)
        gc.freeze()
        with phase("simulate"):
            start = time.perf_counter()
            result = workload.simulate(sim, inputs)
            sim_s = time.perf_counter() - start
        with phase("summary"):
            out = outcome(result)
            first = fingerprint(result, out)
        wall_s = time.monotonic() - spec["t_spawn"]
        peak_rss_mb = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        )

    layers = None
    if tracer:
        layers = _layers(tracer, out, imports_s, n_scipy, n_queries)
        if spec["trace_path"]:
            tracer.write(spec["trace_path"])
    violations = check(workload, out, inputs, n_queries, layers)

    warm_sim_s = []
    if spec["warm"]:
        replay_cache_effects()
    with phase("warm"):
        for sample in range(spec["warm"]):
            took = 0.0
            for _ in range(spec.get("group", 1)):
                # Release the previous simulator before building its
                # successor, and freeze the new one as the cold pass froze
                # its own, so that every pass collects the same heap.
                del sim
                gc.unfreeze()
                gc.collect()
                sim = workload.build()
                gc.freeze()
                start = time.perf_counter()
                again = workload.simulate(sim, inputs)
                took += time.perf_counter() - start
                if fingerprint(again, outcome(again)) != first:
                    violations.append(f"warm sample {sample + 1} changed "
                                      "the simulated metrics")
            warm_sim_s.append(took)

    return {
        "workload": workload.name,
        "seed": spec["seed"],
        "queries": n_queries,
        "imports_s": imports_s,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "sim_s": sim_s,
        "warm_sim_s": warm_sim_s,
        "peak_rss_mb": peak_rss_mb,
        "modelled": modelled(out),
        "fingerprint": first,
        "layers": layers,
        "violations": violations,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
        },
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
