"""Serving-simulator benchmark: one command per workload.

    python3 servebench/run.py --workload <name> --seed <n> --seconds <s> \\
        --trace <0|1>

run from the repository root.  ``--trace 0`` prints every end-to-end
metric, ``--trace 1`` every per-layer metric; the last stdout line is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 when every output check passed, 1 when
one failed, 2 when the repository's ``src/`` is missing.

Each measurement runs in a fresh interpreter (``bench_child.py``), one at a
time, with every BLAS/OpenMP pool pinned to one thread and a fixed
``PYTHONHASHSEED``.  The work per run is fixed per workload — the same
inputs, the same number of interpreters and warm repeats — so two runs
of one seed measure the same thing; ``--seconds`` is recorded in the
stamp, not used to size the work (README.md says why).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import uuid
from pathlib import Path

from bench_metrics import EFFECTS, END_TO_END, PER_LAYER, deterministic
from bench_workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

OUT_DIR = ROOT / ".servebench"
DEADLINE_S = 170.0  # every run must end within 180 s
PINNED_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}


class ChildFailed(RuntimeError):
    """A child interpreter crashed, timed out or printed no result."""


def src_digest(src: Path) -> str:
    """sha256 over every source file under ``src/`` (paths and bytes)."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_sha() -> str:
    """The checkout's commit, or ``"none"`` outside a git work tree."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return done.stdout.strip() if done.returncode == 0 else "none"


def run_child(spec: dict, deadline: float) -> dict:
    """Run one fresh interpreter to completion and return its result."""
    env = dict(os.environ, **PINNED_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    spec = dict(spec, t_spawn=time.monotonic())
    try:
        done = subprocess.run(
            [sys.executable, str(HERE / "bench_child.py"), json.dumps(spec)],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"child timed out: {spec['workload']}") from exc
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise ChildFailed(
            f"child exited {done.returncode}:\n{done.stderr[-4000:]}"
        )
    return json.loads(lines[-1])


def compare_fingerprints(children: list[dict]) -> list[str]:
    """Every interpreter of one seed must simulate identical numbers."""
    first = children[0]["fingerprint"]
    return [
        f"interpreter {i + 1} simulated different metrics than the first"
        for i, child in enumerate(children[1:], start=1)
        if child["fingerprint"] != first
    ]


def measure(args, workload, deadline: float):
    """Untraced run: the end-to-end metrics."""
    n_queries = workload.queries
    base = {"workload": workload.name, "seed": args.seed,
            "queries": n_queries, "trace": False, "trace_path": None,
            "run_id": uuid.uuid4().hex, "group": workload.warm_group}
    # The warm samples are dealt out over the interpreters, first ones first.
    share, extra = divmod(workload.warm_repeats, workload.cold_runs)
    children = [
        run_child(dict(base, warm=share + (i < extra)), deadline)
        for i in range(workload.cold_runs)
    ]
    # Best-of-k for the timed passes: host noise only ever adds time.
    warm = [s for child in children for s in child["warm_sim_s"]]
    metrics = {
        "wall_s": min(c["wall_s"] for c in children),
        "setup_s": statistics.median(c["setup_s"] for c in children),
        "sim_qps": n_queries * workload.warm_group / min(warm),
        "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in children),
        **children[0]["modelled"],
    }
    return children, metrics, compare_fingerprints(children)


def trace(args, workload, deadline: float):
    """Traced run: one untraced pass for the overhead baseline, then two
    traced passes whose work counts must agree exactly."""
    run_id = uuid.uuid4().hex
    OUT_DIR.mkdir(exist_ok=True)
    base = {"workload": workload.name, "seed": args.seed,
            "queries": workload.queries, "warm": 0, "run_id": run_id}
    plain = run_child(dict(base, trace=False, trace_path=None), deadline)
    traced = [
        run_child(dict(
            base, trace=True,
            trace_path=str(OUT_DIR / f"trace-{workload.name}-seed{args.seed}"
                                     f"-{i}.json"),
        ), deadline)
        for i in range(2)
    ]
    problems = compare_fingerprints([plain, *traced])
    counts = [
        {m.name: t["layers"][m.name] for m in PER_LAYER if deterministic(m)}
        for t in traced
    ]
    if counts[0] != counts[1]:
        differing = sorted(k for k in counts[0] if counts[0][k] != counts[1][k])
        problems.append(f"traced work counts differ: {differing}")
    layers = dict(traced[0]["layers"])
    for metric in PER_LAYER:
        if not deterministic(metric):
            layers[metric.name] = statistics.median(
                t["layers"][metric.name] for t in traced
            )
    events = layers["serving.engine.events"]
    layers["serving.engine.host_us_per_event"] = (
        plain["sim_s"] / events * 1e6 if events else 0.0
    )
    traced_wall = statistics.median(t["wall_s"] for t in traced)
    layers["trace.overhead_pct"] = (traced_wall / plain["wall_s"] - 1) * 100
    return [plain, *traced], layers, problems


def stamp(args, workload, child: dict | None) -> dict:
    """Enough to tell two result sets apart."""
    return {
        "workload": workload.name,
        "cli": workload.cli,
        "seed": args.seed,
        "queries": workload.queries,
        "warm_samples": workload.warm_repeats,
        "warm_group": workload.warm_group,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "src_digest": src_digest(ROOT / "src"),
        "python": platform.python_version(),
        "numpy": child["versions"]["numpy"] if child else None,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": child["blas_threads"] if child else None,
    }


def report(workload, metrics: dict, trace_mode: bool) -> None:
    """Human-readable lines, before the JSON line."""
    if trace_mode:
        print(f"per-layer metrics for {workload.name} "
              "(value | expected end-to-end effect):")
        for m in PER_LAYER:
            print(f"  {m.name:40s} {metrics[m.name]:>16.6g} {m.unit:6s}"
                  f" | {EFFECTS.get(m.name, '')}")
    else:
        print(f"end-to-end metrics for {workload.name}:")
        for m in END_TO_END:
            print(f"  {m.name:18s} {metrics[m.name]:>16.6g} {m.unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no simulator sources at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    workload = WORKLOADS[args.workload]
    n_queries = workload.queries
    try:
        if args.trace:
            children, metrics, problems = trace(args, workload, deadline)
        else:
            children, metrics, problems = measure(args, workload, deadline)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        children, metrics, problems = [], {}, [str(exc)]
    for child in children:
        problems.extend(child["violations"])

    print("stamp: " + json.dumps(stamp(
        args, workload, children[0] if children else None)))
    names = PER_LAYER if args.trace else END_TO_END
    if children:
        # Both modes print the modelled metrics, so a traced and an
        # untraced run of one seed can be compared line for line.
        print("simulated: " + json.dumps(children[0]["modelled"]))
        # Every host-time sample behind the reported best / median.
        print("host samples: " + json.dumps({
            key: [c[key] for c in children]
            for key in ("wall_s", "setup_s", "warm_sim_s")
        }))
    if metrics:
        report(workload, metrics, bool(args.trace))
    for problem in dict.fromkeys(problems):
        print(f"CHECK FAILED: {problem}")
    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": n_queries,
        "failed": 0 if correct else n_queries,
        "metrics": {
            m.name: {"value": metrics.get(m.name, 0.0), "unit": m.unit}
            for m in names
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
