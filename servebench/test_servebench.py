"""The benchmark's own tests, at a tiny query count.

Run with ``PYTHONPATH=src python -m pytest -q servebench`` from the
repository root.  The end-to-end tests call ``run.main`` in-process, with
the fleet workload (the cheapest one whose mechanism checks hold at a few
thousand queries) shrunk to a tiny query count; ``run.main`` still runs
its child interpreters exactly as the benchmark does.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import bench_workloads  # noqa: E402
import run  # noqa: E402
from bench_metrics import EFFECTS, END_TO_END  # noqa: E402

TINY = 4000
WORKLOAD = "fleet-autopilot-burst"
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _tiny_workload():
    return dataclasses.replace(bench_workloads.WORKLOADS[WORKLOAD],
                               queries=TINY)


def _bench(trace: int) -> tuple[int, list[str], dict]:
    out = io.StringIO()
    with pytest.MonkeyPatch.context() as patch, \
            contextlib.redirect_stdout(out):
        patch.setitem(run.WORKLOADS, WORKLOAD, _tiny_workload())
        code = run.main(["--workload", WORKLOAD, "--seed", "5",
                         "--seconds", "1", "--trace", str(trace)])
    lines = out.getvalue().strip().splitlines()
    return code, lines, json.loads(lines[-1])


@pytest.fixture(scope="module")
def untraced():
    return _bench(0)


@pytest.fixture(scope="module")
def traced():
    return _bench(1)


def _simulated(lines: list[str]) -> dict:
    (line,) = [x for x in lines if x.startswith("simulated: ")]
    return json.loads(line.removeprefix("simulated: "))


def test_metric_table_comes_from_benchmark_json():
    assert BENCH["command"] == ["python3", "servebench/run.py"]
    assert [w["name"] for w in BENCH["workloads"]] == list(
        bench_workloads.WORKLOADS
    )
    assert [m.name for m in END_TO_END] == [
        m["name"] for m in BENCH["end_to_end"]
    ]
    # Every per-layer metric has its expected effect, and no other has one.
    assert set(EFFECTS) == {m["name"] for m in BENCH["per_layer"]}


def test_untraced_result_shape(untraced):
    code, lines, result = untraced
    assert code == 0, lines
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert (result["attempted"], result["failed"]) == (TINY, 0)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCH["end_to_end"]
    }
    assert all(v["value"] > 0 for v in result["metrics"].values())
    stamp = json.loads(lines[0].removeprefix("stamp: "))
    assert {"git_sha", "src_digest", "python", "numpy", "nproc",
            "blas_threads", "seed", "queries"} <= set(stamp)


def test_traced_result_shape_and_same_simulation(untraced, traced):
    code, lines, result = traced
    assert code == 0, lines
    assert result["correct"] is True
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCH["per_layer"]
    }
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert values["serving.engine.events"] > 0
    assert values["serving.fastpath.batches"] == 0
    assert values["experiments.setup.cache_effect.calls"] == 4
    assert _simulated(lines) == _simulated(untraced[1])


@pytest.fixture(scope="module")
def tiny_pass():
    """One in-process pass of the tiny fleet workload: its outcome and
    inputs, checked by the tests below after they break something."""
    pytest.importorskip("repro")
    workload = _tiny_workload()
    inputs = workload.generate(5, TINY)
    out = bench_workloads.outcome(workload.simulate(workload.build(), inputs))
    assert bench_workloads.check(workload, out, inputs, TINY) == []
    return workload, out, inputs


def test_broken_accounting_is_caught(tiny_pass):
    workload, out, inputs = tiny_pass
    out = dataclasses.replace(out, served=out.served - 1)  # a query vanishes
    problems = bench_workloads.check(workload, out, inputs, TINY)
    assert any("!= generated" in p for p in problems)


def test_missing_or_wrong_work_count_is_caught(tiny_pass):
    workload, out, inputs = tiny_pass
    counters = dict(out.counters)
    del counters["serving.cluster.scale_ups"]
    renamed = dataclasses.replace(out, counters=counters)
    assert bench_workloads.check(workload, renamed, inputs, TINY) == [
        "serving.cluster.scale_ups is missing, expected > 0"
    ]
    # A traced pass must carry every expected count, at its expected value.
    layers = {name: 1 for name in workload.expect}
    layers["experiments.setup.cache_effect.calls"] = 12
    del layers["serving.engine.events"]
    assert set(bench_workloads.check(workload, out, inputs, TINY, layers)) >= {
        "serving.engine.events is missing, expected > 0",
        "experiments.setup.cache_effect.calls is 12, expected 4",
        "serving.fastpath.batches is 1, expected 0",
    }


def test_failed_check_fails_the_run(monkeypatch, capsys):
    def broken_child(spec, deadline):
        return {"fingerprint": {}, "violations": ["accounting broken"],
                "wall_s": 1.0, "setup_s": 1.0, "warm_sim_s": [1.0],
                "peak_rss_mb": 1.0,
                "modelled": {m.name: 1.0 for m in END_TO_END[4:]},
                "versions": {"numpy": "0"}, "blas_threads": "1"}

    monkeypatch.setattr(run, "run_child", broken_child)
    monkeypatch.setitem(run.WORKLOADS, WORKLOAD, _tiny_workload())
    code = run.main(["--workload", WORKLOAD, "--seed", "1", "--trace", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] == TINY
