"""Tests of the benchmark itself: its outputs repeat, its checks catch wrong
outputs, its tracer accounts for every op's time, and BENCHMARK.json lists
exactly the metrics the code reports."""

from __future__ import annotations

import json

import pytest

import run
import workloads
from spans import Tracer, layer_metrics, per_layer_metrics


@pytest.fixture(scope="module")
def runner():
    return run.Runner()


def cycle_digest(runner, workload: str, seed: int, workdir) -> str:
    workdir.mkdir()
    ops = workloads.WORKLOADS[workload].prepare(seed, workdir, runner.gen)
    phase = run.Phase(runner, ops).run(0)
    assert phase.failures == []
    return phase.digest


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_digest_repeats_across_runs(runner, workload, tmp_path):
    first = cycle_digest(runner, workload, 3, tmp_path / "a")
    assert cycle_digest(runner, workload, 3, tmp_path / "b") == first


def test_sweep_csv_is_independent_of_thread_count(runner, monkeypatch, tmp_path):
    # 500 trials at n=14 make two chunks, so the default runs two threads
    op = next(
        op for op in workloads.prepare_sweep(3, tmp_path, runner.gen)
        if op.argv[2] == "km" and op.argv[6] == "14..14"
    )
    monkeypatch.delenv("USO_THREADS", raising=False)
    default = runner(op.argv)
    monkeypatch.setenv("USO_THREADS", "1")
    single = runner(op.argv)
    assert default[0] == single[0] == 0
    assert default[1] == single[1]
    assert op.check(single[1]) is None


def test_checks_reject_wrong_outputs(runner, tmp_path):
    path = tmp_path / "c.uso"
    runner.gen(["gen", "--family", "cyclic-lb", "--n", "4", "--out", str(path)])
    outmaps = workloads._read_outmaps(path)
    _, analysis, _ = runner(["analyze", str(path)])
    assert workloads.check_analyze("cyclic-lb", 4, outmaps)(analysis) is None
    assert "closed form" in workloads.check_analyze("km", 4, outmaps)(analysis)
    _, solved, _ = runner(["solve", str(path), "--algo", "fs"])
    assert workloads.check_solve(4, outmaps)(solved) is None
    wrong = json.loads(solved) | {"sink": (json.loads(solved)["sink"] + 1) % 16}
    assert "sink" in workloads.check_solve(4, outmaps)(json.dumps(wrong))
    _, sweep, _ = runner(["bench", "--family", "km", "--algo", "re", "--n", "5..5", "--trials", "4"])
    assert workloads.check_sweep("km", "re", 5, 4)(sweep) is None
    assert "rows" in workloads.check_sweep("km", "re", 5, 4)(sweep.rsplit("\n", 2)[0] + "\n")
    assert workloads.check_census("{}\n") is not None


def test_tracer_sees_calls_where_callers_look_them_up(runner):
    import usolib.enumeration

    original = usolib.enumeration.canonical_form
    tracer = Tracer()
    tracer.install()
    try:
        tracer.op = 0
        rc, out, wall = runner(["enum", "--n", "3", "--census"])
    finally:
        tracer.uninstall()
    assert rc == 0 and usolib.enumeration.canonical_form is original
    metrics = layer_metrics([], tracer.spans, tracer.counts, 0, [wall])
    assert metrics["core.canonical_form.calls"] == 744
    assert metrics["reach.niceness_index.calls"] == 744
    assert metrics["reach.reach_table.calls"] == 744  # called inside niceness_index
    assert metrics["enumeration.enumerate_all.orientations"] == 744
    assert 0 <= metrics["trace.unaccounted_frac"] < 0.05


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in workloads.WORKLOADS.values()
    }
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == per_layer_metrics()
