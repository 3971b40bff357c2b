"""The benchmark's own tests: run them with `python -m pytest perfbench/tests`.

They use tiny set-up sizes; a traced smoke run per workload takes under a
minute on two cores.
"""

import json
import shutil
import subprocess
import sys
import time

import pytest

import run
from tracer import Tracer

TINY = {"single_episodes": 2, "dual_episodes": 1, "epochs": 1, "setups": 2}
BENCHMARK_JSON = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module", params=sorted(run.WORKLOADS))
def traced(request, tmp_path_factory):
    out = tmp_path_factory.mktemp("out")
    return run.run(request.param, seed=3, seconds=0.0, trace=True, sizes=TINY, out_root=out)


def test_benchmark_json_matches_the_command():
    assert {w["name"] for w in BENCHMARK_JSON["workloads"]} <= set(run.WORKLOADS)
    gated = {m["name"]: m["unit"] for m in BENCHMARK_JSON["end_to_end"]}
    assert gated == {name: run.END_TO_END[name] for name in run.GATED}
    assert BENCHMARK_JSON["command"] == ["python3", "perfbench/run.py"]


def test_smoke_reports_every_metric_with_its_unit(traced):
    assert traced["failed"] == 0, traced["checks"]
    assert set(traced["end_to_end"]) == set(run.END_TO_END)
    for name, (value, unit) in traced["end_to_end"].items():
        assert unit == run.END_TO_END[name]
        assert value == value  # not NaN
    per_layer = {m["name"]: m["unit"] for m in BENCHMARK_JSON["per_layer"]}
    assert {k: u for k, (_, u) in traced["per_layer"].items()} == per_layer
    assert traced["per_layer"]["planner.search.calls"][0] >= 1
    assert traced["per_layer"]["expert.birrt.calls"][0] >= 2
    for trace in (False, True):
        line = run.final_line(traced, trace)
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] and line["attempted"] >= 1
        json.dumps(line)


def test_traced_run_stamps_its_result(traced):
    stamp = traced["stamp"]
    for key in ("git_sha", "nproc", "numpy", "blas", "blas_threads", "config_digest", "seed"):
        assert key in stamp
    assert stamp["seed"] == 3


def test_tampered_report_digest_fails_the_run(tmp_path, monkeypatch, capsys):
    real = run.report_digests

    def tampered(out_dir):
        digests = real(out_dir)
        if out_dir.name == "repeat":
            digests["report.csv"] = "0" * 64
        return digests

    monkeypatch.setattr(run, "report_digests", tampered)
    argv = ["--workload", "plan-spread", "--seed", "4", "--seconds", "0", "--trace", "0"]
    assert run.main(argv, sizes=TINY, out_root=tmp_path) == 1
    out = capsys.readouterr().out.strip().splitlines()
    assert "check FAILED: report_digest_repeat" in out
    last = json.loads(out[-1])
    assert last["correct"] is False and last["failed"] == 1


def test_worker_count_does_not_change_reports(tmp_path):
    from multiarm.bench import run_benchmark
    from multiarm.config import load_config

    cfg = load_config(run.CONFIG, {"data.single_episodes": 2, "data.dual_episodes": 1,
                                   "diffusion.epochs": 1})
    setup = run.set_up(cfg, tmp_path / "setup")
    policies = dict(setup.reloaded_policies)
    policies["paths"] = {f: str(tmp_path / "setup" / f"{f}.ckpt") for f in ("single", "dual")}
    cell = run.cell_config(cfg, {"n_arms": 2, "difficulty": "easy"}, seed=5, index=0)
    for workers in (1, 2):
        run_benchmark(cell, policies, run.METHODS, tmp_path / f"w{workers}", workers=workers)
    for name in ("report.csv", "episodes.jsonl"):
        assert (tmp_path / "w1" / name).read_bytes() == (tmp_path / "w2" / name).read_bytes()


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "plan-spread",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_self_time_excludes_child_spans():
    tracer = Tracer(keep=1)
    child = tracer.span("child", lambda: time.sleep(0.02))

    def parent():
        child()
        time.sleep(0.01)

    tracer.span("parent", parent)()
    assert tracer.calls("parent") == tracer.calls("child") == 1
    assert tracer.self_seconds("parent") == pytest.approx(
        tracer.seconds("parent") - tracer.seconds("child"))
    assert tracer.self_seconds("parent") < tracer.seconds("child")
    assert len(tracer.spans) == 1 and tracer.dropped == 1
