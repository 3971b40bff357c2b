import dataclasses
import hashlib
import json
import re
import struct
from pathlib import Path

import numpy as np
import pytest

from multiarm import cli
from multiarm import datasets as dsets
from multiarm import diffusion as dif
from multiarm.config import load_config
from multiarm.kinematics import BasePose, EEPose, make_arm
from multiarm.tasks import TaskSpec, generate_task, task_digest

from .conftest import with_header_key


def run_cli(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture(scope="module")
def small_cfg_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "small.yaml"
    path.write_text("""
diffusion:
  epochs: 2
  batch_size: 64
  learning_rate: 1.0e-3
data:
  birrt_max_iters: 2000
""")
    return str(path)


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory, small_cfg_file):
    out = tmp_path_factory.mktemp("data") / "single.mad"
    code = cli.main(["gen-data", "--config", small_cfg_file, "--family", "single",
                     "--episodes", "6", "--out", str(out), "--seed", "3"])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def tiny_checkpoint(tmp_path_factory, small_cfg_file, tiny_dataset):
    out = tmp_path_factory.mktemp("ckpt") / "single.ckpt"
    code = cli.main(["train", "--config", small_cfg_file, "--family", "single",
                     "--data", str(tiny_dataset), "--out", str(out), "--seed", "3"])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def tiny_dual_checkpoint(tmp_path_factory, small_cfg_file):
    work = tmp_path_factory.mktemp("dual")
    data, out = work / "dual.mad", work / "dual.ckpt"
    assert cli.main(["gen-data", "--config", small_cfg_file, "--family", "dual",
                     "--episodes", "1", "--out", str(data), "--seed", "1"]) == 0
    assert cli.main(["train", "--config", small_cfg_file, "--family", "dual",
                     "--data", str(data), "--out", str(out), "--seed", "3"]) == 0
    return out


class TestGenData:
    def test_deterministic_output(self, tmp_path, small_cfg_file, capsys):
        a, b = tmp_path / "a.mad", tmp_path / "b.mad"
        for out in (a, b):
            code, _, _ = run_cli(["gen-data", "--config", small_cfg_file,
                                  "--family", "single", "--episodes", "4",
                                  "--out", str(out), "--seed", "5"], capsys)
            assert code == 0
        assert hashlib.sha256(a.read_bytes()).hexdigest() == \
            hashlib.sha256(b.read_bytes()).hexdigest()

    def test_empty_dataset_warns(self, tmp_path, small_cfg_file, capsys):
        out = tmp_path / "empty.mad"
        code, stdout, _ = run_cli(["gen-data", "--config", small_cfg_file,
                                   "--family", "single", "--episodes", "0",
                                   "--out", str(out)], capsys)
        assert code == 0
        assert "warning=empty-dataset" in stdout
        loaded = dsets.load_dataset(out)
        assert len(loaded) == 0

    def test_episodes_default_to_config(self, tmp_path, capsys):
        cfg = tmp_path / "two.yaml"
        cfg.write_text("data: {single_episodes: 2, birrt_max_iters: 2000}\n")
        outs = []
        for extra in ([], ["--episodes", "2"]):
            out = tmp_path / f"single{len(extra)}.mad"
            code, stdout, _ = run_cli(["gen-data", "--config", str(cfg), "--family",
                                       "single", "--out", str(out), *extra], capsys)
            assert code == 0
            assert "episodes=2 " in stdout
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_negative_config_episodes_refused(self, tmp_path, capsys):
        cfg = tmp_path / "negative.yaml"
        cfg.write_text("data: {dual_episodes: -3}\n")
        out = tmp_path / "dual.mad"
        code, stdout, err = run_cli(["gen-data", "--config", str(cfg), "--family", "dual",
                                     "--out", str(out)], capsys)
        assert code == 2
        assert err.startswith("error=config detail=data.dual_episodes: ")
        assert stdout == "" and not out.exists()

    def test_non_positive_birrt_budget_refused(self, tmp_path, capsys):
        cfg = tmp_path / "budget.yaml"
        cfg.write_text("data: {birrt_max_iters: -1}\n")
        out = tmp_path / "single.mad"
        code, stdout, err = run_cli(["gen-data", "--config", str(cfg), "--family",
                                     "single", "--episodes", "1", "--out", str(out)], capsys)
        assert code == 2
        assert err.startswith("error=config detail=data.birrt_max_iters: ")
        assert stdout == "" and not out.exists()

    def test_sidecar_matches_header(self, tiny_dataset):
        sidecar = json.loads(Path(str(tiny_dataset) + ".json").read_text())
        loaded = dsets.load_dataset(tiny_dataset)
        assert sidecar["records"] == len(loaded)
        assert sidecar["family"] == "single"
        assert sidecar["t_p"] == loaded.t_p


class TestTrain:
    def test_loss_lines_parse(self, tmp_path, small_cfg_file, tiny_dataset, capsys):
        out = tmp_path / "model.ckpt"
        code, stdout, _ = run_cli(["train", "--config", small_cfg_file, "--family",
                                   "single", "--data", str(tiny_dataset), "--out",
                                   str(out), "--seed", "3"], capsys)
        assert code == 0
        lines = [ln for ln in stdout.splitlines() if ln.startswith("epoch=")]
        assert len(lines) == 2
        for ln in lines:
            assert re.fullmatch(r"epoch=\d+ loss=\d+\.\d+", ln)

    def test_family_mismatch_no_output(self, tmp_path, small_cfg_file, tiny_dataset,
                                       capsys):
        out = tmp_path / "bad.ckpt"
        code, _, err = run_cli(["train", "--config", small_cfg_file, "--family",
                                "dual", "--data", str(tiny_dataset), "--out",
                                str(out)], capsys)
        assert code == 2
        assert "family-mismatch" in err
        assert not out.exists()

    def test_empty_dataset_refused(self, tmp_path, small_cfg_file, capsys):
        data, out = tmp_path / "empty.mad", tmp_path / "empty.ckpt"
        assert run_cli(["gen-data", "--config", small_cfg_file, "--family", "single",
                        "--episodes", "0", "--out", str(data)], capsys)[0] == 0
        code, stdout, err = run_cli(["train", "--config", small_cfg_file, "--family",
                                     "single", "--data", str(data), "--out", str(out)], capsys)
        assert code == 2
        assert stdout == ""
        assert err.splitlines() == [f"error=empty-dataset path={data}"]
        assert not out.exists()

    def test_deterministic_checkpoint(self, tmp_path, small_cfg_file, tiny_dataset,
                                      capsys):
        outs = []
        for name in ("a.ckpt", "b.ckpt"):
            out = tmp_path / name
            code, _, _ = run_cli(["train", "--config", small_cfg_file, "--family",
                                  "single", "--data", str(tiny_dataset), "--out",
                                  str(out), "--seed", "3"], capsys)
            assert code == 0
            outs.append(out.read_bytes())
        assert hashlib.sha256(outs[0]).hexdigest() == hashlib.sha256(outs[1]).hexdigest()


class TestPlan:
    def test_single_arm_json_and_dump(self, tmp_path, small_cfg_file,
                                      tiny_checkpoint, capsys):
        dump = tmp_path / "trace.jsonl"
        code, stdout, _ = run_cli(["plan", "--config", small_cfg_file, "--random",
                                   "1", "--single", str(tiny_checkpoint), "--seed",
                                   "4", "--dump", str(dump)], capsys)
        assert code == 0
        payload = json.loads(stdout.strip().splitlines()[-1])
        assert set(payload) >= {"success", "end_reason", "steps", "collision",
                                "task_digest", "config_digest"}
        assert len(dump.read_text().splitlines()) == payload["steps"]

    def test_same_seed_same_json(self, small_cfg_file, tiny_checkpoint, capsys):
        outs = []
        for _ in range(2):
            code, stdout, _ = run_cli(["plan", "--config", small_cfg_file,
                                       "--random", "1", "--single",
                                       str(tiny_checkpoint), "--seed", "4"], capsys)
            assert code == 0
            outs.append(stdout.strip().splitlines()[-1])
        assert outs[0] == outs[1]

    def test_missing_checkpoint(self, small_cfg_file, capsys):
        code, _, err = run_cli(["plan", "--config", small_cfg_file, "--random", "1",
                                "--single", "/nonexistent.ckpt"], capsys)
        assert code == 2
        assert "file-not-found" in err

    def test_requires_task_or_random(self, small_cfg_file, tiny_checkpoint, capsys):
        code, _, err = run_cli(["plan", "--config", small_cfg_file, "--single",
                                str(tiny_checkpoint)], capsys)
        assert code == 2
        assert "missing-task" in err


def out_of_limits_task_json():
    """A generated 1-arm task whose start has a joint past its pi limit."""
    task = generate_task(1, "easy", np.random.default_rng(2), load_config(None)).to_json()
    task["starts"][0][0] = 4.0
    return json.dumps(task)


def nan_start_task_json():
    """A generated 1-arm task whose start has a NaN joint, which compares
    False against both limits."""
    task = generate_task(1, "easy", np.random.default_rng(2), load_config(None)).to_json()
    task["starts"][0][1] = float("nan")
    return json.dumps(task)


def bad_goal_task_json(orientation):
    """A generated 1-arm task whose goal orientation is `orientation`, which
    JSON writes as NaN or Infinity."""
    task = generate_task(1, "easy", np.random.default_rng(2), load_config(None)).to_json()
    task["goals"][0][2] = orientation
    return json.dumps(task)


def two_link_task_json():
    """A well-formed 2-arm task whose arms have 2 links."""
    arms = [make_arm((0.5, 0.5), BasePose(x, 0.0, 0.0), 0.11) for x in (-1.5, 1.5)]
    goals = [EEPose(np.array([x, 0.5]), 0.0) for x in (-1.0, 1.0)]
    task = TaskSpec(2, tuple(arms), (np.zeros(2), np.zeros(2)), tuple(goals), "easy", 0, 0.0)
    return json.dumps(task.to_json())


class TestTaskFile:
    @pytest.mark.parametrize("text", [
        '{"n_arms": 2}',
        "not json {",
        two_link_task_json(),
        out_of_limits_task_json(),
        nan_start_task_json(),
        bad_goal_task_json(float("nan")),
        bad_goal_task_json(float("inf")),
    ], ids=["missing-field", "not-json", "wrong-morphology", "start-out-of-limits",
            "start-nan", "goal-nan", "goal-inf"])
    def test_bad_task_file_is_one_error_line(self, tmp_path, small_cfg_file,
                                             tiny_checkpoint, text, capsys):
        task = tmp_path / "task.json"
        task.write_text(text)
        code, stdout, err = run_cli(["plan", "--config", small_cfg_file, "--task", str(task),
                                     "--single", str(tiny_checkpoint)], capsys)
        assert code == 2
        assert err.startswith("error=task-file detail=")
        assert len(err.splitlines()) == 1
        assert stdout == ""

    def test_generated_task_file_runs(self, tmp_path, small_cfg_file, tiny_checkpoint,
                                      capsys):
        cfg = load_config(small_cfg_file)
        task = generate_task(1, "easy", np.random.default_rng(2), cfg)
        path = tmp_path / "task.json"
        path.write_text(json.dumps(task.to_json()))
        code, stdout, _ = run_cli(["plan", "--config", small_cfg_file, "--task", str(path),
                                   "--single", str(tiny_checkpoint)], capsys)
        assert code == 0
        assert json.loads(stdout.strip().splitlines()[-1])["task_digest"] == task_digest(task)


class TestLayout:
    def test_width_table(self, capsys):
        code, stdout, _ = run_cli(["layout"], capsys)
        assert code == 0
        assert "frame width (dof=3): 20" in stdout
        assert "paired conditioning width (T_o=2): 80" in stdout

    def test_stable_output(self, capsys):
        _, first, _ = run_cli(["layout"], capsys)
        _, second, _ = run_cli(["layout"], capsys)
        assert first == second


def as_version_one(src, dst, magic):
    """Copy an artifact with its version field rewritten to 1."""
    blob = bytearray(Path(src).read_bytes())
    blob[len(magic): len(magic) + 4] = struct.pack("<I", 1)
    Path(dst).write_bytes(bytes(blob))
    return str(dst)


class TestChecks:
    def test_version_one_dataset_refused(self, tmp_path, small_cfg_file, tiny_dataset,
                                         capsys):
        old = as_version_one(tiny_dataset, tmp_path / "old.mad", dsets.MAGIC)
        out = tmp_path / "model.ckpt"
        code, stdout, err = run_cli(["train", "--config", small_cfg_file, "--family",
                                     "single", "--data", old, "--out", str(out)], capsys)
        assert code == 2
        assert err.startswith("error=incompatible-dataset detail=")
        assert "epoch=" not in stdout
        assert not out.exists()

    def test_zero_horizon_dataset_refused(self, tmp_path, small_cfg_file, tiny_dataset,
                                          capsys):
        bad = with_header_key(tiny_dataset, tmp_path / "bad.mad", "t_p", 0)
        out = tmp_path / "model.ckpt"
        code, stdout, err = run_cli(["train", "--config", small_cfg_file, "--family",
                                     "single", "--data", str(bad), "--out", str(out)], capsys)
        assert code == 2
        assert err.startswith("error=incompatible-dataset detail=")
        assert not out.exists()

    def test_version_one_checkpoint_refused(self, tmp_path, small_cfg_file,
                                            tiny_checkpoint, capsys):
        old = as_version_one(tiny_checkpoint, tmp_path / "old.ckpt", dif.CKPT_MAGIC)
        code, _, err = run_cli(["plan", "--config", small_cfg_file, "--random", "1",
                                "--single", old], capsys)
        assert code == 2
        assert err.startswith("error=incompatible-checkpoint detail=")

    def test_wrong_morphology_checkpoint_rejected(self, tmp_path, small_cfg_file,
                                                  tiny_checkpoint, capsys):
        other_cfg = tmp_path / "other.yaml"
        other_cfg.write_text("morphology: {link_lengths: [0.4, 0.4, 0.4]}\n")
        code, _, err = run_cli(["plan", "--config", str(other_cfg), "--random", "1",
                                "--single", str(tiny_checkpoint)], capsys)
        assert code == 2
        assert "incompatible-checkpoint" in err


class TestWrongFamilyCheckpoint:
    """A checkpoint in the other family's slot is refused before any episode
    runs."""

    def test_plan_refuses_dual_as_single(self, small_cfg_file, tiny_dual_checkpoint, capsys):
        code, stdout, err = run_cli(["plan", "--config", small_cfg_file, "--random", "2",
                                     "--single", str(tiny_dual_checkpoint)], capsys)
        assert code == 2
        assert err.startswith("error=incompatible-checkpoint detail=--single ")
        assert stdout == ""

    @pytest.mark.parametrize("swap", [True, False], ids=["swapped", "single-as-dual"])
    def test_bench_refuses_wrong_slot(self, tmp_path, small_cfg_file, tiny_checkpoint,
                                      tiny_dual_checkpoint, swap, capsys):
        single, dual = ((tiny_dual_checkpoint, tiny_checkpoint) if swap
                        else (tiny_checkpoint, tiny_checkpoint))
        out = tmp_path / "bench"
        code, stdout, err = run_cli(["bench", "--config", small_cfg_file, "--single",
                                     str(single), "--dual", str(dual), "--out", str(out)],
                                    capsys)
        assert code == 2
        assert err.startswith("error=incompatible-checkpoint detail=")
        assert stdout == ""
        assert not out.exists()


class TestOutOfRangeCounts:
    @pytest.mark.parametrize("argv", [
        ["gen-data", "--family", "single", "--episodes", "-1", "--out", "{out}"],
        ["plan", "--random", "0", "--single", "{out}"],
        ["bench", "--single", "{out}", "--out", "{out}", "--workers", "0"],
    ])
    def test_rejected_before_any_work(self, tmp_path, argv, capsys):
        out = tmp_path / "never"
        code, stdout, err = run_cli([a.format(out=out) for a in argv], capsys)
        assert code == 2
        assert err.startswith("error=out-of-range option=--")
        assert stdout == ""
        assert list(tmp_path.iterdir()) == []

    def test_task_generation_failure_reported(self, small_cfg_file, tiny_checkpoint,
                                              capsys):
        # A lone arm is always an easy task, so no medium one can be drawn.
        code, stdout, err = run_cli(["plan", "--config", small_cfg_file, "--random", "1",
                                     "--difficulty", "medium", "--single",
                                     str(tiny_checkpoint)], capsys)
        assert code == 2
        assert err.startswith("error=task-generation detail=")
        assert stdout == ""


class TestConfigErrors:
    @pytest.mark.parametrize("text", ["planner: {batch: 0}\n", "planner: {batch: 0\n",
                                      'planner: {batch: "x"}\n',
                                      "controller: {baseline_chunk: 20}\n"],
                             ids=["out-of-range", "yaml-syntax", "wrong-type",
                                  "chunk-past-horizon"])
    def test_bad_config_is_one_error_line(self, tmp_path, text, capsys):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text(text)
        code, stdout, err = run_cli(["layout", "--config", str(cfg)], capsys)
        assert code == 2
        assert err.startswith("error=config detail=")
        assert len(err.splitlines()) == 1
        assert stdout == ""

    def test_toy_zero_batch_refused(self, tmp_path, capsys):
        # Unchecked, the toy suite built its dataset and then failed in
        # `range()` with a zero step.
        cfg = tmp_path / "toy.yaml"
        cfg.write_text("toy: {batch_size: 0}\n")
        code, stdout, err = run_cli(["toy", "--config", str(cfg)], capsys)
        assert code == 2
        assert err.startswith("error=config detail=")
        assert stdout == ""

    def test_negative_seed_refused(self, small_cfg_file, tiny_checkpoint, capsys):
        code, stdout, err = run_cli(["plan", "--config", small_cfg_file, "--seed", "-2",
                                     "--random", "2", "--single", str(tiny_checkpoint)],
                                    capsys)
        assert code == 2
        assert err.startswith("error=config detail=seed: must be >= 0")
        assert len(err.splitlines()) == 1
        assert stdout == ""

    @pytest.mark.parametrize("methods,detail", [
        ("dgmap,foo", "unknown method 'foo'"),
        (",", "no method given"),
        ("dgmap,dgmap", "a method is repeated"),
    ], ids=["unknown", "empty", "repeated"])
    def test_bad_methods_refused_before_loading(self, tmp_path, methods, detail, capsys):
        # The checkpoint does not exist: the methods are checked first.
        out = tmp_path / "never"
        code, stdout, err = run_cli(["bench", "--methods", methods, "--single", str(out),
                                     "--out", str(out)], capsys)
        assert code == 2
        assert err.startswith(f"error=bad-option option=--methods detail={detail}")
        assert len(err.splitlines()) == 1
        assert stdout == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("methods,line", [
        ("dgmap", "error=bad-option option=--dual detail="),
        ("decentralized,dgmap", "error=bad-option option=--dual detail="),
        ("decentralized", "error=file-not-found detail="),
    ])
    def test_dgmap_without_dual_refused_before_loading(self, tmp_path, methods, line,
                                                       capsys):
        # The --single checkpoint does not exist, so only a method that needs
        # no dual model gets as far as reading it.
        out = tmp_path / "never"
        code, stdout, err = run_cli(["bench", "--methods", methods, "--single", str(out),
                                     "--out", str(out)], capsys)
        assert code == 2
        assert err.startswith(line)
        assert len(err.splitlines()) == 1
        assert stdout == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("value,line", [
        ("x", "error=config detail=MULTIARM_WORKERS"),
        ("0", "error=out-of-range option=MULTIARM_WORKERS value=0 minimum=1"),
    ])
    def test_bad_worker_environment_refused(self, tmp_path, monkeypatch, value, line,
                                            capsys):
        monkeypatch.setenv(cli.ENV_WORKERS, value)
        out = tmp_path / "never"
        code, stdout, err = run_cli(["bench", "--single", str(out), "--out", str(out)],
                                    capsys)
        assert code == 2
        assert err.startswith(line)
        assert stdout == ""
        assert list(tmp_path.iterdir()) == []


# One small 2-arm cell: 3 episodes per method give 6 jobs, which the pool
# hands out one at a time, so both workers run episodes.
BENCH_CELL = """
bench:
  n_arms: [2]
  difficulties: [easy]
  episodes_per_cell: 3
controller:
  step_limit: 60
"""


class TestPipelineSmoke:
    def test_gen_train_bench_across_worker_counts(self, tmp_path, small_cfg_file,
                                                  tiny_checkpoint, capsys):
        dual_data, dual_ckpt = tmp_path / "dual.mad", tmp_path / "dual.ckpt"
        code, _, _ = run_cli(["gen-data", "--config", small_cfg_file, "--family", "dual",
                              "--episodes", "1", "--out", str(dual_data), "--seed", "1"],
                             capsys)
        assert code == 0 and len(dsets.load_dataset(dual_data)) > 0
        code, _, _ = run_cli(["train", "--config", small_cfg_file, "--family", "dual",
                              "--data", str(dual_data), "--out", str(dual_ckpt),
                              "--seed", "3"], capsys)
        assert code == 0
        bench_cfg = tmp_path / "bench.yaml"
        bench_cfg.write_text(Path(small_cfg_file).read_text() + BENCH_CELL)

        outputs = []
        for workers in ("1", "2"):
            out = tmp_path / f"bench-w{workers}"
            code, stdout, _ = run_cli(["bench", "--config", str(bench_cfg), "--methods",
                                       "dgmap,decentralized", "--single",
                                       str(tiny_checkpoint), "--dual", str(dual_ckpt),
                                       "--out", str(out), "--workers", workers], capsys)
            assert code == 0
            assert "gate=soundness ok=1" in stdout
            outputs.append([(out / name).read_bytes()
                            for name in ("report.csv", "episodes.jsonl")])
        assert outputs[0] == outputs[1]

        records = [json.loads(ln) for ln in outputs[0][1].decode().splitlines()[1:]]
        assert sorted((r["method"], r["episode"]) for r in records) == sorted(
            (m, e) for m in ("dgmap", "decentralized") for e in range(3))
        tasks = {}
        for r in records:
            tasks.setdefault(r["episode"], set()).add(r["task_digest"])
        assert all(len(digests) == 1 for digests in tasks.values())
        assert all(r["resim_ok"] for r in records if r["success"])
        assert all((r["end_reason"] == "success") == r["success"] for r in records)
