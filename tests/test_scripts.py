"""The scripts under scripts/ import and parse their arguments, and the
crossing demo runs an episode on the checkpoints `multiarm plan` accepts."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

# The CLI tests' module-scoped fixtures: a small config and tiny checkpoints.
from .test_cli import small_cfg_file, tiny_checkpoint, tiny_dataset, tiny_dual_checkpoint

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script", ["run_pipeline.py", "crossing_demo.py"])
def test_help_exits_zero(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), "--help"],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "usage:" in proc.stdout


@pytest.fixture(scope="module")
def demo_cfg_file(tmp_path_factory, small_cfg_file):
    path = tmp_path_factory.mktemp("demo") / "demo.yaml"
    path.write_text(Path(small_cfg_file).read_text() + """
controller:
  step_limit: 10
planner:
  max_expansions: 2
""")
    return str(path)


def run_demo(cfg_file, single, dual, out):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / "crossing_demo.py"),
                           "--config", cfg_file, "--single", str(single), "--dual", str(dual),
                           "--out", str(out)],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)


class TestCrossingDemo:
    def test_writes_one_dump_line_per_step(self, tmp_path, demo_cfg_file, tiny_checkpoint,
                                           tiny_dual_checkpoint):
        proc = run_demo(demo_cfg_file, tiny_checkpoint, tiny_dual_checkpoint, tmp_path)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout[:proc.stdout.rindex("}") + 1])
        lines = (tmp_path / "trace.jsonl").read_text().splitlines()
        assert 1 <= result["steps"] <= 10
        assert len(lines) == result["steps"]

    def test_swapped_checkpoints_refused(self, tmp_path, demo_cfg_file, tiny_checkpoint,
                                         tiny_dual_checkpoint):
        proc = run_demo(demo_cfg_file, tiny_dual_checkpoint, tiny_checkpoint, tmp_path)
        assert proc.returncode != 0
        assert "needs a single checkpoint" in proc.stderr
        assert not (tmp_path / "trace.jsonl").exists()
