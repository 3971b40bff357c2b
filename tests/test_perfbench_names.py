"""The names perfbench's traced run wraps still exist in the program.

`perfbench/layers.py` rebinds functions in each caller's module namespace,
so moving a function or dropping an import breaks the traced run. This
installs every wrapper and restores it, without running the benchmark.
"""

import importlib
from pathlib import Path

from multiarm import bench, collision, controller

ROOT = Path(__file__).resolve().parent.parent


def test_every_wrapped_name_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    layers = importlib.import_module("layers")
    tracer = importlib.import_module("tracer")
    patcher = tracer.Patcher()
    try:
        layers.install(tracer.Tracer(), patcher)
        assert controller.segment_has_collision is not collision.segment_has_collision
    finally:
        patcher.restore()
    assert controller.segment_has_collision is collision.segment_has_collision
    assert bench.segment_has_collision is collision.segment_has_collision
