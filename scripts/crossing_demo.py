#!/usr/bin/env python3
"""Head-on crossing demo: two facing arms whose straight plans all collide.

Runs one closed-loop episode with trained checkpoints, refused unless they
match the config's morphology and their flags' model families, and writes
the executed trajectory to a JSONL dump plus (if matplotlib is available) a
quick overhead plot of the swept arm segments.
"""

import argparse
import json
import math
from pathlib import Path

import numpy as np

from multiarm.config import load_config
from multiarm.cli import load_policy
from multiarm.controller import make_world, run_episode, write_trace
from multiarm.kinematics import BasePose, forward_kinematics, link_vertices, make_arm


def build_scene(cfg):
    m = cfg.morphology
    a = make_arm(m.link_lengths, BasePose(-0.75, 0.0, 0.0), m.collision_radius)
    b = make_arm(m.link_lengths, BasePose(0.75, 0.0, math.pi), m.collision_radius)
    starts = [np.array([math.pi / 2, 0.0, 0.0]), np.array([math.pi / 2, 0.0, 0.0])]
    goals = [forward_kinematics(arm, np.array([-math.pi / 2, 0.0, 0.0]))
             for arm in (a, b)]
    return [a, b], starts, goals


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--single", required=True)
    parser.add_argument("--dual", required=True)
    parser.add_argument("--config", default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="runs/crossing")
    args = parser.parse_args()

    cfg = load_config(args.config)
    arms, starts, goals = build_scene(cfg)
    single = load_policy(args.single, "single", cfg)
    dual = load_policy(args.dual, "dual", cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    world = make_world(arms, starts, goals)
    result = run_episode(world, single, dual, cfg, args.seed)
    write_trace(world, out / "trace.jsonl")
    print(json.dumps(result.to_json(), sort_keys=True, indent=2))

    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt

        fig, ax = plt.subplots(figsize=(6, 6))
        steps = list(zip(*world.trajectories))
        for k, configs in enumerate(steps):
            alpha = 0.15 + 0.85 * k / max(1, len(steps) - 1)
            for i, arm in enumerate(arms):
                verts = link_vertices(arm, configs[i])
                ax.plot(verts[:, 0], verts[:, 1], "-o", markersize=2,
                        color=f"C{i}", alpha=alpha, linewidth=1)
        for goal in goals:
            ax.plot(*goal.position, "k*", markersize=12)
        ax.set_aspect("equal")
        ax.set_title(f"success={result.success} steps={result.steps} "
                     f"repairs={result.repairs}")
        fig.savefig(out / "crossing.png", dpi=130, bbox_inches="tight")
        print(f"plot={out / 'crossing.png'}")
    except ImportError:
        pass


if __name__ == "__main__":
    main()
