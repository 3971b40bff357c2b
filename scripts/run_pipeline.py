#!/usr/bin/env python3
"""End-to-end desk pipeline: datasets -> training -> benchmark.

Skips stages whose outputs already exist, so it can resume. Dataset sizes
come from the config's `data.single_episodes` and `data.dual_episodes`;
each gen-data stage prints the count it ran. Pass --episodes-per-cell 100
for the full acceptance-scale matrix.
"""

import argparse
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def sh(*args):
    print("+", " ".join(str(a) for a in args), flush=True)
    proc = subprocess.run([sys.executable, "-m", "multiarm.cli", *map(str, args)])
    if proc.returncode != 0:
        sys.exit(proc.returncode)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workdir", default="runs/desk")
    parser.add_argument("--config", default=str(REPO / "configs" / "desk.yaml"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--episodes-per-cell", type=int, default=None,
                        help="override bench cell size (default from config)")
    parser.add_argument("--methods", default="dgmap,decentralized")
    args = parser.parse_args()

    work = Path(args.workdir)
    work.mkdir(parents=True, exist_ok=True)
    single_data = work / "single.mad"
    dual_data = work / "dual.mad"
    single_ckpt = work / "single.ckpt"
    dual_ckpt = work / "dual.ckpt"

    cfg = args.config
    if args.episodes_per_cell is not None:
        import yaml
        base = yaml.safe_load(Path(cfg).read_text()) or {}
        base.setdefault("bench", {})["episodes_per_cell"] = args.episodes_per_cell
        cfg = work / "config.yaml"
        cfg.write_text(yaml.safe_dump(base))

    if not single_data.exists():
        sh("gen-data", "--config", cfg, "--family", "single", "--out", single_data,
           "--seed", args.seed)
    if not dual_data.exists():
        sh("gen-data", "--config", cfg, "--family", "dual", "--out", dual_data,
           "--seed", args.seed)
    if not single_ckpt.exists():
        sh("train", "--config", cfg, "--family", "single", "--data", single_data,
           "--out", single_ckpt, "--seed", args.seed)
    if not dual_ckpt.exists():
        sh("train", "--config", cfg, "--family", "dual", "--data", dual_data,
           "--out", dual_ckpt, "--seed", args.seed)

    sh("bench", "--config", cfg, "--methods", args.methods,
       "--single", single_ckpt, "--dual", dual_ckpt,
       "--out", work / "bench", "--seed", args.seed)


if __name__ == "__main__":
    main()
