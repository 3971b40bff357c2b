"""Command-line entry point.

Subcommands wire the full pipeline: gen-data -> train -> plan / bench, plus
a layout inspector and the toy training suite. Progress goes to stdout as
key=value lines so scripts can parse it; results are JSON or CSV files.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import datasets as dsets
from . import diffusion as dif
from . import observation as obsmod
from .bench import check_methods, run_benchmark, toy_pointmass_suite, verify_task_pairing
from .config import (DIFFICULTIES, ConfigError, RunConfig, config_digest, load_config,
                     morphology_digest)
from .controller import make_world, run_episode, write_trace
from .seeding import TAG_TASK, substream
from .tasks import (TaskFileError, TaskGenerationError, dual_pair_sampler, generate_task,
                    load_task, single_arm_sampler, task_digest)

ENV_OUT_DIR = "MULTIARM_OUT_DIR"
ENV_WORKERS = "MULTIARM_WORKERS"
# The least value each count option accepts.
MINIMUMS = {"episodes": 0, "random": 1, "workers": 1}


def _load_cfg(args) -> RunConfig:
    cfg = load_config(getattr(args, "config", None))
    if getattr(args, "seed", None) is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    return cfg


def _out_path(path: str | Path) -> Path:
    base = os.environ.get(ENV_OUT_DIR)
    path = Path(path)
    if base and not path.is_absolute():
        return Path(base) / path
    return path


def cmd_gen_data(args) -> int:
    cfg = _load_cfg(args)
    digest = morphology_digest(cfg)
    common = dict(t_o=cfg.diffusion.obs_horizon, t_p=cfg.diffusion.pred_horizon,
                  resolution=cfg.controller.delta_limit, bounds=cfg.world,
                  max_iters=cfg.data.birrt_max_iters,
                  shortcut_attempts=cfg.data.shortcut_attempts,
                  morphology_digest=digest)
    generate, sampler, default_episodes = {
        "single": (dsets.generate_single_dataset, single_arm_sampler, cfg.data.single_episodes),
        "dual": (dsets.generate_dual_dataset, dual_pair_sampler, cfg.data.dual_episodes),
    }[args.family]
    episodes = default_episodes if args.episodes is None else args.episodes
    ds = generate(sampler(cfg), episodes, cfg.seed, **common)
    out = _out_path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    ds.meta["config_digest"] = config_digest(cfg)
    dsets.save_dataset(ds, out)
    if episodes == 0:
        print("warning=empty-dataset")
    print(f"family={args.family} episodes={episodes} "
          f"skipped={ds.meta['skipped']} records={len(ds)} path={out}")
    return 0


def cmd_train(args) -> int:
    cfg = _load_cfg(args)
    ds = dsets.load_dataset(args.data)
    if ds.family != args.family:
        print(f"error=family-mismatch dataset={ds.family} requested={args.family}",
              file=sys.stderr)
        return 2
    expected = morphology_digest(cfg)
    if ds.meta.get("morphology_digest") and ds.meta["morphology_digest"] != expected:
        print("error=morphology-mismatch", file=sys.stderr)
        return 2

    def log(epoch, loss):
        print(f"epoch={epoch} loss={loss:.6f}")
        sys.stdout.flush()

    state = dif.train(ds, args.family, cfg.diffusion, cfg.seed, log=log)
    policy = dif.policy_from_state(state, args.family, ds, expected, {
        "config_digest": config_digest(cfg),
        "seed": cfg.seed,
        "epochs": cfg.diffusion.epochs,
        "final_loss": state.loss_history[-1],
        "records": len(ds),
    })
    out = _out_path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    dif.save_checkpoint(policy, out)
    print(f"checkpoint={out} final_loss={state.loss_history[-1]:.6f}")
    return 0


def load_policy(path, family: str, cfg) -> dif.Policy:
    """The checkpoint at `path`, refused unless it holds a `family` model."""
    policy = dif.load_checkpoint(path, expect_morphology=morphology_digest(cfg))
    if policy.family != family:
        raise dif.IncompatibleCheckpointError(
            f"--{family} needs a {family} checkpoint; {path} holds a {policy.family} model")
    return policy


def _policies_from_args(cfg, args):
    single = load_policy(args.single, "single", cfg)
    dual = load_policy(args.dual, "dual", cfg) if args.dual else None
    return {"single": single, "dual": dual}


def cmd_plan(args) -> int:
    cfg = _load_cfg(args)
    policies = _policies_from_args(cfg, args)
    if args.task:
        task = load_task(args.task, cfg)
    else:
        rng = substream(cfg.seed, TAG_TASK, args.random, 0, 0)
        task = generate_task(args.random, args.difficulty, rng, cfg, seed=cfg.seed)
    world = make_world(task.arms, task.starts, task.goals)
    result = run_episode(world, policies["single"], policies["dual"], cfg, cfg.seed)
    if args.dump:
        write_trace(world, _out_path(args.dump))
    payload = result.to_json()
    payload["task_digest"] = task_digest(task)
    payload["config_digest"] = config_digest(cfg)
    print(json.dumps(payload, sort_keys=True))
    return 0


def cmd_bench(args) -> int:
    methods = tuple(m.strip() for m in args.methods.split(",") if m.strip())
    try:
        check_methods(methods)
    except ValueError as exc:
        print(f"error=bad-option option=--methods detail={exc}", file=sys.stderr)
        return 2
    if "dgmap" in methods and not args.dual:
        print("error=bad-option option=--dual detail=method dgmap needs a dual checkpoint",
              file=sys.stderr)
        return 2
    cfg = _load_cfg(args)
    policies = _policies_from_args(cfg, args)
    out_dir = _out_path(args.out)
    report = run_benchmark(cfg, policies, methods, out_dir, workers=args.workers)
    if not verify_task_pairing(report, methods):
        print("error=task-pairing-violation", file=sys.stderr)
        return 3
    for (method, n, diff), cell in sorted(report.cells.items()):
        mean = "" if cell["mean_steps"] is None else f"{cell['mean_steps']:.2f}"
        print(f"method={method} n_arms={n} difficulty={diff} "
              f"success_rate={cell['success_rate']:.4f} mean_steps={mean} "
              f"episodes={cell['episodes']}")
    for gate, ok in report.gates.items():
        print(f"gate={gate} ok={int(ok)}")
    print(f"report={out_dir / 'report.csv'}")
    return 0 if report.ok else 1


def cmd_layout(args) -> int:
    cfg = _load_cfg(args)
    dof = len(cfg.morphology.link_lengths)
    print(obsmod.layout_table(dof, cfg.diffusion.obs_horizon))
    return 0


def cmd_toy(args) -> int:
    cfg = _load_cfg(args)

    def log(epoch, loss):
        print(f"epoch={epoch} loss={loss:.6f}")

    report = toy_pointmass_suite(cfg, seed=cfg.seed, log=log if args.verbose else None)
    print(f"expert_fraction={report['expert_fraction']:.4f} "
          f"untrained_fraction={report['untrained_fraction']:.4f} "
          f"trained_fraction={report['trained_fraction']:.4f}")
    ok = (report["trained_fraction"] >= 0.9
          and report["untrained_fraction"] < report["trained_fraction"])
    print(f"gate=toy ok={int(ok)}")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="multiarm",
                                     description="Diffusion-guided multi-arm planning")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=None, help="YAML config path")
        p.add_argument("--seed", type=int, default=None, help="master seed override")

    p = sub.add_parser("gen-data", help="generate expert demonstration datasets")
    common(p)
    p.add_argument("--family", required=True, choices=("single", "dual"))
    p.add_argument("--episodes", type=int, default=None,
                   help="expert episodes (default: the config's data.<family>_episodes)")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_gen_data)

    p = sub.add_parser("train", help="train a diffusion model on a dataset")
    common(p)
    p.add_argument("--family", required=True, choices=("single", "dual"))
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("plan", help="run one closed-loop episode")
    common(p)
    p.add_argument("--task", default=None, help="task JSON path")
    p.add_argument("--random", type=int, default=None, metavar="N_ARMS")
    p.add_argument("--difficulty", default="easy", choices=DIFFICULTIES)
    p.add_argument("--single", required=True, help="single-arm checkpoint")
    p.add_argument("--dual", default=None, help="dual-arm checkpoint")
    p.add_argument("--dump", default=None, help="trajectory JSONL path")
    p.set_defaults(fn=cmd_plan)

    p = sub.add_parser("bench", help="run the benchmark matrix")
    common(p)
    p.add_argument("--methods", default="dgmap,decentralized")
    p.add_argument("--single", required=True)
    p.add_argument("--dual", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--workers", type=int, default=None)
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("layout", help="print the observation layout table")
    common(p)
    p.set_defaults(fn=cmd_layout)

    p = sub.add_parser("toy", help="run the 1-dof training sanity suite")
    common(p)
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(fn=cmd_toy)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "plan" and not args.task and args.random is None:
        print("error=missing-task provide --task or --random", file=sys.stderr)
        return 2
    sources = {name: f"--{name}" for name in MINIMUMS}
    if args.command == "bench" and args.workers is None:
        sources["workers"] = ENV_WORKERS
        text = os.environ.get(ENV_WORKERS, "1")
        try:
            args.workers = int(text)
        except ValueError:
            print(f"error=config detail={ENV_WORKERS}={text!r} is not an integer",
                  file=sys.stderr)
            return 2
    for name, least in MINIMUMS.items():
        value = getattr(args, name, None)
        if value is not None and value < least:
            print(f"error=out-of-range option={sources[name]} value={value} "
                  f"minimum={least}", file=sys.stderr)
            return 2
    try:
        return args.fn(args)
    except FileNotFoundError as exc:
        print(f"error=file-not-found detail={exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"error=config detail={' '.join(str(exc).split())}", file=sys.stderr)
        return 2
    except dif.IncompatibleCheckpointError as exc:
        print(f"error=incompatible-checkpoint detail={exc}", file=sys.stderr)
        return 2
    except dsets.IncompatibleDatasetError as exc:
        print(f"error=incompatible-dataset detail={exc}", file=sys.stderr)
        return 2
    except TaskGenerationError as exc:
        print(f"error=task-generation detail={exc}", file=sys.stderr)
        return 2
    except TaskFileError as exc:
        print(f"error=task-file detail={exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
