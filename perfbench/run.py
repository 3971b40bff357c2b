#!/usr/bin/env python3
"""Seeded end-to-end benchmark of closed-loop planning and the model pipeline.

    python3 perfbench/run.py --workload plan-spread --seed 1 --seconds 30 --trace 0

Run from the repository root. Set-up builds both diffusion models through
the public pipeline (BiRRT expert datasets, dataset save/load, training,
checkpoint save/load) from the config's own seed, several times, and reports
the median. The timed phase is a closed loop of `bench.run_benchmark` calls,
one paired episode per method each, on tasks drawn from `--seed`. With
`--trace 0` the only wrapper is a clock around the controller's planner
call; `--trace 1` adds the per-layer spans (see layers.py) and prints the
per-layer metrics. The last stdout line is one JSON object; the process
exits non-zero when a correctness check fails.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

# One BLAS thread unless the caller sets one. The denoiser's matrices are
# small (batch 10 to 256, width 256): with two OpenBLAS threads on two cores,
# a 256x256 matmul loop ran up to 17x slower whenever the other core was
# busy, which made identical set-up work vary by 20-27% between runs.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402  (must follow the thread settings)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "_out"
CONFIG = ROOT / "configs" / "desk.yaml"
sys.path.insert(0, str(HERE))

METHODS = ("dgmap", "decentralized")
# One closed-loop cell per workload; `overrides` holds the config sizes the
# workload changes on top of configs/desk.yaml. BENCHMARK.json lists the
# gated ones; plan-crowded is for traced search profiles only (see README).
WORKLOADS = {
    "plan-spread": {"n_arms": 6, "difficulty": "easy", "overrides": {}},
    "plan-pair": {"n_arms": 2, "difficulty": "easy", "overrides": {}},
    "plan-crowded": {"n_arms": 4, "difficulty": "hard",
                     "overrides": {"planner.max_expansions": 6}},
}
# Set-up sizes: expert episodes per family, training epochs, set-up repeats.
SIZES = {"single_episodes": 10, "dual_episodes": 2, "epochs": 4, "setups": 3}

END_TO_END = {
    "setup_s": "s",
    "episodes_per_s": "1/s",
    "replan_ms_p50": "ms",
    "replan_ms_tail": "ms",
    "success_rate.dgmap": "ratio",
    "success_rate.decentralized": "ratio",
    "collision_rate.dgmap": "ratio",
    "expert_eps_per_s.single": "1/s",
    "expert_eps_per_s.dual": "1/s",
    "train_steps_per_s": "1/s",
    "train_loss.final": "loss",
    "error_rate": "ratio",
    "peak_rss_mb": "MB",
}
# The end-to-end metrics in the final JSON line (BENCHMARK.json's list). The
# others are printed only; README.md gives each one's reason.
GATED = ("setup_s", "replan_ms_p50", "replan_ms_tail")
PLANNER_STATS = ("expansions", "generated", "repairs", "rebranches", "cache_hits",
                 "cache_evals")


class ReplanClock:
    """The untraced run's only wrapper: one clock pair per planner call, plus
    a sum of the planner's own stats."""

    def __init__(self):
        self.active = True
        self.ms: list[float] = []
        self.totals: Counter = Counter()

    def wrap(self, fn):
        def timed(*args, **kwargs):
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            elapsed = time.perf_counter() - start
            if self.active:
                self.ms.append(1000.0 * elapsed)
                stats = result.stats
                exhausted = (not result.solved
                             and stats["expansions"] >= args[6].planner.max_expansions)
                self.totals.update({k: stats[k] for k in PLANNER_STATS})
                self.totals.update(calls=1, solved=int(result.solved),
                                   budget_exhausted=int(exhausted))
            return result
        return timed


def tail(values: list[float]) -> tuple[float, float, int]:
    """(percentile, value, samples beyond it): the highest percentile with
    10 samples beyond it, and never below the median."""
    p = max(50.0, 100.0 * (1.0 - 10.0 / len(values)))
    value = float(np.percentile(values, p))
    return p, value, sum(v > value for v in values)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def report_digests(out_dir: Path) -> dict:
    return {name: sha256(out_dir / name) for name in ("report.csv", "episodes.jsonl")}


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def stamp(cfg, workload: str, seed: int) -> dict:
    from multiarm.config import config_digest
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {k: os.environ[k] for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                         "MKL_NUM_THREADS") if k in os.environ}
    return {"git_sha": git_sha(), "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": threads,
            "config_digest": config_digest(cfg), "workload": workload, "seed": seed}


# ---------------------------------------------------------------------------
# Set-up: the expert -> dataset -> training -> checkpoint pipeline.
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class Setup:
    seconds: float
    clock: dict
    steps: int
    final_losses: list
    loss_finite: bool
    datasets: dict
    reloaded_datasets: dict
    policies: dict
    reloaded_policies: dict
    ckpt_digests: dict


def set_up(cfg, work: Path, tracer=None) -> Setup:
    from multiarm import datasets, diffusion
    from multiarm.collision import WorldBounds
    from multiarm.config import morphology_digest
    from multiarm.tasks import dual_pair_sampler, single_arm_sampler

    work.mkdir(parents=True, exist_ok=True)
    digest = morphology_digest(cfg)
    common = dict(t_o=cfg.diffusion.obs_horizon, t_p=cfg.diffusion.pred_horizon,
                  resolution=cfg.controller.delta_limit,
                  bounds=WorldBounds(cfg.world.x_min, cfg.world.x_max, cfg.world.y_min,
                                     cfg.world.y_max),
                  pos_tol=cfg.controller.pos_tol, rot_tol=cfg.controller.rot_tol,
                  max_iters=cfg.data.birrt_max_iters,
                  shortcut_attempts=cfg.data.shortcut_attempts, morphology_digest=digest)
    clock: dict[str, float] = {}

    def timed(key, fn, *args, **kwargs):
        if tracer is not None:
            fn = tracer.span(key, fn)
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        clock[key] = clock.get(key, 0.0) + time.perf_counter() - start
        return result

    start = time.perf_counter()
    made = {
        "single": timed("datasets.generate_single", datasets.generate_single_dataset,
                        single_arm_sampler(cfg), cfg.data.single_episodes, cfg.seed,
                        **common),
        "dual": timed("datasets.generate_dual", datasets.generate_dual_dataset,
                      dual_pair_sampler(cfg), cfg.data.dual_episodes, cfg.seed, **common),
    }
    reloaded, policies, reloaded_policies, digests = {}, {}, {}, {}
    steps, losses, finite = 0, [], True
    for family, ds in made.items():
        path = work / f"{family}.mad"
        timed("datasets.io", datasets.save_dataset, ds, path)
        reloaded[family] = timed("datasets.io", datasets.load_dataset, path)
        state = timed("diffusion.train", diffusion.train, reloaded[family], family,
                      cfg.diffusion, cfg.seed)
        steps += state.step
        losses.append(state.loss_history[-1])
        finite &= all(math.isfinite(v) for v in state.loss_history)
        policies[family] = diffusion.policy_from_state(state, family, reloaded[family],
                                                       digest, {"seed": cfg.seed})
        ckpt = work / f"{family}.ckpt"
        timed("diffusion.ckpt_io", diffusion.save_checkpoint, policies[family], ckpt)
        reloaded_policies[family] = timed("diffusion.ckpt_io", diffusion.load_checkpoint,
                                          ckpt, expect_morphology=digest)
        digests[family] = sha256(ckpt)
    return Setup(time.perf_counter() - start, clock, steps, losses, finite, made, reloaded,
                 policies, reloaded_policies, digests)


def same_dataset(a, b) -> bool:
    arrays = ("observations", "actions")
    norms = ("obs_mean", "obs_scale", "act_mean", "act_scale")
    return ((a.family, a.t_o, a.t_p, a.frame_width, a.action_dim, a.meta)
            == (b.family, b.t_o, b.t_p, b.frame_width, b.action_dim, b.meta)
            and all(np.array_equal(getattr(a, k), getattr(b, k)) for k in arrays)
            and all(np.array_equal(getattr(a.norm, k), getattr(b.norm, k)) for k in norms))


def same_samples(policy, reloaded, obs_vec, delta_limit) -> bool:
    """A reloaded policy must give bit-identical plans for a fixed rng."""
    plans = [p.sample_plans(obs_vec, 4, np.random.default_rng(1234), delta_limit)
             for p in (policy, reloaded)]
    return bool(np.array_equal(plans[0], plans[1]))


def setup_checks(setup: Setup, cfg) -> dict:
    checks = {"train_loss_finite": setup.loss_finite}
    for family, ds in setup.datasets.items():
        checks[f"dataset_roundtrip.{family}"] = same_dataset(ds, setup.reloaded_datasets[family])
        checks[f"checkpoint_roundtrip.{family}"] = same_samples(
            setup.policies[family], setup.reloaded_policies[family],
            ds.observations[0].astype(float), cfg.controller.delta_limit)
    return checks


# ---------------------------------------------------------------------------
# Timed phase: a closed loop of one-episode-per-method benchmark calls.
# ---------------------------------------------------------------------------

def cell_config(cfg, spec: dict, seed: int, index: int):
    """The workload's cell with a task seed drawn from (workload seed, index)."""
    cell_seed = int(np.random.SeedSequence([seed, index]).generate_state(1)[0])
    return dataclasses.replace(cfg, seed=cell_seed, bench=dataclasses.replace(
        cfg.bench, n_arms=(spec["n_arms"],), difficulties=(spec["difficulty"],),
        episodes_per_cell=1))


def bench_call(cfg, policies, out_dir: Path):
    from multiarm import bench
    start = time.perf_counter()
    report = bench.run_benchmark(cfg, policies, METHODS, out_dir, workers=1)
    return report, time.perf_counter() - start


def report_checks(report) -> dict:
    from multiarm.bench import verify_task_pairing
    return {
        "task_pairing": verify_task_pairing(report, METHODS),
        "soundness": bool(report.gates.get("soundness"))
        and all(r["resim_ok"] for r in report.episodes if r["success"]),
    }


def outcomes(records: list) -> dict:
    out = {}
    for method in METHODS:
        recs = [r for r in records if r["method"] == method]
        out[f"outcome.{method}.success"] = sum(r["success"] for r in recs)
        out[f"outcome.{method}.collision"] = sum(r["collision"] for r in recs)
        out[f"outcome.{method}.stall"] = sum(r["stall"] for r in recs)
        out[f"outcome.{method}.step_limit"] = sum(
            not (r["success"] or r["collision"] or r["stall"]) for r in recs)
    out["outcome.dgmap.unsolved_planner_calls"] = sum(
        r["planner_calls"] - r["solved_calls"] for r in records if r["method"] == "dgmap")
    return out


def run(workload: str, seed: int, seconds: float, trace: bool, sizes: dict = SIZES,
        out_root: Path = OUT) -> dict:
    """One benchmark run; returns the result dict that main() prints."""
    from multiarm import controller
    from multiarm.config import load_config
    from tracer import Patcher, Tracer
    import layers

    spec = WORKLOADS[workload]
    overrides = {"data.single_episodes": sizes["single_episodes"],
                 "data.dual_episodes": sizes["dual_episodes"],
                 "diffusion.epochs": sizes["epochs"], **spec["overrides"]}
    cfg = load_config(CONFIG, overrides)
    work = out_root / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    clock = ReplanClock()
    base = Patcher()
    base.replace(controller, "dgmap_search", clock.wrap)
    tracer = Tracer() if trace else None
    spans = Patcher()
    checks: dict[str, bool] = {}
    try:
        if tracer is not None:
            layers.install(tracer, spans)
        setups = [set_up(cfg, work / "setup0", tracer)]
        spans.restore()
        setups += [set_up(cfg, work / f"setup{k}") for k in range(1, sizes["setups"])]
        checks.update(setup_checks(setups[0], cfg))
        checks["setup_repeat"] = all(s.ckpt_digests == setups[0].ckpt_digests for s in setups)
        policies = setups[0].reloaded_policies

        if tracer is not None:
            layers.install(tracer, spans)
        records, call_walls, digests = [], [], []
        start = time.perf_counter()
        while not call_walls or time.perf_counter() - start < seconds:
            index = len(call_walls)
            report, call_wall = bench_call(cell_config(cfg, spec, seed, index), policies,
                                           work / "bench")
            call_walls.append(call_wall)
            digests.append(report_digests(work / "bench"))
            for name, ok in report_checks(report).items():
                checks[f"{name}.{index}"] = ok
            records.extend(report.episodes)
        wall = time.perf_counter() - start
        spans.restore()
        clock.active = False

        # Same code and seed must repeat the report bytes. The cheapest call
        # is repeated, untraced, so it also gives the traced run's overhead.
        again = int(np.argmin(call_walls))
        _, repeat_wall = bench_call(cell_config(cfg, spec, seed, again), policies,
                                    work / "repeat")
        checks["report_digest_repeat"] = digests[again] == report_digests(work / "repeat")
    finally:
        spans.restore()
        base.restore()

    setup_s = statistics.median(s.seconds for s in setups)

    def setup_median(key):
        return statistics.median(s.clock[key] for s in setups)

    dgmap = [r for r in records if r["method"] == "dgmap"]
    p, tail_ms, beyond = tail(clock.ms) if clock.ms else (50.0, 0.0, 0)
    failed = sum(not ok for ok in checks.values())
    attempted = len(records) + len(checks)
    e2e = {
        "setup_s": setup_s,
        "episodes_per_s": len(records) / wall,
        "replan_ms_p50": statistics.median(clock.ms) if clock.ms else 0.0,
        "replan_ms_tail": tail_ms,
        "success_rate.dgmap": sum(r["success"] for r in dgmap) / len(dgmap),
        "success_rate.decentralized": (sum(r["success"] for r in records if r["method"] != "dgmap")
                                       / (len(records) - len(dgmap))),
        "collision_rate.dgmap": sum(r["collision"] for r in dgmap) / len(dgmap),
        "expert_eps_per_s.single": cfg.data.single_episodes / setup_median("datasets.generate_single"),
        "expert_eps_per_s.dual": cfg.data.dual_episodes / setup_median("datasets.generate_dual"),
        "train_steps_per_s": setups[0].steps / setup_median("diffusion.train"),
        "train_loss.final": float(np.mean(setups[0].final_losses)),
        "error_rate": failed / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    result = {
        "stamp": stamp(cfg, workload, seed),
        "end_to_end": {k: (v, END_TO_END[k]) for k, v in e2e.items()},
        "replan": {"samples": len(clock.ms), "tail_percentile": p, "beyond_tail": beyond},
        "outcomes": outcomes(records),
        "checks": checks,
        "episodes": len(records),
        "bench_call_s": call_walls,
        "setups": [{"seconds": s.seconds, **s.clock} for s in setups],
        "replan_ms": clock.ms,
        "attempted": attempted,
        "failed": failed,
    }
    if tracer is not None:
        ds = setups[0].datasets
        sets = {"records": sum(len(d) for d in ds.values()),
                "skipped": sum(d.meta["skipped"] for d in ds.values()),
                "episodes": sum(d.meta["episodes"] for d in ds.values())}
        per = layers.per_layer(tracer, clock.totals, records, sets)
        per.update({k: (v, "count") for k, v in result["outcomes"].items()})
        untraced_setup = statistics.median(s.seconds for s in setups[1:])
        per["trace.overhead.setup"] = (setups[0].seconds / untraced_setup - 1.0, "ratio")
        per["trace.overhead.plan"] = (call_walls[again] / repeat_wall - 1.0, "ratio")
        result["per_layer"] = per
        tracer.write_spans(work / "spans.csv")
    (work / "result.json").write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    return result


def final_line(result: dict, trace: bool) -> dict:
    if trace:
        metrics = result["per_layer"]
    else:
        metrics = {k: result["end_to_end"][k] for k in GATED}
    return {"correct": result["failed"] == 0, "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv=None, sizes: dict = SIZES, out_root: Path = OUT) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    try:
        import multiarm  # noqa: F401
    except ImportError as exc:
        print(f"error: cannot import the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if not CONFIG.is_file():
        print(f"error: missing {CONFIG}", file=sys.stderr)
        return 2

    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), sizes, out_root)
    except Exception:
        traceback.print_exc()
        return 1
    print("stamp " + json.dumps(result["stamp"], sort_keys=True))
    for name, (value, unit) in result["end_to_end"].items():
        gate = "gated" if name in GATED else "info"
        print(f"metric {name} = {value:.6g} {unit} ({gate})")
    rp = result["replan"]
    print(f"replan samples={rp['samples']} tail=p{rp['tail_percentile']:g} "
          f"beyond_tail={rp['beyond_tail']}")
    print("outcomes " + json.dumps(result["outcomes"], sort_keys=True))
    for name, ok in result["checks"].items():
        if not ok:
            print(f"check FAILED: {name}")
    line = final_line(result, bool(args.trace))
    print(json.dumps(line, sort_keys=True))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
