"""Benchmark harness: baseline policy, paired-seed matrix runs, reports.

Each task is drawn once per (n_arms, difficulty, episode) and run by every
method, so the methods see byte-identical tasks. Episodes marked successful
are re-simulated densely afterwards; a single re-simulation violation fails
the soundness gate. Reports are a fixed-column CSV plus JSON-lines episode
records, both carrying the config digest.
"""

from __future__ import annotations

import csv
import dataclasses
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import observation as obs
from .collision import (WorldBounds, fill_self_verdicts, find_first_collision, rollout,
                        segment_has_collision)
from .config import DIFFICULTIES, RunConfig, config_digest, morphology_digest
from .controller import EpisodeResult, WorldState, make_world, run_episode, run_loop
from .datasets import Dataset, episode_windows, generate_dataset, path_to_deltas
from .diffusion import Policy, cosine_schedule, policy_from_state, train
from .kinematics import BasePose, EEPose, forward_kinematics, make_arm, pos_distance
from .nets import DenoiserMLP
from .planner import candidates, init_plans
from .seeding import METHOD_IDS, TAG_EPISODE, TAG_TASK, TAG_TOY, substream
from .tasks import generate_task, task_digest

METHODS = tuple(METHOD_IDS)


# ---------------------------------------------------------------------------
# Decentralized baseline: greedy per-arm sampling, no conflict resolution.
# ---------------------------------------------------------------------------

def _best_own_plan(arm, q, goal, plans, cfg: RunConfig, bounds) -> np.ndarray:
    """The arm's cheapest candidate, judged on its own: no other arm exists.
    Ties go to the earliest plan. The plans are built and self-checked
    together, so each plan's conflict query only reads the memo."""
    records, costs = candidates(arm, q, plans, goal, cfg.controller.delta_limit)
    memo: dict = {}
    fill_self_verdicts(arm, records, bounds, memo)
    for p, rec in enumerate(records):
        if find_first_collision([arm], [rec], bounds, memo) is not None:
            costs[p] += cfg.planner.collision_penalty
    return plans[min(range(len(plans)), key=costs.__getitem__)]


def baseline_decentralized(world: WorldState, single: Policy, cfg: RunConfig,
                           seed: int) -> EpisodeResult:
    """Each arm executes its own best sample every cycle, through the same
    sampler and executor as DG-MAP: a collision ends the episode as failure."""
    ctrl = cfg.controller

    def propose(cycle, frozen):
        plan_sets = init_plans(single, world.histories(single.obs_horizon),
                               cfg.planner.batch, (seed, TAG_EPISODE, cycle),
                               ctrl.delta_limit, [arm.base for arm in world.arms], frozen)
        plans = [own[0] if i in frozen else
                 _best_own_plan(world.arms[i], world.configs[i], world.goals[i], own,
                                cfg, cfg.world)
                 for i, own in enumerate(plan_sets)]
        return plans, ctrl.baseline_chunk, {}

    return run_loop(world, cfg, propose)


# ---------------------------------------------------------------------------
# Dense post-hoc re-simulation.
# ---------------------------------------------------------------------------

def resimulate_trajectory(arms, trajectories, bounds: WorldBounds,
                          subsamples: int) -> bool:
    """True when the whole recorded trajectory is collision-free under dense
    interpolation. `trajectories[i]` is arm i's (steps + 1, dof) configs;
    every step of every arm goes through one `segment_has_collision` call,
    the executor's own check."""
    return segment_has_collision(arms, trajectories, bounds, subsamples) is None


# ---------------------------------------------------------------------------
# Matrix runner.
# ---------------------------------------------------------------------------

@dataclass
class BenchReport:
    cells: dict
    episodes: list
    config_digest: str
    seed: int
    gates: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(self.gates.values())


_WORKER_STATE: dict = {}


def _worker_init(cfg, policies):
    _WORKER_STATE["cfg"] = cfg
    _WORKER_STATE["policies"] = policies


def _worker_task(job):
    return _run_task(*job, _WORKER_STATE["cfg"], _WORKER_STATE["policies"])


def _run_task(n_arms, difficulty, episode, methods, master_seed, cfg, policies):
    """One paired episode: the task is drawn once and every method in
    `methods` runs it on a fresh world. Returns one record per method."""
    diff_idx = DIFFICULTIES.index(difficulty)
    task_rng = substream(master_seed, TAG_TASK, n_arms, diff_idx, episode)
    task = generate_task(n_arms, difficulty, task_rng, cfg, seed=episode)
    digest = task_digest(task)
    records = []
    for method in methods:
        ep_seed = int(substream(master_seed, TAG_EPISODE, METHOD_IDS[method], n_arms,
                                diff_idx, episode).integers(0, 2 ** 62))
        world = make_world(task.arms, task.starts, task.goals)
        if method == "dgmap":
            result = run_episode(world, policies["single"], policies.get("dual"), cfg, ep_seed)
        else:
            result = baseline_decentralized(world, policies["single"], cfg, ep_seed)
        resim_ok = True
        if result.success:
            resim_ok = resimulate_trajectory(task.arms, world.trajectories, cfg.world,
                                             cfg.bench.resim_subsamples)
        record = {
            "method": method,
            "n_arms": n_arms,
            "difficulty": difficulty,
            "episode": episode,
            "task_digest": digest,
            "resim_ok": bool(resim_ok),
        }
        record.update(result.to_json())
        records.append(record)
    return records


def check_methods(methods) -> None:
    """Raise ValueError unless `methods` names known methods, at least one,
    each once."""
    if not methods:
        raise ValueError(f"no method given; known {list(METHODS)}")
    for method in methods:
        if method not in METHODS:
            raise ValueError(f"unknown method {method!r}; known {list(METHODS)}")
    if len(set(methods)) < len(methods):
        raise ValueError(f"a method is repeated in {list(methods)}")


def run_benchmark(cfg: RunConfig, policies, methods, out_dir: str | Path,
                  workers: int = 1) -> BenchReport:
    """Run the full matrix and write report.csv + episodes.jsonl."""
    check_methods(methods)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    digest = config_digest(cfg)
    master_seed = cfg.seed

    jobs = [(n, diff, ep, tuple(methods), master_seed)
            for n in cfg.bench.n_arms
            for diff in cfg.bench.difficulties
            for ep in range(cfg.bench.episodes_per_cell)]

    if workers > 1:
        # RunConfig is a frozen dataclass tree and Policy a dataclass of
        # arrays, so both pickle as they are.
        with ProcessPoolExecutor(max_workers=workers, initializer=_worker_init,
                                 initargs=(cfg, policies)) as pool:
            per_task = list(pool.map(_worker_task, jobs))
    else:
        per_task = [_run_task(*job, cfg, policies) for job in jobs]
    records = [rec for recs in per_task for rec in recs]

    records.sort(key=lambda r: (r["method"], r["n_arms"],
                                DIFFICULTIES.index(r["difficulty"]), r["episode"]))

    cells: dict = {}
    for rec in records:
        key = (rec["method"], rec["n_arms"], rec["difficulty"])
        cells.setdefault(key, []).append(rec)

    summary = {}
    for key, recs in cells.items():
        n_eps = len(recs)
        successes = [r for r in recs if r["success"]]
        rate = len(successes) / n_eps if n_eps else 0.0
        mean_steps = (sum(r["steps"] for r in successes) / len(successes)
                      if successes else None)
        summary[key] = {"success_rate": rate, "mean_steps": mean_steps,
                        "episodes": n_eps}

    report = BenchReport(summary, records, digest, master_seed)
    report.gates = evaluate_gates(cfg, report, methods)
    write_report(report, cfg, methods, out_dir)
    return report


def evaluate_gates(cfg: RunConfig, report: BenchReport, methods) -> dict:
    gates = {}
    if cfg.bench.gate_soundness:
        gates["soundness"] = all(r["resim_ok"] for r in report.episodes
                                 if r["success"])
    margin = cfg.bench.gate_trend_margin
    if margin is not None and set(("dgmap", "decentralized")) <= set(methods):
        # Passes only when some n >= 3 was compared and every comparison holds.
        gaps = []
        for n in cfg.bench.n_arms:
            if n < 3:
                continue
            pair = []
            for method in ("dgmap", "decentralized"):
                cells = [report.cells.get((method, n, d)) for d in ("medium", "hard")]
                cells = [c for c in cells if c]
                if not cells:
                    break
                pair.append(sum(c["success_rate"] for c in cells) / len(cells))
            if len(pair) == 2:
                gaps.append(pair[0] - pair[1])
        gates["trend"] = bool(gaps) and min(gaps) >= margin
    floor = cfg.bench.gate_easy_floor
    if floor is not None and "dgmap" in methods:
        rates = [c["success_rate"] for key, c in report.cells.items()
                 if key[0] == "dgmap" and key[2] == "easy"]
        gates["easy_floor"] = bool(rates) and sum(rates) / len(rates) >= floor
    return gates


def write_report(report: BenchReport, cfg: RunConfig, methods, out_dir: Path) -> None:
    csv_path = out_dir / "report.csv"
    with open(csv_path, "w", newline="") as fh:
        fh.write(f"# config_digest={report.config_digest} seed={report.seed}\n")
        writer = csv.writer(fh)
        writer.writerow(["method", "n_arms", "difficulty", "success_rate",
                         "mean_steps", "episodes"])
        for method in methods:
            for n in cfg.bench.n_arms:
                for diff in cfg.bench.difficulties:
                    cell = report.cells.get((method, n, diff))
                    if cell is None:
                        continue
                    mean = ("" if cell["mean_steps"] is None
                            else f"{cell['mean_steps']:.2f}")
                    writer.writerow([method, n, diff,
                                     f"{cell['success_rate']:.4f}", mean,
                                     cell["episodes"]])
    jsonl_path = out_dir / "episodes.jsonl"
    with open(jsonl_path, "w") as fh:
        fh.write(json.dumps({"type": "meta", "config_digest": report.config_digest,
                             "seed": report.seed, "methods": list(methods)},
                            sort_keys=True) + "\n")
        for rec in report.episodes:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def verify_task_pairing(report: BenchReport, methods) -> bool:
    """Hash-verified: all methods saw identical task sequences per cell."""
    digests: dict = {}
    for rec in report.episodes:
        key = (rec["n_arms"], rec["difficulty"], rec["episode"])
        digests.setdefault(key, set()).add(rec["task_digest"])
    return all(len(v) == 1 for v in digests.values())


# ---------------------------------------------------------------------------
# Toy 1-dof suite: trains a tiny model on straight-to-goal experts.
# ---------------------------------------------------------------------------

def toy_arm():
    return make_arm((1.0,), BasePose(0.0, 0.0, 0.0), 0.05)


def toy_expert_path(q0: float, goal_q: float, delta: float) -> np.ndarray:
    path = [np.array([q0])]
    q = q0
    while abs(goal_q - q) > 1e-12:
        q = q + float(np.clip(goal_q - q, -delta, delta))
        path.append(np.array([q]))
    return np.stack(path)


def _toy_endpoints(rng):
    """Start/goal pairs whose straight angular path is also the shortest one,
    so the wrapped goal pose in the observation determines the behavior."""
    goal_q = rng.uniform(-np.pi * 0.95, np.pi * 0.95)
    lo = max(-np.pi * 0.95, goal_q - np.pi * 0.9)
    hi = min(np.pi * 0.95, goal_q + np.pi * 0.9)
    return float(rng.uniform(lo, hi)), float(goal_q)


def _toy_episode(arms, rng, *, t_o, t_p, delta):
    (arm,) = arms
    q0, goal_q = _toy_endpoints(rng)
    path = toy_expert_path(q0, goal_q, delta)
    goal_pose = forward_kinematics(arm, np.array([goal_q]))
    return [episode_windows([obs.frames(arm, path, goal_pose)], path_to_deltas(path), t_o,
                            t_p, arm.base)]


def toy_dataset(cfg: RunConfig, seed: int) -> Dataset:
    arm = toy_arm()
    return generate_dataset("single", lambda rng: (arm,), _toy_episode, cfg.toy.episodes,
                            (seed, TAG_TOY), "toy", t_o=cfg.diffusion.obs_horizon,
                            t_p=cfg.diffusion.pred_horizon, delta=cfg.controller.delta_limit)


def goal_directed_fraction(policy_like, cfg: RunConfig, seed: int,
                           n_eval: int | None = None) -> float:
    """Fraction of sampled plans whose rollout approaches the goal without
    ever retreating by more than the slack."""
    arm = toy_arm()
    delta = cfg.controller.delta_limit
    t_p = cfg.diffusion.pred_horizon
    slack = cfg.toy.monotone_slack
    n_eval = n_eval if n_eval is not None else cfg.toy.eval_samples
    rng = substream(seed, TAG_TOY, 10_000)
    hits = 0
    for trial in range(n_eval):
        q0, goal_q = _toy_endpoints(rng)
        goal_pose = forward_kinematics(arm, np.array([goal_q]))
        frame = obs.build_frame(arm, np.array([q0]), goal_pose)
        cond = obs.conditioning([frame[None]], arm.base, cfg.diffusion.obs_horizon)[-1]
        plan = policy_like.sample_plans(cond, 1, rng, delta)[0]
        if _plan_goal_directed(arm, float(q0), goal_pose, plan, delta, slack,
                               cfg.controller.pos_tol):
            hits += 1
    return hits / n_eval


def dataset_goal_directed_fraction(dataset: Dataset, cfg: RunConfig) -> float:
    """The metric applied to the stored expert windows themselves."""
    arm = toy_arm()
    delta = cfg.controller.delta_limit
    slack = cfg.toy.monotone_slack
    width = obs.frame_width(1)
    hits = 0
    for row, act in zip(dataset.observations, dataset.actions):
        newest = row[-width:]
        q0 = float(newest[0])
        goal = newest[obs.slot(1, "goal_pose")]
        goal_pose = EEPose(np.array(goal[:2], dtype=float), float(goal[2]))
        plan = act.reshape(dataset.t_p, 1).astype(float)
        if _plan_goal_directed(arm, q0, goal_pose, plan, delta, slack,
                               cfg.controller.pos_tol):
            hits += 1
    return hits / len(dataset.observations)


def _plan_goal_directed(arm, q0, goal_pose, plan, delta, slack, pos_tol) -> bool:
    traj = rollout(arm, np.array([q0]), plan, delta)
    dists = [pos_distance(forward_kinematics(arm, q), goal_pose) for q in traj]
    for a, b in zip(dists[:-1], dists[1:]):
        if b > a + slack and b > pos_tol:
            return False
    if dists[0] <= pos_tol:
        return True
    return dists[-1] <= dists[0] - min(0.05, 0.5 * dists[0])


def _untrained_policy(dataset: Dataset, cfg: RunConfig, seed: int) -> Policy:
    """Fresh random-weight model wrapped with the dataset normalization."""
    model = DenoiserMLP("single", dataset.actions.shape[1], dataset.obs_width,
                        cfg.toy.hidden_dims, cfg.diffusion.embed_dim,
                        cfg.diffusion.denoise_steps, substream(seed, TAG_TOY, 77))
    return Policy("single", model, cosine_schedule(cfg.diffusion.denoise_steps),
                  dataset.norm, dataset.t_o, dataset.t_p, dataset.action_dim,
                  dataset.frame_width, "toy", {})


def toy_pointmass_suite(cfg: RunConfig, seed: int | None = None, log=None) -> dict:
    """Train the tiny single-arm model and report goal-directedness."""
    seed = cfg.seed if seed is None else seed
    dataset = toy_dataset(cfg, seed)
    dcfg = dataclasses.replace(cfg.diffusion, epochs=cfg.toy.epochs,
                               batch_size=cfg.toy.batch_size,
                               learning_rate=cfg.toy.learning_rate,
                               hidden_dims=cfg.toy.hidden_dims)
    state = train(dataset, "single", dcfg, seed, log=log)
    policy = policy_from_state(state, "single", dataset, "toy", {"suite": "toy"})
    return {
        "expert_fraction": dataset_goal_directed_fraction(dataset, cfg),
        "untrained_fraction": goal_directed_fraction(
            _untrained_policy(dataset, cfg, seed), cfg, seed),
        "trained_fraction": goal_directed_fraction(policy, cfg, seed),
        "records": len(dataset),
    }
