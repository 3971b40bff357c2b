"""Which program names the traced run wraps, and the per-layer metrics.

The layers are the package modules. A wrapper goes on every module name a
caller looks up, because `from .x import f` binds f at import time.
"""

from __future__ import annotations

import numpy as np

from tracer import Patcher, Tracer


def _bench_segment(tracer, args):
    # bench.segment_has_collision serves both the baseline's per-step safety
    # check and the post-hoc re-simulation.
    return "bench.resim.segment" if tracer.current == "bench.resim" else "controller.safety_check"


def _sample_name(tracer, args):
    return f"diffusion.sample_{args[0].family}"


def _count_success(key):
    def after(tracer, args, result):
        tracer.count(key, result is not None)
    return after


def _forward_rows(tracer, args, result):
    tracer.count("nets.forward.rows", np.shape(args[1])[0])


def _kernel_pairs(tracer, args, result):
    shape = np.broadcast_shapes(*(np.shape(a)[:-1] for a in args[:4]))
    tracer.count("collision.segment_pairs", int(np.prod(shape)))


def _next_episode(tracer, args):
    tracer.episode += 1


def install(tracer: Tracer, patcher: Patcher) -> None:
    from multiarm import (bench, collision, controller, datasets, diffusion, expert,
                          kinematics, nets, observation, planner, tasks)

    def wrap(owner, attr, name, **hooks):
        patcher.replace(owner, attr, lambda fn: tracer.span(name, fn, **hooks))

    def wrap_factory(owner, attr, name):
        # The factory returns a validity closure; the span goes on the closure.
        patcher.replace(owner, attr, lambda make: lambda *a, **k: tracer.span(name, make(*a, **k)))

    wrap(controller, "dgmap_search", "planner.search")
    wrap(controller, "segment_has_collision", "controller.safety_check")
    wrap(bench, "segment_has_collision", _bench_segment)
    wrap(bench, "run_episode", "controller.episode")
    wrap(bench, "baseline_decentralized", "bench.baseline")
    wrap(bench, "resimulate_trajectory", "bench.resim")
    wrap(bench, "write_report", "bench.report")
    wrap(bench, "generate_task", "tasks.generate", before=_next_episode)
    for owner in (planner, bench):
        wrap(owner, "find_first_collision", "collision.first_conflict")
    wrap(collision, "segment_distance_batch", "collision.segment_kernel", after=_kernel_pairs)
    for owner in (expert, datasets, tasks):
        wrap(owner, "is_free", "collision.predicate")
        wrap(owner, "arms_collide", "collision.predicate")
    for attr in ("birrt_plan", "dual_birrt_plan"):
        wrap(datasets, attr, "expert.birrt", after=_count_success("expert.birrt.ok"))
    wrap_factory(datasets, "single_arm_validity", "expert.validity")
    wrap_factory(expert, "dual_arm_validity", "expert.validity")
    for owner in (datasets, tasks):
        wrap(owner, "sample_goal_config", "expert.goal_ik",
             after=_count_success("expert.goal_ik.ok"))
    wrap(diffusion.Policy, "sample_plans", _sample_name)
    wrap(nets.DenoiserMLP, "forward", "nets.forward", after=_forward_rows)
    wrap(nets.DenoiserMLP, "backward", "nets.backward")
    wrap(nets.AdamW, "step", "nets.adamw")
    wrap(diffusion, "ema_update", "nets.ema")
    wrap(observation, "build_frame", "observation.build_frame")
    for owner in (kinematics, bench, controller, datasets, planner, tasks):
        wrap(owner, "forward_kinematics", "kinematics.forward_kinematics")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(tracer: Tracer, planner_totals: dict, records: list, sets: dict) -> dict:
    """Per-layer metrics as {name: (value, unit)}.

    `planner_totals` sums the planner's own stats over the timed replans,
    `records` are the timed episodes' `episodes.jsonl` records and `sets`
    holds the set-up's dataset counts.
    """
    t = tracer
    out = {}

    def calls_s(name):
        out[f"{name}.calls"] = (t.calls(name), "count")
        out[f"{name}.s"] = (t.seconds(name), "s")

    calls_s("controller.safety_check")
    chunks = [c for r in records for c in r["chunks"]]
    out["controller.steps"] = (sum(r["steps"] for r in records), "count")
    out["controller.chunk_mean"] = (float(np.mean(chunks)) if chunks else 0.0, "steps")
    calls_s("diffusion.sample_single")
    calls_s("diffusion.sample_dual")
    calls_s("nets.forward")
    out["nets.forward.rows"] = (int(t.counts.get("nets.forward.rows", 0)), "count")
    for key in ("repairs", "rebranches", "expansions", "generated", "budget_exhausted"):
        out[f"planner.{key}"] = (planner_totals.get(key, 0), "count")
    out["planner.search.calls"] = (t.calls("planner.search"), "count")
    out["planner.search.s"] = (t.seconds("planner.search"), "s")
    out["planner.search.self_s"] = (t.self_seconds("planner.search"), "s")
    out["planner.solved_ratio"] = (_ratio(planner_totals.get("solved", 0),
                                          planner_totals.get("calls", 0)), "ratio")
    calls_s("collision.first_conflict")
    hits, evals = planner_totals.get("cache_hits", 0), planner_totals.get("cache_evals", 0)
    out["collision.cache_hit_ratio"] = (_ratio(hits, hits + evals), "ratio")
    out["collision.cache_evals"] = (evals, "count")
    out["collision.segment_kernel.s"] = (t.seconds("collision.segment_kernel"), "s")
    out["collision.segment_pairs"] = (int(t.counts.get("collision.segment_pairs", 0)), "count")
    calls_s("collision.predicate")
    calls_s("expert.birrt")
    out["expert.birrt.success_ratio"] = (
        _ratio(t.counts.get("expert.birrt.ok", 0), t.calls("expert.birrt")), "ratio")
    calls_s("expert.validity")
    out["expert.goal_ik.calls"] = (t.calls("expert.goal_ik"), "count")
    out["expert.goal_ik.success_ratio"] = (
        _ratio(t.counts.get("expert.goal_ik.ok", 0), t.calls("expert.goal_ik")), "ratio")
    out["datasets.generate_single.s"] = (t.seconds("datasets.generate_single"), "s")
    out["datasets.generate_dual.s"] = (t.seconds("datasets.generate_dual"), "s")
    out["datasets.records"] = (sets["records"], "count")
    out["datasets.skipped_ratio"] = (_ratio(sets["skipped"], sets["episodes"]), "ratio")
    out["datasets.io.s"] = (t.seconds("datasets.io"), "s")
    for name in ("nets.backward", "nets.adamw", "nets.ema", "diffusion.train",
                 "diffusion.ckpt_io"):
        out[f"{name}.s"] = (t.seconds(name), "s")
    calls_s("tasks.generate")
    out["bench.baseline.s"] = (t.seconds("bench.baseline"), "s")
    out["bench.baseline.self_s"] = (t.self_seconds("bench.baseline"), "s")
    calls_s("bench.resim")
    out["bench.report.s"] = (t.seconds("bench.report"), "s")
    calls_s("observation.build_frame")
    calls_s("kinematics.forward_kinematics")
    out["trace.spans_dropped"] = (t.dropped, "count")
    return out
