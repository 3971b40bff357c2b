"""Best-first search over per-arm plan-index tuples.

Each arm starts with a batch of candidate delta-action plans sampled from
the single-arm model. Nodes pick one plan per arm; the earliest conflict of
the chosen combination triggers two successor strategies for each involved
arm: Rebranch swaps in existing alternatives, Repair samples fresh plans
from the pair-conditioned model. Both repairs of one expansion are sampled
in one stacked chain, each from its own substream. The frontier is ordered
by a cost that adds path smoothness, terminal goal residuals, and a flat
collision penalty. Search is deterministic given a seed; the wall-clock
timeout is optional and off by default.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field

import numpy as np

from . import observation as obs
from .collision import (Conflict, PlanRecord, checked_states, find_first_collision, rollout,
                        state_records)
from .config import RunConfig
from .diffusion import Policy
from .kinematics import (EEPose, chain_vertices, forward_kinematics, pos_distance,
                         rot_distance, wrap_angle)
from .seeding import TAG_PLAN, substream


@dataclass
class PlannerResult:
    plans: tuple[np.ndarray, ...]
    t_star: int
    solved: bool
    stats: dict = field(default_factory=dict)


def _cost_terms(arm, final_config: np.ndarray, plan: np.ndarray, goal: EEPose) -> float:
    """Per-arm cost: summed step magnitudes plus the terminal pose residuals
    of `final_config`, the plan's rolled-out end. `candidates` computes it
    for a plan stack, bit for bit."""
    ee = forward_kinematics(arm, final_config)
    smoothness = float(np.sum(np.linalg.norm(plan, axis=1)))
    return smoothness + pos_distance(ee, goal) + rot_distance(ee, goal)


def candidates(arm, q0: np.ndarray, plans, goal: EEPose,
               delta_limit: float) -> tuple[list[PlanRecord], list[float]]:
    """A (P, T, d) plan stack's candidates as the search and the baseline
    score them: each plan's `PlanRecord` and its cost terms (`_cost_terms`),
    from one rollout, one vertex pass and one end-pose pass for the stack.

    `np.vecdot` runs the kernel `np.linalg.norm` uses for one 2-vector, so
    each position residual keeps a solo call's bits."""
    plans = np.asarray(plans, dtype=float)
    configs = rollout(arm, q0, plans, delta_limit)
    # Each plan checked at its steps' midpoints and endpoints.
    records = state_records(arm, checked_states(configs, 2), 2)
    ends = configs[:, -1]
    off = chain_vertices(arm, ends)[:, -1] - goal.position
    heading = wrap_angle(arm.base.heading + np.sum(ends, axis=1))
    cost = (np.sum(np.linalg.norm(plans, axis=2), axis=1) + np.sqrt(np.vecdot(off, off))
            + np.abs(wrap_angle(heading - goal.orientation)))
    return records, cost.tolist()


def init_plans(single_policy: Policy, histories, batch: int, stream: tuple,
               delta_limit: float, bases, frozen=frozenset()) -> list[list[np.ndarray]]:
    """Sample each arm's candidate batch independently of the other arms.

    This is every method's sampler: the search passes the substream prefix
    `(seed, TAG_PLAN, 0)`, the decentralized baseline `(seed, TAG_EPISODE,
    cycle)`. Arm i is conditioned on its world-frame history seen from its
    base, `bases[i]`. All non-frozen arms share one sampling chain; arm i
    draws from its own substream `(*stream, i)`, so its plans do not depend
    on which other arms are sampled. Frozen arms (already at their goals)
    hold a single zero plan.
    """
    shape = (single_policy.pred_horizon, single_policy.action_dim)
    plan_sets = [[np.zeros(shape)] for _ in histories]
    active = [i for i in range(len(histories)) if i not in frozen]
    if active:
        conds = np.stack([obs.conditioning([histories[i]], bases[i],
                                           single_policy.obs_horizon)[-1] for i in active])
        rngs = [substream(*stream, i) for i in active]
        samples = single_policy.sample_plans_many(conds, batch, rngs, delta_limit)
        for i, arm_samples in zip(active, samples):
            plan_sets[i] = list(arm_samples)
    return plan_sets


class _Search:
    """One replan's best-first search over plan-index tuples. `push` finds
    each tuple's first conflict once and keeps it in `conflicts`, where a
    pop and `result`, which builds every search result, read it."""

    def __init__(self, arms, start_configs, goals, histories, single_policy: Policy,
                 dual_policy: Policy | None, cfg: RunConfig, seed: int, frozen):
        self.arms = list(arms)
        self.starts = [np.asarray(q, dtype=float) for q in start_configs]
        self.goals = list(goals)
        self.histories = list(histories)
        self.cfg = cfg
        self.single = single_policy
        self.dual = dual_policy
        self.frozen = frozenset(frozen)
        self.n = len(self.arms)
        self.delta = cfg.controller.delta_limit
        self.penalty = cfg.planner.collision_penalty
        # Arm i's candidate plans; repairs append, so indices are stable.
        self.plan_sets = init_plans(single_policy, histories, cfg.planner.batch,
                                    (seed, TAG_PLAN, 0), self.delta,
                                    [arm.base for arm in self.arms], self.frozen)
        # Frontier entries (cost, seq, b, conflict_sets). seq is the push
        # count, so cost ties break in push order.
        self.heap: list[tuple] = []
        # Each tuple ever pushed -> the first conflict its push query found
        # (None when clear). Cost and verdict depend only on the tuple, so
        # dropping re-pushes from sibling expansions loses nothing but heap
        # churn, no tuple is popped twice and none is queried twice.
        self.conflicts: dict[tuple[int, ...], Conflict | None] = {}
        # (arm, plan index) -> (PlanRecord, cost terms), filled once per candidate
        # by `build`: first-conflict search and cost share its one rollout.
        self.candidates: dict[tuple[int, int], tuple[PlanRecord, float]] = {}
        # First-conflict verdicts for this replan's fixed starts, keyed by
        # record (see `find_first_collision`). Each pushed tuple looks up
        # n(n+1)/2 keys once, so the hits are generated * n(n+1)/2 - len(memo).
        self.memo: dict = {}
        self.seed = seed
        self.stats = {"expansions": 0, "generated": 0, "repairs": 0, "rebranches": 0,
                      "repair_plans": 0, "extraction_costs": [], "expanded_tuples": []}

    # -- plumbing -----------------------------------------------------------

    def build(self, ego: int, indices):
        """Build the ego arm's candidates `indices` not yet in the table, in
        one `candidates` call: the search's one candidate builder."""
        new = [m for m in indices if (ego, m) not in self.candidates]
        if new:
            built = candidates(self.arms[ego], self.starts[ego],
                               [self.plan_sets[ego][m] for m in new], self.goals[ego],
                               self.delta)
            for m, rec, cost in zip(new, *built):
                self.candidates[(ego, m)] = (rec, cost)

    def push(self, tuples, conflict_sets):
        """The one way into the frontier: push each of `tuples` not pushed
        before, in order, with `conflict_sets`, after one `build` call per arm
        and one first-conflict query for them all, kept in `conflicts`."""
        new = [b for b in dict.fromkeys(tuples) if b not in self.conflicts]
        if not new:
            return
        for i in range(self.n):
            self.build(i, [b[i] for b in new])
        found = find_first_collision(
            self.arms, [[self.candidates[(i, bi)][0] for i, bi in enumerate(b)] for b in new],
            self.cfg.world, self.memo)
        for b, conflict in zip(new, found):
            self.conflicts[b] = conflict
            cost = (sum(self.candidates[(i, bi)][1] for i, bi in enumerate(b))
                    + (0.0 if conflict is None else self.penalty))
            heapq.heappush(self.heap, (cost, self.stats["generated"], b, conflict_sets))
            self.stats["generated"] += 1

    def pop(self):
        """The cheapest frontier entry (cost, seq, b, conflict_sets), or None."""
        return heapq.heappop(self.heap) if self.heap else None

    # -- successor generation -------------------------------------------------

    def branch(self, b, conflict_sets, ego: int, kappa: frozenset, indices):
        """Push b with the ego arm's plan index set to each of `indices` and
        its conflict set to `kappa`."""
        sets = conflict_sets[:ego] + (kappa,) + conflict_sets[ego + 1:]
        self.push([b[:ego] + (m,) + b[ego + 1:] for m in indices], sets)

    def rebranch(self, b, conflict_sets, ego: int, kappa: frozenset):
        """Push one successor per existing ego plan outside `kappa`."""
        self.stats["rebranches"] += 1
        self.branch(b, conflict_sets, ego, kappa,
                    [m for m in range(len(self.plan_sets[ego])) if m not in kappa])

    def sample_repairs(self, pairs) -> list:
        """Fresh pair-conditioned plans for each (ego, other) pair, or None
        where the ego arm cannot be repaired, from one stacked chain.

        Repair r of the search (counted in `stats["repairs"]`) draws from
        substream (seed, TAG_PLAN, 1, r), so its plans do not depend on
        which other repair shares its chain.
        """
        slots = [s for s, (ego, _) in enumerate(pairs)
                 if self.dual is not None and ego not in self.frozen]
        out = [None] * len(pairs)
        if not slots:
            return out
        conds, rngs = [], []
        for s in slots:
            ego, other = pairs[s]
            conds.append(obs.conditioning([self.histories[other], self.histories[ego]],
                                          self.arms[ego].base, self.dual.obs_horizon)[-1])
            rngs.append(substream(self.seed, TAG_PLAN, 1, self.stats["repairs"]))
            self.stats["repairs"] += 1
        samples = self.dual.sample_plans_many(np.stack(conds), self.cfg.planner.batch,
                                              rngs, self.delta)
        for s, plans in zip(slots, samples):
            out[s] = plans
        return out

    def repair(self, b, conflict_sets, ego: int, kappa: frozenset, plans):
        """Append `plans` to the ego arm's set and push one successor each."""
        if plans is None:
            return
        first = len(self.plan_sets[ego])
        self.plan_sets[ego].extend(plans)
        self.stats["repair_plans"] += len(plans)
        self.branch(b, conflict_sets, ego, kappa, range(first, len(self.plan_sets[ego])))

    # -- main loop ------------------------------------------------------------

    def run(self) -> PlannerResult:
        deadline = None
        if self.cfg.planner.timeout_s is not None:
            deadline = time.monotonic() + self.cfg.planner.timeout_s
        # The root tuple: each arm's plan 0.
        self.push([(0,) * self.n], tuple(frozenset() for _ in range(self.n)))
        while self.heap:
            if (self.stats["expansions"] >= self.cfg.planner.max_expansions
                    or deadline is not None and time.monotonic() >= deadline):
                # Out of budget or time: the cheapest frontier tuple.
                return self.result(self.pop()[2])
            cost, _, b, sets = self.pop()
            self.stats["expansions"] += 1
            self.stats["extraction_costs"].append(cost)
            self.stats["expanded_tuples"].append(b)
            conflict = self.conflicts[b]
            if conflict is None:
                return self.result(b)
            i, j = conflict.arm_i, conflict.arm_j
            kappa_i = sets[i] | {b[i]}
            self.rebranch(b, sets, i, kappa_i)
            if not conflict.is_self:
                kappa_j = sets[j] | {b[j]}
                plans_i, plans_j = self.sample_repairs([(i, j), (j, i)])
                self.repair(b, sets, i, kappa_i, plans_i)
                self.rebranch(b, sets, j, kappa_j)
                self.repair(b, sets, j, kappa_j, plans_j)
        # Frontier exhausted: the cheapest expanded tuple, ties to the lower.
        return self.result(min(zip(self.stats["extraction_costs"],
                                   self.stats["expanded_tuples"]))[1])

    def result(self, b) -> PlannerResult:
        """The search's one result builder: tuple b's plans, executable to the
        horizon when its push found it clear (solved), else to its first
        conflict's time floored at one step, with the search's stats."""
        conflict = self.conflicts[b]
        solved, evals = conflict is None, len(self.memo)
        stats = dict(self.stats, solved=solved,
                     cache_hits=self.stats["generated"] * self.n * (self.n + 1) // 2 - evals,
                     cache_evals=evals, plan_set_sizes=[len(ps) for ps in self.plan_sets])
        t_star = self.single.pred_horizon if solved else max(1, conflict.time)
        plans = tuple(self.plan_sets[i][bi] for i, bi in enumerate(b))
        return PlannerResult(plans, t_star, solved, stats)


def dgmap_search(arms, start_configs, goals, histories, single_policy: Policy,
                 dual_policy: Policy | None, cfg: RunConfig, seed: int,
                 frozen=frozenset()) -> PlannerResult:
    """Plan one horizon for every arm; best-effort on budget exhaustion."""
    search = _Search(arms, start_configs, goals, histories, single_policy,
                     dual_policy, cfg, seed, frozen)
    return search.run()
