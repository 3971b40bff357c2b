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
from .collision import (
    Conflict,
    PlanRecord,
    WorldBounds,
    find_first_collision,
    plan_record,
)
from .config import RunConfig
from .diffusion import Policy
from .kinematics import EEPose, forward_kinematics, pos_distance, rot_distance
from .seeding import TAG_PLAN, substream


class PlanSet:
    """Growable per-arm candidate plans; indices are stable once assigned."""

    def __init__(self, plans):
        self.plans = [np.asarray(p, dtype=float) for p in plans]
        if not self.plans:
            raise ValueError("initial plan set must not be empty")

    def update(self, plan: np.ndarray) -> int:
        self.plans.append(np.asarray(plan, dtype=float))
        return len(self.plans) - 1

    def __len__(self) -> int:
        return len(self.plans)


@dataclass(frozen=True)
class SearchNode:
    b: tuple[int, ...]
    conflict_sets: tuple[frozenset, ...]
    cost: float
    seq: int


@dataclass
class PlannerResult:
    plans: tuple[np.ndarray, ...]
    t_star: int
    solved: bool
    stats: dict = field(default_factory=dict)


def _cost_terms(arm, final_config: np.ndarray, plan: np.ndarray, goal: EEPose) -> float:
    """Per-arm cost: summed step magnitudes plus the terminal pose residuals
    of `final_config`, the plan's rolled-out end."""
    ee = forward_kinematics(arm, final_config)
    smoothness = float(np.sum(np.linalg.norm(plan, axis=1)))
    return smoothness + pos_distance(ee, goal) + rot_distance(ee, goal)


def init_plans(single_policy: Policy, histories, batch: int, seed: int,
               delta_limit: float, bases, frozen=frozenset()) -> list[PlanSet]:
    """Sample each arm's candidate batch independently of the other arms.

    Arm i is conditioned on its world-frame history seen from its base,
    `bases[i]`. All non-frozen arms share one sampling chain; arm i keeps its
    own generator, so its plans do not depend on which other arms are
    sampled. Frozen arms (already at their goals) hold a single zero plan.
    """
    shape = (single_policy.pred_horizon, single_policy.action_dim)
    plan_sets = [PlanSet([np.zeros(shape)]) for _ in histories]
    active = [i for i in range(len(histories)) if i not in frozen]
    if active:
        conds = np.stack([obs.conditioning([histories[i]], bases[i]) for i in active])
        rngs = [substream(seed, TAG_PLAN, 0, i) for i in active]
        samples = single_policy.sample_plans_many(conds, batch, rngs, delta_limit)
        for i, arm_samples in zip(active, samples):
            plan_sets[i] = PlanSet(list(arm_samples))
    return plan_sets


class _Search:
    def __init__(self, arms, start_configs, goals, histories, single_policy: Policy,
                 dual_policy: Policy | None, cfg: RunConfig, seed: int, frozen,
                 audit: bool = False):
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
        self.bounds = WorldBounds.from_world(cfg.world)
        self.penalty = cfg.planner.collision_penalty
        self.plan_sets = init_plans(single_policy, histories, cfg.planner.batch, seed,
                                    self.delta, [arm.base for arm in self.arms],
                                    self.frozen)
        self.heap: list[tuple[float, int, SearchNode]] = []
        self.visited: set[tuple[int, ...]] = set()
        # Tuples ever inserted. Cost depends only on the tuple, so dropping
        # re-pushes from sibling expansions loses nothing but heap churn.
        self.pushed: set[tuple[int, ...]] = set()
        # (arm, plan index) -> PlanRecord, shared by first-conflict search and
        # cost, so each candidate plan is rolled out once.
        self.records: dict[tuple[int, int], PlanRecord] = {}
        # First-conflict verdicts for this replan's fixed starts, keyed by
        # record (see `find_first_collision`). Each call looks up n(n+1)/2
        # keys, so the hits are calls * n(n+1)/2 - len(memo).
        self.memo: dict = {}
        self.conflict_calls = 0
        self.seed = seed
        self.seq = 0
        self.audit = audit
        self.arm_terms: dict[tuple[int, int], float] = {}
        self.stats = {"expansions": 0, "generated": 0, "repairs": 0, "rebranches": 0,
                      "repair_plans": 0, "extraction_costs": [], "expanded_tuples": [],
                      "solved": False}
        if audit:
            self.stats["frontier_min_after"] = []
            self.stats["expanded_kappa"] = []

    # -- plumbing -----------------------------------------------------------

    def plans_for(self, b):
        return tuple(self.plan_sets[i].plans[bi] for i, bi in enumerate(b))

    def conflict_for(self, b) -> Conflict | None:
        self.conflict_calls += 1
        return find_first_collision(self.arms, [self.record(i, bi) for i, bi in enumerate(b)],
                                    self.bounds, self.memo)

    def record(self, i: int, bi: int) -> PlanRecord:
        rec = self.records.get((i, bi))
        if rec is None:
            rec = self.records[(i, bi)] = plan_record(
                self.arms[i], self.starts[i], self.plan_sets[i].plans[bi], self.delta)
        return rec

    def cost_for(self, b, collided: bool) -> float:
        total = 0.0
        for i, bi in enumerate(b):
            key = (i, bi)
            if key not in self.arm_terms:
                self.arm_terms[key] = _cost_terms(
                    self.arms[i], self.record(i, bi).configs[-1],
                    self.plan_sets[i].plans[bi], self.goals[i])
            total += self.arm_terms[key]
        return total + (self.penalty if collided else 0.0)

    def push(self, b, conflict_sets):
        if b in self.pushed:
            return
        self.pushed.add(b)
        conflict = self.conflict_for(b)
        cost = self.cost_for(b, conflict is not None)
        node = SearchNode(b, conflict_sets, cost, self.seq)
        self.seq += 1
        self.stats["generated"] += 1
        heapq.heappush(self.heap, (cost, node.seq, node))

    def pop(self) -> SearchNode | None:
        while self.heap:
            _, _, node = heapq.heappop(self.heap)
            if node.b not in self.visited:
                return node
        return None

    # -- successor generation -------------------------------------------------

    def rebranch(self, node: SearchNode, ego: int, kappa: frozenset):
        self.stats["rebranches"] += 1
        sets = list(node.conflict_sets)
        sets[ego] = kappa
        sets = tuple(sets)
        for m in range(len(self.plan_sets[ego])):
            if m in kappa:
                continue
            b = tuple(m if i == ego else bi for i, bi in enumerate(node.b))
            self.push(b, sets)

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
                                          self.arms[ego].base))
            rngs.append(substream(self.seed, TAG_PLAN, 1, self.stats["repairs"]))
            self.stats["repairs"] += 1
        samples = self.dual.sample_plans_many(np.stack(conds), self.cfg.planner.batch,
                                              rngs, self.delta)
        for s, plans in zip(slots, samples):
            out[s] = plans
        return out

    def repair(self, node: SearchNode, ego: int, kappa: frozenset, plans):
        """Append `plans` to the ego arm's set and push one successor each."""
        if plans is None:
            return
        sets = list(node.conflict_sets)
        sets[ego] = kappa
        sets = tuple(sets)
        for plan in plans:
            idx = self.plan_sets[ego].update(plan)
            self.stats["repair_plans"] += 1
            b = tuple(idx if i == ego else bi for i, bi in enumerate(node.b))
            self.push(b, sets)

    # -- main loop ------------------------------------------------------------

    def run(self) -> PlannerResult:
        deadline = None
        if self.cfg.planner.timeout_s is not None:
            deadline = time.monotonic() + self.cfg.planner.timeout_s
        horizon = self.single.pred_horizon

        root = tuple(0 for _ in range(self.n))
        self.push(root, tuple(frozenset() for _ in range(self.n)))

        result: PlannerResult | None = None
        while self.heap:
            if self.stats["expansions"] >= self.cfg.planner.max_expansions:
                break
            if deadline is not None and time.monotonic() >= deadline:
                break
            node = self.pop()
            if node is None:
                break
            self.visited.add(node.b)
            self.stats["expansions"] += 1
            self.stats["extraction_costs"].append(node.cost)
            self.stats["expanded_tuples"].append(node.b)
            if self.audit:
                rest = [c for c, _, nd in self.heap if nd.b not in self.visited]
                self.stats["frontier_min_after"].append(min(rest) if rest else None)
                self.stats["expanded_kappa"].append(node.conflict_sets)
            conflict = self.conflict_for(node.b)
            if conflict is None:
                self.stats["solved"] = True
                result = PlannerResult(self.plans_for(node.b), horizon, True)
                break
            i, j, t_hat = conflict.arm_i, conflict.arm_j, conflict.time
            kappa_i = node.conflict_sets[i] | {node.b[i]}
            self.rebranch(node, i, kappa_i)
            if not conflict.is_self:
                kappa_j = node.conflict_sets[j] | {node.b[j]}
                plans_i, plans_j = self.sample_repairs([(i, j), (j, i)])
                self.repair(node, i, kappa_i, plans_i)
                self.rebranch(node, j, kappa_j)
                self.repair(node, j, kappa_j, plans_j)

        if result is None:
            result = self._best_effort(horizon)
        result.stats = dict(self.stats)
        result.stats["cache_hits"] = (self.conflict_calls * self.n * (self.n + 1) // 2
                                      - len(self.memo))
        result.stats["cache_evals"] = len(self.memo)
        result.stats["plan_set_sizes"] = [len(ps) for ps in self.plan_sets]
        return result

    def _best_effort(self, horizon: int) -> PlannerResult:
        """Timeout or exhaustion: return the cheapest known node, with its own
        first-conflict time as the safe-execution prefix (floored at one)."""
        node = self.pop()
        if node is None:
            # Frontier exhausted: resort to the cheapest expanded node.
            best_b = min(self.visited,
                         key=lambda b: (self.cost_for(b, self.conflict_for(b) is not None), b))
            conflict = self.conflict_for(best_b)
            plans = self.plans_for(best_b)
        else:
            conflict = self.conflict_for(node.b)
            plans = self.plans_for(node.b)
        if conflict is None:
            self.stats["solved"] = True
            return PlannerResult(plans, horizon, True)
        return PlannerResult(plans, max(1, conflict.time), False)


def dgmap_search(arms, start_configs, goals, histories, single_policy: Policy,
                 dual_policy: Policy | None, cfg: RunConfig, seed: int,
                 frozen=frozenset(), audit: bool = False) -> PlannerResult:
    """Plan one horizon for every arm; best-effort on budget exhaustion."""
    search = _Search(arms, start_configs, goals, histories, single_policy,
                     dual_policy, cfg, seed, frozen, audit)
    return search.run()
