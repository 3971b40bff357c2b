import dataclasses
import hashlib
import math

import numpy as np
import pytest

from multiarm import planner as pl
from multiarm.collision import rollout
from multiarm.config import RunConfig, WorldBounds, load_config
from multiarm.kinematics import BasePose, EEPose, forward_kinematics, make_arm
from multiarm.observation import frames
from multiarm.planner import dgmap_search
from multiarm.seeding import TAG_PLAN, substream

from .test_collision import first_conflict, plan_record
from .test_diffusion import random_policy

T_P = 16
DELTA = 0.1


def plan_cost_terms(arm, start, plan, goal, delta_limit):
    """The search's per-arm cost of one plan, rolled out from `start`."""
    plan = np.asarray(plan, dtype=float)
    return pl._cost_terms(arm, rollout(arm, start, plan, delta_limit)[-1], plan, goal)


class PerRowSampling:
    """sample_plans_many as one sample_plans call per conditioning row."""

    def sample_plans_many(self, obs_vecs, count, rngs, delta_limit):
        return np.stack([self.sample_plans(o, count, g, delta_limit)
                         for o, g in zip(obs_vecs, rngs)])


class PerRowReference(PerRowSampling):
    """A real policy whose stacked sampling is replaced by per-row chains."""

    def __init__(self, policy):
        self.policy = policy

    def __getattr__(self, name):
        return getattr(self.policy, name)


class ScriptedPolicy(PerRowSampling):
    """Stand-in policy: returns scripted plans regardless of conditioning."""

    def __init__(self, plans_fn, action_dim=3, obs_horizon=2, pred_horizon=T_P):
        self.plans_fn = plans_fn
        self.action_dim = action_dim
        self.obs_horizon = obs_horizon
        self.pred_horizon = pred_horizon

    def sample_plans(self, obs_vec, count, rng, delta_limit):
        plans = self.plans_fn(obs_vec, count, rng)
        return np.clip(np.asarray(plans, dtype=float), -delta_limit, delta_limit)


def straight_plans(obs_vec, count, rng):
    """Everything sweeps joint 0 downward at full rate; tiny jitter."""
    plans = np.zeros((count, T_P, 3))
    plans[:, :, 0] = -0.1
    plans += rng.normal(0, 0.003, size=plans.shape)
    return plans


def dodge_plans(obs_vec, count, rng):
    """Mixture of waiting, slow sweeps, and folds: head-on resolvers."""
    plans = np.zeros((count, T_P, 3))
    plans[:, :, 0] = rng.uniform(-0.1, 0.02, size=count)[:, None]
    plans[:, :, 1] = rng.uniform(-0.1, 0.1, size=count)[:, None]
    plans[:, :, 2] = rng.uniform(-0.05, 0.05, size=count)[:, None]
    return plans


def facing_scene():
    """Both arms start pointing up and must sweep through the shared midline
    simultaneously to reach down-pointing goals: every straight combination
    collides mid-transit, while one arm pausing resolves it."""
    a = make_arm((0.5, 0.3, 0.2), BasePose(-0.75, 0.0, 0.0), 0.11)
    b = make_arm((0.5, 0.3, 0.2), BasePose(0.75, 0.0, math.pi), 0.11)
    starts = [np.array([math.pi / 2, 0.0, 0.0]), np.array([math.pi / 2, 0.0, 0.0])]
    goals = [forward_kinematics(arm, np.array([-math.pi / 2, 0.0, 0.0]))
             for arm in (a, b)]
    hists = [frames(arm, q[None], g)
             for arm, q, g in zip((a, b), starts, goals)]
    return [a, b], starts, goals, hists


@pytest.fixture
def cfg() -> RunConfig:
    return load_config(None)


def one_arm_search(cfg, penalty=10.0):
    """A one-arm search whose only candidate plan holds still at the goal."""
    arm = make_arm((0.5, 0.5), BasePose(0, 0, 0), 0.1)
    q = np.array([0.3, -0.2])
    goal = forward_kinematics(arm, q)
    hist = frames(arm, q[None], goal)
    hold = ScriptedPolicy(lambda o, c, r: np.zeros((c, T_P, 2)), action_dim=2)
    cfg = dataclasses.replace(cfg, planner=dataclasses.replace(
        cfg.planner, collision_penalty=penalty))
    return pl._Search([arm], [q], [goal], [hist], hold, None, cfg, 0, frozenset())


class TestNodeCost:
    def test_zero_at_goal_with_zero_plans(self, cfg):
        cost = one_arm_search(cfg).cost_for((0,), collided=False)
        assert cost == pytest.approx(0.0, abs=1e-12)

    def test_collision_penalty_adds_ten(self, cfg):
        search = one_arm_search(cfg)
        base = search.cost_for((0,), collided=False)
        bumped = search.cost_for((0,), collided=True)
        assert bumped - base == pytest.approx(10.0)

    def test_matches_independent_recomputation(self, rng):
        from multiarm.kinematics import pos_distance, rot_distance
        for _ in range(20):
            arm = make_arm((0.5, 0.3, 0.2), BasePose(*rng.uniform(-1, 1, 2), 0.0), 0.11)
            q = rng.uniform(-1, 1, size=3)
            plan = rng.uniform(-DELTA, DELTA, size=(T_P, 3))
            goal = EEPose(rng.uniform(-1, 1, size=2), rng.uniform(-1, 1))
            got = plan_cost_terms(arm, q, plan, goal, DELTA)
            # Straight-line recomputation of each term.
            smooth = sum(math.sqrt(float(np.sum(row * row))) for row in plan)
            traj = rollout(arm, q, plan, DELTA)
            ee = forward_kinematics(arm, traj[-1])
            expect = smooth + pos_distance(ee, goal) + rot_distance(ee, goal)
            assert got == pytest.approx(expect, abs=1e-9)


def bits(a) -> bytes:
    """An array's or float's exact bytes, so -0.0 and NaN payloads count."""
    return np.asarray(a, dtype=float).tobytes()


class TestCandidates:
    """A stacked build gives each plan exactly its solo record and cost."""

    @pytest.mark.parametrize("dof", [1, 2, 3, 4])
    @pytest.mark.parametrize("count", [1, 2, 10])
    def test_stack_equals_per_plan_builds_bitwise(self, dof, count):
        rng = np.random.default_rng(10 * dof + count)
        # Tight limits and steps up to 3x the delta limit: rollouts hit both
        # clamps.
        arm = make_arm(tuple(rng.uniform(0.2, 0.5, dof)), BasePose(*rng.uniform(-1, 1, 3)),
                       0.1, tuple((-0.4, 0.5) for _ in range(dof)))
        q0 = rng.uniform(-0.3, 0.4, dof)
        plans = rng.uniform(-3 * DELTA, 3 * DELTA, (count, T_P, dof))
        plans[:, :, 0] = np.sign(plans[:, :1, 0]) * 2 * DELTA
        goal = EEPose(rng.uniform(-1, 1, 2), rng.uniform(-3, 3))
        records, costs = pl.candidates(arm, q0, plans, goal, DELTA)
        assert len(records) == len(costs) == count
        for plan, rec, cost in zip(plans, records, costs):
            ref = plan_record(arm, q0, plan, DELTA)
            assert bits(rec.configs) == bits(ref.configs)
            assert bits(rec.verts) == bits(ref.verts)
            assert rec.per_step == ref.per_step
            bounds = (rec.x_lo, rec.y_lo, rec.x_hi, rec.y_hi)
            assert bits(bounds) == bits((ref.x_lo, ref.y_lo, ref.x_hi, ref.y_hi))
            assert all(type(v) is float for v in bounds)
            want = pl._cost_terms(arm, ref.configs[-1], plan, goal)
            assert type(cost) is float and bits(cost) == bits(want)
        configs = np.stack([rec.configs for rec in records])
        assert np.any(configs == -0.4) or np.any(configs == 0.5)
        assert np.any(np.abs(plans) > DELTA)

    def test_one_plan_is_the_one_row_case(self):
        arms, starts, goals, _ = facing_scene()
        plan = straight_plans(None, 1, np.random.default_rng(0))[0]
        rec, cost = pl.candidate(arms[0], starts[0], plan, goals[0], DELTA)
        records, costs = pl.candidates(arms[0], starts[0], plan[None], goals[0], DELTA)
        assert bits(rec.verts) == bits(records[0].verts) and cost == costs[0]

    def test_empty_stack(self):
        arms, starts, goals, _ = facing_scene()
        assert pl.candidates(arms[0], starts[0], np.zeros((0, T_P, 3)), goals[0],
                             DELTA) == ([], [])


class TestInitPlans:
    def test_sizes_and_determinism(self, cfg):
        arms, _, goals, hists = facing_scene()
        bases = [arm.base for arm in arms]
        policy = ScriptedPolicy(straight_plans)
        sets_a = pl.init_plans(policy, hists, 10, stream=(4,), delta_limit=DELTA, bases=bases)
        sets_b = pl.init_plans(policy, hists, 10, stream=(4,), delta_limit=DELTA, bases=bases)
        assert [len(s) for s in sets_a] == [10, 10]
        for sa, sb in zip(sets_a, sets_b):
            for p, q in zip(sa, sb):
                assert np.array_equal(p, q)

    def test_independent_of_team_size(self):
        arms, _, _, hists = facing_scene()
        bases = [arm.base for arm in arms]
        policy = ScriptedPolicy(straight_plans)
        solo = pl.init_plans(policy, hists[:1], 5, stream=(9,), delta_limit=DELTA,
                             bases=bases[:1])
        duo = pl.init_plans(policy, hists, 5, stream=(9,), delta_limit=DELTA, bases=bases)
        for p, q in zip(solo[0], duo[0]):
            assert np.array_equal(p, q)

    def test_frozen_arm_gets_single_zero_plan(self):
        arms, _, _, hists = facing_scene()
        policy = ScriptedPolicy(straight_plans)
        sets = pl.init_plans(policy, hists, 10, stream=(4,), delta_limit=DELTA,
                             bases=[arm.base for arm in arms], frozen={1})
        assert len(sets[0]) == 10
        assert len(sets[1]) == 1
        assert np.all(sets[1][0] == 0.0)


def ring_scene(n, radius=1.0, q0=0.3):
    """n arms on a circle facing its centre; closer rings crowd the middle."""
    arms, starts, goals = [], [], []
    for i in range(n):
        angle = 2.0 * math.pi * i / n
        arm = make_arm((0.5, 0.3, 0.2), BasePose(radius * math.cos(angle),
                                                 radius * math.sin(angle), angle + math.pi),
                       0.11)
        arms.append(arm)
        starts.append(np.array([q0, 0.0, 0.0]))
        goals.append(forward_kinematics(arm, np.array([-q0, 0.3, 0.0])))
    hists = [frames(arm, q[None], g)
             for arm, q, g in zip(arms, starts, goals)]
    return arms, starts, goals, hists


class TestStackedSampling:
    """One chain for all arms must give exactly the per-arm chains' plans."""

    @pytest.mark.parametrize("n,frozen", [(2, ()), (4, ()), (4, (2,))])
    def test_init_plans_match_per_arm_chains(self, n, frozen):
        arms, _, _, hists = ring_scene(n)
        single = random_policy("single", 40, pred_horizon=T_P)
        bases = [arm.base for arm in arms]
        got = pl.init_plans(single, hists, 5, (8,), DELTA, bases, frozenset(frozen))
        ref = pl.init_plans(PerRowReference(single), hists, 5, (8,), DELTA, bases,
                            frozenset(frozen))
        for a, b in zip(got, ref):
            assert len(a) == len(b)
            for p, q in zip(a, b):
                assert np.array_equal(p.view(np.uint64), q.view(np.uint64))

    def test_dgmap_search_matches_per_arm_reference(self, cfg):
        arms, starts, goals, hists = ring_scene(4)
        single = random_policy("single", 40, pred_horizon=T_P, seed=1)
        dual = random_policy("dual", 80, pred_horizon=T_P, seed=2)
        small = dataclasses.replace(cfg, planner=dataclasses.replace(
            cfg.planner, batch=4, max_expansions=6))
        got = dgmap_search(arms, starts, goals, hists, single, dual, small, 13)
        ref = dgmap_search(arms, starts, goals, hists, PerRowReference(single),
                           PerRowReference(dual), small, 13)
        assert got.stats["repairs"] >= 1
        assert (got.t_star, got.solved) == (ref.t_star, ref.solved)
        assert got.stats["expanded_tuples"] == ref.stats["expanded_tuples"]
        for p, q in zip(got.plans, ref.plans):
            assert np.array_equal(p.view(np.uint64), q.view(np.uint64))


class RecordingPolicy:
    """A real policy that records every stacked sampling call."""

    def __init__(self, policy):
        self.policy = policy
        self.calls = []

    def sample_plans_many(self, obs_vecs, count, rngs, delta_limit):
        out = self.policy.sample_plans_many(obs_vecs, count, rngs, delta_limit)
        self.calls.append((np.array(obs_vecs), out))
        return out

    def __getattr__(self, name):
        return getattr(self.policy, name)


class TestStackedRepairs:
    def test_one_chain_per_expansion_on_own_substreams(self, cfg):
        arms, starts, goals, hists = ring_scene(4)
        single = random_policy("single", 40, pred_horizon=T_P, seed=1)
        dual = RecordingPolicy(random_policy("dual", 80, pred_horizon=T_P, seed=2))
        small = dataclasses.replace(cfg, planner=dataclasses.replace(
            cfg.planner, batch=4, max_expansions=6))
        result = dgmap_search(arms, starts, goals, hists, single, dual, small, 13)
        # No arm is frozen and no conflict here is a self conflict, so every
        # unsolved expansion made exactly one two-row repair call.
        unsolved = result.stats["expansions"] - int(result.stats["solved"])
        assert unsolved >= 2
        assert len(dual.calls) == unsolved
        assert result.stats["repairs"] == 2 * unsolved
        r = 0
        for conds, plans in dual.calls:
            assert plans.shape == (2, 4, T_P, 3)
            for cond, got in zip(conds, plans):
                solo = dual.policy.sample_plans(cond, 4, substream(13, TAG_PLAN, 1, r), DELTA)
                assert np.array_equal(got.view(np.uint64), solo.view(np.uint64))
                r += 1


def observe_pops(search):
    """Run `search` with its `pop` observed from outside.

    After each pop, records the lowest cost left on the frontier (None when
    it is empty) and the popped tuple's conflict sets. Every tuple enters
    the frontier once, so nothing left on it has been expanded.
    """
    pops = []
    pop = search.pop

    def observed():
        entry = pop()
        if entry is not None:
            rest = [cost for cost, *_ in search.heap]
            pops.append((min(rest) if rest else None, entry[3]))
        return entry

    search.pop = observed
    result = search.run()
    assert len(pops) == result.stats["expansions"]
    return result, pops


def observed_facing_search(cfg):
    """The facing-scene search, observed by `observe_pops`."""
    arms, starts, goals, hists = facing_scene()
    search = pl._Search(arms, starts, goals, hists, ScriptedPolicy(straight_plans),
                        ScriptedPolicy(dodge_plans), cfg, 11, frozenset())
    result, pops = observe_pops(search)
    assert result.solved
    return result, pops


def floor_scene_search(cfg):
    """Two far-apart one-link arms reach for goals pointing down, through a
    floor and ceiling that stop any link turned more than 1 rad from level.

    Each arm gets three constant-rate plans; a faster plan gets closer to
    the goal, so it costs less, and leaves the bounds sooner. Arm 0's plans
    all leave them, at steps 10, 12 and 10 (plan 2 turns the wrong way, so
    it costs most). Arm 1's plan 0 leaves them at step 11; plans 1 and 2 stay
    inside. The search expands (0, 0), (1, 0) on arm 1's conflict, then
    (1, 1) on arm 0's, with arm 0's conflict set {0, 1}. Of the rebranch
    successors, (0, 1) was never pushed and would be the cheapest on the
    frontier, so only the conflict-set filter keeps it from being popped.
    """
    edge = 0.05 + 0.5 * math.sin(1.0)
    cfg = dataclasses.replace(cfg, world=WorldBounds(-3.0, 3.0, -edge, edge),
                              planner=dataclasses.replace(cfg.planner, batch=3))
    arms = [make_arm((0.5,), BasePose(x, 0.0, 0.0), 0.05) for x in (-1.5, 1.5)]
    starts = [np.zeros(1), np.zeros(1)]
    goals = [forward_kinematics(arm, np.array([-math.pi / 2])) for arm in arms]
    hists = [frames(arm, q[None], g)
             for arm, q, g in zip(arms, starts, goals)]
    # Arms are sampled in order, one call each.
    rates = iter([(-0.095, -0.078, 0.1), (-0.09, -0.06, -0.05)])
    single = ScriptedPolicy(
        lambda obs_vec, count, rng: np.stack([np.full((T_P, 1), r) for r in next(rates)]),
        action_dim=1)
    search = pl._Search(arms, starts, goals, hists, single, None, cfg, 0, frozenset())
    return observe_pops(search)


class TestSearch:
    def test_single_arm_free_space_solves_immediately(self, cfg):
        arm = make_arm((0.5, 0.3, 0.2), BasePose(0, 0, 0), 0.11)
        start = np.zeros(3)
        goal = forward_kinematics(arm, np.array([0.8, 0.2, -0.1]))
        hist = frames(arm, start[None], goal)
        policy = ScriptedPolicy(straight_plans)
        result = dgmap_search([arm], [start], [goal], [hist], policy, None, cfg, 3)
        assert result.solved
        assert result.t_star == T_P
        assert result.stats["expansions"] == 1

    def test_crossing_pair_requires_repair(self, cfg):
        arms, starts, goals, hists = facing_scene()
        single = ScriptedPolicy(straight_plans)
        dual = ScriptedPolicy(dodge_plans)
        result = dgmap_search(arms, starts, goals, hists, single, dual, cfg, 11)
        assert result.solved
        assert result.stats["repairs"] >= 1
        # Validate the returned combination with a fresh, cache-free check.
        conflict = first_conflict(arms, starts, list(result.plans), DELTA)
        assert conflict is None

    def test_no_duplicate_expansions(self, cfg):
        arms, starts, goals, hists = facing_scene()
        single = ScriptedPolicy(straight_plans)
        dual = ScriptedPolicy(dodge_plans)
        result = dgmap_search(arms, starts, goals, hists, single, dual, cfg, 11)
        tuples = result.stats["expanded_tuples"]
        assert len(tuples) == len(set(tuples))

    def test_extractions_are_frontier_minima(self, cfg):
        result, pops = observed_facing_search(cfg)
        costs = result.stats["extraction_costs"]
        mins = [rest_min for rest_min, _ in pops]
        for cost, rest_min in zip(costs, mins):
            if rest_min is not None:
                assert cost <= rest_min + 1e-12

    def test_kappa_exclusion(self, cfg):
        result, pops = observed_facing_search(cfg)
        for b, kappa in zip(result.stats["expanded_tuples"],
                            [sets for _, sets in pops]):
            for i, bi in enumerate(b):
                assert bi not in kappa[i]

    def test_kappa_exclusion_where_only_the_filter_holds(self, cfg):
        # The floor scene expands (1, 1) third, with arm 0's conflict set
        # {0, 1}; a rebranch that ignored it would push (0, 1), the cheapest
        # tuple on the frontier, and pop it next.
        result, pops = floor_scene_search(cfg)
        expanded = result.stats["expanded_tuples"]
        assert expanded[:3] == [(0, 0), (1, 0), (1, 1)]
        for b, (_, kappa) in zip(expanded, pops):
            for i, bi in enumerate(b):
                assert bi not in kappa[i]

    def test_determinism(self, cfg):
        arms, starts, goals, hists = facing_scene()
        single = ScriptedPolicy(straight_plans)
        dual = ScriptedPolicy(dodge_plans)
        r1 = dgmap_search(arms, starts, goals, hists, single, dual, cfg, 21)
        r2 = dgmap_search(arms, starts, goals, hists, single, dual, cfg, 21)
        assert r1.solved == r2.solved
        assert r1.t_star == r2.t_star
        assert r1.stats["expansions"] == r2.stats["expansions"]
        assert r1.stats["extraction_costs"] == r2.stats["extraction_costs"]
        for p, q in zip(r1.plans, r2.plans):
            assert np.array_equal(p, q)

    def test_zero_budget_returns_root_best_effort(self, cfg):
        import dataclasses
        arms, starts, goals, hists = facing_scene()
        single = ScriptedPolicy(straight_plans)
        dual = ScriptedPolicy(dodge_plans)
        zero = dataclasses.replace(cfg, planner=dataclasses.replace(cfg.planner,
                                                                    timeout_s=0.0))
        result = dgmap_search(arms, starts, goals, hists, single, dual, zero, 11)
        assert not result.solved
        assert result.t_star >= 1
        assert result.stats["expansions"] == 0

    def test_plan_sets_grow_monotonically(self, cfg):
        arms, starts, goals, hists = facing_scene()
        single = ScriptedPolicy(straight_plans)
        dual = ScriptedPolicy(dodge_plans)
        result = dgmap_search(arms, starts, goals, hists, single, dual, cfg, 11)
        sizes = result.stats["plan_set_sizes"]
        assert all(size >= cfg.planner.batch for size in sizes)
        grew = result.stats["repair_plans"]
        assert sum(sizes) == 2 * cfg.planner.batch + grew

    def test_self_conflict_rebranches_without_repair(self, cfg):
        # One arm, wall straight ahead: all straight plans are infeasible, so
        # the search rebranches through every candidate then exhausts.
        import dataclasses
        world = dataclasses.replace(cfg, world=dataclasses.replace(
            cfg.world, x_max=0.75))
        arm = make_arm((0.5, 0.3, 0.2), BasePose(0.0, 0.0, 0.0), 0.11)
        start = np.zeros(3)
        goal = forward_kinematics(arm, np.array([0.9, 0.0, 0.0]))
        hist = frames(arm, start[None], goal)

        def head_for_wall(obs_vec, count, rng):
            plans = np.zeros((count, T_P, 3))
            plans[:, :, 1] = 0.1  # folds into the wall region regardless
            plans[:, :, 0] = rng.uniform(-0.02, 0.02, size=count)[:, None]
            return plans

        single = ScriptedPolicy(head_for_wall)
        dual = ScriptedPolicy(dodge_plans)
        result = dgmap_search([arm], [start], [goal], [hist], single, dual, world, 2)
        assert result.stats["repairs"] == 0


class TestRepairDetails:
    def test_repair_appends_new_indices(self, cfg):
        arms, starts, goals, hists = facing_scene()
        search = pl._Search(arms, starts, goals, hists, ScriptedPolicy(straight_plans),
                            ScriptedPolicy(dodge_plans), cfg, 11, frozenset())
        root = tuple([0, 0])
        search.push(root, (frozenset(), frozenset()))
        _, _, b, sets = search.pop()
        before = len(search.plan_sets[0])
        (plans,) = search.sample_repairs([(0, 1)])
        search.repair(b, sets, 0, frozenset({0}), plans)
        after = len(search.plan_sets[0])
        assert after - before == cfg.planner.batch
        # New successor nodes reference only fresh indices.
        fresh = set(range(before, after))
        for _, _, nb, _ in search.heap:
            if nb != root:
                assert nb[0] in fresh

    def test_rebranch_respects_kappa_and_visited(self, cfg):
        arms, starts, goals, hists = facing_scene()
        search = pl._Search(arms, starts, goals, hists, ScriptedPolicy(straight_plans),
                            ScriptedPolicy(dodge_plans), cfg, 11, frozenset())
        root = tuple([0, 0])
        search.push(root, (frozenset(), frozenset()))
        _, _, b, sets = search.pop()
        kappa = frozenset({0, 3})
        # The popped root was pushed once already, so it is not pushed again.
        search.rebranch(b, sets, 0, kappa)
        bs = [nb for _, _, nb, _ in search.heap]
        assert root not in bs
        assert all(b[0] not in kappa for b in bs)
        assert len(bs) == cfg.planner.batch - 2  # minus kappa entries


class TestCacheIntegration:
    def test_costs_equal_recomputation(self, cfg):
        arms, starts, goals, hists = facing_scene()
        single = ScriptedPolicy(straight_plans)
        dual = ScriptedPolicy(dodge_plans)
        search = pl._Search(arms, starts, goals, hists, single, dual, cfg, 11,
                            frozenset())
        result = search.run()
        # Recompute the returned node's cost from scratch.
        conflict = first_conflict(arms, starts, list(result.plans), DELTA)
        recomputed = sum(plan_cost_terms(arm, q0, plan, goal, DELTA)
                         for arm, q0, plan, goal in zip(arms, starts, result.plans, goals))
        if conflict is not None:
            recomputed += cfg.planner.collision_penalty
        if result.solved:
            assert result.stats["extraction_costs"][-1] == pytest.approx(recomputed)


class TestPlanRecords:
    def test_each_plan_rolled_out_once(self, cfg, monkeypatch):
        from multiarm import collision
        rolled = []
        real = collision.rollout

        def counting(arm, q0, plan, delta_limit):
            # A call rolls out a (P, T, d) stack: count its plans, not calls.
            rolled.extend((id(arm), p.tobytes()) for p in np.asarray(plan).reshape(
                -1, *np.shape(plan)[-2:]))
            return real(arm, q0, plan, delta_limit)

        monkeypatch.setattr(collision, "rollout", counting)
        arms, starts, goals, hists = facing_scene()
        search = pl._Search(arms, starts, goals, hists, ScriptedPolicy(straight_plans),
                            ScriptedPolicy(dodge_plans), cfg, 11, frozenset())
        result = search.run()
        assert result.stats["repairs"] >= 1
        # Each (arm, plan) rolled out once, and one candidate table entry per
        # rolled-out plan, record and cost terms together.
        assert len(rolled) == len(set(rolled)) == len(search.candidates)

    def test_broad_phase_leaves_search_unchanged(self, cfg, monkeypatch):
        from multiarm import collision
        arms, starts, goals, hists = ring_scene(6, radius=1.6)
        single = random_policy("single", 40, pred_horizon=T_P, seed=3)
        dual = random_policy("dual", 80, pred_horizon=T_P, seed=4)
        small = dataclasses.replace(cfg, planner=dataclasses.replace(
            cfg.planner, batch=4, max_expansions=8))
        pruned = []
        separated = collision._separated

        def counting(*args):
            pruned.append(separated(*args))
            return pruned[-1]

        monkeypatch.setattr(collision, "_separated", counting)
        got = dgmap_search(arms, starts, goals, hists, single, dual, small, 5)
        monkeypatch.setattr(collision, "_separated", lambda *args: False)
        ref = dgmap_search(arms, starts, goals, hists, single, dual, small, 5)
        assert any(pruned) and not all(pruned)
        assert (got.t_star, got.solved) == (ref.t_star, ref.solved)
        for key in ("expanded_tuples", "extraction_costs", "generated", "repairs",
                    "cache_hits", "cache_evals"):
            assert got.stats[key] == ref.stats[key]
        for p, q in zip(got.plans, ref.plans):
            assert np.array_equal(p.view(np.uint64), q.view(np.uint64))


def search_digest(result) -> str:
    """sha256 over t_star, solved, the plans' bytes and every stats value."""
    h = hashlib.sha256(repr((result.t_star, result.solved)).encode())
    for p in result.plans:
        h.update(np.ascontiguousarray(p, dtype="<f8").tobytes())
    h.update(repr(sorted(result.stats.items())).encode())
    return h.hexdigest()


def facing_args(cfg):
    arms, starts, goals, hists = facing_scene()
    return (arms, starts, goals, hists, ScriptedPolicy(straight_plans),
            ScriptedPolicy(dodge_plans), cfg, 11)


def ring_args(n, radius, max_expansions):
    def args(cfg):
        arms, starts, goals, hists = ring_scene(n, radius=radius)
        small = dataclasses.replace(cfg, planner=dataclasses.replace(
            cfg.planner, batch=4, max_expansions=max_expansions))
        return (arms, starts, goals, hists,
                random_policy("single", 40, pred_horizon=T_P, seed=3),
                random_policy("dual", 80, pred_horizon=T_P, seed=4), small, 5)
    return args


def pinned_facing(cfg):
    return dgmap_search(*facing_args(cfg))


def pinned_ring(radius):
    return lambda cfg: dgmap_search(*ring_args(6, radius, 8)(cfg))


class TestPinnedSearches:
    """Fixed searches whose whole output is pinned: plans, t_star, solved and
    every stat, the cache counts and search order included. Changes to
    first-conflict search or its memo must leave all of it as it is."""

    @pytest.mark.parametrize("run,t_star,solved,hits,evals,digest", [
        (pinned_facing, 16, True, 44, 79,
         "f84c291522da940228a93ca33b8f074435d8e236b1f461d4be9bcefc9b545d4c"),
        (pinned_ring(1.6), 16, True, 21, 21,
         "95da19ef2d616c8963c48b6ee0aff4ab4628ca0b832c5aaf6f7c6f4dbd51336c"),
        (pinned_ring(1.0), 1, False, 3439, 551,
         "acefc25ddd97a7f3a55398ded4b9d1387724d20803cf5e2f0d56dc7296fcbb95"),
    ], ids=["facing", "ring-spread", "ring-crowded"])
    def test_output_unchanged(self, cfg, run, t_star, solved, hits, evals, digest):
        result = run(cfg)
        assert (result.t_star, result.solved) == (t_star, solved)
        assert (result.stats["cache_hits"], result.stats["cache_evals"]) == (hits, evals)
        assert search_digest(result) == digest


class TestBranchPrefill:
    """A branch's stacked build and memo prefill change nothing the search
    does: with the prefill switched off, every push builds and checks lazily
    and must give the same memo, search order, costs and cache counts."""

    @staticmethod
    def run(args, monkeypatch, prefill):
        from multiarm import collision
        misses = []
        with monkeypatch.context() as m:
            for name in ("_first_self_violation", "_first_pair_collision"):
                real = getattr(collision, name)
                m.setattr(collision, name,
                          lambda *a, real=real: misses.append(1) or real(*a))
            if not prefill:
                m.setattr(pl._Search, "prefill", lambda self, b, ego, indices: None)
            search = pl._Search(*args, frozenset())
            result = search.run()
        if prefill:
            # Only the root's keys miss: every branch push finds its entries.
            assert len(misses) == search.n * (search.n + 1) // 2
        # Records key the memo by identity; name each by (arm, plan index).
        names = {id(rec): key for key, (rec, _) in search.candidates.items()}
        memo = {(names[id(key)],) if not isinstance(key, tuple)
                else (names[id(key[0])], names[id(key[1])]): value
                for key, value in search.memo.items()}
        costs = {key: bits(cost) for key, (_, cost) in search.candidates.items()}
        return result, memo, costs

    @pytest.mark.parametrize("args", [
        facing_args, ring_args(6, 1.6, 8), ring_args(6, 1.0, 8), ring_args(4, 0.8, 16),
    ], ids=["facing", "ring-spread", "ring-crowded", "ring-repairs"])
    def test_same_search_without_prefill(self, cfg, args, monkeypatch):
        got, got_memo, got_costs = self.run(args(cfg), monkeypatch, prefill=True)
        ref, ref_memo, ref_costs = self.run(args(cfg), monkeypatch, prefill=False)
        assert got_memo == ref_memo
        assert got_costs == ref_costs
        for key in ("expanded_tuples", "extraction_costs", "generated", "repairs",
                    "rebranches", "cache_hits", "cache_evals", "plan_set_sizes"):
            assert got.stats[key] == ref.stats[key], key
        assert search_digest(got) == search_digest(ref)

    def test_repair_heavy_scene_repairs(self, cfg):
        result = dgmap_search(*ring_args(4, 0.8, 16)(cfg))
        assert result.stats["repairs"] >= 20 and result.stats["rebranches"] >= 20
