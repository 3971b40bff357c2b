import dataclasses
import hashlib
import math
import struct

import numpy as np
import pytest

from multiarm import artifacts
from multiarm import datasets as ds
from multiarm import expert
from multiarm import planner as pl
from multiarm.bench import toy_dataset
from multiarm.config import load_config
from multiarm.controller import make_world
from multiarm.kinematics import IDENTITY_POSE, BasePose, forward_kinematics, make_arm
from multiarm.observation import slot
from multiarm.seeding import TAG_DATA, substream
from multiarm.tasks import dual_pair_sampler, single_arm_sampler

from .conftest import with_header_key

RES = 0.1
T_O, T_P = 2, 16
# The expert settings of the default config, which every generator takes.
_CFG = load_config()
EXPERT = dict(bounds=_CFG.world, max_iters=_CFG.data.birrt_max_iters,
              shortcut_attempts=_CFG.data.shortcut_attempts)


def free_arm_sampler(rng):
    # Base wanders a little so observations are not degenerate.
    x, y = rng.uniform(-0.5, 0.5, size=2)
    return make_arm((0.5, 0.3, 0.2), BasePose(x, y, rng.uniform(-math.pi, math.pi)), 0.11)


def spaced_pair_sampler(rng):
    gap = rng.uniform(2.4, 2.8)
    a = make_arm((0.5, 0.3, 0.2), BasePose(-gap / 2, 0.0, 0.0), 0.11)
    b = make_arm((0.5, 0.3, 0.2), BasePose(gap / 2, 0.0, math.pi), 0.11)
    return a, b


@pytest.fixture(scope="module")
def single_ds():
    return ds.generate_single_dataset(free_arm_sampler, 3, seed=7, t_o=T_O, t_p=T_P,
                                      resolution=RES, morphology_digest="x" * 64,
                                      **EXPERT)


class TestWindows:
    def test_window_count_matches_path_length(self):
        frames = np.stack([np.full(20, float(i)) for i in range(9)])
        deltas = np.ones((8, 3)) * 0.05
        observations, actions = ds.episode_windows([frames], deltas, T_O, T_P, IDENTITY_POSE)
        assert observations.shape == (9, T_O * 20)
        assert actions.shape == (9, T_P * 3)

    def test_history_padding_and_action_padding(self):
        frames = np.stack([np.full(20, float(i)) for i in range(3)])
        deltas = np.arange(6, dtype=float).reshape(2, 3) * 0.01
        observations, actions = ds.episode_windows([frames], deltas, T_O, T_P, IDENTITY_POSE)
        assert observations[0, :20] == pytest.approx(observations[0, 20:])  # repeated frame
        assert np.all(actions[-1] == 0.0)  # end padding
        assert actions[0, :6] == pytest.approx(deltas.reshape(-1)[:6])

    def test_action_window_zero_pads_past_path_end(self):
        deltas = np.arange(12, dtype=float).reshape(4, 3)
        _, actions = ds.episode_windows([np.zeros((5, 20))], deltas, 1, 5, IDENTITY_POSE)
        window = actions[2].reshape(5, 3)
        assert np.array_equal(window[:2], deltas[2:])
        assert np.all(window[2:] == 0.0)
        assert np.all(actions[4] == 0.0)

    def test_integrating_deltas_recovers_path(self, rng):
        path = np.cumsum(rng.uniform(-RES, RES, size=(30, 3)), axis=0)
        deltas = ds.path_to_deltas(path)
        rebuilt = path[0] + np.vstack([np.zeros(3), np.cumsum(deltas, axis=0)])
        assert rebuilt == pytest.approx(path, abs=1e-9)


class TestSingleGeneration:
    def test_records_and_limits(self, single_ds):
        assert len(single_ds) >= 1
        acts = single_ds.actions.reshape(len(single_ds), T_P, 3)
        assert np.max(np.abs(acts)) <= RES + 1e-6
        assert single_ds.obs_width == T_O * 20

    def test_norm_round_trip(self, single_ds):
        x = single_ds.actions[0].astype(float)
        z = single_ds.norm.normalize_act(x)
        assert single_ds.norm.denormalize_act(z) == pytest.approx(x, abs=1e-9)
        assert np.all(single_ds.norm.act_scale > 0)
        assert np.all(single_ds.norm.obs_scale > 0)

    def test_reproducible(self):
        a = ds.generate_single_dataset(free_arm_sampler, 2, seed=11, t_o=T_O, t_p=T_P,
                                       resolution=RES, **EXPERT)
        b = ds.generate_single_dataset(free_arm_sampler, 2, seed=11, t_o=T_O, t_p=T_P,
                                       resolution=RES, **EXPERT)
        assert np.array_equal(a.observations, b.observations)
        assert np.array_equal(a.actions, b.actions)

    def test_empty_dataset(self):
        empty = ds.generate_single_dataset(free_arm_sampler, 0, seed=3, t_o=T_O,
                                           t_p=T_P, resolution=RES, **EXPERT)
        assert len(empty) == 0
        assert empty.observations.shape == (0, T_O * 20)


class TestDualGeneration:
    def test_dual_records(self):
        dual = ds.generate_dual_dataset(spaced_pair_sampler, 2, seed=5, t_o=T_O,
                                        t_p=T_P, resolution=RES, **EXPERT)
        assert len(dual) >= 2
        assert dual.obs_width == T_O * 40  # paired rows are twice as wide
        acts = dual.actions.reshape(len(dual), T_P, 3)
        assert np.max(np.abs(acts)) <= RES + 1e-6

    def test_disjoint_pair_matches_single_windowing(self, rng):
        # With far-apart arms the ego action windows must equal what the
        # shared windowizer yields for the ego path alone.
        a, b = spaced_pair_sampler(rng)
        path_a = np.cumsum(rng.uniform(-0.02, 0.02, size=(10, 3)), axis=0)
        deltas = ds.path_to_deltas(path_a)
        _, actions = ds.episode_windows([np.zeros((len(path_a), 20))], deltas, T_O, T_P,
                                        a.base)
        for t, act in enumerate(actions):
            window = np.zeros((T_P, 3))
            avail = deltas[t: t + T_P]
            window[: len(avail)] = avail
            assert act == pytest.approx(window.reshape(-1))


class TestPersistence:
    def test_round_trip(self, single_ds, tmp_path):
        path = tmp_path / "demo.mad"
        ds.save_dataset(single_ds, path)
        loaded = ds.load_dataset(path)
        assert loaded.family == "single"
        assert np.array_equal(loaded.observations, single_ds.observations)
        assert np.array_equal(loaded.actions, single_ds.actions)
        assert loaded.norm.obs_mean == pytest.approx(single_ds.norm.obs_mean)
        assert loaded.meta["seed"] == single_ds.meta["seed"]
        assert loaded.t_o == T_O and loaded.t_p == T_P

    def test_save_load_save_identical(self, single_ds, tmp_path):
        p1, p2 = tmp_path / "a.mad", tmp_path / "b.mad"
        ds.save_dataset(single_ds, p1)
        ds.save_dataset(ds.load_dataset(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_sidecar_counts_match(self, single_ds, tmp_path):
        import json
        path = tmp_path / "demo.mad"
        ds.save_dataset(single_ds, path)
        sidecar = json.loads((tmp_path / "demo.mad.json").read_text())
        assert sidecar["records"] == len(single_ds)
        assert sidecar["family"] == "single"

    def test_negative_meta_count_round_trips(self, single_ds, tmp_path):
        data = dataclasses.replace(single_ds, meta={**single_ds.meta, "episodes": -1})
        ds.save_dataset(data, tmp_path / "a.mad")
        assert ds.load_dataset(tmp_path / "a.mad").meta == data.meta

    @pytest.mark.parametrize("failure", ["unencodable-meta", "failed-rename"])
    def test_failed_save_keeps_existing_file(self, single_ds, tmp_path, monkeypatch,
                                             failure):
        path = tmp_path / "a.mad"
        ds.save_dataset(single_ds, path)
        before = path.read_bytes()
        if failure == "unencodable-meta":
            data = dataclasses.replace(single_ds, meta={**single_ds.meta, "x": object()})
            expected = TypeError
        else:
            def refuse(src, dst):
                raise OSError("rename refused")
            monkeypatch.setattr(artifacts.os, "replace", refuse)
            data, expected = single_ds, OSError
        with pytest.raises(expected):
            ds.save_dataset(data, path)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.mad", "a.mad.json"]

    def test_rejects_garbage(self, tmp_path):
        bad = tmp_path / "bad.mad"
        bad.write_bytes(b"not a dataset")
        with pytest.raises(ValueError):
            ds.load_dataset(bad)


class RecordingPolicy:
    """Stand-in model: records every conditioning vector it is given and
    returns zero plans."""

    def __init__(self, action_dim=3, obs_horizon=T_O, pred_horizon=T_P):
        self.action_dim = action_dim
        self.obs_horizon = obs_horizon
        self.pred_horizon = pred_horizon
        self.conds = []

    def sample_plans(self, obs_vec, count, rng, delta_limit):
        self.conds.append(np.asarray(obs_vec))
        return np.zeros((count, self.pred_horizon, self.action_dim))

    def sample_plans_many(self, obs_vecs, count, rngs, delta_limit):
        return np.stack([self.sample_plans(o, count, g, delta_limit)
                         for o, g in zip(obs_vecs, rngs)])


def record_expert(monkeypatch, planner_name):
    """Capture the arms, goal poses and path of the expert episode. An episode
    makes its goal poses with `forward_kinematics`, one per arm, and uses it
    for nothing else."""
    seen = {"goals": []}
    real_fk, real_plan = ds.forward_kinematics, getattr(ds, planner_name)

    def goal_pose(arm, q):
        seen["goals"].append(real_fk(arm, q))
        return seen["goals"][-1]

    def plan(*args, **kwargs):
        seen["args"] = args
        seen["path"] = real_plan(*args, **kwargs)
        return seen["path"]

    monkeypatch.setattr(ds, "forward_kinematics", goal_pose)
    monkeypatch.setattr(ds, planner_name, plan)
    return seen


def world_histories(arms, paths, goals, t):
    """Per-arm planner histories after t executed steps along the paths, read
    from the world as the proposers read them."""
    world = make_world(arms, [p[0] for p in paths], goals)
    for traj, path in zip(world.trajectories, paths):
        traj.extend(path[1:t + 1])
    return world.histories(T_O)


class TestRowsMatchInference:
    """A recorded row is the planner's conditioning for the same world state,
    bit for bit after the float32 cast."""

    def test_single_row_is_init_plans_conditioning(self, monkeypatch):
        seen = record_expert(monkeypatch, "birrt_plan")
        data = ds.generate_single_dataset(free_arm_sampler, 1, seed=7, t_o=T_O, t_p=T_P,
                                          resolution=RES, **EXPERT)
        path, goal = seen["path"], seen["goals"][-1]
        arm = free_arm_sampler(substream(7, TAG_DATA, ds.FAMILIES["single"], 0))
        assert len(data) == len(path) > 1
        policy = RecordingPolicy()
        for t in range(len(path)):
            hists = world_histories([arm], [path], [goal], t)
            pl.init_plans(policy, hists, 1, stream=(0,), delta_limit=RES, bases=[arm.base])
            assert policy.conds[-1].astype(np.float32).tobytes() == \
                data.observations[t].tobytes()

    def test_dual_row_is_repair_conditioning(self, monkeypatch):
        seen = record_expert(monkeypatch, "dual_birrt_plan")
        data = ds.generate_dual_dataset(spaced_pair_sampler, 1, seed=5, t_o=T_O,
                                        t_p=T_P, resolution=RES, **EXPERT)
        arms = list(seen["args"][:2])
        goals = seen["goals"][-2:]
        path = seen["path"]
        paths = [path[:, :3], path[:, 3:]]
        n = len(path)
        assert len(data) == 2 * n
        cfg = load_config()
        for t in range(n):
            hists = world_histories(arms, paths, goals, t)
            dual = RecordingPolicy()
            search = pl._Search(arms, [p[t] for p in paths], goals, hists,
                                RecordingPolicy(), dual, cfg, 0, frozenset())
            search.sample_repairs([(0, 1), (1, 0)])
            assert len(dual.conds) == 2
            for ego, cond in enumerate(dual.conds):
                assert cond.astype(np.float32).tobytes() == \
                    data.observations[ego * n + t].tobytes()


def record_frames(monkeypatch):
    """Capture every frame stack an episode builds, in call order."""
    stacks, real = [], ds.obs.frames

    def frames(arm, qs, goal):
        stacks.append(real(arm, qs, goal))
        return stacks[-1]

    monkeypatch.setattr(ds.obs, "frames", frames)
    return stacks


class TestExpertGoals:
    """Episodes plan to the goal configuration they sampled, so each path ends
    exactly at the pose its frames condition on, and no goal IK runs."""

    @pytest.mark.parametrize("family", ["single", "dual"])
    def test_path_ends_at_each_arms_goal_pose(self, monkeypatch, family):
        planner, generate, sampler, seed = {
            "single": ("birrt_plan", ds.generate_single_dataset, free_arm_sampler, 7),
            "dual": ("dual_birrt_plan", ds.generate_dual_dataset, spaced_pair_sampler, 5),
        }[family]
        seen = record_expert(monkeypatch, planner)
        stacks = record_frames(monkeypatch)
        generate(sampler, 1, seed=seed, t_o=T_O, t_p=T_P, resolution=RES, **EXPERT)
        arms = sampler(substream(seed, TAG_DATA, ds.FAMILIES[family], 0))
        arms = arms if family == "dual" else (arms,)
        ends = np.split(seen["path"][-1], np.cumsum([arm.dof for arm in arms])[:-1])
        assert len(stacks) == len(arms)
        for arm, frames, q in zip(arms, stacks, ends):
            reached = forward_kinematics(arm, q).as_array()
            assert frames[:, slot(arm.dof, "goal_pose")].tobytes() == \
                np.tile(reached, (len(frames), 1)).tobytes()

    def test_generators_run_without_goal_ik(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("dataset generation ran the goal IK")

        monkeypatch.setattr(ds, "sample_goal_config", refuse)
        monkeypatch.setattr(expert, "sample_goal_config", refuse)
        single = ds.generate_single_dataset(free_arm_sampler, 2, seed=11, t_o=T_O,
                                            t_p=T_P, resolution=RES, **EXPERT)
        dual = ds.generate_dual_dataset(spaced_pair_sampler, 1, seed=5, t_o=T_O,
                                        t_p=T_P, resolution=RES, **EXPERT)
        assert len(single) > 0 and len(dual) > 0


class TestVersionRefusal:
    def test_version_one_dataset_refused(self, single_ds, tmp_path):
        path = tmp_path / "old.mad"
        ds.save_dataset(single_ds, path)
        blob = bytearray(path.read_bytes())
        blob[len(ds.MAGIC): len(ds.MAGIC) + 4] = struct.pack("<I", 1)
        path.write_bytes(bytes(blob))
        with pytest.raises(ds.IncompatibleDatasetError, match="version 1"):
            ds.load_dataset(path)

    def test_corrupt_family_and_meta_refused(self, single_ds, tmp_path):
        ds.save_dataset(single_ds, tmp_path / "a.mad")
        for key, value in (("family", 7), ("meta", "\xff")):
            bad = with_header_key(tmp_path / "a.mad", tmp_path / "b.mad", key, value)
            with pytest.raises(ds.IncompatibleDatasetError):
                ds.load_dataset(bad)

    def test_truncated_dataset_refused(self, single_ds, tmp_path):
        path = tmp_path / "cut.mad"
        ds.save_dataset(single_ds, path)
        blob = path.read_bytes()
        for cut in (len(ds.MAGIC) + 3, len(blob) - 4):
            path.write_bytes(blob[:cut])
            with pytest.raises(ds.IncompatibleDatasetError):
                ds.load_dataset(path)

    def test_zero_horizon_refused(self, single_ds, tmp_path):
        ds.save_dataset(single_ds, tmp_path / "a.mad")
        bad = with_header_key(tmp_path / "a.mad", tmp_path / "b.mad", "t_p", 0)
        with pytest.raises(ds.IncompatibleDatasetError, match="t_p = 0"):
            ds.load_dataset(bad)

    def test_horizon_not_dividing_action_width_refused(self, single_ds, tmp_path):
        # 48 action columns (16 steps x 3 joints) would load as 32 steps of
        # one joint's worth and a remainder.
        ds.save_dataset(single_ds, tmp_path / "a.mad")
        bad = with_header_key(tmp_path / "a.mad", tmp_path / "b.mad", "t_p", 32)
        with pytest.raises(ds.IncompatibleDatasetError, match="does not split"):
            ds.load_dataset(bad)

    @pytest.mark.parametrize("key,value", [("t_o", T_O + 1), ("frame_width", 41)])
    def test_observation_width_mismatch_refused(self, single_ds, tmp_path, key, value):
        ds.save_dataset(single_ds, tmp_path / "a.mad")
        bad = with_header_key(tmp_path / "a.mad", tmp_path / "b.mad", key, value)
        with pytest.raises(ds.IncompatibleDatasetError, match="observation width"):
            ds.load_dataset(bad)

    def test_frame_width_contradicting_action_dim_refused(self, single_ds, tmp_path):
        # 4 frames of width 10 fill the 40 observation columns, but 3-joint
        # frames are 20 wide.
        ds.save_dataset(single_ds, tmp_path / "a.mad")
        with_header_key(tmp_path / "a.mad", tmp_path / "b.mad", "t_o", 4)
        bad = with_header_key(tmp_path / "b.mad", tmp_path / "c.mad", "frame_width", 10)
        with pytest.raises(ds.IncompatibleDatasetError, match="frame width 10"):
            ds.load_dataset(bad)

    def test_norm_vector_of_wrong_length_refused(self, single_ds, tmp_path):
        norm = dataclasses.replace(single_ds.norm, act_scale=single_ds.norm.act_scale[:-1])
        ds.save_dataset(dataclasses.replace(single_ds, norm=norm), tmp_path / "a.mad")
        with pytest.raises(ds.IncompatibleDatasetError, match="norm vector act_scale"):
            ds.load_dataset(tmp_path / "a.mad")

    def test_flipped_observation_byte_refused(self, single_ds, tmp_path):
        path = tmp_path / "a.mad"
        ds.save_dataset(single_ds, path)
        blob = bytearray(path.read_bytes())
        # The observation block ends where the action block and the
        # trailing 32-byte checksum begin.
        blob[len(blob) - 32 - single_ds.actions.nbytes - 1] ^= 0x01
        path.write_bytes(bytes(blob))
        with pytest.raises(ds.IncompatibleDatasetError):
            ds.load_dataset(path)

    def test_dual_rows_hold_two_histories(self, tmp_path):
        dual = ds.generate_dual_dataset(spaced_pair_sampler, 1, seed=5, t_o=T_O,
                                        t_p=T_P, resolution=RES, **EXPERT)
        ds.save_dataset(dual, tmp_path / "dual.mad")
        loaded = ds.load_dataset(tmp_path / "dual.mad")
        assert (loaded.family, loaded.obs_width) == ("dual", 2 * T_O * loaded.frame_width)


def saved_sha256(dataset, tmp_path) -> str:
    ds.save_dataset(dataset, tmp_path / "pinned.mad")
    return hashlib.sha256((tmp_path / "pinned.mad").read_bytes()).hexdigest()


class TestPinnedBytes:
    """Seeded datasets keep their exact saved bytes. The single and dual
    digests were recorded when episodes began planning straight to their
    sampled goal configurations; the toy digest is older, from the code that
    ran each family's episode loop on its own."""

    @pytest.fixture(scope="class")
    def cfg(self):
        return load_config()

    def settings(self, cfg):
        return dict(t_o=T_O, t_p=T_P, resolution=cfg.controller.delta_limit,
                    bounds=cfg.world, max_iters=cfg.data.birrt_max_iters,
                    shortcut_attempts=cfg.data.shortcut_attempts, morphology_digest="y" * 64)

    def test_single(self, cfg, tmp_path):
        data = ds.generate_single_dataset(single_arm_sampler(cfg), 6, 0, **self.settings(cfg))
        assert (len(data), saved_sha256(data, tmp_path)) == (
            168, "748930074a3cdc7faf0e397ad10eac8bb5d4ab336b419ffd6e93af09e29b3c3d")

    def test_dual(self, cfg, tmp_path):
        data = ds.generate_dual_dataset(dual_pair_sampler(cfg), 3, 1, **self.settings(cfg))
        assert (len(data), saved_sha256(data, tmp_path)) == (
            150, "d8204570e15dbe20be7245dab846aad92e33e6f291a5b908c6cd482d14ef9d6d")

    def test_toy(self, cfg, tmp_path):
        small = dataclasses.replace(cfg, toy=dataclasses.replace(cfg.toy, episodes=6))
        data = toy_dataset(small, 3)
        assert (len(data), saved_sha256(data, tmp_path)) == (
            82, "f52447b7b0e824103ac9255cda29369e26fc6f6082dcff9b8f0b467885236398")
