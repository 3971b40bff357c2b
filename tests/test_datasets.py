import dataclasses
import math
import struct

import numpy as np
import pytest

from multiarm import artifacts
from multiarm import datasets as ds
from multiarm import observation as obs
from multiarm import planner as pl
from multiarm.config import load_config
from multiarm.controller import make_world
from multiarm.kinematics import IDENTITY_POSE, BasePose, make_arm
from multiarm.seeding import TAG_DATA, substream

from .conftest import with_header_key

RES = 0.1
T_O, T_P = 2, 16


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
                                      resolution=RES, morphology_digest="x" * 64)


class TestWindows:
    def test_window_count_matches_path_length(self):
        frames = [np.full(20, float(i)) for i in range(9)]
        deltas = np.ones((8, 3)) * 0.05
        rows = list(ds.episode_windows([frames], deltas, T_O, T_P, 3, IDENTITY_POSE))
        assert len(rows) == 9

    def test_history_padding_and_action_padding(self):
        frames = [np.full(20, float(i)) for i in range(3)]
        deltas = np.arange(6, dtype=float).reshape(2, 3) * 0.01
        rows = list(ds.episode_windows([frames], deltas, T_O, T_P, 3, IDENTITY_POSE))
        first_obs, first_act = rows[0]
        assert first_obs[:20] == pytest.approx(first_obs[20:])  # repeated frame
        last_obs, last_act = rows[-1]
        assert np.all(last_act == 0.0)  # end padding
        assert first_act[:6] == pytest.approx(deltas.reshape(-1)[:6])

    def test_action_window_zero_pads_past_path_end(self):
        deltas = np.arange(12, dtype=float).reshape(4, 3)
        window = ds._action_window(deltas, 2, 5, 3)
        assert window.shape == (15,)
        assert np.array_equal(window.reshape(5, 3)[:2], deltas[2:])
        assert np.all(window.reshape(5, 3)[2:] == 0.0)
        assert np.all(ds._action_window(deltas, 4, 5, 3) == 0.0)

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
                                       resolution=RES)
        b = ds.generate_single_dataset(free_arm_sampler, 2, seed=11, t_o=T_O, t_p=T_P,
                                       resolution=RES)
        assert np.array_equal(a.observations, b.observations)
        assert np.array_equal(a.actions, b.actions)

    def test_empty_dataset(self):
        empty = ds.generate_single_dataset(free_arm_sampler, 0, seed=3, t_o=T_O,
                                           t_p=T_P, resolution=RES)
        assert len(empty) == 0
        assert empty.observations.shape == (0, T_O * 20)


class TestDualGeneration:
    def test_dual_records(self):
        dual = ds.generate_dual_dataset(spaced_pair_sampler, 2, seed=5, t_o=T_O,
                                        t_p=T_P, resolution=RES)
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
        frames = [np.zeros(20) for _ in path_a]
        rows = list(ds.episode_windows([frames], deltas, T_O, T_P, 3, a.base))
        for t, (_, act) in enumerate(rows):
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
    """Capture the arms, goal poses and path of the expert episode."""
    seen = {"goals": []}
    real_goal, real_plan = ds.sample_goal_config, getattr(ds, planner_name)

    def goal_config(arm, goal_pose, *args, **kwargs):
        seen["goals"].append(goal_pose)
        return real_goal(arm, goal_pose, *args, **kwargs)

    def plan(*args, **kwargs):
        seen["args"] = args
        seen["path"] = real_plan(*args, **kwargs)
        return seen["path"]

    monkeypatch.setattr(ds, "sample_goal_config", goal_config)
    monkeypatch.setattr(ds, planner_name, plan)
    return seen


def world_histories(arms, paths, goals, t):
    """Per-arm planner histories after t executed steps along the paths, with
    frames appended as the executor appends them."""
    world = make_world(arms, [p[0] for p in paths], goals)
    for s in range(1, t + 1):
        for i, arm in enumerate(arms):
            world.histories[i].append(obs.build_frame(arm, paths[i][s], goals[i]))
    return [obs.build_history(h, T_O) for h in world.histories]


class TestRowsMatchInference:
    """A recorded row is the planner's conditioning for the same world state,
    bit for bit after the float32 cast."""

    def test_single_row_is_init_plans_conditioning(self, monkeypatch):
        seen = record_expert(monkeypatch, "birrt_plan")
        data = ds.generate_single_dataset(free_arm_sampler, 1, seed=7, t_o=T_O, t_p=T_P,
                                          resolution=RES)
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
                                        t_p=T_P, resolution=RES)
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
                                        t_p=T_P, resolution=RES)
        ds.save_dataset(dual, tmp_path / "dual.mad")
        loaded = ds.load_dataset(tmp_path / "dual.mad")
        assert (loaded.family, loaded.obs_width) == ("dual", 2 * T_O * loaded.frame_width)

