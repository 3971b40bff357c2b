import math

import numpy as np
import pytest

from multiarm import datasets as ds
from multiarm import observation as obs
from multiarm.kinematics import BasePose, make_arm

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
        rows = list(ds.episode_windows(frames, deltas, T_O, T_P, 3))
        assert len(rows) == 9

    def test_history_padding_and_action_padding(self):
        frames = [np.full(20, float(i)) for i in range(3)]
        deltas = np.arange(6, dtype=float).reshape(2, 3) * 0.01
        rows = list(ds.episode_windows(frames, deltas, T_O, T_P, 3))
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
        rows = list(ds.episode_windows(frames, deltas, T_O, T_P, 3))
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

    def test_rejects_garbage(self, tmp_path):
        bad = tmp_path / "bad.mad"
        bad.write_bytes(b"not a dataset")
        with pytest.raises(ValueError):
            ds.load_dataset(bad)
