import hashlib
import json
import math
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from multiarm.kinematics import BasePose, make_arm

settings.register_profile(
    "default", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("default")


@pytest.fixture
def arm3():
    return make_arm((0.5, 0.3, 0.2), BasePose(0.0, 0.0, 0.0), 0.11)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def random_arm(rng, dof=None, base_scale=1.5):
    dof = dof if dof is not None else int(rng.integers(2, 5))
    lengths = rng.uniform(0.1, 0.6, size=dof)
    base = BasePose(*rng.uniform(-base_scale, base_scale, size=2), rng.uniform(-math.pi, math.pi))
    return make_arm(tuple(lengths), base, float(rng.uniform(0.03, 0.15)))


def random_config(arm, rng):
    return rng.uniform(arm.lower_limits, arm.upper_limits)


def with_header_key(src, dst, key, value):
    """Copy an artifact (magic, u32 version, payload, sha256) with one key of
    its JSON header set to `value` and the checksum recomputed, so that only
    the loader's own checks can refuse the copy."""
    blob = Path(src).read_bytes()
    start = 8 + 4
    (size,) = struct.unpack_from("<I", blob, start)
    header = json.loads(blob[start + 4: start + 4 + size])
    header[key] = value
    text = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    payload = struct.pack("<I", len(text)) + text + blob[start + 4 + size: -32]
    Path(dst).write_bytes(blob[:start] + payload + hashlib.sha256(payload).digest())
    return dst
