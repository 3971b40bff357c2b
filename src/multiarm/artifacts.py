"""One checksummed, atomically written container for datasets and checkpoints.

A file is an 8-byte magic, a u32 version, a payload and sha256(payload). The
payload is a u32 length, a canonical JSON header whose `arrays` key lists
`[name, dtype, shape]`, then those arrays' little-endian bytes in order. See
docs/file_formats.md.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import struct
from pathlib import Path

import numpy as np

_U32 = struct.Struct("<I")
_DIGEST = 32
_DTYPES = ("<f4", "<f8")


def write(path, magic: bytes, version: int, header: dict, arrays) -> None:
    """Store `header` (a JSON object) and `arrays`, a sequence of (name,
    dtype, array) with dtype "<f4" or "<f8", at `path`. The bytes go to
    `<path>.tmp`, which is then renamed, so a save that fails or is killed
    never leaves a partial file at `path`."""
    arrays = [(name, dtype, np.ascontiguousarray(a, dtype)) for name, dtype, a in arrays]
    listing = [[name, dtype, list(a.shape)] for name, dtype, a in arrays]
    text = json.dumps({**header, "arrays": listing}, sort_keys=True,
                      separators=(",", ":")).encode()
    payload = b"".join([_U32.pack(len(text)), text, *(a.tobytes() for _, _, a in arrays)])
    tmp = Path(f"{path}.tmp")
    try:
        tmp.write_bytes(magic + _U32.pack(version) + payload + hashlib.sha256(payload).digest())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _listed(entry) -> bool:
    return (isinstance(entry, list) and len(entry) == 3 and isinstance(entry[0], str)
            and entry[1] in _DTYPES and isinstance(entry[2], list)
            and all(type(n) is int and n >= 0 for n in entry[2]))


def read(path, magic: bytes, version: int, error: type[Exception], kind: str):
    """The (header without its `arrays` key, {name: array}) stored at `path`.
    Raises `error`, naming `kind`, unless the magic, the version, the
    checksum and the array listing all hold and every array is finite."""
    blob = Path(path).read_bytes()
    if blob[: len(magic)] != magic:
        raise error(f"not a {kind} file")
    start = len(magic) + _U32.size
    if len(blob) < start + _U32.size + _DIGEST:
        raise error(f"{kind} is truncated")
    (found,) = _U32.unpack_from(blob, len(magic))
    if found != version:
        raise error(f"unsupported {kind} version {found}; this build reads version {version}")
    payload = blob[start:-_DIGEST]
    if hashlib.sha256(payload).digest() != blob[-_DIGEST:]:
        raise error(f"{kind} checksum mismatch")
    off = _U32.size + _U32.unpack_from(payload)[0]
    try:
        header = json.loads(payload[_U32.size: off])
    except ValueError as exc:
        raise error(f"{kind} header is not JSON: {exc}") from exc
    listing = header.pop("arrays", None) if isinstance(header, dict) else None
    if not isinstance(listing, list) or not all(_listed(e) for e in listing):
        raise error(f"{kind} header does not list its arrays")
    sizes = [math.prod(shape) * np.dtype(dtype).itemsize for _, dtype, shape in listing]
    bounds = list(itertools.accumulate(sizes, initial=off))
    if bounds[-1] != len(payload):
        raise error(f"{kind} size does not match its header")
    view = memoryview(payload)
    arrays = {name: np.frombuffer(view[lo:hi], dtype).reshape(shape).copy()
              for (name, dtype, shape), lo, hi in zip(listing, bounds, bounds[1:])}
    for name, arr in arrays.items():
        if not np.all(np.isfinite(arr)):
            raise error(f"{kind} array {name} is not finite")
    return header, arrays
