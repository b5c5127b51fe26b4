"""Binary model checkpoints.

Layout, all little-endian:

    bytes 0..3    magic ``MTRF``
    bytes 4..7    format version, uint32
    bytes 8..15   header length in bytes, uint64
    header        UTF-8 JSON: {"config": {...}, "tensors": [directory]}
    payload       raw float32 tensor data, row-major, in directory order

Each directory entry is ``{"name", "dtype", "shape", "offset"}`` with the
offset relative to the payload start. Offsets must be non-overlapping and
in-bounds; save -> load -> save round trips are byte-identical. Writes go
through a temp file and an atomic rename (:func:`write_atomic`, which every
artifact writer shares).
"""

from __future__ import annotations

import json
import os
import struct

import numpy as np

from .autodiff import Tensor
from .errors import CheckpointError, ConfigError
from .model import Model, ModelConfig, _layer_param_shapes

MAGIC = b"MTRF"
FORMAT_VERSION = 1
_DTYPE = "<f4"


def write_atomic(path: str, *chunks: bytes) -> None:
    """Write ``chunks`` to ``path`` through a temp file next to it and an
    atomic rename. Callers serialize before calling, so a failure at any
    point leaves the previous file as it was and removes the temp file."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as f:
            f.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def save_checkpoint(model: Model, path: str) -> None:
    directory = []
    blobs = []
    offset = 0
    for name, tensor in model.params.items():
        if tensor.data.dtype != np.float32:
            raise CheckpointError(
                f"tensor {name} is {tensor.data.dtype}; checkpoints store float32 "
                f"only, so convert the model first", field="tensors"
            )
        blob = np.ascontiguousarray(tensor.data, dtype=_DTYPE).tobytes()
        directory.append(
            {
                "name": name,
                "dtype": "f4",
                "shape": list(tensor.data.shape),
                "offset": offset,
            }
        )
        blobs.append(blob)
        offset += len(blob)
    header = json.dumps(
        {"config": model.config.to_dict(), "tensors": directory}
    ).encode("utf-8")
    write_atomic(
        path, MAGIC, struct.pack("<I", FORMAT_VERSION), struct.pack("<Q", len(header)),
        header, *blobs,
    )


def load_checkpoint(path: str) -> Model:
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < 16:
        raise CheckpointError("file too short for a checkpoint header", field="header")
    if raw[:4] != MAGIC:
        raise CheckpointError(
            f"bad magic bytes {raw[:4]!r}, expected {MAGIC!r}", field="magic"
        )
    (version,) = struct.unpack("<I", raw[4:8])
    if version != FORMAT_VERSION:
        raise CheckpointError(
            f"unsupported format version {version}, expected {FORMAT_VERSION}",
            field="version",
        )
    (header_len,) = struct.unpack("<Q", raw[8:16])
    if 16 + header_len > len(raw):
        raise CheckpointError("header length exceeds file size", field="header_length")
    try:
        header = json.loads(raw[16 : 16 + header_len].decode("utf-8"))
        config = ModelConfig.from_dict(header["config"])
        directory = header["tensors"]
    except (ValueError, KeyError, TypeError, ConfigError) as e:
        raise CheckpointError(f"unparseable header: {e}", field="header") from e
    payload = raw[16 + header_len :]

    expected = dict(_layer_param_shapes(config))
    if [e["name"] for e in directory] != list(expected):
        raise CheckpointError(
            "tensor directory does not match the config's parameter set",
            field="tensors",
        )
    params = {}
    prev_end = 0
    for entry in directory:
        shape = tuple(entry["shape"])
        if shape != expected[entry["name"]]:
            raise CheckpointError(
                f"tensor {entry['name']} has shape {shape}, "
                f"expected {expected[entry['name']]}",
                field="tensors",
            )
        if entry["dtype"] != "f4":
            raise CheckpointError(
                f"tensor {entry['name']} has dtype {entry['dtype']}", field="tensors"
            )
        nbytes = int(np.prod(shape)) * 4
        if entry["offset"] != prev_end:
            raise CheckpointError(
                f"tensor {entry['name']} offset {entry['offset']} overlaps or "
                f"leaves a gap (expected {prev_end})",
                field="offsets",
            )
        end = entry["offset"] + nbytes
        if end > len(payload):
            raise CheckpointError(
                f"tensor {entry['name']} extends past end of payload",
                field="payload",
            )
        arr = np.frombuffer(
            payload[entry["offset"] : end], dtype=_DTYPE
        ).reshape(shape)
        if not np.all(np.isfinite(arr)):
            raise CheckpointError(
                f"tensor {entry['name']} contains non-finite values", field="payload"
            )
        params[entry["name"]] = Tensor(arr.copy(), requires_grad=True)
        prev_end = end
    if prev_end != len(payload):
        raise CheckpointError("payload has trailing bytes", field="payload")
    return Model(config, params)
