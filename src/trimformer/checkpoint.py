"""Binary model checkpoints.

Layout, all little-endian:

    bytes 0..3    magic ``MTRF``
    bytes 4..7    format version, uint32
    bytes 8..15   header length in bytes, uint64
    header        UTF-8 JSON: {"config": {...}, "tensors": [directory]}
    payload       raw float32 tensor data, row-major, in directory order

Each directory entry is ``{"name", "dtype", "shape", "offset"}`` with the
offset relative to the payload start. Offsets must be non-overlapping and
in-bounds; save -> load -> save round trips are byte-identical. Reads go one
tensor at a time: each is read straight into its own new array and checked
once for finiteness, so no copy of the whole file or payload is made. Writes
hand each tensor's own memory to the file, and go through a temp file and an
atomic rename (:func:`write_atomic`, which every artifact writer shares).
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


def write_atomic(path: str, *chunks) -> None:
    """Write ``chunks``, each bytes-like (``bytes`` or a C-contiguous
    ``memoryview``), to ``path`` through a temp file next to it and an
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
    buffers = []
    offset = 0
    for name, tensor in model.params.items():
        if tensor.data.dtype != np.float32:
            raise CheckpointError(
                f"tensor {name} is {tensor.data.dtype}; checkpoints store float32 "
                f"only, so convert the model first", field="tensors"
            )
        arr = np.ascontiguousarray(tensor.data, dtype=_DTYPE)
        directory.append(
            {
                "name": name,
                "dtype": "f4",
                "shape": list(tensor.data.shape),
                "offset": offset,
            }
        )
        buffers.append(memoryview(arr))
        offset += arr.nbytes
    header = json.dumps(
        {"config": model.config.to_dict(), "tensors": directory}
    ).encode("utf-8")
    write_atomic(
        path, MAGIC, struct.pack("<I", FORMAT_VERSION), struct.pack("<Q", len(header)),
        header, *buffers,
    )


def load_checkpoint(path: str) -> Model:
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        prefix = f.read(16)
        if len(prefix) < 16:
            raise CheckpointError("file too short for a checkpoint header", field="header")
        if prefix[:4] != MAGIC:
            raise CheckpointError(
                f"bad magic bytes {prefix[:4]!r}, expected {MAGIC!r}", field="magic"
            )
        (version,) = struct.unpack("<I", prefix[4:8])
        if version != FORMAT_VERSION:
            raise CheckpointError(
                f"unsupported format version {version}, expected {FORMAT_VERSION}",
                field="version",
            )
        (header_len,) = struct.unpack("<Q", prefix[8:16])
        if 16 + header_len > size:
            raise CheckpointError("header length exceeds file size", field="header_length")
        try:
            header = json.loads(f.read(header_len).decode("utf-8"))
            config = ModelConfig.from_dict(header["config"])
            directory = header["tensors"]
        except (ValueError, KeyError, TypeError, ConfigError) as e:
            raise CheckpointError(f"unparseable header: {e}", field="header") from e
        payload_len = size - 16 - header_len
        if not isinstance(directory, list) or not all(
            isinstance(e, dict) and all(k in e for k in ("name", "dtype", "shape", "offset"))
            and isinstance(e["shape"], list) and all(isinstance(n, int) for n in e["shape"])
            and isinstance(e["offset"], int)
            for e in directory
        ):
            raise CheckpointError(
                "tensor directory must be a list of {name, dtype, shape, offset} "
                "entries with integer shapes and offsets",
                field="tensors",
            )

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
            # The length check comes first, so no array is made for a short file.
            if end > payload_len or f.readinto(arr := np.empty(shape, _DTYPE)) != nbytes:
                raise CheckpointError(
                    f"tensor {entry['name']} extends past end of payload",
                    field="payload",
                )
            if not np.isfinite(arr).all():
                raise CheckpointError(
                    f"tensor {entry['name']} contains non-finite values", field="payload"
                )
            # Checked above, so wrap without Tensor()'s second finiteness pass.
            params[entry["name"]] = tensor = Tensor._wrap(arr)
            tensor.requires_grad = True
            prev_end = end
        if prev_end != payload_len:
            raise CheckpointError("payload has trailing bytes", field="payload")
    return Model(config, params)
