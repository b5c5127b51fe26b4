"""Binary model checkpoints.

Layout, all little-endian:

    bytes 0..3    magic ``MTRF``
    bytes 4..7    format version, uint32
    bytes 8..15   header length in bytes, uint64
    header        UTF-8 JSON: {"config": {...}, "tensors": [directory]}
    payload       raw float32 tensor data, row-major, in directory order

The directory holds nothing the config does not fix, so :func:`_directory`
derives it for both sides: one ``{"name", "dtype", "shape", "offset"}`` entry
per parameter, packed back to back from the payload start. Save refuses
tensors that differ from it or hold non-finite values, so it writes no file
that load refuses; load checks the stored copy against it in one comparison,
and save -> load -> save round trips are byte-identical. Reads go
one tensor at a time, straight into a new array checked once for finiteness,
so no copy of the whole file is made. Writes hand each tensor's own memory to
the file through a temp file and an atomic rename (:func:`write_atomic`, which
every artifact writer shares).
"""

from __future__ import annotations

import json
import math
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


def _directory(config: ModelConfig) -> list[dict]:
    """The tensor directory ``config`` implies: every parameter in
    ``_layer_param_shapes`` order, float32, packed back to back."""
    directory, offset = [], 0
    for name, shape in _layer_param_shapes(config):
        directory.append({"name": name, "dtype": "f4", "shape": list(shape), "offset": offset})
        offset += 4 * math.prod(shape)
    return directory


def _sans_offsets(directory) -> str:
    """``directory`` as JSON text with its offsets blanked. Text, unlike ``==``,
    tells 16 from 16.0 and 0 from false."""
    if isinstance(directory, list):
        directory = [{**e, "offset": None} if isinstance(e, dict) else e for e in directory]
    return json.dumps(directory, sort_keys=True)


def save_checkpoint(model: Model, path: str) -> None:
    directory, params = _directory(model.config), model.params
    if params.keys() != {e["name"] for e in directory}:
        raise CheckpointError(
            "model tensors differ from its config's parameter set", field="tensors"
        )
    for e in directory:
        data = params[e["name"]].data
        if data.dtype != np.float32 or list(data.shape) != e["shape"]:
            raise CheckpointError(
                f"tensor {e['name']} is {data.dtype} {data.shape}; its config implies "
                f"float32 {tuple(e['shape'])}", field="tensors"
            )
        if not np.isfinite(data).all():
            raise CheckpointError(f"tensor {e['name']} contains non-finite values",
                                  field="tensors")
    header = json.dumps({"config": model.config.to_dict(), "tensors": directory}).encode("utf-8")
    write_atomic(
        path, MAGIC, struct.pack("<I", FORMAT_VERSION), struct.pack("<Q", len(header)),
        header,
        *(memoryview(np.ascontiguousarray(params[e["name"]].data, _DTYPE)) for e in directory),
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
        expected = _directory(config)
        # ``==`` passes 16.0 for 16 and false for 0, so the types are checked after it.
        if directory != expected or not all(
            type(n) is int for e in directory for n in (e["offset"], *e["shape"])
        ):
            offsets_only = _sans_offsets(directory) == _sans_offsets(expected)
            raise CheckpointError(
                "tensor directory differs from the one its config implies"
                + (" in its offsets" if offsets_only else ""),
                field="offsets" if offsets_only else "tensors",
            )
        want = sum(4 * math.prod(e["shape"]) for e in expected)
        if (got := size - 16 - header_len) != want:
            raise CheckpointError(f"payload holds {got} bytes, not {want}", field="payload")
        params = {}
        for e in expected:
            # Read straight into the array; a file that shrank since fstat reads short.
            if f.readinto(arr := np.empty(e["shape"], _DTYPE)) != arr.nbytes:
                raise CheckpointError(f"tensor {e['name']} is cut short", field="payload")
            if not np.isfinite(arr).all():
                raise CheckpointError(
                    f"tensor {e['name']} contains non-finite values", field="payload"
                )
            # Checked above, so wrap without Tensor()'s second finiteness pass.
            params[e["name"]] = tensor = Tensor._wrap(arr)
            tensor.requires_grad = True
    return Model(config, params)
