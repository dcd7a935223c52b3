"""The one on-disk container of every artifact: checkpoints and feature dumps.

A file is a 4-byte magic, the ``<2I`` version and header length, a UTF-8 JSON
object header, then float32 little-endian tensors. The header's ``"tensors"``
list gives each tensor's name, shape and byte offset after the header; its
other keys are metadata that the caller checks. ``read`` reads each tensor
from the file straight into its own array, with no staging copy of the file;
a checkpoint's model keeps these arrays as its weights.
"""

from __future__ import annotations

import json
import math
import os
import struct

import numpy as np

from .errors import FormatError


def is_count(value) -> bool:
    """A JSON value that is a non-negative integer (``true`` is not one)."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def write(path, magic: bytes, version: int, meta: dict, tensors: dict) -> None:
    """Write ``meta`` and the named arrays of ``tensors``, in order, as float32."""
    directory = []
    offset = 0
    for name, arr in tensors.items():
        directory.append({"name": name, "shape": list(arr.shape), "offset": offset})
        offset += arr.size * 4
    header = json.dumps(dict(meta, tensors=directory)).encode("utf-8")
    with open(path, "wb") as f:
        f.write(magic + struct.pack("<2I", version, len(header)) + header)
        for arr in tensors.values():
            np.asarray(arr, "<f4").tofile(f)


def read(path, magic: bytes, version: int, what: str) -> tuple[dict, dict]:
    """(metadata, name -> float32 array) of a file ``write`` made with this
    ``magic`` and ``version``; FormatError naming ``what`` for anything else,
    a NaN or infinite value included."""
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        lead = f.read(12)
        if lead[:4] != magic:
            raise FormatError(f"not a {what} (bad magic)")
        if len(lead) < 12:
            raise FormatError(f"{what} truncated")
        found, header_len = struct.unpack_from("<2I", lead, 4)
        if found != version:
            raise FormatError(f"unsupported {what} version {found}")
        body = 12 + header_len
        if size < body:
            raise FormatError(f"{what} truncated inside header")
        try:
            meta = json.loads(f.read(header_len).decode("utf-8"))
        except ValueError as exc:  # bad UTF-8 and bad JSON are both ValueErrors
            raise FormatError(f"corrupt {what} header: {exc}") from exc
        if not isinstance(meta, dict):
            raise FormatError(f"{what} header is not a JSON object")
        directory = meta.pop("tensors", None)
        if not isinstance(directory, list):
            raise FormatError(f"{what} header has a missing or bad 'tensors': {directory!r}")
        tensors = {}
        for entry in directory:
            if not (
                isinstance(entry, dict)
                and isinstance(entry.get("name"), str)
                and isinstance(entry.get("shape"), list)
                and all(is_count(n) for n in entry["shape"])
                and is_count(entry.get("offset"))
            ):
                raise FormatError(f"bad {what} tensor entry {entry!r}")
            name, shape = entry["name"], entry["shape"]
            count = math.prod(shape)
            start = body + entry["offset"]
            if start + 4 * count > size:
                raise FormatError(f"{what} truncated: tensor {name} out of range")
            f.seek(start)
            try:
                arr = np.fromfile(f, "<f4", count).reshape(shape)
            except ValueError as exc:  # an empty shape too large for numpy, like [0, 10**20]
                raise FormatError(f"bad {what} tensor shape {shape}: {exc}") from exc
            if not np.isfinite(arr).all():
                raise FormatError(f"{what} tensor {name} holds a NaN or an infinity")
            tensors[name] = arr
    return meta, tensors
