"""On-disk container for encoded arrays.

Layout: a fixed 26-byte little-endian header followed by the grid body.

    magic           5 bytes  b"AERC1"
    family tag      u8       1=evenodd 2=evenodd-ext 3=rdp 4=xcode 5=star
    p               u32
    r               u32
    block_size      u32
    payload_length  u64      original file length in bytes

The body stores all n columns column-major, each column a contiguous run
of ``rows * block_size`` bytes, so byte ranges map one-to-one onto nodes.
Information blocks are filled column-major from the payload, zero-padded
up to ``k * rows * block_size``.
"""

from __future__ import annotations

import struct

import numpy as np

from .codes import Code, CodeGrid, encode
from .core import ParameterError

__all__ = [
    "MAGIC",
    "FAMILY_TAGS",
    "ContainerError",
    "pack_grid",
    "unpack_grid",
    "write_container",
    "read_container",
    "encode_payload",
    "extract_payload",
]

MAGIC = b"AERC1"
_HEADER = struct.Struct("<5sBIIIQ")

FAMILY_TAGS = {"evenodd": 1, "evenodd-ext": 2, "rdp": 3, "xcode": 4, "star": 5}
_TAG_FAMILIES = {v: k for k, v in FAMILY_TAGS.items()}


class ContainerError(ParameterError):
    pass


def capacity(code: Code, block_size: int) -> int:
    return code.total_info_blocks * block_size


def encode_payload(code: Code, payload: bytes, block_size: int) -> CodeGrid:
    cap = capacity(code, block_size)
    if len(payload) > cap:
        raise ContainerError(
            f"payload of {len(payload)} bytes exceeds capacity {cap}")
    rows, cols = code.info_shape
    flat = np.zeros(cap, dtype=np.uint8)
    flat[:len(payload)] = np.frombuffer(payload, dtype=np.uint8)
    # column-major fill: payload bytes run down column 1 first
    info = flat.reshape(cols, rows, block_size).transpose(1, 0, 2)
    return encode(code, info)


def extract_payload(grid: CodeGrid, payload_length: int) -> bytes:
    rows, cols = grid.code.info_shape
    info = grid.info()
    flat = info.transpose(1, 0, 2).reshape(-1)
    if payload_length > flat.size:
        raise ContainerError("payload length exceeds container capacity")
    return flat[:payload_length].tobytes()


def pack_grid(grid: CodeGrid, payload_length: int) -> bytes:
    code = grid.code
    header = _HEADER.pack(MAGIC, FAMILY_TAGS[code.family], code.p, code.r,
                          grid.block_size, payload_length)
    body = grid.cells.transpose(1, 0, 2).tobytes()
    return header + body


def unpack_grid(data: bytes) -> tuple[CodeGrid, int]:
    if len(data) < _HEADER.size:
        raise ContainerError("truncated header")
    magic, tag, p, r, block_size, payload_length = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise ContainerError(f"bad magic {magic!r}")
    if tag not in _TAG_FAMILIES:
        raise ContainerError(f"unknown family tag {tag}")
    code = Code.make(_TAG_FAMILIES[tag], p, r)
    expected = code.rows * code.n * block_size
    body = len(data) - _HEADER.size
    if body != expected:
        raise ContainerError(
            f"body holds {body} bytes, header implies {expected}")
    # read the body in place: slicing it off first would copy it once more
    cells = (np.frombuffer(data, dtype=np.uint8, offset=_HEADER.size)
             .reshape(code.n, code.rows, block_size)
             .transpose(1, 0, 2).copy())
    if payload_length > capacity(code, block_size):
        raise ContainerError("payload length exceeds container capacity")
    return CodeGrid(code, cells), payload_length


def write_container(path, grid: CodeGrid, payload_length: int) -> None:
    with open(path, "wb") as fh:
        fh.write(pack_grid(grid, payload_length))


def read_container(path) -> tuple[CodeGrid, int]:
    with open(path, "rb") as fh:
        return unpack_grid(fh.read())
