"""On-disk container for encoded arrays.

Layout: a fixed 26-byte little-endian header followed by the grid body.

    magic           5 bytes  b"AERC1"
    family tag      u8       FAMILY_TAGS: 1=evenodd 2=evenodd-ext 3=rdp
                             4=xcode 5=star (``FamilySpec.tag``)
    p               u32
    r               u32      the family's r; only evenodd-ext has a choice
    block_size      u32
    payload_length  u64      original file length in bytes

The body stores all n columns column-major, each column a contiguous run
of ``rows * block_size`` bytes, so byte ranges map one-to-one onto nodes.
Grids in memory use the same layout (:func:`codes.cell_view`), so
:func:`read_container` reads the body straight into the grid's buffer.
Information blocks are filled column-major from the payload, zero-padded
up to ``k * rows * block_size``.
"""

from __future__ import annotations

import os
import struct

import numpy as np

from .codes import FAMILIES, Code, CodeGrid, cell_view, encode
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

FAMILY_TAGS = {name: spec.tag for name, spec in FAMILIES.items()}
_TAG_FAMILIES = {tag: name for name, tag in FAMILY_TAGS.items()}


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


def _pack_header(grid: CodeGrid, payload_length: int) -> bytes:
    code = grid.code
    return _HEADER.pack(MAGIC, FAMILY_TAGS[code.family], code.p, code.r,
                        grid.block_size, payload_length)


def pack_grid(grid: CodeGrid, payload_length: int) -> bytes:
    return _pack_header(grid, payload_length) + grid.cells.transpose(1, 0, 2).tobytes()


def _parse_header(header: bytes, size: int) -> tuple[Code, int, int]:
    """Code, block size and payload length of a container of ``size`` bytes
    whose first bytes are ``header``; raises :class:`ContainerError` unless
    the body is exactly as large as the header implies."""
    if len(header) < _HEADER.size:
        raise ContainerError("truncated header")
    magic, tag, p, r, block_size, payload_length = _HEADER.unpack_from(header)
    if magic != MAGIC:
        raise ContainerError(f"bad magic {magic!r}")
    if tag not in _TAG_FAMILIES:
        raise ContainerError(f"unknown family tag {tag}")
    try:  # the constructor, unlike Code.make, refuses an r the family does not have
        code = Code(_TAG_FAMILIES[tag], p, r)
    except ParameterError as exc:
        raise ContainerError(f"bad code parameters: {exc}") from None
    expected = code.rows * code.n * block_size
    body = size - _HEADER.size
    if body != expected:
        raise ContainerError(
            f"body holds {body} bytes, header implies {expected}")
    if payload_length > capacity(code, block_size):
        raise ContainerError("payload length exceeds container capacity")
    return code, block_size, payload_length


def unpack_grid(data: bytes) -> tuple[CodeGrid, int]:
    code, block_size, payload_length = _parse_header(data, len(data))
    buf = (np.frombuffer(data, dtype=np.uint8, offset=_HEADER.size)
           .reshape(code.rows * code.n, block_size).copy())
    return CodeGrid(code, cell_view(code, buf)), payload_length


def write_container(path, grid: CodeGrid, payload_length: int) -> None:
    # header, then one column at a time: no copy of the whole body is built
    with open(path, "wb") as fh:
        fh.write(_pack_header(grid, payload_length))
        for col in range(1, grid.code.n + 1):
            fh.write(np.ascontiguousarray(grid.column(col)))


def read_container(path) -> tuple[CodeGrid, int]:
    # the body is read once, into the buffer the grid views
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        code, block_size, payload_length = _parse_header(fh.read(_HEADER.size), size)
        buf = np.empty((code.rows * code.n, block_size), dtype=np.uint8)
        got = fh.readinto(buf)
        if got != buf.nbytes or fh.read(1):
            raise ContainerError(f"body changed while reading: {got} bytes read, "
                                 f"{buf.nbytes} expected")
    return CodeGrid(code, cell_view(code, buf)), payload_length
