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

:func:`write_container` is the one writer of this format and
:func:`read_container` the one reader: a file is the only form a
container takes, and nothing else packs or parses a header.
"""

from __future__ import annotations

import os
import struct

import numpy as np

from .codes import FAMILIES, Code, CodeGrid, _encode_buffer, _encode_in_place, cell_view
from .core import ParameterError

__all__ = [
    "MAGIC",
    "FAMILY_TAGS",
    "ContainerError",
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
    buf = _encode_buffer(code, block_size)
    # column-major fill: payload bytes run down column 1 first. A column's
    # information cells are one run of the buffer; runs are back to back
    # unless parity rows sit below the information rows (X-code).
    width = rows * block_size
    info = buf[:code.rows * cols].reshape(cols, -1)[:, :width]
    data = np.frombuffer(payload, dtype=np.uint8)
    full, part = divmod(data.size, width)
    info[:full] = data[:full * width].reshape(full, width)
    if full < cols:  # zero-pad the last payload column and the columns after it
        info[full, :part] = data[full * width:]
        info[full, part:] = 0
        info[full + 1:] = 0
    return _encode_in_place(code, buf)


def extract_payload(grid: CodeGrid, payload_length: int) -> bytes:
    flat = grid.info().transpose(1, 0, 2).reshape(-1)
    if payload_length > flat.size:
        raise ContainerError("payload length exceeds container capacity")
    return flat[:payload_length].tobytes()


def write_container(path, grid: CodeGrid, payload_length: int) -> None:
    # header, then one column at a time: no copy of the whole body is built
    code = grid.code
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, FAMILY_TAGS[code.family], code.p, code.r,
                              grid.block_size, payload_length))
        for col in range(1, code.n + 1):
            fh.write(np.ascontiguousarray(grid.column(col)))


def read_container(path) -> tuple[CodeGrid, int]:
    """The grid and payload length of the container at ``path``; raises
    :class:`ContainerError` unless the header is valid and the body exactly
    as large as it implies. The body is read once, into the buffer the grid
    views."""
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise ContainerError("truncated header")
        magic, tag, p, r, block_size, payload_length = _HEADER.unpack(header)
        if magic != MAGIC:
            raise ContainerError(f"bad magic {magic!r}")
        if tag not in _TAG_FAMILIES:
            raise ContainerError(f"unknown family tag {tag}")
        try:  # the constructor, unlike Code.make, refuses an r the family does not have
            code = Code(_TAG_FAMILIES[tag], p, r)
        except ParameterError as exc:
            raise ContainerError(f"bad code parameters: {exc}") from None
        expected = code.rows * code.n * block_size
        body = os.fstat(fh.fileno()).st_size - _HEADER.size
        if body != expected:
            raise ContainerError(
                f"body holds {body} bytes, header implies {expected}")
        if payload_length > capacity(code, block_size):
            raise ContainerError("payload length exceeds container capacity")
        buf = np.empty((code.rows * code.n, block_size), dtype=np.uint8)
        got = fh.readinto(buf)
        if got != buf.nbytes or fh.read(1):
            raise ContainerError(f"body changed while reading: {got} bytes read, "
                                 f"{buf.nbytes} expected")
    return CodeGrid(code, cell_view(code, buf)), payload_length
