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
:func:`read_container` maps the file and the grid views the body in place;
a command reads only the cells it touches, from the page cache. The mapping
is private: a write into the grid never reaches the file. A container must
not be truncated while a command reads it (a mapped page past the end of
the file ends the process with SIGBUS).
Information blocks are filled column-major from the payload, zero-padded
up to ``k * rows * block_size``. :func:`encode_payload` reads the payload
straight into the encode buffer and :func:`extract_payload` writes it
straight from the grid's buffer, in one run, or one run per column for
X-code, whose parity rows sit under each column's information rows.

:func:`write_container` is the one writer of this format and
:func:`read_container` the one reader: a file is the only form a
container takes, and nothing else packs or parses a header. The writer
sends the header, then the whole body in one ``fh.write`` straight from
the grid's buffer, since a grid in memory has the body's layout.
"""

from __future__ import annotations

import mmap
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


def _info_runs(code: Code, cells: np.ndarray) -> list[np.ndarray]:
    """The information cells of ``(rows, n, block)`` cells in payload order,
    column 1 first: one run when they lie back to back, else one per column."""
    rows, cols = code.info_shape
    info = cells[:rows, :cols].transpose(1, 0, 2)
    return [info] if info.flags.c_contiguous else list(info)


def encode_payload(code: Code, fh, block_size: int) -> tuple[CodeGrid, int]:
    """Encode the payload in the binary file object ``fh``; returns the grid
    and the payload length. ``fh.readinto`` fills each information run of
    the encode buffer until the run is full or a read returns 0, so short
    reads (a raw or pipe reader) are fine; the rest is zero-padded. A byte
    left after the last run raises :class:`ContainerError`."""
    buf = _encode_buffer(code, block_size)
    length, at_end = 0, False
    for run in _info_runs(code, cell_view(code, buf)):
        view = memoryview(run).cast("B")  # the encode buffer's runs are contiguous
        got = 0
        while not at_end and got < len(view):
            n = fh.readinto(view[got:])
            got, at_end = got + n, n == 0
        if got < len(view):
            run.reshape(-1)[got:] = 0
        length += got
    if not at_end and fh.read(1):
        raise ContainerError(f"payload exceeds capacity {length} bytes")
    return _encode_in_place(code, buf), length


def extract_payload(grid: CodeGrid, payload_length: int, fh) -> None:
    """Write the first ``payload_length`` information bytes of ``grid`` to
    the binary file object ``fh``, one ``fh.write`` per information run,
    straight from the grid's buffer where the run is contiguous."""
    if payload_length > capacity(grid.code, grid.block_size):
        raise ContainerError("payload length exceeds container capacity")
    left = payload_length
    for run in _info_runs(grid.code, grid.cells):
        part = run.reshape(-1)[:left]
        fh.write(np.ascontiguousarray(part))
        left -= part.size


def write_container(path, grid: CodeGrid, payload_length: int) -> None:
    """Write ``grid`` to ``path``: the header, then the body in one
    ``fh.write``. Every grid the library builds is column-major in memory,
    so the body is a view of its buffer; any other grid is copied once."""
    code = grid.code
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, FAMILY_TAGS[code.family], code.p, code.r,
                              grid.block_size, payload_length))
        fh.write(np.ascontiguousarray(grid.cells.transpose(1, 0, 2)))


def read_container(path) -> tuple[CodeGrid, int]:
    """The grid and payload length of the container at ``path``; raises
    :class:`ContainerError` unless the header is valid and the body exactly
    as large as it implies. The body is not read: the grid views a private
    copy-on-write mapping of the file, so a command pages in only the cells
    it touches, and a write into the grid never reaches the file."""
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
        try:
            mapping = mmap.mmap(fh.fileno(), _HEADER.size + expected, access=mmap.ACCESS_COPY)
        except ValueError:  # the file shrank since the fstat
            raise ContainerError(f"body changed while reading: {expected} bytes "
                                 f"expected") from None
    buf = np.frombuffer(mapping, np.uint8, expected, _HEADER.size)
    buf = buf.reshape(code.rows * code.n, block_size)
    return CodeGrid(code, cell_view(code, buf)), payload_length
