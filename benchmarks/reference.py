"""References the benchmark checks the program against.

Nothing here imports ``arraycode``: the encoder is written from the parity
definitions of each family, container columns are read straight from the
file at their documented offsets, and the bandwidth closed forms are the
paper's formulas recomputed. Geometry is 1-based as in the paper; row ``p``
of the evenodd tree and of RDP is the imaginary all-zero row.
"""

from __future__ import annotations

import struct
from fractions import Fraction
from typing import NamedTuple

import numpy as np

HEADER = struct.Struct("<5sBIIIQ")  # magic, family tag, p, r, block size, payload length
MAGIC = b"AERC1"
TAGS = {"evenodd": 1, "evenodd-ext": 2, "rdp": 3, "xcode": 4, "star": 5}


class Shape(NamedTuple):
    n: int          # columns (storage nodes)
    k: int          # columns' worth of data
    rows: int       # stored rows per column
    info_rows: int
    info_cols: int
    r: int          # value stored in the container header


def shape(family: str, p: int, r: int = 3) -> Shape:
    if family == "evenodd":
        return Shape(p + 2, p, p - 1, p - 1, p, 2)
    if family == "evenodd-ext":
        return Shape(p + r, p, p - 1, p - 1, p, r)
    if family == "star":
        return Shape(p + 3, p, p - 1, p - 1, p, 3)
    if family == "rdp":
        return Shape(p + 1, p - 1, p - 1, p - 1, p - 1, 2)
    if family == "xcode":
        return Shape(p, p - 2, p, p - 2, p, 2)
    raise ValueError(f"unknown family {family!r}")


def tree_slopes(family: str, r: int) -> tuple[int, ...]:
    return {"evenodd": (0, 1), "evenodd-ext": tuple(range(r)),
            "star": (0, 1, -1)}[family]


# ---------------------------------------------------------------------------
# encoder
# ---------------------------------------------------------------------------

def _info_columns(sh: Shape, block: int, payload: bytes) -> np.ndarray:
    """Payload laid out column-major: array[col-1, row-1] is one block."""
    cap = sh.info_rows * sh.info_cols * block
    flat = np.zeros(cap, dtype=np.uint8)
    flat[:len(payload)] = np.frombuffer(payload, dtype=np.uint8)
    return flat.reshape(sh.info_cols, sh.info_rows, block)


def _line_sums(z: np.ndarray, p: int, slope: int, indices) -> np.ndarray:
    """XOR of each slope-``slope`` line over the p columns of ``z``.

    ``z[j-1, rho-1]`` is cell (rho, j) with rows 1..p. The line of index i
    meets column j in row <i + slope*(1-j)>, where <x> wraps into 1..p.
    """
    i = np.asarray(indices)[:, None]
    j = np.arange(1, p + 1)[None, :]
    rows0 = (i + slope * (1 - j) - 1) % p
    return np.bitwise_xor.reduce(z[j - 1, rows0], axis=1)


def encode_columns(family: str, p: int, r: int, block: int,
                   payload: bytes) -> list[np.ndarray]:
    """Every column of the container body, each ``(rows, block)``."""
    sh = shape(family, p, r)
    data = _info_columns(sh, block, payload)
    if family == "xcode":
        # rows 1..p-2 hold data; the parity in row p-1 of column c XORs data
        # row r of column <c+r+1>, the one in row p that of column <c-r-1>
        c = np.arange(1, p + 1)[:, None]
        rr = np.arange(1, p - 1)[None, :]
        minus = np.bitwise_xor.reduce(data[(c + rr) % p, rr - 1], axis=1)
        plus = np.bitwise_xor.reduce(data[(c - rr - 2) % p, rr - 1], axis=1)
        return [np.concatenate([data[c - 1], minus[c - 1:c], plus[c - 1:c]])
                for c in range(1, p + 1)]
    z = np.zeros((p, p, block), dtype=np.uint8)
    if family == "rdp":
        # p-1 data columns, a row-parity column, and diagonal parity over
        # all p of them; the diagonal through (p, 1) stores no block
        z[:p - 1, :p - 1] = data
        z[p - 1, :p - 1] = np.bitwise_xor.reduce(data, axis=0)
        diag = _line_sums(z, p, 1, range(1, p))
        return [z[c, :p - 1] for c in range(p)] + [diag]
    # evenodd tree: parity of slope v at index i is the line XOR folded with
    # the slope's adjuster, the XOR of its index-0 line (zero for slope 0)
    z[:, :p - 1] = data
    cols = [z[c, :p - 1] for c in range(p)]
    for v in tree_slopes(family, r):
        lines = _line_sums(z, p, v, range(p))
        cols.append(lines[1:] ^ lines[0])
    return cols


# ---------------------------------------------------------------------------
# container file
# ---------------------------------------------------------------------------

def read_header(path) -> tuple:
    with open(path, "rb") as fh:
        return HEADER.unpack(fh.read(HEADER.size))


def read_column(path, col: int, rows: int, block: int) -> np.ndarray:
    """Column ``col`` (1-based) as stored: column-major after the header."""
    size = rows * block
    with open(path, "rb") as fh:
        fh.seek(HEADER.size + (col - 1) * size)
        raw = fh.read(size)
    if len(raw) != size:
        raise ValueError(f"column {col} of {path} is short: {len(raw)} of {size} bytes")
    return np.frombuffer(raw, dtype=np.uint8).reshape(rows, block)


def container_mismatch(path, family: str, p: int, r: int, block: int,
                       payload: bytes) -> str | None:
    """Why the container at ``path`` differs from the reference encoding of
    ``payload``, or None when header and every column match."""
    sh = shape(family, p, r)
    want = (MAGIC, TAGS[family], p, sh.r, block, len(payload))
    got = read_header(path)
    if got != want:
        return f"header {got} != {want}"
    for col, ref in enumerate(encode_columns(family, p, r, block, payload), 1):
        if not np.array_equal(read_column(path, col, sh.rows, block), ref):
            return f"column {col} differs from the reference encoder"
    return None


def files_equal(a, b, chunk: int = 1 << 20) -> bool:
    with open(a, "rb") as fa, open(b, "rb") as fb:
        while True:
            x, y = fa.read(chunk), fb.read(chunk)
            if x != y:
                return False
            if not x:
                return True


# ---------------------------------------------------------------------------
# bandwidth closed forms (blocks)
# ---------------------------------------------------------------------------

def evenodd_single(p: int) -> int:
    """EVENODD and STAR single data-column repair, exact."""
    return (3 * p * p - 4 * p + 9) // 4


def rdp_single(p: int) -> int:
    return 3 * (p - 1) ** 2 // 4


def xcode_single_bound(p: int) -> int:
    return (3 * p * p - 2 * p + 5) // 4


def naive(family: str, p: int, r: int = 3) -> int:
    sh = shape(family, p, r)
    return sh.k * sh.rows


def star_double_range(p: int) -> tuple[int, int]:
    """STAR two-data-column chain repair: all raw blocks of both columns'
    groups, 3(p-1)/2 parity blocks and three column sums, less the blocks the
    chain ships once instead of twice. Returns (with saving, without)."""
    if (p + 1) // 2 % 2 == 1:
        saving = (p - 1) ** 2 // 8
    else:
        saving = (p + 1) * (p - 3) // 8
    full = (p - 1) * (p - 2) + 3 * (p - 1) // 2 + 2
    return full - saving, full


def ext_single(p: int, r: int, col: int) -> int:
    """Exact blocks of the r-parity single repair of data column ``col``.

    Row m repairs through its slope-(m mod r) line; the plan ships the union
    of those lines' real cells outside ``col``, one parity block per line
    with a stored parity (index != 0) and the r column sums.
    """
    raw = set()
    stored = 0
    for m in range(1, p):
        v = m % r
        if (m + v * (col - 1)) % p:
            stored += 1
        for j in range(1, p + 1):
            row = (m + v * (col - j) - 1) % p + 1
            if j != col and row != p:
                raw.add((row, j))
    return len(raw) + stored + r


def single_repair(family: str, p: int, r: int, col: int) -> tuple[int, bool]:
    """(blocks, exact) for a planned single data-column repair."""
    if family in ("evenodd", "star"):
        return evenodd_single(p), True
    if family == "rdp":
        return rdp_single(p), True
    if family == "xcode":
        return xcode_single_bound(p), False
    return ext_single(p, r, col), True


def cutset(family: str, p: int, r: int, erased: int) -> Fraction:
    sh = shape(family, p, r)
    d = sh.n - erased
    return Fraction(sh.info_rows * sh.info_cols * d, sh.k * (d - sh.k + 1))
