"""Cell geometry shared by all the array-code families.

An array codeword is a grid of fixed-size blocks. Rows and columns are
1-based. Row ``p`` is an imaginary all-zero row: it is addressable, so line
arithmetic can land on it, but it is never stored. A parity line of slope
``v`` through index ``i`` visits, in column ``j``, the row ``<i + v*(1-j)>``
where ``<x>`` wraps into ``1..p``.
"""

from __future__ import annotations

from functools import partial
from itertools import repeat
from typing import Iterable, NamedTuple

import numpy as np

__all__ = [
    "ArraycodeError",
    "ParameterError",
    "UnrecoverableError",
    "CorruptionError",
    "PlanError",
    "OracleMismatch",
    "Coord",
    "ParityGroupId",
    "is_prime",
    "mod_index",
    "coord_table",
    "parity_group_members",
    "xor_blocks",
]


class ArraycodeError(Exception):
    """Base class for errors raised by this package."""


class ParameterError(ArraycodeError, ValueError):
    """Invalid code parameters (non-prime p, bad column, bad slope...)."""


class UnrecoverableError(ArraycodeError):
    """The erasure pattern exceeds what the code can repair."""


class CorruptionError(ArraycodeError):
    """Surviving blocks are mutually inconsistent."""


class PlanError(ArraycodeError):
    """A repair plan could not be built or executed."""


class OracleMismatch(ArraycodeError):
    """A closed-form value disagrees with its brute-force oracle."""


class Coord(NamedTuple):
    """1-based (row, col) grid position; row p is the imaginary row."""

    row: int
    col: int


class ParityGroupId(NamedTuple):
    """The label of one parity check: its slope and index.

    In the evenodd tree and RDP, ``index`` in 1..p-1 names the stored parity
    block ``b[index, slope]`` the check lists first (RDP's row checks are
    slope 0, its diagonal checks slope 1). Index 0 labels an evenodd-tree
    adjuster line, the line through the imaginary cell of column 1: it has
    no stored parity block, its parity-side value being the slope's
    adjuster. In X-code ``index`` is the column, 1..p, whose parity row of
    that slope the check lists first.
    """

    slope: int
    index: int


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def mod_index(x: int, p: int) -> int:
    """Wrap an arbitrary integer into the index range 1..p."""
    return (x - 1) % p + 1


_coords: tuple[tuple[Coord, ...], ...] = ()


def coord_table(p: int) -> tuple[tuple[Coord, ...], ...]:
    """``coord_table(p)[row][col]`` is ``Coord(row, col)``, for rows 0..p and
    columns 0..p+5 at least, which covers every code over ``p`` (row 0 names
    the virtual cells of the decoder).

    One table serves every p: it is rebuilt only for a p larger than any
    before, so it holds about p^2 cells of the largest p in use, and the
    checks of every code share one object per cell.
    """
    global _coords
    if len(_coords) <= p:
        new = partial(tuple.__new__, Coord)  # Coord(r, c) without its Python-level __new__
        _coords = tuple(tuple(map(new, zip(repeat(r), range(p + 6)))) for r in range(p + 1))
    return _coords


def _check_group(p: int, g: ParityGroupId) -> None:
    if not is_prime(p) or p < 3:
        raise ParameterError(f"p must be an odd prime, got {p}")
    if not -p < g.slope < p:
        raise ParameterError(f"slope {g.slope} out of range for p={p}")
    if not 0 <= g.index <= p - 1:
        raise ParameterError(f"group index {g.index} out of range for p={p}")


def parity_group_members(p: int, g: ParityGroupId) -> list[Coord]:
    """Information-cell coordinates of the parity line ``g``, column order.

    Column ``j`` contributes the cell in row ``<index + slope*(1-j)>``.
    Exactly one member per column; for a non-zero slope exactly one of them
    lies in the imaginary row.
    """
    _check_group(p, g)
    v, i = g.slope, g.index
    cell = coord_table(p)
    return [cell[(i + v * (1 - j) - 1) % p + 1][j] for j in range(1, p + 1)]


def xor_blocks(blocks: Iterable[np.ndarray]) -> np.ndarray:
    """XOR-fold equal-length byte blocks. Raises on an empty iterable."""
    it = iter(blocks)
    try:
        first = next(it)
    except StopIteration:
        raise ValueError("xor_blocks needs at least one block") from None
    out = np.array(first, dtype=np.uint8, copy=True)
    for b in it:
        arr = np.asarray(b, dtype=np.uint8)
        if arr.shape != out.shape:
            raise ValueError(f"block shape mismatch: {arr.shape} vs {out.shape}")
        out ^= arr
    return out
