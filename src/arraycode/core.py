"""Cell geometry shared by all the array-code families.

An array codeword is a grid of fixed-size blocks. Rows and columns are
1-based. Row ``p`` is an imaginary all-zero row: it is addressable, so line
arithmetic can land on it, but it is never stored. A parity line of slope
``v`` through index ``i`` visits, in column ``j``, the row ``<i + v*(1-j)>``
where ``<x>`` wraps into ``1..p``.

The codes build lines from this formula as arrays, and the counting oracles
in ``analysis`` mark them on a boolean grid, never from a closed form or
``common_block_count``'s residue table.
"""

from __future__ import annotations

from typing import NamedTuple

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
